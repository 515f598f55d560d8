"""Command-line front end.

Subcommands: analyze (foliation spec -> moduli report), cohomology
(group-graph -> H0/H1), selfcheck (seeded verifier suites).

Exit codes: 0 success, 1 I/O or parse error, 2 validation failure,
3 hypothesis-violated cross-check, 4 budget exceeded, 5 verifier failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys

from . import _jsontext, foliation
from .cohomology import (
    DEFAULT_ENUM_BUDGET,
    CohomologyResult,
    h0,
    h0_finite_count,
    h1_auto,
    h1_finite_bruteforce,
    h1_finite_count,
    h1_vector,
)
from .foliation import FoliationError, FoliationSpec
from .generators import (
    random_direct_image_pair,
    random_exact_sequence,
    random_foliation_spec,
    random_injected_spec,
    random_nonrepulsive_instance,
    random_regular_finite,
    random_regular_vector,
    random_repulsive_instance,
    random_tree,
    random_vector_group_graph,
)
from .graph import Graph
from .group_graph import BudgetExceeded, GroupGraph
from .theorems import (
    HypothesisViolated,
    VerificationError,
    direct_image_verify,
    pruning_verify,
    quotient_iso_verify,
    regular_h1,
    tensor_h1_verify,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VALIDATION = 2
EXIT_HYPOTHESIS = 3
EXIT_BUDGET = 4
EXIT_VERIFIER = 5


class _OutputError(Exception):
    """--output could not be written; `main` reports it and exits 1."""


def _emit(text: str, output: str | None):
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _OutputError(exc) from exc
    else:
        sys.stdout.write(text)


def _dump(data) -> str:
    return _jsontext.dumps(data)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} is out of range")
    return value


def _non_number(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _load(path: str):
    """The JSON document at path; NaN, Infinity and numbers too large for a
    float raise ValueError, so no report can carry them (RFC 8259 JSON has
    no non-finite numbers)."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_non_number, parse_float=_finite_float)


# ---------------------------------------------------------------------------
# analyze


def run_analyze(args) -> int:
    try:
        spec = FoliationSpec.from_json(_load(args.input))
    except (OSError, ValueError, RecursionError) as exc:  # RecursionError: deep JSON nesting
        if isinstance(exc, FoliationError):
            sys.stderr.write(f"parse error: {exc}\n")
        else:
            sys.stderr.write(f"cannot read spec: {exc}\n")
        return EXIT_ERROR
    try:
        report = foliation.moduli_dimension(spec)  # validates the spec
    except FoliationError as exc:
        _emit(_dump({"violations": exc.violations}), args.output)
        return EXIT_VALIDATION
    except VerificationError as exc:  # the library's own pipelines disagree
        sys.stderr.write(f"verifier failure: {exc}\n")
        return EXIT_VERIFIER
    if args.summary:
        lines = [
            f"finite_type: {report.finite_type}",
            f"moduli_dim: {report.moduli_dim}",
            f"basis_edges: {', '.join(report.basis_edges) or '-'}",
            f"cut_components: {len(report.cut_components)}",
            f"characterization: {report.characterization['status']}",
        ]
        _emit("\n".join(lines) + "\n", args.output)
    else:
        _emit(report.dumps(), args.output)
    if report.characterization["status"] == "hypothesis-violated":
        return EXIT_HYPOTHESIS
    return EXIT_OK


# ---------------------------------------------------------------------------
# cohomology


def run_cohomology(args) -> int:
    try:
        gg = GroupGraph.from_json(_load(args.input))
    except BudgetExceeded as exc:
        sys.stderr.write(f"budget exceeded: {exc} {exc.sizes}\n")
        return EXIT_BUDGET
    except (OSError, ValueError, RecursionError) as exc:  # RecursionError: deep JSON nesting
        sys.stderr.write(f"cannot read group-graph: {exc}\n")
        return EXIT_ERROR
    mode = args.mode
    if mode == "vector" and gg.carrier != "vector":
        sys.stderr.write("mode 'vector' needs the vector carrier\n")
        return EXIT_ERROR
    if mode in ("bruteforce", "count") and gg.carrier != "finite":
        sys.stderr.write(f"mode {mode!r} needs the finite carrier\n")
        return EXIT_ERROR
    try:
        if mode == "count":  # sum-product counts: neither side is enumerated
            order = h0_finite_count(gg, args.budget)
            count = h1_finite_count(gg, args.budget)
            out = {
                "h0": CohomologyResult("h0", "finite", order=order).to_json(),
                "h1": CohomologyResult("h1", "finite", count=count).to_json(),
            }
        else:
            out = {"h0": h0(gg, args.budget).to_json()}
        if mode == "auto":
            out["h1"] = h1_auto(gg, args.budget).to_json()
        elif mode == "vector":
            out["h1"] = h1_vector(gg, args.budget).to_json()
        elif mode == "bruteforce":
            out["h1"] = h1_finite_bruteforce(gg, args.budget).to_json()
        elif mode == "regular":
            st, res = regular_h1(gg, budget=args.budget)
            out["h1"] = res.to_json()
            out["active"] = st.to_json()
    except BudgetExceeded as exc:
        sys.stderr.write(f"budget exceeded: {exc} {exc.sizes}\n")
        return EXIT_BUDGET
    except ValueError as exc:  # not a tree / not regular for the regular mode
        sys.stderr.write(f"cannot run mode {mode!r}: {exc}\n")
        return EXIT_ERROR
    except VerificationError as exc:  # the library's own pipelines disagree
        sys.stderr.write(f"verifier failure: {exc}\n")
        return EXIT_VERIFIER
    _emit(_dump(out), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# selfcheck


def _rng(seed: int, family: str, index: int) -> random.Random:
    return random.Random(f"{seed}:{family}:{index}")


def _check_regular_vector(rng, budget):
    regular_h1(random_regular_vector(rng, max_vertices=8), budget)  # raises on a disagreement
    return True


def _check_regular_finite(rng, budget):
    regular_h1(random_regular_finite(rng, max_vertices=5, max_order=8), budget)
    return True


def _check_pruning(rng, budget):
    carrier = "vector" if rng.random() < 0.5 else "finite"
    g, r = random_repulsive_instance(rng, carrier, max_vertices=5)
    ok, _ = pruning_verify(g, r, budget)
    return ok


def _check_pruning_negative(rng, budget):
    g, r = random_nonrepulsive_instance(rng, max_vertices=5)
    try:
        pruning_verify(g, r, budget)
    except HypothesisViolated:
        return True
    return False


def _check_quotient(rng, budget):
    g, k = random_exact_sequence(rng, max_vertices=3, good=True)
    return quotient_iso_verify(g, k, budget)["ok"]


def _check_quotient_negative(rng, budget):
    g, k = random_exact_sequence(rng, max_vertices=3, good=False)
    try:
        quotient_iso_verify(g, k, budget)
    except HypothesisViolated as exc:
        return bool(exc.violations)
    return False


def _check_direct_image(rng, budget):
    phi, g = random_direct_image_pair(rng, max_vertices=5)
    return direct_image_verify(phi, g, budget)["ok"]


def _check_tensor(rng, budget):
    t = random_vector_group_graph(rng, random_tree(rng, rng.randint(2, 6)))
    return tensor_h1_verify(t, rng.choice([0, 1, 2, 3]), budget)


def _check_moduli_triple(rng, budget):
    spec = FoliationSpec.from_json(random_foliation_spec(rng))
    try:
        report = foliation.moduli_dimension(spec)  # raises if the pipelines disagree
    except FoliationError:  # an invalid spec
        return False
    return report.finite_type == "finite" and isinstance(report.moduli_dim, int)


def _check_characterization(rng, budget):
    if rng.random() < 0.5:
        spec = FoliationSpec.from_json(random_foliation_spec(rng, require_red=True))
        expected = "finite"
    else:
        spec = FoliationSpec.from_json(random_injected_spec(rng, rng.randint(1, 4)))
        expected = "not-finite"
    try:
        ctx = foliation.analyze(spec)
    except FoliationError:  # an invalid spec
        return False
    verdict, reports = ctx.finite_type
    if verdict != expected:
        return False
    if verdict == "not-finite":
        typed = [
            w
            for entry in reports
            for w in entry["witnesses"]
            if w.get("type") in (1, 2, 3, 4)
        ]
        if not typed:
            return False
    return ctx.characterization["consistent"] is True  # None: an entirely green component


def _z4_square():
    """Z4 on every star of a square, each restriction x -> 3x, and the
    sub-group-graph 2Z4 on every star."""
    from .group_graph import GroupHom, SubGroupGraph, cyclic_group

    square = Graph.make(
        ["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")]
    )
    grp = cyclic_group(4)
    vobj = {v: grp for v in square.vertices}
    eobj = {e: grp for e in square.edges}
    restrictions = {
        (v, e): GroupHom(grp, grp, tuple((3 * x) % 4 for x in range(4)), validate=False)
        for v, e in square.incidences()
    }
    g = GroupGraph(square, "finite", vobj, eobj, restrictions)
    return g, SubGroupGraph(g, {s: frozenset({0, 2}) for s in g.stars()})


def _informational_quotient_cycle(budget) -> dict:
    """The quotient bijection checked over a non-tree, reported but never
    asserted (the hypothesis needs a tree)."""
    report = quotient_iso_verify(*_z4_square(), budget, require_tree=False)
    return {"bijective_on_cycle": report["bijective"]}


FAMILIES = [
    ("regular_vector", _check_regular_vector, False),
    ("regular_finite", _check_regular_finite, False),
    ("pruning", _check_pruning, False),
    ("pruning_negative", _check_pruning_negative, True),
    ("quotient", _check_quotient, False),
    ("quotient_negative", _check_quotient_negative, True),
    ("direct_image", _check_direct_image, False),
    ("tensor", _check_tensor, False),
    ("moduli_triple", _check_moduli_triple, False),
    ("characterization", _check_characterization, False),
]


def run_selfcheck(args) -> int:
    seed, count, budget = args.seed, args.count, args.budget
    report: dict = {"seed": seed, "count": count, "families": {}}
    failing = None
    try:
        for name, check, negative in FAMILIES:
            passed = failed = 0
            for i in range(count):
                rng = _rng(seed, name, i)
                error = None
                try:
                    ok = check(rng, budget)
                except VerificationError as exc:  # the library's own pipelines disagree
                    ok, error = False, str(exc)
                if ok:
                    passed += 1
                else:
                    failed += 1
                    if failing is None:
                        failing = {"family": name, "index": i, "seed": seed}
                        if error is not None:
                            failing["error"] = error
            entry = {"pass": passed, "fail": failed}
            if negative:
                entry["expected_fail"] = True  # the verifier must reject these
            report["families"][name] = entry
        report["informational"] = {
            "quotient_over_cycle": _informational_quotient_cycle(budget)
        }
    except BudgetExceeded as exc:
        sys.stderr.write(f"budget exceeded: {exc} {exc.sizes}\n")
        return EXIT_BUDGET
    if failing is not None:
        report["failing_instance"] = failing
    if args.summary:
        lines = []
        for name, entry in report["families"].items():
            tag = " (negative controls)" if entry.get("expected_fail") else ""
            lines.append(f"{name}{tag}: {entry['pass']} pass, {entry['fail']} fail")
        _emit("\n".join(lines) + "\n", args.output)
    else:
        _emit(_dump(report), args.output)
    return EXIT_VERIFIER if failing is not None else EXIT_OK


# ---------------------------------------------------------------------------


def _int_from(text: str, low: int, what: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = low - 1
    if value < low:
        raise argparse.ArgumentTypeError(f"expected a {what} integer, not {text!r}")
    return value


def _count(text: str) -> int:
    """A --count value: a non-negative integer."""
    return _int_from(text, 0, "non-negative")


def _budget(text: str) -> int:
    """A --budget value: a positive integer, since no enumeration fits in 0."""
    return _int_from(text, 1, "positive")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupgraph",
        description="Group-graph cohomology and foliation moduli analyzer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    an = sub.add_parser("analyze", help="analyze a foliation spec")
    an.add_argument("--input", required=True)
    an.add_argument("--output")
    an.add_argument("--summary", action="store_true")
    an.set_defaults(func=run_analyze)

    co = sub.add_parser("cohomology", help="H0/H1 of a group-graph")
    co.add_argument("--input", required=True)
    co.add_argument("--output")
    co.add_argument(
        "--mode", choices=["auto", "vector", "bruteforce", "regular", "count"], default="auto"
    )
    co.add_argument("--budget", type=_budget, default=DEFAULT_ENUM_BUDGET)
    co.set_defaults(func=run_cohomology)

    sc = sub.add_parser("selfcheck", help="run the seeded verifier suites")
    sc.add_argument("--seed", type=int, default=0)
    sc.add_argument("--count", type=_count, default=10)
    sc.add_argument("--budget", type=_budget, default=DEFAULT_ENUM_BUDGET)
    sc.add_argument("--output")
    sc.add_argument("--summary", action="store_true")
    sc.set_defaults(func=run_selfcheck)
    return parser


_parser = functools.cache(build_parser)  # one parser per process


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up per call, so a rebound run_* function takes effect
    run = {"analyze": run_analyze, "cohomology": run_cohomology, "selfcheck": run_selfcheck}
    try:
        return run[args.command](args)
    except _OutputError as exc:
        sys.stderr.write(f"cannot write output: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
