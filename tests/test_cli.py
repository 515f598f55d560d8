import ast
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from groupgraph import cli, cohomology, foliation, linalg, theorems
from groupgraph.generators import (
    random_finite_group_graph, random_regular_finite, random_repulsive_instance, random_tree,
)
from groupgraph.group_graph import BudgetExceeded


FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "groupgraph.cli", *args],
        capture_output=True, text=True,
    )


def write_json(path, data):
    path.write_text(json.dumps(data, indent=2, sort_keys=True))
    return str(path)


def test_analyze_valid_spec_exits_zero(tmp_path):
    r = run_cli("analyze", "--input", str(FIXTURES / "active_red_segment.json"))
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["finite_type"] == "finite"
    assert rep["moduli_dim"] == 1
    assert rep["cs_indices"] == {"D1": "-2"}


def test_analyze_validation_failure_exits_two(tmp_path):
    bad = {
        "tree": {"vertices": ["D1", "D2"], "edges": [["D1", "D2"]]},
        "vertices": {
            "D1": {"kind": "invariant", "holonomy": {"finite": False, "tdim": 0}},
            "D2": {"kind": "invariant", "holonomy": {"finite": True, "order": 4}},
        },
        "edges": {
            "D1#D2": {"kind": "singular", "tdim": 1, "holonomy": {
                "D1": {"periodic": False}, "D2": {"periodic": False}}}
        },
    }
    path = write_json(tmp_path / "bad.json", bad)
    r = run_cli("analyze", "--input", path)
    assert r.returncode == 2
    violations = foliation.validate(foliation.FoliationSpec.from_json(bad))
    assert violations
    assert r.stdout == json.dumps({"violations": violations}, sort_keys=True, indent=2) + "\n"


def test_analyze_vertex_named_star():
    # "*" is a legal vertex name, and the contracted-rank pipeline must not
    # confuse it with the node that stands for the collapsed off-support part
    r = run_cli("analyze", "--input", str(FIXTURES / "star_vertex.json"))
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert rep["finite_type"] == "finite"
    assert rep["moduli_dim"] == 0


def test_analyze_entirely_green_exits_three(tmp_path):
    green = {
        "tree": {"vertices": ["D1", "D2"], "edges": [["D1", "D2"]]},
        "vertices": {
            "D1": {"kind": "invariant", "holonomy": {"finite": True, "order": 2}},
            "D2": {"kind": "invariant", "holonomy": {"finite": True, "order": 2}},
        },
        "edges": {
            "D1#D2": {"kind": "singular", "holonomy": {
                "D1": {"periodic": True, "order": 2},
                "D2": {"periodic": True, "order": 2}}}
        },
    }
    path = write_json(tmp_path / "green.json", green)
    r = run_cli("analyze", "--input", path)
    assert r.returncode == 3
    rep = json.loads(r.stdout)
    assert rep["characterization"]["status"] == "hypothesis-violated"
    assert rep["finite_type"] == "finite"  # the verdict itself is still computed


def test_analyze_parse_error_exits_one(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run_cli("analyze", "--input", str(path)).returncode == 1
    assert run_cli("analyze", "--input", str(tmp_path / "missing.json")).returncode == 1


def test_analyze_output_file_and_summary(tmp_path):
    out = tmp_path / "report.json"
    r = run_cli("analyze", "--input", str(FIXTURES / "active_red_segment.json"),
                "--output", str(out))
    assert r.returncode == 0
    assert json.loads(out.read_text())["moduli_dim"] == 1
    r = run_cli("analyze", "--input", str(FIXTURES / "active_red_segment.json"),
                "--summary")
    assert "moduli_dim: 1" in r.stdout


def vector_gg_json():
    return {
        "base": {"vertices": ["a", "b"], "edges": [["a", "b"]]},
        "carrier": "vector",
        "vertices": {"a": {"dim": 0}, "b": {"dim": 0}},
        "edges": {"a#b": {"dim": 1}},
        "restrictions": {"a|a#b": {"matrix": [[]]}, "b|a#b": {"matrix": [[]]}},
    }


def finite_gg_json():
    return {
        "base": {"vertices": ["a", "b"], "edges": [["a", "b"]]},
        "carrier": "finite",
        "vertices": {"a": {"order": 1, "table": [[0]]}, "b": {"order": 1, "table": [[0]]}},
        "edges": {"a#b": {"order": 2, "table": [[0, 1], [1, 0]]}},
        "restrictions": {"a|a#b": {"map": [0]}, "b|a#b": {"map": [0]}},
    }


def test_cohomology_vector_mode(tmp_path):
    path = write_json(tmp_path / "gg.json", vector_gg_json())
    r = run_cli("cohomology", "--input", path, "--mode", "vector")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["h1"]["dim"] == 1
    assert out["h0"]["dim"] == 0


def test_cohomology_auto_and_bruteforce(tmp_path):
    path = write_json(tmp_path / "gg.json", finite_gg_json())
    out = json.loads(run_cli("cohomology", "--input", path).stdout)
    assert out["h1"]["count"] == 2
    r = run_cli("cohomology", "--input", path, "--mode", "bruteforce")
    assert json.loads(r.stdout)["h1"]["count"] == 2


def test_cohomology_regular_mode_emits_active_structure(tmp_path):
    path = write_json(tmp_path / "gg.json", vector_gg_json())
    out = json.loads(run_cli("cohomology", "--input", path, "--mode", "regular").stdout)
    assert out["active"]["a"] == 1 and out["active"]["p"] == 0
    assert out["h1"]["dim"] == 1


def test_cohomology_regular_mode_on_a_forest_and_on_a_cycle(tmp_path, capsys):
    # two single-edge trees: each active edge stays in the basis
    forest = _vector_json({"a": 0, "b": 0, "c": 0, "d": 0}, {"a#b": 1, "c#d": 2})
    assert cli.main(["cohomology", "--input", write_json(tmp_path / "forest.json", forest),
                     "--mode", "regular"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["h1"]["dim"] == 3 and out["active"]["a_prime"] == ["a#b", "c#d"]
    cycle = _vector_json({"a": 0, "b": 0, "c": 0}, {"a#b": 1, "b#c": 1, "a#c": 1})
    assert cli.main(["cohomology", "--input", write_json(tmp_path / "cycle.json", cycle),
                     "--mode", "regular"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "cannot run mode 'regular': base graph has a cycle\n"


REPLAY = """
import hashlib, random
from groupgraph import _jsontext, generators as gen
digest = hashlib.sha256()
for seed in range(20):
    rng = random.Random(seed)
    t = gen.random_tree(rng, rng.randint(1, 6))
    drawn = [
        gen.random_regular_vector(rng, max_vertices=7),
        gen.random_regular_finite(rng, max_vertices=5),
        *gen.random_repulsive_instance(rng, "vector"),
        *gen.random_repulsive_instance(rng, "finite"),
        *gen.random_nonrepulsive_instance(rng),
        gen.random_finite_group_graph(rng, t),
        gen.random_vector_group_graph(rng, t),
    ]
    for x in drawn:
        digest.update(_jsontext.dumps(sorted(x) if isinstance(x, frozenset) else x.to_json()).encode())
print(digest.hexdigest())
"""


def test_generated_instances_do_not_depend_on_the_hash_seed():
    # a seeded instance must replay in another process, whatever its hash seed
    digests = set()
    for hash_seed in ("0", "1", "2", "3"):
        r = subprocess.run([sys.executable, "-c", REPLAY], capture_output=True, text=True,
                           env=dict(os.environ, PYTHONHASHSEED=hash_seed))
        assert r.returncode == 0, r.stderr
        digests.add(r.stdout)
    assert len(digests) == 1, digests


def test_cohomology_mode_carrier_mismatch(tmp_path):
    path = write_json(tmp_path / "gg.json", vector_gg_json())
    assert run_cli("cohomology", "--input", path, "--mode", "bruteforce").returncode == 1


def test_cohomology_count_mode_agrees_with_bruteforce(tmp_path, capsys):
    graphs = [finite_gg_json(), cli._z4_square()[0].to_json()]
    for seed in range(6):
        rng = cli._rng(seed, "count", 0)
        graphs.append(random_finite_group_graph(rng, random_tree(rng, rng.randint(1, 5))).to_json())
        graphs.append(random_regular_finite(rng, max_vertices=5).to_json())
    for i, data in enumerate(graphs):
        path = write_json(tmp_path / f"gg{i}.json", data)
        assert cli.main(["cohomology", "--input", path, "--mode", "bruteforce"]) == 0
        brute = json.loads(capsys.readouterr().out)
        assert cli.main(["cohomology", "--input", path, "--mode", "count"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {
            "h0": {"carrier": "finite", "kind": "h0", "order": brute["h0"]["order"]},
            "h1": {"carrier": "finite", "count": brute["h1"]["count"], "kind": "h1"},
        }
    path = write_json(tmp_path / "vector.json", vector_gg_json())
    r = run_cli("cohomology", "--input", path, "--mode", "count")
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr == "mode 'count' needs the finite carrier\n"


def test_analyze_reports_a_verifier_error_with_exit_five(monkeypatch, capsys):
    monkeypatch.setattr(foliation, "_contracted_rank", lambda tf: -1)
    code = cli.main(["analyze", "--input", str(FIXTURES / "active_red_segment.json")])
    captured = capsys.readouterr()
    assert code == 5 and captured.out == ""
    assert captured.err.startswith("verifier failure: moduli pipelines disagree")
    assert "Traceback" not in captured.err


def test_a_rank_disagreement_in_regular_h1_is_a_verifier_failure(monkeypatch, capsys):
    # regular_h1 always cross-checks against the rank, for analyze and selfcheck alike
    real = theorems.h1_vector

    def off_by_one(g, *args):
        res = real(g, *args)
        res.dim += 1
        return res

    monkeypatch.setattr(theorems, "h1_vector", off_by_one)
    code = cli.main(["analyze", "--input", str(FIXTURES / "active_red_segment.json")])
    captured = capsys.readouterr()
    assert code == 5 and captured.out == ""
    assert captured.err == (
        "verifier failure: active-edge dimension 1 disagrees with linear algebra 2\n"
    )
    assert cli.main(["selfcheck", "--count", "2"]) == 5
    rep = json.loads(capsys.readouterr().out)
    assert rep["families"]["regular_vector"] == {"pass": 0, "fail": 2}
    failing = rep["failing_instance"]
    assert failing["family"] == "regular_vector"
    assert failing["error"].startswith("active-edge dimension ")


def test_a_basis_that_disagrees_with_dim_is_a_verifier_failure(monkeypatch, capsys, tmp_path):
    # a rank one too high: the dense basis has one vector more than dim
    sparse_rank = linalg.sparse_rank
    monkeypatch.setattr(linalg, "sparse_rank", lambda rows: sparse_rank(rows) + 1)
    path = write_json(tmp_path / "gg.json", vector_gg_json())
    code = cli.main(["cohomology", "--input", path, "--mode", "vector"])
    captured = capsys.readouterr()
    assert code == 5 and captured.out == ""
    assert captured.err == "verifier failure: basis of 1 vectors disagrees with dim 0\n"
    # an echelon form one row short: the families that build a vector basis fail
    monkeypatch.setattr(linalg, "sparse_rank", sparse_rank)
    echelon = linalg.last_entry_echelon
    monkeypatch.setattr(linalg, "last_entry_echelon", lambda vectors: echelon(vectors)[1:])
    assert cli.main(["selfcheck", "--count", "2"]) == 5
    rep = json.loads(capsys.readouterr().out)
    assert rep["families"]["pruning"] == {"pass": 0, "fail": 2}
    failing = rep["failing_instance"]
    assert failing["family"] == "pruning"
    assert failing["error"].startswith("basis of ")


def test_cohomology_reports_a_verifier_error_with_exit_five(monkeypatch, capsys, tmp_path):
    path = write_json(tmp_path / "gg.json", finite_gg_json())
    monkeypatch.setattr(theorems, "h1_finite_count", lambda g, budget: -1)
    code = cli.main(["cohomology", "--input", path, "--mode", "regular"])
    captured = capsys.readouterr()
    assert code == 5 and captured.out == ""
    assert captured.err == (
        "verifier failure: active-edge count 2 disagrees with the Burnside count -1\n"
    )
    # a Burnside sum with a remainder, in the count mode: only the trivial
    # family of the Z4 square (|C0| = 256) keeps a nonzero product
    path = write_json(tmp_path / "square.json", cli._z4_square()[0].to_json())
    monkeypatch.setattr(cohomology, "_burnside_factor", lambda grp, ra, rb: [1] + [0] * 15)
    code = cli.main(["cohomology", "--input", path, "--mode", "count"])
    captured = capsys.readouterr()
    assert code == 5 and captured.out == ""
    assert captured.err.startswith("verifier failure: Burnside sum 1 leaves remainder 1 modulo")


def test_regular_finite_check_enumerates_no_cocycles(monkeypatch):
    calls = []
    real = cohomology._orbits

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cohomology, "_orbits", counted)
    monkeypatch.setattr(theorems, "_orbits", counted)
    assert all(
        cli._check_regular_finite(cli._rng(0, "regular_finite", i), 10**7) for i in range(20)
    )
    assert calls == []
    cohomology.h1_finite_bruteforce(random_regular_finite(cli._rng(0, "regular_finite", 0)))
    assert len(calls) == 1  # the guard sees an enumeration


def test_tensor_check_builds_its_bases_under_the_budget():
    # the instance's base H1 basis alone needs 21 dense cells
    with pytest.raises(BudgetExceeded, match="H1 basis: 21 dense matrix cells exceed budget 1"):
        cli._check_tensor(cli._rng(0, "tensor", 0), 1)
    assert cli._check_tensor(cli._rng(0, "tensor", 0), 10**4)


@pytest.mark.parametrize("carrier", ["vector", "finite"])
def test_pruning_negative_check_fails_on_a_repulsive_instance(monkeypatch, carrier):
    # pruning_verify alone tells the control apart: it accepts a repulsive subtree
    monkeypatch.setattr(
        cli, "random_nonrepulsive_instance",
        lambda rng, max_vertices: random_repulsive_instance(rng, carrier, max_vertices),
    )
    for i in range(10):
        assert not cli._check_pruning_negative(cli._rng(0, "pruning_negative", i), 10**6), i


def test_cohomology_budget_exceeded_exits_four(tmp_path):
    data = finite_gg_json()
    path = write_json(tmp_path / "gg.json", data)
    r = run_cli("cohomology", "--input", path, "--budget", "1")
    assert r.returncode == 4


def test_selfcheck_small_run_passes():
    r = run_cli("selfcheck", "--seed", "0", "--count", "2")
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert all(entry["fail"] == 0 for entry in rep["families"].values())
    assert rep["families"]["pruning_negative"]["expected_fail"] is True
    assert "quotient_over_cycle" in rep["informational"]


def test_selfcheck_tiny_budget_exits_four():
    r = run_cli("selfcheck", "--seed", "0", "--count", "2", "--budget", "1")
    assert r.returncode == 4
    assert "budget exceeded" in r.stderr


def test_selfcheck_unexpected_failure_exits_five(monkeypatch, capsys):
    from groupgraph import cli as cli_mod

    def always_fails(rng, budget):
        return False

    monkeypatch.setattr(cli_mod, "FAMILIES", [("doomed", always_fails, False)])
    args = cli_mod.build_parser().parse_args(["selfcheck", "--seed", "0", "--count", "2"])
    code = args.func(args)
    assert code == 5
    out = json.loads(capsys.readouterr().out)
    assert out["failing_instance"] == {"family": "doomed", "index": 0, "seed": 0}


def test_selfcheck_reports_a_verifier_error_and_goes_on(monkeypatch, capsys):
    # a wrong contracted rank makes the moduli pipelines disagree
    monkeypatch.setattr(foliation, "_contracted_rank", lambda tf: -1)
    code = cli.main(["selfcheck", "--count", "2"])
    captured = capsys.readouterr()
    assert code == 5
    assert "Traceback" not in captured.err
    out = json.loads(captured.out)
    assert list(out["families"]) == sorted(name for name, _, _ in cli.FAMILIES)
    assert out["families"]["moduli_triple"] == {"pass": 0, "fail": 2}
    assert out["families"]["tensor"] == {"pass": 2, "fail": 0}
    failing = out["failing_instance"]
    assert (failing["family"], failing["index"], failing["seed"]) == ("moduli_triple", 0, 0)
    assert failing["error"].startswith("moduli pipelines disagree")
    assert "quotient_over_cycle" in out["informational"]


def test_selfcheck_characterization_validates_once_per_check(monkeypatch):
    calls = []
    real = foliation.validate

    def counting(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(foliation, "validate", counting)
    for seed in range(3):
        for i in range(10):
            calls.clear()
            rng = cli._rng(seed, "characterization", i)
            assert cli._check_characterization(rng, cli.DEFAULT_ENUM_BUDGET)
            assert len(calls) == 1, (seed, i)


def test_selfcheck_characterization_fails_on_an_entirely_green_component(monkeypatch, capsys):
    green = {
        "tree": {"vertices": ["D1", "D2"], "edges": [["D1", "D2"]]},
        "vertices": {
            "D1": {"kind": "invariant", "holonomy": {"finite": True, "order": 2}},
            "D2": {"kind": "invariant", "holonomy": {"finite": True, "order": 2}},
        },
        "edges": {"D1#D2": {"kind": "singular", "holonomy": {
            "D1": {"periodic": True, "order": 2}, "D2": {"periodic": True, "order": 2}}}},
    }
    # the spec the finite branch expects a finite verdict from, with no red element
    monkeypatch.setattr(cli, "random_foliation_spec", lambda rng, **kwargs: green)
    monkeypatch.setattr(cli, "FAMILIES", [f for f in cli.FAMILIES if f[0] == "characterization"])
    finite_branch = [i for i in range(4) if cli._rng(0, "characterization", i).random() < 0.5]
    assert finite_branch
    code = cli.main(["selfcheck", "--seed", "0", "--count", "4"])
    assert code == 5
    out = json.loads(capsys.readouterr().out)
    assert out["families"]["characterization"]["fail"] == len(finite_branch)
    assert out["failing_instance"] == {
        "family": "characterization", "index": finite_branch[0], "seed": 0}


def test_selfcheck_is_byte_identical_across_runs():
    # frozenset iteration order changes with the hash seed; the report must not
    expected = (FIXTURES / "selfcheck_s0_c10.json").read_text()
    for hash_seed in ("0", "1", "2"):
        r = subprocess.run(
            [sys.executable, "-m", "groupgraph.cli", "selfcheck", "--seed", "0", "--count", "10"],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONHASHSEED=hash_seed),
        )
        assert r.returncode == 0, r.stderr
        assert r.stdout == expected, f"selfcheck under PYTHONHASHSEED={hash_seed}"


def test_analyze_byte_identical_across_runs():
    # frozenset iteration order changes with the hash seed; the report must not
    for name in ("type4_two_reds", "active_red_segment"):
        expected = (FIXTURES / f"{name}.report.json").read_text()
        for hash_seed in ("0", "1", "2"):
            r = subprocess.run(
                [sys.executable, "-m", "groupgraph.cli", "analyze",
                 "--input", str(FIXTURES / f"{name}.json")],
                capture_output=True, text=True,
                env=dict(os.environ, PYTHONHASHSEED=hash_seed),
            )
            assert r.returncode == 0, r.stderr
            assert r.stdout == expected, f"{name} under PYTHONHASHSEED={hash_seed}"


def test_analyze_validates_and_cuts_once(monkeypatch, tmp_path):
    calls = {"validate": 0, "cut_graph": 0}

    def counting(name):
        real = getattr(foliation, name)

        def wrapper(spec):
            calls[name] += 1
            return real(spec)
        return wrapper

    for name in calls:
        monkeypatch.setattr(foliation, name, counting(name))
    for name in ("type4_two_reds", "active_red_segment"):
        calls.update(validate=0, cut_graph=0)
        out = tmp_path / f"{name}.out.json"
        code = cli.main(["analyze", "--input", str(FIXTURES / f"{name}.json"),
                         "--output", str(out)])
        assert code == 0
        assert out.read_text() == (FIXTURES / f"{name}.report.json").read_text()
        assert calls["validate"] == 1, (name, calls)
        assert calls["cut_graph"] == 1, (name, calls)


def test_analyze_reads_dimensions_without_building_bases(monkeypatch, tmp_path):
    from groupgraph import cohomology, linalg

    calls = {"rref": 0, "Cocycle1": 0}
    real_rref, real_init = linalg.rref, cohomology.Cocycle1.__init__

    def rref(m):
        calls["rref"] += 1
        return real_rref(m)

    def init(self, *args, **kwargs):
        calls["Cocycle1"] += 1
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(linalg, "rref", rref)
    monkeypatch.setattr(cohomology.Cocycle1, "__init__", init)
    out = tmp_path / "report.json"
    code = cli.main(["analyze", "--input", str(FIXTURES / "active_red_segment.json"),
                     "--output", str(out)])
    assert code == 0
    assert out.read_text() == (FIXTURES / "active_red_segment.report.json").read_text()
    assert calls == {"rref": 0, "Cocycle1": 0}


def test_parser_is_built_once_and_dispatch_follows_rebinding(monkeypatch, capsys):
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "run_cohomology", lambda args: 42)
    assert cli.main(["cohomology", "--input", "unused.json"]) == 42
    assert cli._parser.cache_info().misses == 1


def injected_type1_with_scan_fallbacks():
    """Red R; green A generates along A-R.  B and C fail, and their geodesics
    from R match no shape (A-B and A-C are not-iso on both sides); D fails on
    the type-1 geodesic R, A, D (iso at A, not-iso at D)."""
    def inc(a, na, b, nb):
        return {"kind": "singular", "holonomy": {a: {"periodic": True, "order": na},
                                                 b: {"periodic": True, "order": nb}}}
    green = {"kind": "invariant", "holonomy": {"finite": True, "order": 2}}
    return {
        "tree": {"vertices": ["A", "B", "C", "D", "R"],
                 "edges": [["A", "R"], ["A", "B"], ["A", "C"], ["A", "D"]]},
        "vertices": {"A": green, "B": green, "C": green, "D": green,
                     "R": {"kind": "invariant", "holonomy": {"finite": False, "tdim": 0}}},
        "edges": {"A#R": inc("A", 2, "R", 2), "A#B": inc("A", 1, "B", 1),
                  "A#C": inc("A", 1, "C", 1), "A#D": inc("A", 2, "D", 1)},
    }


def test_analyze_scans_once_with_several_witness_fallbacks(monkeypatch, tmp_path):
    calls = []
    real = foliation._scan

    def counting(ctx):
        calls.append(ctx)
        return real(ctx)

    monkeypatch.setattr(foliation, "_scan", counting)
    out = tmp_path / "report.json"
    code = cli.main(["analyze", "--input",
                     write_json(tmp_path / "spec.json", injected_type1_with_scan_fallbacks()),
                     "--output", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["finite_type"] == "not-finite"
    assert rep["characterization"] == {"status": "ok", "consistent": True}
    type1 = {"type": 1, "elements": ["R", ["A", "R"], "A", ["A", "D"], "D"]}
    # B and C (no shape of their own) fall back to the scan's first witness; D has its own
    assert rep["components"][0]["witnesses"] == [type1, type1, type1]
    assert len(calls) == 1  # one scan per analysis, shared by both fallbacks and the crosscheck


T4, SEG = "type4_two_reds", "active_red_segment"
MALFORMED = [
    # (id, fixture, path to the replaced value, replacement, exit code, message part)
    ("vertices-list", T4, ("vertices",), [], 1, "vertices must be a JSON object"),
    ("vertex-string", T4, ("vertices", "D1"), "invariant", 1, "vertex 'D1' must be"),
    ("vertex-holonomy-list", T4, ("vertices", "D1", "holonomy"), [False, 1], 1,
     "holonomy of vertex 'D1' must be"),
    ("edges-string", T4, ("edges",), "D1#D2", 1, "edges must be a JSON object"),
    ("edge-list", T4, ("edges", "D1#D2"), ["singular"], 1, "edge 'D1#D2' must be"),
    ("edge-holonomy-list", T4, ("edges", "D1#D2", "holonomy"), [], 1,
     "holonomy of edge 'D1#D2' must be"),
    ("incidence-int", T4, ("edges", "D1#D2", "holonomy", "D1"), 2, 1,
     "holonomy of edge 'D1#D2' at 'D1' must be"),
    ("incidence-order-true", T4, ("edges", "D1#D2", "holonomy", "D1", "order"), True, 2,
     "periodic holonomy at D1 needs a positive order"),
    ("vertex-tdim-true", T4, ("vertices", "D1", "holonomy", "tdim"), True, 2,
     "vertex D1: infinite holonomy needs tdim 0 or 1"),
    ("vertex-order-true", T4, ("vertices", "D2", "holonomy"), {"finite": True, "order": True}, 2,
     "vertex D2: finite holonomy needs a positive order"),
    ("vertex-order-string", T4, ("vertices", "D2", "holonomy"), {"finite": True, "order": "6"}, 2,
     "vertex D2: finite holonomy needs a positive order"),
    ("edge-tdim-true", SEG, ("edges", "D1#D2", "tdim"), True, 2, "red edge needs tdim 0 or 1"),
    ("red-vertex-no-tdim", SEG, ("vertices", "D1", "holonomy"), {}, 2,
     "vertex D1: infinite holonomy needs tdim 0 or 1"),
    ("vertex-outside-tree", T4, ("vertices", "D9"), {"kind": "dicritical"}, 2,
     "vertex D9: not in the tree"),
    ("edge-outside-tree", T4, ("edges", "D1#Z9"), {"kind": "singular"}, 2,
     "edge D1#Z9: not in the tree"),
    ("holonomy-off-endpoint", T4, ("edges", "D1#D2", "holonomy", "D9"),
     {"periodic": True, "order": 2}, 2, "edge D1#D2: holonomy at D9, which is not an endpoint"),
    ("tree-vertices-string", SEG, ("tree", "vertices"), "D1", 1,
     "bad tree: vertices must be an array of strings"),
    ("tree-vertex-int", SEG, ("tree", "vertices"), ["D1", 2], 1,
     "bad tree: vertices must be an array of strings"),
    ("tree-edge-string", SEG, ("tree", "edges"), ["D1D2"], 1,
     "bad tree: edges must be an array of two-string arrays"),
    ("tree-edge-triple", SEG, ("tree", "edges"), [["D1", "D2", "D1"]], 1,
     "bad tree: edges must be an array of two-string arrays"),
]


@pytest.mark.parametrize(
    "fixture,path,value,code,message", [c[1:] for c in MALFORMED], ids=[c[0] for c in MALFORMED]
)
def test_malformed_spec_exits_with_a_message_not_a_traceback(
    tmp_path, fixture, path, value, code, message
):
    data = json.loads((FIXTURES / f"{fixture}.json").read_text())
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    r = run_cli("analyze", "--input", write_json(tmp_path / "spec.json", data))
    assert "Traceback" not in r.stderr
    assert r.returncode == code, (r.returncode, r.stderr)
    if code == 1:
        assert r.stderr.startswith("parse error: ") and message in r.stderr
    else:
        assert any(message in v for v in json.loads(r.stdout)["violations"])


@pytest.mark.parametrize("command,message", [("analyze", "cannot read spec: "),
                                             ("cohomology", "cannot read group-graph: ")])
def test_deeply_nested_json_exits_one_without_a_traceback(tmp_path, command, message):
    # json.load raises RecursionError, which is not a ValueError
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    r = run_cli(command, "--input", str(path))
    assert r.returncode == 1, r.stderr
    assert r.stderr.startswith(message) and "Traceback" not in r.stderr


@pytest.mark.parametrize("argv", [
    ["analyze", "--input", str(FIXTURES / "active_red_segment.json")],
    ["cohomology", "--input", "GG"],
    ["selfcheck", "--count", "1"],
], ids=["analyze", "cohomology", "selfcheck"])
@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_output_exits_one_with_a_message(tmp_path, capsys, argv, target):
    gg = write_json(tmp_path / "gg.json", finite_gg_json())
    output = tmp_path / "no" / "x.json" if target == "missing-dir" else tmp_path
    code = cli.main([gg if a == "GG" else a for a in argv] + ["--output", str(output)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("cannot write output: ") and str(output) in captured.err


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e999", "-1e400"])
@pytest.mark.parametrize("command,message", [("analyze", "cannot read spec: "),
                                             ("cohomology", "cannot read group-graph: ")])
def test_non_finite_numbers_in_the_input_exit_one(tmp_path, capsys, number, command, message):
    # json.load accepts them, but a report carrying one would not be JSON
    if command == "analyze":
        data = json.loads((FIXTURES / "active_red_segment.json").read_text())
        data["vertices"]["D1"]["cs_index"] = ["PLACE"]
    else:
        data = finite_gg_json()
        data["base"]["extra"] = "PLACE"
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data).replace('"PLACE"', number))
    assert cli.main([command, "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message) and number.lstrip("-") in captured.err


def test_finite_floats_in_an_opaque_cs_index_are_kept(tmp_path, capsys):
    data = json.loads((FIXTURES / "active_red_segment.json").read_text())
    data["vertices"]["D1"]["cs_index"] = {"x": [2.5, -0.0, 1e16, 1e308]}
    path = write_json(tmp_path / "spec.json", data)
    assert cli.main(["analyze", "--input", path]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["cs_indices"]["D1"] == data["vertices"]["D1"]["cs_index"]
    assert '"x": [\n        2.5,\n        -0.0,\n        1e+16,\n        1e+308\n      ]' in out


@pytest.mark.parametrize("count", ["-3", "-1", "x"])
def test_selfcheck_rejects_a_bad_count_with_usage(count):
    r = run_cli("selfcheck", "--count", count)
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith("usage: ") and "argument --count" in r.stderr


@pytest.mark.parametrize("command", ["cohomology", "selfcheck"])
@pytest.mark.parametrize("budget", ["-5", "0", "x"])
def test_a_budget_below_one_is_a_usage_error(tmp_path, command, budget):
    # no enumeration fits in a budget below 1
    where = ["--input", write_json(tmp_path / "gg.json", finite_gg_json())]
    r = run_cli(command, "--budget", budget, *(where if command == "cohomology" else []))
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith("usage: ") and "argument --budget: expected a positive" in r.stderr


def test_a_budget_of_one_is_accepted(tmp_path, capsys):
    data = finite_gg_json()
    data["edges"]["a#b"] = {"order": 1, "table": [[0]]}
    path = write_json(tmp_path / "gg.json", data)
    assert cli.main(["cohomology", "--input", path, "--budget", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["h1"]["count"] == 1


def test_a_string_tree_is_not_read_as_one_letter_names(tmp_path, capsys):
    # "DE" would iterate as the vertices D and E, and "DE" as the edge (D, E)
    red = {"kind": "invariant", "holonomy": {"finite": False, "tdim": 0}}
    spec = {
        "tree": {"vertices": "DE", "edges": ["DE"]},
        "vertices": {"D": red, "E": red},
        "edges": {"D#E": {"kind": "singular", "tdim": 1, "holonomy": {
            "D": {"periodic": False}, "E": {"periodic": False}}}},
    }
    assert cli.main(["analyze", "--input", write_json(tmp_path / "spec.json", spec)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parse error: bad tree: vertices must be an array of strings\n"


def test_a_string_base_is_not_read_as_one_letter_names(tmp_path, capsys):
    data = finite_gg_json()
    data["base"] = {"vertices": "ab", "edges": ["ab"]}
    path = write_json(tmp_path / "gg.json", data)
    assert cli.main(["cohomology", "--input", path, "--mode", "count"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "cannot read group-graph: vertices must be an array of strings\n"


def _vector_json(vdims: dict, edims: dict) -> dict:
    """A vector group-graph whose restrictions are zero matrices."""
    return {
        "base": {"vertices": sorted(vdims), "edges": [k.split("#") for k in edims]},
        "carrier": "vector",
        "vertices": {v: {"dim": d} for v, d in vdims.items()},
        "edges": {k: {"dim": d} for k, d in edims.items()},
        "restrictions": {
            f"{v}|{k}": {"matrix": [[0] * vdims[v] for _ in range(d)]}
            for k, d in edims.items() for v in k.split("#")
        },
    }


@pytest.mark.parametrize("data,mode,stage", [
    (_vector_json({"a": 300}, {}), "vector", "H0 basis"),  # an isolated vertex
    (_vector_json({"a": 300, "b": 0}, {"a#b": 0}), "vector", "H0 basis"),  # dim-0 edges only
    (_vector_json({"a": 0, "b": 0}, {"a#b": 300}), "vector", "H1 basis"),
    (_vector_json({"a": 0, "b": 0}, {"a#b": 300}), "regular", "active-edge H1 basis"),
], ids=["isolated-vertex", "vertex-with-dim-0-edges", "edge", "edge-regular"])
def test_vector_bases_are_budgeted_before_they_are_built(tmp_path, capsys, data, mode, stage):
    # none of these dimensions is bounded by the size of the input: each
    # basis would hold 300 x 300 = 90,000 entries
    path = write_json(tmp_path / "gg.json", data)
    assert cli.main(["cohomology", "--input", path, "--mode", mode, "--budget", "10000"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"budget exceeded: {stage}: 90000 dense matrix cells exceed")
    assert cli.main(["cohomology", "--input", path, "--mode", mode]) == 0


def test_emitted_group_graph_json_reparses(tmp_path):
    # round-trip: the tf_red emitted by analyze is a loadable group-graph
    from groupgraph.group_graph import GroupGraph

    r = run_cli("analyze", "--input", str(FIXTURES / "active_red_segment.json"))
    rep = json.loads(r.stdout)
    gg = GroupGraph.from_json(rep["tf_red"])
    assert gg.carrier == "vector"


SIZE = {"finite": ("order",), "vector": ("dim",)}
ENTRY = {"finite": ("map", 1), "vector": ("matrix", 0, 0)}
DELETE = object()
MALFORMED_GROUP_GRAPHS = [
    # (id, path to the replaced value, replacement); SIZE and ENTRY stand for
    # the carrier's own keys
    ("top-level-list", (), []),
    ("no-carrier", ("carrier",), DELETE),
    ("carrier-typo", ("carrier",), "vectr"),
    ("carrier-list", ("carrier",), ["finite"]),
    ("no-base", ("base",), DELETE),
    ("no-vertices", ("vertices",), DELETE),
    ("no-edges", ("edges",), DELETE),
    ("no-restrictions", ("restrictions",), DELETE),
    ("base-list", ("base",), []),
    ("vertices-list", ("vertices",), []),
    ("vertex-int", ("vertices", "a"), 5),
    ("edge-string", ("edges", "a#b"), "Z2"),
    ("restriction-list", ("restrictions", "a|a#b"), [1]),
    ("restriction-unknown-vertex", ("restrictions", "z|a#b"), {"map": [0, 1]}),
    ("size-missing", ("vertices", "a", SIZE), DELETE),
    ("size-true", ("vertices", "a", SIZE), True),
    ("size-string", ("vertices", "a", SIZE), "2"),
    ("size-float", ("vertices", "a", SIZE), 1.5),
    ("entry-float", ("restrictions", "a|a#b", ENTRY), 0.5),
    ("entry-true", ("restrictions", "a|a#b", ENTRY), True),
    ("entry-zero-denominator", ("restrictions", "a|a#b", ENTRY), "1/0"),
    ("entry-exponent", ("restrictions", "a|a#b", ENTRY), "1e10000000"),
    ("base-vertices-string", ("base", "vertices"), "ab"),
    ("base-edge-string", ("base", "edges"), ["ab"]),
]


@pytest.mark.parametrize("carrier", ["finite", "vector"])
@pytest.mark.parametrize(
    "path,value", [c[1:] for c in MALFORMED_GROUP_GRAPHS], ids=[c[0] for c in MALFORMED_GROUP_GRAPHS]
)
def test_malformed_group_graph_exits_with_a_message_not_a_traceback(
    tmp_path, capsys, carrier, path, value
):
    from groupgraph.graph import Graph
    from conftest import constant_group_graph
    from groupgraph.group_graph import VectorSpace, cyclic_group

    obj = cyclic_group(2) if carrier == "finite" else VectorSpace(1)
    data = constant_group_graph(Graph.make("ab", [("a", "b")]), obj).to_json()
    keys = [k for key in path for k in (key[carrier] if isinstance(key, dict) else (key,))]
    if not keys:
        data = value
    else:
        parent = data
        for key in keys[:-1]:
            parent = parent[key]
        if value is DELETE:
            del parent[keys[-1]]
        else:
            parent[keys[-1]] = value
    code = cli.main(["cohomology", "--input", write_json(tmp_path / "gg.json", data)])
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.startswith("cannot read group-graph: ") and "Traceback" not in err


def test_benchmark_tracer_names_resolve():
    # the tracer reaches the program by name: a missing hook target reads 0,
    # a missing method crashes `perfbench/run.py --trace 1`
    import importlib
    import importlib.util
    import inspect

    path = Path(__file__).parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for name in tracing.HOOKS:
        layer, attr = name.split(".")
        mod = importlib.import_module(f"groupgraph.{layer}")
        fn = getattr(mod, attr, None)
        assert not attr.startswith("_") and inspect.isfunction(fn), name
        assert fn.__module__ == mod.__name__, name
    for layer, methods in tracing.METHODS.items():
        mod = importlib.import_module(f"groupgraph.{layer}")
        for cls_name, meth in methods:
            assert meth in vars(getattr(mod, cls_name)), (layer, cls_name, meth)

    # every groupgraph name the harness imports, and every attribute it reads
    # on one (`cli.FoliationSpec.from_json`, `generators.group_pool`)
    trees = [ast.parse(p.read_text()) for p in sorted(path.parent.glob("*.py"))]
    bound = {}
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "groupgraph":
            mod = importlib.import_module(node.module)
            for alias in node.names:
                bound[alias.asname or alias.name] = (
                    getattr(mod, alias.name) if hasattr(mod, alias.name)
                    else importlib.import_module(f"{node.module}.{alias.name}"))
    assert {"cli", "generators", "Graph", "GroupGraph"} <= set(bound)
    for node in (n for tree in trees for n in ast.walk(tree)):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in bound:
            obj = bound[node.id]
            for attr in reversed(chain):
                assert hasattr(obj, attr), (node.id, chain[::-1])
                obj = getattr(obj, attr)

    # each hook runs on its function's own arguments and result, so every
    # attribute it reads on a program object (`spec.is_red_edge`) must exist
    rng = random.Random(0)
    spec = foliation.FoliationSpec.from_json(
        json.loads((FIXTURES / "type4_two_reds.json").read_text()))
    samples = {
        "cohomology.h1_finite_bruteforce": (random_finite_group_graph(rng, random_tree(rng, 3)),),
        "foliation.scan_typed_geodesics": (spec,),
        "foliation.build_tf_red": (spec,),
        "linalg.rref": ([[1, 2], [3, 4]],),
    }
    assert set(samples) == set(tracing.HOOKS)
    tracer = tracing.Tracer()
    for name, args in samples.items():
        layer, attr = name.split(".")
        fn = getattr(importlib.import_module(f"groupgraph.{layer}"), attr)
        tracing.HOOKS[name](tracer, args, fn(*args))
    assert {"cohomology.z1_size", "foliation.scan.paths", "foliation.tf_red.c1_dim",
            "linalg.rref.cells"} <= set(tracer.work)
