"""groupgraph benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload analyze-red --seed 1 --seconds 38 --trace 0

Runs passes over the workload's ladder in process through
`groupgraph.cli.main`, as one closed-loop client (one op at a time, no
threads), against JSON inputs written before each pass, until the ops have
used --seconds.  Every op passes a correctness gate.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 a single
pass runs untraced and then traced, and the metrics are per-layer call
counts, exact work counts and time shares (see tracing.py), plus the tracing
overhead; the trace also runs the depth probe.  Spans are written to
perfbench/_work/.  At seed 0 each op's output must also match its digest in
perfbench/digests.json, which `--passes N --record-digests` records.  The
program is imported from src/ of the checkout holding this file; without it
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter, process_time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
DIGESTS = os.path.join(HERE, "digests.json")

SETUP_PROCS = 12  # fresh interpreters timed for setup_s, half before and half after the ops
DEADLINE_S = 140  # no op starts after this, so a run with a very slow pass still ends in time
PROBE_VERTICES = 1200  # all-red path for the scan_typed_geodesics depth probe
# Set and frozenset iteration order feeds instance generation inside selfcheck
# (generators iterate frozensets of vertices while drawing random numbers), so
# the hash seed is pinned: one workload seed then means one set of instances.
HASH_SEED = "0"


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "groupgraph", "cli.py")):
        sys.stderr.write(f"benchmark: no program source at {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    from groupgraph import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"benchmark: groupgraph imported from {cli.__file__}, not {SRC}\n")
        sys.exit(2)
    return cli


def measure_setup_s(count: int) -> list[float]:
    """Wall times of `count` fresh interpreters that import groupgraph.cli and
    build its parser, after one untimed start that compiles the bytecode cache
    and shows the start does not hang.  The timed starts wait without a
    timeout: with one, subprocess polls the child every 50 ms and every time
    reads as a multiple of 50 ms."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from groupgraph.cli import build_parser; build_parser()")
    cmd = [sys.executable, "-c", code, SRC]
    subprocess.run(cmd, check=True, timeout=60, cwd=ROOT)
    times = []
    for _ in range(count):
        start = perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        times.append(perf_counter() - start)
    return times


def run_op(cli, argv):
    """One CLI call with its output captured: (exit code, stdout, exception)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return cli.main(argv), out.getvalue(), None
        except SystemExit as exc:
            return exc.code, out.getvalue(), "SystemExit"
        except Exception as exc:  # recorded as a failed op, never fatal
            return None, out.getvalue(), type(exc).__name__


def gate(op, code, text, exc, digests) -> str | None:
    """None when the op's output is correct, else the reason it is not."""
    if exc is not None:
        return f"raised {exc}"
    if code != op.expect_code:
        return f"exit code {code}, expected {op.expect_code}"
    try:
        parsed = json.loads(text)
    except ValueError:
        return "output is not JSON"
    problem = op.check(parsed) if op.check else None
    if problem:
        return problem
    if digests is not None and op.name in digests:
        want = digests[op.name]
        got = hashlib.sha256(text.encode()).hexdigest()[:16]
        if want != got:
            return f"output digest {got} differs from the recorded {want}"
    return None


def scaling_exponent(sizes, times) -> float:
    """Least-squares slope of log(median op time per size) on log(size)."""
    by_size: dict = {}
    for s, t in zip(sizes, times):
        by_size.setdefault(s, []).append(t)
    xs = [math.log(s) for s in sorted(by_size)]
    ys = [math.log(statistics.median(by_size[s])) for s in sorted(by_size)]
    if len(xs) < 2:
        return float("nan")
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def tail(latencies) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples beyond it, or the maximum when there are too few."""
    ordered = sorted(latencies)
    k = max(0, len(ordered) - 11)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - 1 - k


def load_digests(workload, seed):
    if not os.path.isfile(DIGESTS):
        return None
    with open(DIGESTS, encoding="utf-8") as fh:
        rec = json.load(fh)
    if rec["seed"] != seed or workload not in rec["workloads"]:
        return None
    return rec["workloads"][workload]


def run_schedule(cli, ops, digests, call=None, deadline=None):
    """Run ops in order; returns per-op records and the loop's wall time."""
    records = []
    start = perf_counter()
    deadline = start + DEADLINE_S if deadline is None else deadline
    for i, op in enumerate(ops):
        if perf_counter() > deadline:
            print(f"deadline: {len(ops) - i} ops not started", flush=True)
            break
        t0, c0 = perf_counter(), process_time()
        code, text, exc = call(i, op) if call else run_op(cli, op.argv)
        t1, c1 = perf_counter(), process_time()
        problem = gate(op, code, text, exc, digests)
        if problem:
            print(f"FAILED {op.name}: {problem}", flush=True)
        records.append({"op": op, "wall": t1 - t0, "cpu": c1 - c0, "problem": problem,
                        "digest": hashlib.sha256(text.encode()).hexdigest()[:16]})
    return records, perf_counter() - start


def run_passes(cli, workload, args, workdir, digests):
    """Passes 0, 1, ... until the next would take the ops' time past
    --seconds (judged by the slowest pass so far), or exactly --passes of
    them.  Each pass's inputs are written before it and not timed.  Returns
    the op records and, per pass run to the end, (ok ops per wall second of
    the pass, CPU seconds per op)."""
    records, rates, cut, used = [], [], [], []
    deadline = perf_counter() + DEADLINE_S if not args.passes else math.inf
    p = 0
    while True:
        ops = workload.build(args.seed, p, workdir)
        # seeded shuffle: like ops spread over the pass, so a few seconds of a
        # slow host do not land on one size, whose ops would run back to back
        random.Random(f"{args.seed}:order:{p}").shuffle(ops)
        if p == 0:
            run_op(cli, ops[0].argv)  # warm-up: lazy caches filled before timing
        recs, wall = run_schedule(cli, ops, digests, deadline=deadline)
        if not recs:
            break
        records += recs
        ok = sum(1 for r in recs if r["problem"] is None)
        (rates if len(recs) == len(ops) else cut).append(
            (ok / wall, sum(r["cpu"] for r in recs) / len(recs)))
        used.append(wall)
        p += 1
        if args.passes:
            if p == args.passes:
                break
        elif sum(used) + max(used) > args.seconds or perf_counter() > deadline:
            break
    return records, rates or cut


def end_to_end(cli, workload, args, workdir):
    digests = load_digests(workload.name, args.seed)
    setup = measure_setup_s(SETUP_PROCS // 2)
    records, rates = run_passes(cli, workload, args, workdir, digests)
    setup += measure_setup_s(SETUP_PROCS - SETUP_PROCS // 2)
    lat = [r["wall"] for r in records]
    ok = sum(1 for r in records if r["problem"] is None)
    tail_v, tail_pct, beyond = tail(lat)
    metrics = {
        # medians over the passes: a pass slowed by the host weighs as one
        "ops_per_s": (statistics.median(r for r, _ in rates), "op/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (tail_v * 1e3, "ms"),
        "cpu_ms_per_op": (statistics.median(c for _, c in rates) * 1e3, "ms"),
        "scaling_exp": (scaling_exponent([r["op"].size for r in records],
                                         [r["cpu"] for r in records]), "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    failed = len(records) - ok
    for name, (value, unit) in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {unit}")
    print(f"{workload.name} op_tail_ms is p{tail_pct:.1f} of {len(lat)} ops ({beyond} beyond)")
    print(f"{workload.name} ops_per_s and cpu_ms_per_op are medians over {len(rates)} passes: "
          + " ".join(f"{r:.4g}" for r, _ in rates) + " op/s")
    print(f"{workload.name} failed_ratio = {failed / len(records):.6g} ({failed} of {len(records)})")
    checked = sum(1 for r in records if digests is not None and r["op"].name in digests)
    print(f"{workload.name} output digests checked on {checked} of {len(records)} ops")
    if args.record_digests:
        record_digests(workload.name, args, records)
    return records, metrics


def record_digests(workload, args, records):
    rec = {"seed": args.seed, "workloads": {}}
    if os.path.isfile(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as fh:
            rec = json.load(fh)
    if rec["seed"] != args.seed:
        rec = {"seed": args.seed, "workloads": {}}
    rec["workloads"][workload] = {r["op"].name: r["digest"] for r in records}
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(rec, fh, indent=1, sort_keys=True)
        fh.write("\n")


def traced(cli, workload, args, workdir):
    from tracing import Tracer
    from workloads import red_core_spec, seeded_rng

    ops = workload.build(args.seed, 0, workdir)
    run_op(cli, ops[0].argv)
    _, untraced_s = run_schedule(cli, ops, None)
    tracer = Tracer()
    tracer.install()
    try:
        records, traced_s = run_schedule(
            cli, ops, None, lambda i, op: tracer.op(i, run_op, cli, op.argv))
    finally:
        tracer.uninstall()
    # the depth probe gets a tracer of its own, so no op metric includes it
    spec = cli.FoliationSpec.from_json(
        red_core_spec("path", PROBE_VERTICES, seeded_rng(args.seed, "probe")))
    probe = Tracer()
    probe.install()
    try:
        cli.foliation.scan_typed_geodesics(spec)
    except RecursionError:
        pass
    finally:
        probe.uninstall()
    print(f"depth probe: scan_typed_geodesics on a {PROBE_VERTICES}-vertex all-red path: "
          + (", ".join(f"{k}:{e} x{n}" for (k, e), n in probe.errors.items()) or "completed"))
    os.makedirs(WORK, exist_ok=True)
    spans_path = os.path.join(WORK, f"spans-{workload.name}-s{args.seed}.jsonl")
    tracer.write_spans(spans_path)

    n_ops = len(records)
    calls, self_s, total_s, work = tracer.calls, tracer.self_s, tracer.total_s, tracer.work
    layers = tracer.layer_self_s()
    m = {
        "linalg.rref.calls": (calls["linalg.rref"], "count"),
        "linalg.rref.self_s": (self_s["linalg.rref"], "s"),
        "linalg.rref.cells": (work["linalg.rref.cells"], "count"),
        "linalg.extend_to_basis.calls": (calls["linalg.extend_to_basis"], "count"),
        "linalg.extend_to_basis.s": (total_s["linalg.extend_to_basis"], "s"),
        "graph.neighbors.calls": (calls["graph.Graph.neighbors"], "count"),
        "graph.neighbors.self_s": (self_s["graph.Graph.neighbors"], "s"),
        "graph.connected_components.calls": (calls["graph.connected_components"], "count"),
        "group_graph.GroupHom.apply.calls": (calls["group_graph.GroupHom.apply"], "count"),
        "group_graph.FiniteGroup.mul.calls": (calls["group_graph.FiniteGroup.mul"], "count"),
        "group_graph.is_regular.calls": (calls["group_graph.is_regular"], "count"),
        "group_graph.GroupGraph.from_json.self_s": (self_s["group_graph.GroupGraph.from_json"], "s"),
        "cohomology.h1_finite_bruteforce.calls": (calls["cohomology.h1_finite_bruteforce"], "count"),
        "cohomology.h1_finite_bruteforce.self_s": (self_s["cohomology.h1_finite_bruteforce"], "s"),
        "cohomology.h0.self_s": (self_s["cohomology.h0"], "s"),
        "cohomology.h1_vector.calls": (calls["cohomology.h1_vector"], "count"),
        "cohomology.h1_vector.self_s": (self_s["cohomology.h1_vector"], "s"),
        "cohomology.z1_size": (work["cohomology.z1_size"], "count"),
        "cohomology.c0_size": (work["cohomology.c0_size"], "count"),
        "cohomology.act_applications": (work["cohomology.act_applications"], "count"),
        "cohomology.classes_per_z1": (
            work["cohomology.classes"] / work["cohomology.z1_size"]
            if work["cohomology.z1_size"] else 0.0, "1"),
        "theorems.regular_h1.calls": (calls["theorems.regular_h1"], "count"),
        "theorems.regular_h1.self_s": (self_s["theorems.regular_h1"], "s"),
        "theorems.build_active_structure.calls": (calls["theorems.build_active_structure"], "count"),
        "theorems.pruning_verify.s": (total_s["theorems.pruning_verify"], "s"),
        "theorems.quotient_iso_verify.s": (total_s["theorems.quotient_iso_verify"], "s"),
        "theorems.direct_image_verify.s": (total_s["theorems.direct_image_verify"], "s"),
        "theorems.tensor_h1_verify.s": (total_s["theorems.tensor_h1_verify"], "s"),
        "foliation.validate.calls_per_op": (calls["foliation.validate"] / n_ops, "calls/op"),
        "foliation.validate.self_s": (self_s["foliation.validate"], "s"),
        "foliation.cut_graph.calls_per_op": (calls["foliation.cut_graph"] / n_ops, "calls/op"),
        "foliation.cut_graph.self_s": (self_s["foliation.cut_graph"], "s"),
        "foliation.scan_typed_geodesics.calls_per_op": (
            calls["foliation.scan_typed_geodesics"] / n_ops, "calls/op"),
        "foliation.scan_typed_geodesics.self_s": (self_s["foliation.scan_typed_geodesics"], "s"),
        "foliation.scan.paths": (work["foliation.scan.paths"], "count"),
        "foliation.is_finite_type.self_s": (self_s["foliation.is_finite_type"], "s"),
        "foliation.build_tf_red.self_s": (self_s["foliation.build_tf_red"], "s"),
        "foliation.tf_red.c1_dim": (work["foliation.tf_red.c1_dim"], "count"),
        "foliation.moduli_dimension.s": (total_s["foliation.moduli_dimension"], "s"),
        "foliation.scan_typed_geodesics.failed": (
            tracer.failures("foliation.scan_typed_geodesics")
            + probe.failures("foliation.scan_typed_geodesics"), "count"),
        "cli.parse.self_s": (tracer.self_under_cli(
            {"cli.json.load", "foliation.FoliationSpec.from_json", "group_graph.GroupGraph.from_json"}), "s"),
        "cli.emit.self_s": (tracer.self_under_cli(
            {"cli._emit", "cli._dump", "foliation.ModuliReport.dumps"}), "s"),
    }
    for layer, t in layers.items():
        m[f"{layer}.self_s"] = (t, "s")
    # Times become shares of the traced op time: a layer a workload never
    # calls has exactly zero time, which must not read as a stuck timer.
    # trace.ops_s converts a share back to seconds.
    op_total = tracer.total_s["bench.op"]
    m = {(k[:-1] + "pct" if u == "s" else k): ((100 * v / op_total, "%") if u == "s" else (v, u))
         for k, (v, u) in m.items()}
    m["trace.ops_s"] = (op_total, "s")
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")

    busy = sum(t for layer, t in layers.items() if layer != "bench") or 1.0
    print(f"{workload.name}: {n_ops} ops traced in {traced_s:.3f} s, untraced {untraced_s:.3f} s")
    for layer, t in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:12s} self {t:9.4f} s  {100 * t / busy:5.1f}%")
    for (key, exc), n in sorted(tracer.errors.items()):
        print(f"  raised: {key}:{exc} x{n}")
    print(f"spans: {len(tracer.spans)} written to {os.path.relpath(spans_path, ROOT)}")
    return records, m


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    cli = _import_program()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=38)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--passes", type=int, default=0,
                        help="run exactly this many passes instead of filling --seconds")
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's output digests as the reference for its seed")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    workdir = os.path.join(WORK, f"inputs-{workload.name}-s{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        run = traced if args.trace else end_to_end
        records, metrics = run(cli, workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(1 for r in records if r["problem"] is not None)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
