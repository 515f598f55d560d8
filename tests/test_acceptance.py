"""Acceptance suite: oracle-equivalence properties at desk scale.

Every criterion is exact (rational arithmetic or integer counts, tolerance
zero) and prints one pass/fail line; run with `pytest -v -s` to see them.
"""

import json
import random
import subprocess
import sys
from pathlib import Path

from groupgraph.cohomology import h1_finite_bruteforce, h1_vector
from groupgraph.foliation import (
    FoliationSpec,
    characterization_crosscheck,
    is_finite_type,
    moduli_dimension,
    validate,
)
from groupgraph.generators import (
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
from groupgraph.theorems import (
    check_repulsive,
    direct_image_verify,
    pruning_verify,
    quotient_iso_verify,
    regular_h1,
    tensor_h1_verify,
)

FIXTURES = Path(__file__).parent / "fixtures"


def report(criterion: str, detail: str):
    print(f"[PASS] {criterion}: {detail}")


def test_criterion_1_active_edge_formula_vs_linear_algebra():
    for seed in range(200):
        g = random_regular_vector(random.Random(f"c1:{seed}"), max_vertices=10)
        _, res = regular_h1(g)
        ref = h1_vector(g)
        assert res.dim == ref.dim, f"seed {seed}: {res.dim} != {ref.dim}"
    report("criterion 1", "200 regular vector instances, active-edge dim == rank dim")


def test_criterion_2_bruteforce_vs_closed_form():
    for seed in range(100):
        g = random_regular_finite(
            random.Random(f"c2:{seed}"), max_vertices=6, max_order=8
        )
        st, res = regular_h1(g)
        implied = 1
        for e in st.a_prime:
            implied *= g.eobj[e].order
        brute = h1_finite_bruteforce(g).count
        assert brute == implied == res.count, f"seed {seed}"
    report("criterion 2", "100 regular finite instances, brute force == basis product")


def test_criterion_3_pruning_invariance():
    for seed in range(200):
        rng = random.Random(f"c3:{seed}")
        carrier = "vector" if seed % 2 else "finite"
        g, r = random_repulsive_instance(rng, carrier, max_vertices=6)
        ok, data = pruning_verify(g, r)
        assert ok, f"seed {seed}"
        assert data["ambient"].size() == data["restricted"].size()
    detected = 0
    for seed in range(20):
        g, r = random_nonrepulsive_instance(random.Random(f"c3n:{seed}"))
        assert not check_repulsive(g, r).is_repulsive()
        detected += 1
    report("criterion 3", f"200 repulsive instances bijective, {detected} negative controls rejected")


def test_criterion_4_quotient_isomorphism():
    total_pairs = 0
    for seed in range(50):
        g, k = random_exact_sequence(random.Random(f"c4:{seed}"), max_vertices=3, good=True)
        rpt = quotient_iso_verify(g, k)
        assert rpt["bijective"], f"seed {seed}"
        assert not rpt["lift_failures"], f"seed {seed}: {rpt['lift_failures']}"
        total_pairs += rpt["lifted_pairs"]
    report("criterion 4", f"50 exact sequences bijective, {total_pairs} pairs lifted constructively")


def test_criterion_5_direct_image():
    for seed in range(100):
        phi, g = random_direct_image_pair(random.Random(f"c5:{seed}"), max_vertices=5)
        rpt = direct_image_verify(phi, g)
        assert rpt["injective"], f"seed {seed}"
        assert rpt["image_ok"], f"seed {seed}"
        if rpt["fibers_trivial"]:
            assert rpt["surjective"], f"seed {seed}"
    report("criterion 5", "100 pairs: injective always, surjective under trivial fibers, image law")


def test_criterion_6_tensor():
    for seed in range(50):
        rng = random.Random(f"c6:{seed}")
        t = random_vector_group_graph(rng, random_tree(rng, rng.randint(2, 6)))
        base = h1_vector(t).dim
        for w in (0, 1, 2, 3):
            assert tensor_h1_verify(t, w), f"seed {seed} dim {w}"
    report("criterion 6", "50 instances x dims 0..3: dim multiplies exactly")


def test_criterion_7_moduli_triple_agreement():
    finite_seen = 0
    for seed in range(200):
        spec = FoliationSpec.from_json(
            random_foliation_spec(random.Random(f"c7:{seed}"), max_vertices=12)
        )
        assert validate(spec) == [], f"seed {seed}"
        rpt = moduli_dimension(spec)  # raises on any pipeline disagreement
        assert rpt.finite_type == "finite", f"seed {seed}"
        assert rpt.moduli_dim == len(rpt.basis_edges)
        finite_seen += 1
    report("criterion 7", f"{finite_seen} finite-type specs, three pipelines agree exactly")


def test_criterion_8_characterization():
    finite_count = injected_count = 0
    for seed in range(100):
        rng = random.Random(f"c8:{seed}")
        if seed % 2 == 0:
            spec = FoliationSpec.from_json(random_foliation_spec(rng, require_red=True))
            expected = "finite"
            finite_count += 1
        else:
            spec = FoliationSpec.from_json(random_injected_spec(rng, (seed // 2) % 4 + 1))
            expected = "not-finite"
            injected_count += 1
        assert validate(spec) == [], f"seed {seed}"
        verdict, reports = is_finite_type(spec)
        assert verdict == expected, f"seed {seed}: {verdict} != {expected}"
        if verdict == "not-finite":
            typed = [
                w for entry in reports for w in entry["witnesses"]
                if w.get("type") in (1, 2, 3, 4)
            ]
            assert typed, f"seed {seed}: no typed witness"
        assert characterization_crosscheck(spec), f"seed {seed}"
    report(
        "criterion 8",
        f"{finite_count} finite + {injected_count} injected specs, verdicts match construction",
    )


def test_criterion_9_worked_example_regression():
    for name, checks in (
        ("type4_two_reds", {"finite_type": "not-finite", "moduli_dim": "infinite"}),
        ("active_red_segment", {"finite_type": "finite", "moduli_dim": 1}),
    ):
        expected = (FIXTURES / f"{name}.report.json").read_text()
        r = subprocess.run(
            [sys.executable, "-m", "groupgraph.cli", "analyze",
             "--input", str(FIXTURES / f"{name}.json")],
            capture_output=True, text=True,
        )
        assert r.returncode == 0
        assert r.stdout == expected, f"{name}: report is not byte-identical"
        rep = json.loads(r.stdout)
        for key, val in checks.items():
            assert rep[key] == val
    report("criterion 9", "both committed fixtures reproduce byte-identical reports")
