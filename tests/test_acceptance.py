"""Acceptance suite: one test per criterion, each printing a verdict line.

Every comparison is exact; the stated wall-clock budgets are asserted too.
Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
"""

import math
import random
import time
from collections import Counter
from pathlib import Path

import pytest

from conftest import cube_at, rand_nonzero, rand_poly
from lfk.bridge import (TwoBridge, _tridiag_signature, alexander_of,
                        signature, signature_of_matrix, tridiagonal_matrix)
from lfk.cli import (classification_summary, classify, family_links,
                     records_to_csv)
from lfk.cubes import (CubeLabeling, GradedVS, corner_homology,
                       enumerate_valid_labelings, euler_char, facet,
                       oracle_corner_homology, vertex_gradings)
from lfk.errors import DimensionUnsupported, NotLSpaceLink
from lfk.floer import build_tgraph, hfl_minus
from lfk.laurent import MultiLaurent, diagonal, exact_div
from lfk.lspace import (cor_alex2_check, normalized_family,
                        theorem_alex_check, two_bridge_profile,
                        unknot_profile, unlink_profile)

B20_DELTA = MultiLaurent(2, {
    (1, 3): 1, (3, 1): 1, (1, -1): 1, (-1, 1): 1, (-3, -1): 1, (-1, -3): 1,
    (3, 3): -1, (1, 1): -1, (-1, -1): -1, (-3, -3): -1})
B20_P_EMPTY = MultiLaurent(2, {
    (2, 4): 1, (4, 2): 1, (2, 0): 1, (0, 2): 1, (-2, 0): 1, (0, -2): 1,
    (4, 4): -1, (2, 2): -1, (0, 0): -1, (-2, -2): -1})


def _verdict(num, label, t0, budget):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"[acceptance] criterion {num} PASS ({elapsed:.2f}s) - {label}")


def two_bridge_candidates(max_alpha):
    for alpha in range(2, max_alpha + 1, 2):
        for beta in range(-alpha + 1, alpha, 2):
            if math.gcd(alpha, beta) == 1:
                yield TwoBridge(alpha, beta)


def test_criterion_1_example_reproduction():
    t0 = time.perf_counter()
    prof = two_bridge_profile(TwoBridge(20, -3))
    rep = cor_alex2_check(prof)
    assert rep.sign is not None
    prof = prof.with_signs({prof.full(): rep.sign})
    assert prof.delta[prof.full()] == B20_DELTA
    assert normalized_family(prof).p_empty == B20_P_EMPTY
    assert prof.lkval(1, 2) == 2
    _verdict(1, "b(20,-3) ten-term polynomials and linking number", t0, 1.0)


def test_criterion_2_cube_tables():
    t0 = time.perf_counter()
    got2 = Counter(repr(corner_homology(cl, 0))
                   for cl in enumerate_valid_labelings(2))
    assert got2 == Counter({"0": 3, "F(3)": 1, "F(2)": 1, "F(4) + F(3)": 1})

    def nondegenerate(cl):
        return all(not corner_homology(facet(cl, a, s), 0).is_zero()
                   for a in (1, 2, 3) for s in (0, 1))

    nd = [cl for cl in enumerate_valid_labelings(3) if nondegenerate(cl)]
    got3 = Counter(repr(corner_homology(cl, 0)) for cl in nd)
    assert got3 == Counter(["F(3)^2", "F(4) + F(3)^2", "F(4)^2",
                            "F(5)^2 + F(4)", "F(6) + F(5)^2 + F(4)"])
    _verdict(2, "n=2 and n=3 corner homology multisets", t0, 1.0)


def test_criterion_3_oracle_equivalence():
    t0 = time.perf_counter()
    count = 0
    for n in (1, 2, 3):
        for cl in enumerate_valid_labelings(n):
            for origin in (-4, 0, 10):
                assert (corner_homology(cl, origin)
                        == oracle_corner_homology(cl, origin))
                count += 1
    _verdict(3, f"corner homology equals the oracle on {count} cases", t0, 10.0)


def test_criterion_4_dimension_four():
    t0 = time.perf_counter()
    got = oracle_corner_homology(CubeLabeling.all_one(4), 0)
    allowed = {
        GradedVS(((5, 1), (6, 3), (7, 3), (8, 1))),
        GradedVS(((5, 1), (6, 2), (7, 2), (8, 1))),
    }
    assert got in allowed
    with pytest.raises(DimensionUnsupported):
        corner_homology(CubeLabeling.all_one(4), 0)
    _verdict(4, "n=4 all-ones lands in the two-element set; n=4 refused", t0, 10.0)


def test_criterion_5_euler_coherence():
    t0 = time.perf_counter()
    built = 0
    for link in two_bridge_candidates(60):
        prof = two_bridge_profile(link)
        rep = cor_alex2_check(prof)
        if rep.sign is not None:
            prof = prof.with_signs({prof.full(): rep.sign})
        try:
            tg = build_tgraph(prof)
        except NotLSpaceLink:
            continue
        built += 1
        table = hfl_minus(prof, tg)
        p0 = normalized_family(prof).p_empty
        assert table.euler_series() == p0, link
        for s, v in table.table.items():
            cube, _ = cube_at(tg, s)
            chi = euler_char(tg.l, vertex_gradings(cube))
            assert chi == p0.coeff(s) == v.euler(), (link, s)
    assert built > 0
    _verdict(5, f"Euler identity on all {built} buildable profiles, alpha<=60",
             t0, 120.0)


def test_criterion_6_classification():
    t0 = time.perf_counter()
    records = classify(60)
    summary = classification_summary(records)
    survivors = {r.class_id for r in records if r.survivor}
    family = {r.class_id for r in records if r.family_member}
    assert summary["match"]
    assert survivors == family == set(summary["family"])
    reference = Path(__file__).parents[1] / "bench" / "reference" / "sweep60.csv"
    assert records_to_csv(records).encode() == reference.read_bytes()
    _verdict(6, f"classify(60): {len(survivors)} surviving classes equal the "
             "known family", t0, 300.0)


def test_criterion_7_signature_cross_validation():
    # signature() is a sum of signs; on every family member it must equal
    # the family's closed form and the band diagonalization of the matching
    # tridiagonal Goeritz matrix, and on the smaller members the generic
    # exact diagonalization of that matrix as well.
    t0 = time.perf_counter()
    checked = 0
    for k in range(1, 201, 2):
        for q in range(1, 202, 2):
            for alpha, corner, form in ((q * k - 1, 1 - k, q - 2),
                                        (q * k + 1, 1 + k, q)):
                if not (2 <= alpha <= 200 and k < alpha):
                    continue
                if corner == 1 - k and k == 1:
                    continue   # covered by the other family with q' = q - 2
                assert signature(TwoBridge(alpha, k)) == form
                assert signature(TwoBridge(alpha, -k)) == -form
                assert _tridiag_signature(q, corner) == form
                if q <= 61:
                    assert signature_of_matrix(
                        tridiagonal_matrix(q, corner)) == form
                checked += 1
    assert signature_of_matrix(tridiagonal_matrix(5, 4)) == 5
    assert signature(TwoBridge(8, 3)) == 1
    _verdict(7, f"closed form equals Goeritz diagonalization on {checked} "
             "family members, alpha<=200", t0, 5.0)


def test_criterion_8_theorem_soundness():
    t0 = time.perf_counter()
    passed = 0
    for k in range(1, 61, 2):
        for q in range(3, 62, 2):
            alpha = q * k - 1
            if alpha < 2 or alpha > 60 or k >= alpha:
                continue
            prof = two_bridge_profile(TwoBridge(alpha, -k))
            rep = cor_alex2_check(prof)
            assert rep.sign is not None, (alpha, -k)
            prof = prof.with_signs({prof.full(): rep.sign})
            assert theorem_alex_check(prof).ok, (alpha, -k)
            passed += 1
    assert theorem_alex_check(unknot_profile()).ok
    assert theorem_alex_check(unlink_profile(2)).ok
    hopf = two_bridge_profile(TwoBridge(2, -1))
    hopf = hopf.with_signs({hopf.full(): cor_alex2_check(hopf).sign})
    assert theorem_alex_check(hopf).ok

    assert not theorem_alex_check(two_bridge_profile(TwoBridge(12, 5))).ok
    rejected = 0
    for link in two_bridge_candidates(60):
        prof = two_bridge_profile(link)
        p0 = normalized_family(prof).p_empty
        if all(abs(c) <= 1 for c in p0.terms.values()):
            continue
        assert not theorem_alex_check(prof).ok, link
        assert not theorem_alex_check(
            prof.with_signs({prof.full(): -1})).ok, link
        rejected += 1
    assert rejected > 0
    _verdict(8, f"signed sums pass on {passed} family members and fail on "
             f"{rejected} big-coefficient candidates", t0, 60.0)


def test_criterion_9_property_suites():
    t0 = time.perf_counter()
    rng = random.Random(99)

    # ring axioms and the diagonal convolution identity, 1000+ instances
    for _ in range(1000):
        par = (rng.randint(0, 1), rng.randint(0, 1))
        a = rand_poly(rng, parity=par, max_terms=5)
        b = rand_poly(rng, parity=par, max_terms=5)
        c = rand_poly(rng, parity=par, max_terms=5)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        d = rand_nonzero(rng, parity=(0, 0), max_terms=4)
        assert exact_div(a * d, d) == a
        k = 2 * rng.randint(-3, 3) + (par[0] - par[1]) % 2
        conv = MultiLaurent.zero(2)
        for i2 in {e2[0] - e2[1] for e2 in a.terms}:
            conv = conv + diagonal(a, i2) * diagonal(b, k - i2)
        assert diagonal(a * b, k) == conv

    # lattice-graph properties on the profiles the suite exercises
    profiles = []
    for alpha, beta in ((2, -1), (4, -1), (8, -3), (14, -5), (20, -3),
                        (20, -7), (4, 3), (6, 5), (10, -3)):
        prof = two_bridge_profile(TwoBridge(alpha, beta))
        rep = cor_alex2_check(prof)
        if rep.sign is None:
            continue
        profiles.append(prof.with_signs({prof.full(): rep.sign}))
    for prof in profiles:
        a = build_tgraph(prof, sweep_order="sum")
        b = build_tgraph(prof, sweep_order="lex")
        assert a.labels == b.labels and a.g == b.g
        for (p, j), v in a.labels.items():
            down = tuple(x - (2 if k == j - 1 else 0) for k, x in enumerate(p))
            if p in a.g and down in a.g:
                assert a.g[p] - a.g[down] == 2 * v
        table = hfl_minus(prof, a)
        for s, v in table.table.items():
            assert table.table[(s[1], s[0])] == v
    _verdict(9, f"1000 random ring/diagonal instances; determinism, "
             f"path-independence and swap symmetry on {len(profiles)} profiles",
             t0, 120.0)
