import csv
import json
import math
import random
from pathlib import Path

import pytest

from conftest import (cor_check_per_column, random_profile, screen_digests,
                      split_union_with_unknot, theorem_check_per_point)
from lfk.bridge import TwoBridge
from lfk.cli import family_links
from lfk.errors import CosetViolation, RegionUnstable
from lfk.laurent import MultiLaurent, TailPoly
from lfk.lspace import (LinkProfile, box_points, cor_alex2_check, default_box,
                        m_vector, normalized_family, r_sum,
                        theorem_alex_check, theorem_field, theorem_sum,
                        two_bridge_profile, unknot_profile, unlink_profile)

B20_P_EMPTY = MultiLaurent(2, {
    (2, 4): 1, (4, 2): 1, (2, 0): 1, (0, 2): 1, (-2, 0): 1, (0, -2): 1,
    (4, 4): -1, (2, 2): -1, (0, 0): -1, (-2, -2): -1})


def b20_profile():
    prof = two_bridge_profile(TwoBridge(20, -3))
    rep = cor_alex2_check(prof)
    assert rep.sign is not None
    return prof.with_signs({prof.full(): rep.sign})


def test_normalized_family_b20():
    fam = normalized_family(b20_profile())
    assert fam.p_empty == B20_P_EMPTY
    for s, var in ((frozenset({1}), 2), (frozenset({2}), 1)):
        tail = fam[s]
        assert isinstance(tail, TailPoly)
        assert tail.var == var
        assert tail.is_pure and tail.threshold2 == 2 and tail.scale == 1


def test_normalized_family_unlink():
    fam = normalized_family(unlink_profile(2))
    assert fam.p_empty.is_zero()
    for s in (frozenset({1}), frozenset({2})):
        assert fam[s].is_pure and fam[s].threshold2 == 0


def test_normalized_family_unknot():
    fam = normalized_family(unknot_profile())
    tail = fam.p_empty
    assert isinstance(tail, TailPoly)
    assert tail.coeff(0) == 1 and tail.coeff(-10) == 1 and tail.coeff(2) == 0


def test_coset_violation_detected():
    # Linking number 0 forces half-integer exponents on the full polynomial,
    # so a constant is off-lattice.
    with pytest.raises(CosetViolation):
        LinkProfile(2, ((0, 0), (0, 0)),
                    {frozenset({1}): MultiLaurent.const(1, 1),
                     frozenset({2}): MultiLaurent.const(1, 1),
                     frozenset({1, 2}): MultiLaurent.const(2, 1)})


def test_r_sum_examples():
    fam = normalized_family(b20_profile())
    assert r_sum(fam, {2}, (2, 0), 1) == 1
    assert r_sum(fam, {2}, (4, 0), 1) == 0
    assert r_sum(fam, frozenset(), (4, 0), 1) == 0
    assert r_sum(fam, frozenset(), (4, 4), 1) == -1


def test_r_sum_matches_naive():
    rng = random.Random(21)
    for alpha, beta in ((20, -3), (12, 5), (14, -3), (30, 7)):
        fam = normalized_family(two_bridge_profile(TwoBridge(alpha, beta)))
        p0 = fam.p_empty
        for _ in range(60):
            pt = (2 * rng.randint(-6, 6), 2 * rng.randint(-6, 6))
            for r in (1, 2):
                naive = sum(c for e2, c in p0.terms.items()
                            if e2[r - 1] == pt[r - 1]
                            and e2[2 - r] >= pt[2 - r])
                assert r_sum(fam, frozenset(), pt, r) == naive


def test_r_sum_stabilizes_beyond_newton_box():
    fam = normalized_family(b20_profile())
    for r in (1, 2):
        far = 20
        base = [0, 0]
        base[2 - r - 1] = far
        assert r_sum(fam, frozenset(), tuple(base), r) == 0


def test_theorem_check_b20_passes():
    rep = theorem_alex_check(b20_profile())
    assert rep.ok and not rep.violations


def test_theorem_check_b12_fails():
    rep = theorem_alex_check(two_bridge_profile(TwoBridge(12, 5)))
    assert not rep.ok
    assert any(v not in (0, 1) for _, _, v in rep.violations)


def test_theorem_check_unlink_and_unknot():
    assert theorem_alex_check(unlink_profile(2)).ok
    assert theorem_alex_check(unknot_profile()).ok


def test_theorem_check_narrow_box_is_unstable():
    prof = b20_profile()
    with pytest.raises(RegionUnstable):
        theorem_alex_check(prof, box=((0, 2), (0, 2)))


def test_theorem_check_box_edge_off_the_lattice():
    # An explicit box edge off the lattice coset is compared outward: the
    # face at 3 differs from its neighbour at 5, the face at 9 does not.
    prof = b20_profile()
    assert theorem_alex_check(prof, box=((-8, 9), (-8, 8))).ok
    with pytest.raises(RegionUnstable, match=r"at \(3, 2\)"):
        theorem_alex_check(prof, box=((-8, 3), (-8, 8)))


def test_theorem_check_refuses_inverted_box():
    # An axis with lo > hi has no points; the check refuses it instead of
    # checking nothing and then comparing faces outward.
    prof = b20_profile()
    for box in (((4, 0), (0, 2)), ((0, 2), (2, 0))):
        with pytest.raises(ValueError, match="lo > hi"):
            theorem_alex_check(prof, box=box)
    assert theorem_alex_check(prof, box=((-8, 8), (8, 8))).ok


def _two_bridge_pairs(max_alpha):
    for alpha in range(2, max_alpha + 1, 2):
        for beta in range(-alpha + 1, alpha, 2):
            if math.gcd(alpha, beta) == 1:
                yield alpha, beta


def test_theorem_field_matches_pointwise_sums():
    cases = [(unknot_profile(), None), (unlink_profile(2), None),
             (unlink_profile(3), None),
             (split_union_with_unknot(b20_profile()), None)]
    cases += [(b20_profile(), box) for box in
              (((-8, 9), (-8, 8)), ((-8, 3), (-8, 8)), ((-8, 8), (8, 8)))]
    for alpha, beta in _two_bridge_pairs(30):
        prof = two_bridge_profile(TwoBridge(alpha, beta))
        cases += [(prof.with_signs({prof.full(): s}), None) for s in (1, -1)]
    for prof, box in cases:
        fam = normalized_family(prof)
        # the grid the check reads: box, outward neighbours, upper edge
        grid = [sorted({lo - 2, *range(lo, hi + 1, 2), hi, hi + 2})
                for lo, hi in box or default_box(prof)]
        values = theorem_field(fam, grid)
        assert len(values) == math.prod(map(len, grid)) * prof.l
        for (p, r), v in values.items():
            assert v == theorem_sum(fam, p, r), (prof.to_json(), p, r)


def test_theorem_check_screening_matches_reference():
    # The passing (alpha, beta, sign) triples recorded for the benchmark.
    ref = Path(__file__).parents[1] / "bench" / "reference" / "obstruct60.json"
    want = {tuple(x) for x in json.loads(ref.read_text())["passing"]}
    passing = set()
    for alpha, beta in _two_bridge_pairs(60):
        prof = two_bridge_profile(TwoBridge(alpha, beta))
        passing |= {(alpha, beta, s) for s in (1, -1) if theorem_alex_check(
            prof.with_signs({prof.full(): s})).ok}
    assert len(want) == 274
    assert passing == want


def test_screen_matches_pinned_digests():
    # Digests of both checks on every (alpha, beta, sign) with alpha <= 60,
    # recorded by screen_digests before the theorem field was evaluated by
    # rows and the corollary check by one sorted pass.
    path = Path(__file__).parent / "data" / "check60.csv"
    with open(path, newline="") as fh:
        want = list(csv.reader(fh))[1:]
    got = [screen_digests(alpha, beta, s)
           for alpha, beta in _two_bridge_pairs(60) for s in (1, -1)]
    for row_want, row_got in zip(want, got):
        assert row_got == row_want, f"first difference at {row_want[:3]}"
    assert len(got) == len(want) == 1492


def _outcome(check, prof, **kw):
    try:
        return check(prof, **kw)
    except RegionUnstable as err:
        return str(err)


def _signed_pair(alpha, beta):
    prof = two_bridge_profile(TwoBridge(alpha, beta))
    return prof.with_signs({prof.full(): cor_alex2_check(prof).sign})


def test_theorem_check_matches_per_point_route():
    cases = [(unknot_profile(), {}), (unlink_profile(2), {}),
             (unlink_profile(3), {})]
    cases += [(b20_profile(), {"box": box}) for box in
              (((0, 2), (0, 2)), ((-8, 9), (-8, 8)), ((-8, 3), (-8, 8)),
               ((-8, 8), (8, 8)))]
    for alpha, beta in _two_bridge_pairs(30):
        prof = two_bridge_profile(TwoBridge(alpha, beta))
        cases += [(prof.with_signs({prof.full(): s}), {}) for s in (1, -1)]
    pairs = [unlink_profile(2)] + [_signed_pair(m.alpha, m.beta)
                                   for m in family_links(16)]
    pairs.append(b20_profile())
    cases += [(split_union_with_unknot(p), {"margin": 2}) for p in pairs]
    # margin 10 costs the per-point route about a second per union
    cases += [(split_union_with_unknot(p), {"margin": 10})
              for p in (pairs[0], pairs[-2], pairs[-1])]
    for prof, kw in cases:
        kw.setdefault("margin", 2)
        assert _outcome(theorem_alex_check, prof, **kw) == \
            _outcome(theorem_check_per_point, prof, **kw), (prof.to_json(), kw)


def test_cor_check_matches_per_column_route():
    profiles = [unlink_profile(2), two_bridge_profile(TwoBridge(12, 5)),
                b20_profile().with_signs({frozenset({1}): -1})]
    profiles += [two_bridge_profile(TwoBridge(alpha, beta))
                 for alpha, beta in _two_bridge_pairs(100)]
    for prof in profiles:
        assert cor_alex2_check(prof) == cor_check_per_column(prof), \
            prof.to_json()


def test_cor_check_b20():
    prof = two_bridge_profile(TwoBridge(20, -3))
    rep = cor_alex2_check(prof)
    assert rep.sign == -1          # the sign alexander() builds must be flipped
    fixed = prof.with_signs({prof.full(): rep.sign})
    assert cor_alex2_check(fixed).ok
    assert cor_alex2_check(fixed).sign == 1
    assert not cor_alex2_check(
        fixed.with_signs({fixed.full(): -1})).ok


def test_cor_check_b12_coefficient_clause():
    rep = cor_alex2_check(two_bridge_profile(TwoBridge(12, 5)))
    assert not rep.ok and rep.sign is None
    assert rep.first_failure()[0] == "coefficient"


def test_cor_check_vacuous_on_unlink():
    rep = cor_alex2_check(unlink_profile(2))
    assert rep.ok
    assert rep.sign is None    # both signs pass when the polynomial vanishes


def test_cor_flipped_component_sign_fails():
    prof = b20_profile().with_signs({frozenset({1}): -1})
    assert not cor_alex2_check(prof).ok
    assert not theorem_alex_check(prof).ok


def test_theorem_iff_cor_on_two_bridge_links():
    for alpha, beta in _two_bridge_pairs(40):
        prof = two_bridge_profile(TwoBridge(alpha, beta))
        for s in (1, -1):
            ps = prof.with_signs({prof.full(): s})
            assert cor_alex2_check(ps).ok == theorem_alex_check(ps).ok


def test_at_most_one_sign_passes():
    for alpha, beta in ((20, -3), (8, -3), (14, -5), (4, 1), (10, -3)):
        prof = two_bridge_profile(TwoBridge(alpha, beta))
        passing = [s for s in (1, -1)
                   if cor_alex2_check(
                       prof.with_signs({prof.full(): s})).ok]
        assert len(passing) <= 1


def test_m_vector():
    assert m_vector(unknot_profile()) == (0,)
    assert m_vector(b20_profile()) == (4, 4)
    assert m_vector(unlink_profile(2)) == (0, 0)
    # single-expansion family b(2w, 1) has corner (w/2, w/2)
    assert m_vector(two_bridge_profile(TwoBridge(6, 1))) == (3, 3)


def test_default_box_contains_support_with_margin():
    prof = b20_profile()
    box = default_box(prof)
    p0 = normalized_family(prof).p_empty
    for i in (1, 2):
        lo, hi = box[i - 1]
        assert lo <= p0.min_exp2(i) - 4
        assert hi >= m_vector(prof)[i - 1] + 4


def _recursive_corner(prof):
    """The corner by recursion over sub-profiles: a knot's is the top degree
    of Delta; a link's coordinate i is the top u_i degree of P_empty or a
    sublink corner shifted by the linking number with the dropped
    component."""
    if prof.l == 1:
        return (prof.delta[prof.full()].max_exp2(1),)
    p0 = normalized_family(prof).p_empty
    out = []
    for i in range(1, prof.l + 1):
        cands = [] if p0.is_zero() else [p0.max_exp2(i)]
        for j in range(1, prof.l + 1):
            if j != i:
                sub = _recursive_corner(prof.sub_profile(prof.full() - {j}))
                cands.append(sub[i - (j < i) - 1] + prof.lkval(i, j))
        out.append(max(cands))
    return tuple(out)


def _recursive_box(prof, margin):
    """The default box by the same recursion: the support of P_empty (or
    the corner) padded by the margin, and for a vanishing P_empty the hull
    with every sublink's box shifted by linking numbers."""
    m2 = _recursive_corner(prof)
    p0 = normalized_family(prof).p_empty
    box = []
    for i in range(1, prof.l + 1):
        if isinstance(p0, TailPoly):
            lo, hi = p0.numer.min_exp2(1), p0.numer.max_exp2(1)
        elif p0.is_zero():
            lo = hi = m2[i - 1]
        else:
            lo, hi = p0.min_exp2(i), p0.max_exp2(i)
        box.append((lo - 2 * margin, max(m2[i - 1], hi) + 2 * margin))
    if not isinstance(p0, TailPoly) and p0.is_zero():
        for j in range(1, prof.l + 1):
            keep = [k for k in range(1, prof.l + 1) if k != j]
            sub = _recursive_box(prof.sub_profile(frozenset(keep)), margin)
            for k, (lo, hi) in zip(keep, sub):
                shift = prof.lkval(k, j)
                box[k - 1] = (min(box[k - 1][0], lo + shift),
                              max(box[k - 1][1], hi + shift))
    return tuple(box)


def test_corner_and_box_match_sublink_recursion():
    # m_vector and default_box read every sublink off the link's own
    # family; the recursion over re-indexed sub-profiles is a second route.
    profiles = [unknot_profile(), unlink_profile(2), unlink_profile(3)]
    profiles += [split_union_with_unknot(two_bridge_profile(TwoBridge(a, b)))
                 for a, b in ((2, -1), (14, -5), (20, -3))]
    for alpha, beta in _two_bridge_pairs(30):
        prof = two_bridge_profile(TwoBridge(alpha, beta))
        profiles += [prof.with_signs({prof.full(): s}) for s in (1, -1)]
    rng = random.Random(6)
    profiles += [random_profile(rng, l) for l in (2, 3) * 30]
    for prof in profiles:
        assert m_vector(prof) == _recursive_corner(prof), prof.to_json()
        for margin in (2, 4):
            assert default_box(prof, margin) == _recursive_box(prof, margin), \
                (prof.to_json(), margin)
    # A vanishing knot polynomial has no corner, alone or in a link.
    zero_knot = dict(profiles[3].delta)
    zero_knot[frozenset({3})] = MultiLaurent.zero(1)
    for prof in (LinkProfile(1, ((0,),), {frozenset({1}): MultiLaurent.zero(1)}),
                 LinkProfile(3, profiles[3].lk, zero_knot)):
        for fn in (m_vector, default_box):
            with pytest.raises(ValueError, match="nonzero Alexander"):
                fn(prof)


def test_profile_json_roundtrip():
    prof = b20_profile()
    blob = json.dumps(prof.to_json(), sort_keys=True)
    back = LinkProfile.from_json(json.loads(blob))
    assert back.delta == prof.delta
    assert back.lk == prof.lk
    assert back.signs == prof.signs
    assert json.dumps(back.to_json(), sort_keys=True) == blob


def test_sub_profile():
    prof = b20_profile()
    sub = prof.sub_profile(frozenset({2}))
    assert sub.l == 1
    assert sub.delta[frozenset({1})] == MultiLaurent.const(1, 1)


def test_theorem_sum_three_components_unlink():
    prof = unlink_profile(3)
    fam = normalized_family(prof)
    for pt in box_points(((-2, 2), (-2, 2), (-2, 2))):
        for r in (1, 2, 3):
            assert theorem_sum(fam, pt, r) in (0, 1)
    assert theorem_alex_check(prof).ok
