import csv
import json
import math
import random
from pathlib import Path

import pytest

import lfk.floer
import lfk.lspace
from conftest import (cor_check_per_column, h_at, knot_one_negated,
                      knotted_profile, r_sum, rand_nonzero, random_profile,
                      screen_digests, split_union_with_unknot, sub_profile,
                      tail_coeff, theorem_check_per_point, theorem_field,
                      theorem_sum, unit_coeffs, unstable_profile)
from lfk.bridge import TwoBridge
from lfk.cli import family_links
from lfk.errors import CosetViolation, LfkError, RegionUnstable
from lfk.floer import build_tgraph
from lfk.laurent import MultiLaurent, TailPoly
from lfk.lspace import (LinkProfile, TheoremReport, box_points,
                        cor_alex2_check, default_box, m_vector,
                        normalized_family, resolve_margin, subsets_of,
                        theorem_alex_check, two_bridge_profile,
                        unknot_profile, unlink_profile)

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
        assert tail.numer == MultiLaurent(1, {(2,): 1})


def test_normalized_family_unlink():
    fam = normalized_family(unlink_profile(2))
    assert fam.p_empty.is_zero()
    for s in (frozenset({1}), frozenset({2})):
        assert fam[s].numer == MultiLaurent(1, {(0,): 1})


def test_normalized_family_unknot():
    fam = normalized_family(unknot_profile())
    tail = fam.p_empty
    assert isinstance(tail, TailPoly)
    assert (tail_coeff(tail, 0), tail_coeff(tail, -10),
            tail_coeff(tail, 2)) == (1, 1, 0)


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
    prof = unstable_profile()
    with pytest.raises(RegionUnstable):
        theorem_alex_check(prof, margin=2)


def _two_bridge_pairs(max_alpha):
    for alpha in range(2, max_alpha + 1, 2):
        for beta in range(-alpha + 1, alpha, 2):
            if math.gcd(alpha, beta) == 1:
                yield alpha, beta


def _same_shape_pairs():
    """Back-to-back draws of 2 and 3 components with a margin from 2 to 5,
    one pair per count and margin, whose default boxes have equal per-axis
    lengths but lie elsewhere and on another coset in some direction: index
    work memoized by a box's shape serves both, and one keyed on too little
    gives the second the first's values."""
    rng, first, pairs = random.Random(7), {}, {}
    while len(pairs) < 8:
        prof = random_profile(rng, rng.choice((2, 3)))
        for margin in (2, 3, 4, 5):
            box = default_box(prof, margin)
            key = (prof.l, margin, tuple(hi - lo for lo, hi in box))
            other = first.setdefault(key, (prof, box))
            if any((a - b) % 2 for (a, _), (b, _) in zip(box, other[1])):
                pairs.setdefault(key[:2], [(other[0], margin),
                                           (prof, margin)])
    return [case for key in sorted(pairs) for case in pairs[key]]


def test_h_values_match_pointwise_oracle():
    # Every sublink level of 1-3-component draws, tails included, over
    # lattice rects that cut through the entries' terms as well as ones
    # around them: terms below a rect drop out, the ones above it and a
    # tail's coefficients above it sum into its top.  The field's scale
    # of -2 goes into the buckets.
    rng = random.Random(25)
    for l in (1, 2, 3) * 40:
        prof = random_profile(rng, l)
        fam = normalized_family(prof)
        for s_set in subsets_of(l, proper=True):
            for _ in range(3):
                rect = []
                for j in range(1, l + 1):
                    if j not in s_set:
                        lo = 2 * rng.randint(-6, 3) + prof.coset_parity(j)
                        rect.append((lo, lo + 2 * rng.randint(0, 6)))
                values = lfk.lspace._h_values(fam, s_set, tuple(rect))
                pts = list(box_points(rect))
                assert len(values) == len(pts)
                assert lfk.lspace._h_values(fam, s_set, tuple(rect), -2) \
                    == [-2 * v for v in values]
                for p, v in zip(pts, values):
                    assert v == h_at(fam, s_set, p), (prof.to_json(), s_set, p)
    # Each level's default box over the same-shape pairs, whose full
    # levels' boxes have equal lengths within a pair.
    for prof, margin in _same_shape_pairs():
        fam = normalized_family(prof)
        for s_set in subsets_of(prof.l, proper=True):
            rect = lfk.lspace._box(fam, s_set, margin)
            values = lfk.lspace._h_values(fam, s_set, rect)
            for p, v in zip(box_points(rect), values, strict=True):
                assert v == h_at(fam, s_set, p), (prof.to_json(), s_set, p)


def test_theorem_field_matches_pointwise_sums(monkeypatch):
    # The rects _h_values is read over: the theorem check's box grown by
    # one step, and at every sublink level the builder's stored region one
    # step up (a knot tail's reaches one step higher).  Each H difference
    # there is the theorem sum of that sublink.
    seen, h_values = [], lfk.lspace._h_values

    def recording(fam, s_set, rect, scale=1):
        seen.append((fam, s_set, rect))
        return h_values(fam, s_set, rect, scale)

    monkeypatch.setattr(lfk.lspace, "_h_values", recording)
    monkeypatch.setattr(lfk.floer, "_h_values", recording)
    cases = [(unknot_profile(), {}), (unlink_profile(2), {}),
             (unlink_profile(3), {}),
             (split_union_with_unknot(b20_profile()), {})]
    # explicit boxes are widened to the lattice and the default box
    cases += [(b20_profile(), {"box": box}) for box in
              (((-8, 9), (-8, 8)), ((-8, 3), (-8, 8)), ((-8, 8), (8, 8)))]
    for alpha, beta in _two_bridge_pairs(30):
        prof = two_bridge_profile(TwoBridge(alpha, beta))
        cases += [(prof.with_signs({prof.full(): s}), {}) for s in (1, -1)]
    # Fields with many nonzero values at l = 3 exercise every stride.
    rng = random.Random(12)
    cases += [(prof, {"margin": margin})
              for prof in [random_profile(rng, l) for l in (2, 3) * 2]
              for margin in (2, 3)]
    levels = set()
    for prof, kw in cases:
        seen.clear()
        runs = [build_tgraph] if "box" in kw else [theorem_alex_check,
                                                   build_tgraph]
        for run in runs:
            try:
                run(prof, **kw)
            except LfkError:
                pass
        assert seen, prof.to_json()
        for fam, s_set, rect in seen:
            levels.add(len(s_set))
            comps = [j for j in range(1, prof.l + 1) if j not in s_set]
            values = theorem_field(fam, s_set, rect)
            sizes = [(hi - lo) // 2 + 1 for lo, hi in rect]
            assert len(values) == sum(math.prod(sizes) // n * (n - 1)
                                      for n in sizes)
            point2 = [0] * prof.l
            for (p, r), v in values.items():
                for j, x in zip(comps, p):
                    point2[j - 1] = x
                assert v == theorem_sum(fam, point2, r, s_set), \
                    (prof.to_json(), s_set, p, r)
    assert levels == {0, 1, 2}


def test_theorem_check_screening_matches_reference():
    # The passing (alpha, beta, sign) triples recorded for the benchmark.
    ref = Path(__file__).parents[1] / "bench" / "reference" / "obstruct60.json"
    want = {tuple(x) for x in json.loads(ref.read_text())["passing"]}
    passing = set()
    for alpha, beta in _two_bridge_pairs(60):
        prof = two_bridge_profile(TwoBridge(alpha, beta))
        for s in (1, -1):
            rep = theorem_alex_check(prof.with_signs({prof.full(): s}))
            # the verdict from the gathered values agrees with the list
            assert rep.ok == (not rep.violations), (alpha, beta, s)
            if rep.ok:
                passing.add((alpha, beta, s))
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
    cases += [(unstable_profile(), {"margin": m}) for m in (2, 4)]
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
    rng = random.Random(11)
    cases += [(prof, {"margin": margin})
              for prof in [random_profile(rng, l) for l in (2, 3) * 3]
              for margin in (2, 3)]
    cases += [(prof, {"margin": margin})
              for prof, margin in _same_shape_pairs()]
    for prof, kw in cases:
        kw.setdefault("margin", 2)
        assert _outcome(theorem_alex_check, prof, **kw) == \
            _outcome(theorem_check_per_point, prof, **kw), (prof.to_json(), kw)


def _dense_outcome(prof, margin):
    """theorem_alex_check by the dense route alone: the refusal's type and
    text, else the report with the values _dense_values gives."""
    box = default_box(prof, margin)
    try:
        values = lfk.lspace._dense_values(normalized_family(prof), box)
    except LfkError as err:
        return type(err), str(err)
    return TheoremReport(all(v in (0, 1) for vs in values for v in vs), box,
                         values)


def test_two_component_runs_match_dense_route():
    # Random knotted components make tails that are not pure; the
    # two-bridge candidates pass under one sign more often than not.
    rng = random.Random(28)
    cases = [(cand, margin) for prof in [knotted_profile(rng)
                                         for _ in range(40)]
             for cand in prof.assignments() for margin in (2, 3, 5)]
    for alpha, beta in list(_two_bridge_pairs(60))[::4]:
        prof = two_bridge_profile(TwoBridge(alpha, beta))
        cases += [(prof.with_signs({prof.full(): s}), 2) for s in (1, -1)]
    cases += [(unstable_profile(), margin) for margin in (2, 3, 4, 5)]
    # Edge inputs: a vanishing P_empty, a knot of tail -1, a vanishing
    # Delta_12 under knotted tails, and a wide margin.
    cases.append((unlink_profile(2), 2))
    b20 = b20_profile()
    cases += [(cand, 2) for cand in knot_one_negated(b20).assignments()]
    for _ in range(6):
        prof = knotted_profile(rng)
        delta = {**prof.delta, prof.full(): MultiLaurent.zero(2)}
        cases += [(cand, 2) for cand
                  in LinkProfile(2, prof.lk, delta).assignments()]
    cases += [(prof, 12) for prof in (b20, unstable_profile(), cases[0][0])]
    seen = set()
    for prof, margin in cases:
        want = _dense_outcome(prof, margin)
        try:
            got = theorem_alex_check(prof, margin)
        except LfkError as err:
            got = type(err), str(err)
        if isinstance(want, tuple):
            assert got == want, (prof.to_json(), margin)
            seen.add("refused")
            continue
        assert "values" not in vars(got)
        assert (got.ok, got.box) == (want.ok, want.box), (prof.to_json(),
                                                          margin)
        assert got.values == want.values, (prof.to_json(), margin)
        seen.add(got.ok)
    assert seen == {True, False, "refused"}


def test_two_component_report_reads_values_once(monkeypatch):
    calls, h_values = [], lfk.lspace._h_values

    def counting(*args):
        calls.append(args)
        return h_values(*args)

    monkeypatch.setattr(lfk.lspace, "_h_values", counting)
    rng = random.Random(29)
    profiles = [b20_profile(), two_bridge_profile(TwoBridge(12, 5))]
    profiles += [next(knotted_profile(rng).assignments()) for _ in range(6)]
    for prof in profiles:
        for read in ("violations", "to_json"):
            rep = theorem_alex_check(prof, 3)
            assert rep.ok in (True, False) and not calls
            if read == "violations":
                rep.violations
            else:
                rep.to_json()
            rep.to_json(), rep.violations, rep.values
            assert len(calls) == 1, prof.to_json()
            calls.clear()
    with pytest.raises(RegionUnstable) as err:
        theorem_alex_check(unstable_profile(), 2)
    assert str(err.value) == ("value changes stepping outward at (0, 4) "
                              "(direction 2); enlarge the margin")


def test_cor_check_matches_per_column_route():
    profiles = [unlink_profile(2), two_bridge_profile(TwoBridge(12, 5)),
                b20_profile().with_signs({frozenset({1}): -1})]
    profiles += [two_bridge_profile(TwoBridge(alpha, beta))
                 for alpha, beta in _two_bridge_pairs(100)]
    # Random draws fail the coefficient clause far more often; draws with
    # unit coefficients and knotted components fail the tail, leading and
    # alternation clauses and pass under either sign alone.
    rng = random.Random(13)
    profiles += [random_profile(rng, 2) for _ in range(300)]
    profiles += [_unit_profile(rng) for _ in range(300)]
    for prof in profiles:
        assert cor_alex2_check(prof) == cor_check_per_column(prof), \
            prof.to_json()


def _unit_profile(rng):
    """A random two-component profile with every coefficient 1 or -1,
    whose components are knotted half the time."""
    prof = random_profile(rng, 2)
    delta = {m: unit_coeffs(p) for m, p in prof.delta.items()}
    for m in (frozenset({1}), frozenset({2})):
        if rng.random() < 0.5:
            delta[m] = unit_coeffs(rand_nonzero(rng, nvars=1, max_terms=3,
                                                span=2, parity=(0,)))
    return LinkProfile(2, prof.lk, delta)


def test_with_signs_matches_validating_constructor():
    rng = random.Random(14)
    for l in (1, 2, 3) * 40:
        prof = random_profile(rng, l)
        keys = subsets_of(l, nonempty=True)
        pick = rng.sample(keys, rng.randint(0, len(keys)))
        resolution = {m: rng.choice((1, -1)) for m in pick}
        delta, signs = dict(prof.delta), dict(prof.signs)
        for m, s in resolution.items():
            delta[m] = delta[m] * s
            signs[m] = "+"
        want = LinkProfile(prof.l, prof.lk, delta, signs)
        got = prof.with_signs(resolution)
        assert got == want, (prof.to_json(), resolution)
        assert got.to_json() == want.to_json()


def test_with_signs_carries_the_family():
    # A family built before the flip is carried over with the flipped
    # entries negated; one not built yet is built by the child.  Either
    # way it is the validating constructor's, and the parent's stays.
    rng = random.Random(15)
    for l in (1, 2, 3) * 40:
        for built in (True, False):
            prof = random_profile(rng, l)
            keys = subsets_of(l, nonempty=True)
            pick = rng.sample(keys, rng.randint(0, len(keys)))
            resolution = {m: rng.choice((1, -1)) for m in pick}
            delta = {m: p * resolution.get(m, 1) for m, p in prof.delta.items()}
            want = normalized_family(LinkProfile(l, prof.lk, delta))
            before = dict(normalized_family(prof).entries) if built else None
            got = normalized_family(prof.with_signs(resolution))
            assert got.l == l and got.entries.keys() == want.entries.keys()
            for s, entry in want.entries.items():
                assert got.entries[s] == entry, (prof.to_json(), resolution, s)
            if built:
                assert normalized_family(prof).entries == before
            else:
                assert "family" not in vars(prof)


def test_obstruct_chain_builds_one_family_per_input(monkeypatch):
    # The corollary check builds the family; both sign flips derive theirs
    # from it.
    builds, build = [], lfk.lspace._build_family

    def counting(prof):
        builds.append(prof)
        return build(prof)

    monkeypatch.setattr(lfk.lspace, "_build_family", counting)
    # They share one sort of the normalized polynomial's runs, too.
    runs, read = [], lfk.lspace._runs.__wrapped__
    monkeypatch.setattr(lfk.lspace._runs, "__wrapped__",
                        lambda fam: runs.append(fam) or read(fam))
    inputs = [(20, -3), (12, 5), (8, -3), (30, 7), (44, -13)]
    for alpha, beta in inputs:
        prof = two_bridge_profile(TwoBridge(alpha, beta))
        cor_alex2_check(prof)
        for s in (1, -1):
            theorem_alex_check(prof.with_signs({prof.full(): s}))
    assert len(builds) == len(runs) == len(inputs)


def test_with_signs_refuses_bad_sign_and_unknown_key():
    prof = two_bridge_profile(TwoBridge(12, 5))
    # None is the sign of a failed corollary; it used to pin "+".
    for bad in (None, 0, 2, "+"):
        with pytest.raises(ValueError, match=r"'12'"):
            prof.with_signs({prof.full(): bad})
    # An unknown key is refused under either sign, naming the key.
    for s in (1, -1, None):
        with pytest.raises(ValueError, match=r"'13'"):
            prof.with_signs({frozenset({1, 3}): s})


def test_library_margin_must_be_an_integer():
    prof = two_bridge_profile(TwoBridge(8, -3))
    prof = prof.with_signs({prof.full(): cor_alex2_check(prof).sign})
    for bad in (3.0, 2.5, True, "3"):
        for call in (resolve_margin, lambda m: default_box(prof, margin=m),
                     lambda m: theorem_alex_check(prof, margin=m),
                     lambda m: build_tgraph(prof, margin=m)):
            with pytest.raises(TypeError, match="box margin must be an "
                               f"integer, got {bad!r}"):
                call(bad)
    assert resolve_margin(3) == 3
    assert default_box(prof, margin=3) == ((-6, 8), (-6, 8))


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
    assert rep.failures[0][0] == "coefficient"


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
    # Knotted components: the corollary scans each tail from one step
    # below its numerator, the theorem over the box only, so a tail that
    # fails below the box fails the corollary alone.
    rng = random.Random(31)
    profiles = [knotted_profile(rng) for _ in range(300)]
    profiles += [random_profile(rng, 2) for _ in range(300)]
    seen = set()
    for cand in (c for prof in profiles for c in prof.assignments()):
        cor = cor_alex2_check(cand)
        for margin in (2, 3):
            try:
                thm = theorem_alex_check(cand, margin)
            except RegionUnstable:
                continue
            assert thm.ok or not cor.ok, (cand.to_json(), margin)
            if thm.ok and not cor.ok:
                assert all(clause == "tail" and not
                           thm.box[r - 1][0] - 2 <= er <= thm.box[r - 1][1]
                           for clause, r, er, _ in cor.failures), \
                    (cand.to_json(), margin)
            seen.add((thm.ok, cor.ok))
    assert seen == {(True, True), (True, False), (False, False)}


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
                sub = _recursive_corner(sub_profile(prof, prof.full() - {j}))
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
            sub = _recursive_box(sub_profile(prof, frozenset(keep)), margin)
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
    sub = sub_profile(prof, frozenset({2}))
    assert sub.l == 1
    assert sub.delta[frozenset({1})] == MultiLaurent.const(1, 1)


def test_theorem_sum_three_components_unlink():
    prof = unlink_profile(3)
    fam = normalized_family(prof)
    for pt in box_points(((-2, 2), (-2, 2), (-2, 2))):
        for r in (1, 2, 3):
            assert theorem_sum(fam, pt, r) in (0, 1)
    assert theorem_alex_check(prof).ok
