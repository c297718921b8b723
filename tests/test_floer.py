import collections
import csv
import dataclasses
import math
import random
import re
from pathlib import Path

import pytest

import lfk.floer
import lfk.lspace
from conftest import (SWEEP_ORDERS, build3_digests, build3_inputs,
                      build_digests, build_outcome, corner_table_per_point,
                      cross_check_per_point, cube_at, cube_gradings,
                      enumerate_valid_labelings, g_of, hat_per_point,
                      knot_one_negated, label_at, labels, lex_order,
                      random_profile, split_union_with_unknot, sweep_field,
                      sweep_order, symmetry_failures, tail_coeff,
                      theorem_sum, unstable_profile)
from lfk.bridge import TwoBridge, signature
from lfk.cli import all_candidates, family_links
from lfk.cubes import (GradedVS, _corner_at, _corner_from_grading_key,
                       complete_subgraph, corner_homology, euler_char,
                       vertex_gradings)
from lfk.errors import (HypothesisNotMet, LfkError, NotLSpaceLink,
                        RegionUnstable)
from lfk.floer import (HFLTable, _cube_rule, _stored,
                       alternating_cross_check, build_tgraph, hfl_hat,
                       hfl_minus)
from lfk.laurent import MultiLaurent, TailPoly
from lfk.lspace import (LinkProfile, box_points, cor_alex2_check, default_box,
                        m_vector, normalized_family, theorem_alex_check,
                        two_bridge_profile, unknot_profile, unlink_profile)


def vs(*pairs):
    return GradedVS(tuple(sorted(pairs)))


def fixed_profile(alpha, beta):
    prof = two_bridge_profile(TwoBridge(alpha, beta))
    rep = cor_alex2_check(prof)
    assert rep.sign is not None, (alpha, beta)
    return prof.with_signs({prof.full(): rep.sign})


def test_m_of_examples():
    assert m_vector(unknot_profile()) == (0,)
    assert m_vector(fixed_profile(20, -3)) == (4, 4)
    assert m_vector(two_bridge_profile(TwoBridge(6, 1))) == (3, 3)


def test_unknot_tgraph_and_table():
    prof = unknot_profile()
    tg = build_tgraph(prof)
    for p in range(-8, 7, 2):
        assert label_at(tg, (p,), 1) == (1 if p <= 0 else 0)
    table = hfl_minus(prof, tg)
    for s in range(tg.box[0][0], tg.box[0][1] + 1, 2):
        want = vs((s, 1)) if s <= 0 else GradedVS.zero()
        assert table.entry((s,)) == want


def test_field_is_stored_in_box_points_order():
    # One ascending layout at every number of components, and the unknot's
    # g: 0 above the tail, and falling by 2 per step at and below 0.
    for prof in (unknot_profile(), fixed_profile(20, -3), unlink_profile(3),
                 split_union_with_unknot(fixed_profile(14, -5))):
        tg = build_tgraph(prof)
        assert list(g_of(tg)) == list(box_points(_stored(tg.box)))
        assert len(tg.values) == len(g_of(tg))
    tg = build_tgraph(unknot_profile())
    (lo, hi), = _stored(tg.box)
    assert g_of(tg) == {(p,): min(p, 0) for p in range(lo, hi + 1, 2)}


def test_unknot_hat():
    table = hfl_minus(unknot_profile())
    assert hfl_hat(table, (0,)) == vs((0, 1))
    with pytest.raises(HypothesisNotMet) as exc:
        hfl_hat(table, (-2,))
    assert exc.value.offset == (1,)


def test_unlink_euler_vanishes():
    prof = unlink_profile(2)
    table = hfl_minus(prof)
    assert all(v.euler() == 0 for v in table.table.values())
    assert table.entry((0, 0)) == vs((0, 1), (-1, 1))
    assert table.euler_series().is_zero()


def test_b20_stable_region_edges_vanish():
    prof = fixed_profile(20, -3)
    tg = build_tgraph(prof)
    for (p, j), v in labels(tg).items():
        if p[j - 1] >= tg.m2[j - 1] + 2:
            assert v == 0


def test_b20_euler_identity():
    prof = fixed_profile(20, -3)
    table = hfl_minus(prof)
    assert table.euler_series() == normalized_family(prof).p_empty


def test_b20_hat_at_corner():
    prof = fixed_profile(20, -3)
    table = hfl_minus(prof)
    assert hfl_hat(table, (4, 4)) == vs((1, 1))


def test_b12_profile_is_rejected():
    with pytest.raises(NotLSpaceLink):
        build_tgraph(two_bridge_profile(TwoBridge(12, 5)))


def test_auto_sign_resolution_matches_explicit():
    auto = two_bridge_profile(TwoBridge(20, -3))     # all flags "auto"-ish
    t_auto = hfl_minus(auto, build_tgraph(auto))
    t_fixed = hfl_minus(fixed_profile(20, -3))
    assert t_auto.table == t_fixed.table


def test_pinned_wrong_sign_fails():
    prof = two_bridge_profile(TwoBridge(20, -3))
    rep = cor_alex2_check(prof)
    wrong = prof.with_signs({prof.full(): -rep.sign})
    with pytest.raises(NotLSpaceLink):
        build_tgraph(wrong)


def test_one_family_per_build(monkeypatch):
    # Every sublink's field reads its Euler targets and corner off the
    # link's one normalized family.
    calls = []

    def counting(prof):
        calls.append(prof)
        return normalized_family(prof)

    monkeypatch.setattr(lfk.lspace, "normalized_family", counting)
    monkeypatch.setattr(lfk.floer, "normalized_family", counting)
    b20 = fixed_profile(20, -3)
    for prof in (b20, split_union_with_unknot(b20), unlink_profile(3)):
        calls.clear()
        build_tgraph(prof)
        assert len(calls) == 1, prof.to_json()


def test_auto_builds_compute_each_level_geometry_once(monkeypatch):
    # A corner and a default box read only which entries vanish and their
    # extreme exponents, which a sign flip keeps: every sign assignment an
    # all-"auto" build tries shares them with its parent, so each level's
    # corner is computed once per profile and its box once per margin, and
    # each equals a fresh computation on every assignment's own family.
    calls, compute = collections.Counter(), {}
    for name in ("_corner", "_box"):
        memo = getattr(lfk.lspace, name)
        compute[name] = memo.__wrapped__

        def counting(fam, *args, name=name):
            calls[(name, *args)] += 1
            return compute[name](fam, *args)

        monkeypatch.setattr(memo, "__wrapped__", counting)
    rng = random.Random(41)
    for l in (2, 3) * 10:
        prof = random_profile(rng, l)
        calls.clear()
        for margin in (2, 3):
            try:
                build_tgraph(prof, margin=margin)
            except LfkError:
                pass
        assert max(calls.values()) == 1, (prof.to_json(), calls)
        geometry = prof.family.geometry
        assert geometry.keys() == calls.keys()
        for candidate in prof.assignments():
            assert candidate.family.geometry is geometry
            own = lfk.lspace._build_family(candidate)
            for (name, *args), value in geometry.items():
                assert getattr(lfk.lspace, name)(own, *args) == value, \
                    (prof.to_json(), name, args)


def test_corner_tables_only_compare_several_builds(monkeypatch):
    # A build computes no homology table, whichever assignment builds: the
    # pinned b(20,-3), its auto-sign form, and the three-component unlink
    # with knot 1 negated and every flag auto, whose vanishing polynomials
    # have no sign to try.
    calls = []
    real = lfk.floer._corner_table
    monkeypatch.setattr(lfk.floer, "_corner_table",
                        lambda tg: calls.append(tg) or real(tg))
    for prof in (fixed_profile(20, -3), two_bridge_profile(TwoBridge(20, -3)),
                 knot_one_negated(unlink_profile(3))):
        build_tgraph(prof)
    assert calls == []


def test_search_stops_at_first_build(monkeypatch):
    # b(20,-3) stored with the right signs and every flag auto: the first
    # of its 8 assignments keeps every stored polynomial, and builds.
    b20 = fixed_profile(20, -3)
    want = build_tgraph(b20).to_json()
    auto = LinkProfile(2, b20.lk, b20.delta)
    assert len(list(auto.assignments())) == 8
    calls = []
    real = lfk.floer._build_resolved
    monkeypatch.setattr(lfk.floer, "_build_resolved",
                        lambda *args: calls.append(args) or real(*args))
    assert build_tgraph(auto).to_json() == want
    assert len(calls) == 1


def _scrambled(rng, prof):
    """prof with a random set of its polynomials negated, every flag auto."""
    return LinkProfile(prof.l, prof.lk, {
        m: -p if rng.randint(0, 1) else p for m, p in prof.delta.items()})


def test_at_most_one_sign_assignment_builds():
    # The search in build_tgraph may stop at the first build because no
    # second assignment builds: pinned, each profile below builds at most
    # once.  Scrambled ones negate a random set of a profile's polynomials.
    rng = random.Random(8)
    pairs = [two_bridge_profile(link) for link in all_candidates(30)]
    unions = [split_union_with_unknot(fixed_profile(a, b))
              for a, b in ((2, -1), (8, -3), (20, -3))]
    profiles = [unlink_profile(2), unlink_profile(3),
                knot_one_negated(unlink_profile(2)),
                knot_one_negated(unlink_profile(3))]
    profiles += pairs + [knot_one_negated(p) for p in pairs]
    profiles += unions + [_scrambled(rng, u) for u in unions]
    profiles += [_scrambled(rng, rng.choice(pairs)) for _ in range(100)]
    profiles += [random_profile(rng, l) for l in (1, 2, 3) * 34]
    built = 0
    for prof in profiles:
        builds = 0
        for cand in prof.assignments():
            try:
                build_tgraph(cand)
                builds += 1
            except (NotLSpaceLink, RegionUnstable):
                pass
        assert builds <= 1, prof.to_json()
        built += builds
    assert built > len(profiles) // 3


def test_margin_resolves_alike_for_every_box(monkeypatch):
    prof = fixed_profile(20, -3)
    monkeypatch.setenv("LFK_MARGIN", "4")
    box = ((-10, 12), (-10, 12))
    assert theorem_alex_check(prof).box == default_box(prof) == box
    assert build_tgraph(prof).box == box
    for fn in (theorem_alex_check, default_box, build_tgraph):
        with pytest.raises(ValueError, match="at least 2"):
            fn(prof, margin=1)


def test_off_coset_box_edges_widen_outward():
    # b(20,-3) lives on even doubled coordinates: an odd edge moves out
    # by one step of the doubled lattice, i.e. down for lo and up for hi.
    prof = fixed_profile(20, -3)
    for box, on_lattice in ((((-8, 9), (-8, 8)), ((-8, 10), (-8, 8))),
                            (((-7, 7), (-7, 7)), ((-8, 8), (-8, 8)))):
        tg = build_tgraph(prof, box=box)
        want = build_tgraph(prof, box=on_lattice)
        assert tg.box == on_lattice
        assert tg.to_json() == want.to_json() and g_of(tg) == g_of(want)


def test_wrong_arity_box_is_refused():
    prof = fixed_profile(20, -3)
    for box in (((-8, 8),), ((-8, 8),) * 3):
        with pytest.raises(ValueError, match="expected 2"):
            build_tgraph(prof, box=box)


def test_narrow_box_field_is_refused_as_unstable():
    # At margin 2 the labels one step below the box differ from its bottom
    # row; at margin 4 the field builds on the box the theorem check reads.
    prof = unstable_profile()
    with pytest.raises(RegionUnstable) as exc:
        build_tgraph(prof, margin=2)
    assert str(exc.value) == (
        "labels below the box at (-4, 2) differ from the bottom row; "
        "enlarge the margin (LFK_MARGIN)")
    box = ((-4, 12), (0, 16))
    assert build_tgraph(prof, margin=4).box == box
    assert theorem_alex_check(prof, margin=4).box == box


def test_knot_field_matches_per_point_tail(monkeypatch):
    # The unknot and the torus knots T(2,3), T(2,5) and T(3,4): every label
    # of the stored region is the tail coefficient at its point, and the
    # tail is read in one pass over the region.
    calls = []
    coeffs = TailPoly.coeffs

    def counting(tail, vals):
        calls.append(vals)
        return coeffs(tail, vals)

    monkeypatch.setattr(TailPoly, "coeffs", counting)
    for terms in ({(0,): 1}, {(2,): 1, (0,): -1, (-2,): 1},
                  {(4,): 1, (2,): -1, (0,): 1, (-2,): -1, (-4,): 1},
                  {(6,): 1, (4,): -1, (0,): 1, (-4,): -1, (-6,): 1}):
        knot = frozenset({1})
        prof = LinkProfile(1, ((0,),), {knot: MultiLaurent(1, terms)},
                           {knot: "+"})
        calls.clear()
        tg = build_tgraph(prof)
        assert len(calls) == 1, terms
        tail = normalized_family(prof).p_empty
        (lo, hi), = _stored(tg.box)
        for p in range(lo + 2, hi + 1, 2):
            assert label_at(tg, (p,), 1) == tail_coeff(tail, p), (terms, p)


def test_sublink_refusal_names_link_coordinates():
    # Knot 1 of b(20,-3) replaced by 2u - 3 + 2/u: its tail coefficient -1
    # sits at exponent 0 in the knot's own coordinates, and at 2/2 in the
    # link's, which are shifted by half the linking number 2.
    prof = fixed_profile(20, -3)
    delta = dict(prof.delta)
    delta[frozenset({1})] = MultiLaurent(1, {(2,): 2, (0,): -3, (-2,): 2})
    with pytest.raises(NotLSpaceLink) as exc:
        build_tgraph(LinkProfile(2, prof.lk, delta, prof.signs))
    assert str(exc.value) == (
        "normalized coefficient -1 at exponent 2/2; "
        "not an L-space knot profile (or wrong sign)")


def test_g_field_is_path_independent():
    for alpha, beta in ((20, -3), (8, -3), (2, 1)):
        tg = build_tgraph(fixed_profile(alpha, beta))
        g = g_of(tg)
        for (p, j), v in labels(tg).items():
            down = tuple(x - (2 if k == j - 1 else 0) for k, x in enumerate(p))
            if p in g and down in g:
                assert g[p] - g[down] == 2 * v


def test_sweep_order_determinism():
    for alpha, beta in ((20, -3), (14, -5), (8, -3)):
        prof = fixed_profile(alpha, beta)
        a = build_tgraph(prof)
        with sweep_order(lex_order):
            b = build_tgraph(prof)
        assert labels(a) == labels(b) and g_of(a) == g_of(b)


def test_component_swap_symmetry():
    for alpha, beta in ((20, -3), (14, -3), (8, -3), (4, 3)):
        prof = fixed_profile(alpha, beta)
        table = hfl_minus(prof)
        for s, v in table.table.items():
            assert table.table[(s[1], s[0])] == v


def test_margin_enlargement_is_consistent():
    prof = fixed_profile(20, -3)
    small = build_tgraph(prof, margin=2)
    big = build_tgraph(prof, margin=4)
    for (p, j), v in labels(small).items():
        assert label_at(big, p, j) == v
    t_small = hfl_minus(prof, small)
    t_big = hfl_minus(prof, big)
    for s in box_points(small.box):
        assert t_small.entry(s) == t_big.entry(s)


def test_cross_check_b20_passes():
    prof = fixed_profile(20, -3)
    rep = alternating_cross_check(prof, signature(TwoBridge(20, -3)))
    assert rep.ok and rep.checked > 0


def test_cross_check_hopf_links():
    for beta in (1, -1):
        prof = fixed_profile(2, beta)
        rep = alternating_cross_check(prof, signature(TwoBridge(2, beta)))
        assert rep.ok


def test_cross_check_grading_mechanism_fails_on_b41():
    # b(4,1) survives the coefficient conditions but the hat groups cannot
    # match the alternating model.
    prof = fixed_profile(4, 1)
    rep = alternating_cross_check(prof, signature(TwoBridge(4, 1)))
    assert not rep.ok


def test_cross_check_double_support_mechanism_fails_on_b10():
    prof = fixed_profile(10, -3)
    rep = alternating_cross_check(prof, signature(TwoBridge(10, -3)))
    assert not rep.ok
    assert any("grading" in r or "dimension" in r for _, r in rep.mismatches)


def test_cross_check_vacuous_when_polynomial_vanishes():
    prof = unlink_profile(2)
    rep = alternating_cross_check(prof, 1)
    assert rep.ok


def _assert_cube_route(table):
    """The table read off the grading field agrees, at every box point,
    with corner homology of the unit cube assembled from edge labels, and
    the field has the L-space symmetry."""
    tg = table.tgraph
    assert not symmetry_failures(tg)
    for s in box_points(tg.box):
        assert table.entry(s) == corner_homology(*cube_at(tg, s)), s


def test_three_component_split_union_factors():
    # Adding a distant unknot tensors the table with F(s3)|_{s3<=0} and one
    # extra F(0)+F(-1) factor, the same factor the two-component unlink
    # exhibits relative to two unknots.  All build at the default margin.
    def tensor(a, b):
        out = {}
        for g1, m1 in a.dims:
            for g2, m2 in b.dims:
                out[g1 + g2] = out.get(g1 + g2, 0) + m1 * m2
        return GradedVS.from_dict(out)

    extra = GradedVS(((0, 1), (-1, 1)))
    for alpha, beta in ((2, -1), (20, -3), (14, -5)):
        pair = fixed_profile(alpha, beta)
        table = hfl_minus(split_union_with_unknot(pair))
        _assert_cube_route(table)
        h_table = hfl_minus(pair, build_tgraph(pair, box=table.box[:2]))
        for s in box_points(table.box):
            u = GradedVS(((s[2], 1),)) if s[2] <= 0 else GradedVS.zero()
            want = tensor(tensor(h_table.entry((s[0], s[1])), u), extra)
            assert table.entry(s) == want, (alpha, beta, s)


def test_three_component_unlink():
    prof = unlink_profile(3)
    tg = build_tgraph(prof)
    table = hfl_minus(prof, tg)
    _assert_cube_route(table)
    assert m_vector(prof) == (0, 0, 0)
    for s, v in table.table.items():
        assert v.euler() == 0
        # full symmetry under coordinate permutations
        assert table.table[(s[1], s[2], s[0])] == v
    assert table.entry((0, 0, 0)) == vs((0, 1), (-1, 2), (-2, 1))


def test_theorem_sums_are_lattice_labels():
    # The theorem's signed coefficient sum at s in direction r is the label
    # of the edge entering s - 2 * sum_{j != r} e_j in direction r: a route
    # to the labels that does not pass through the lattice graph.
    profiles = [fixed_profile(m.alpha, m.beta) for m in family_links(40)]
    profiles += [unlink_profile(3),
                 split_union_with_unknot(fixed_profile(20, -3))]
    for prof in profiles:
        tg = build_tgraph(prof)
        fam = normalized_family(prof)
        for s in box_points(tg.box):
            for r in range(1, tg.l + 1):
                p = tuple(x if k == r - 1 else x - 2 for k, x in enumerate(s))
                assert theorem_sum(fam, s, r) == label_at(tg, p, r), (s, r)


def test_family_members_build_up_to_40():
    for k in range(1, 41, 2):
        for q in range(3, 42, 2):
            alpha = q * k - 1
            if alpha < 2 or alpha > 40 or k >= alpha:
                continue
            prof = fixed_profile(alpha, -k)
            table = hfl_minus(prof)
            _assert_cube_route(table)
            assert table.euler_series() == normalized_family(prof).p_empty
            rep = alternating_cross_check(prof, signature(TwoBridge(alpha, -k)))
            assert rep.ok, (alpha, -k, rep.mismatches[:2])


def _hat_matches_per_point_route(table, s):
    """hfl_hat gives the per-point route's group, or refuses at the same
    offset; returns whether the hypothesis holds at s."""
    try:
        want = hat_per_point(table, s)
    except HypothesisNotMet as err:
        with pytest.raises(HypothesisNotMet) as exc:
            hfl_hat(table, s)
        assert exc.value.offset == err.offset, s
        return False
    assert hfl_hat(table, s) == want, s
    return True


def test_one_pass_readers_match_per_point_route_on_two_bridge_links():
    # The corner table reads g one column per cube offset and the
    # cross-check reads the hat groups in one pass; the per-point route
    # reads each cube and each hat group on its own.  Every buildable
    # (link, sign) pair with alpha <= 60, the cross-check failures included.
    built, failing = 0, set()
    for link in all_candidates(60):
        for sign in (1, -1):
            prof = two_bridge_profile(link)
            prof = prof.with_signs({prof.full(): sign})
            try:
                tg = build_tgraph(prof)
            except NotLSpaceLink:
                continue
            built += 1
            table = hfl_minus(prof, tg)
            assert table.table == corner_table_per_point(tg), (link, sign)
            sigma = signature(link)
            rep = alternating_cross_check(prof, sigma, table)
            assert rep == cross_check_per_point(sigma, table), (link, sign)
            if not rep.ok:
                failing.add((link.alpha, link.beta))
    assert built == 274
    assert {(4, 1), (8, 3), (10, 3)} <= failing


def test_hat_matches_per_point_route():
    # b(20,-3) over its box, where the hypothesis fails at many points, the
    # unlinks of two and three components, and the split unions of b(20,-3)
    # and b(14,-5) with an unknot, where most blocked points have more than
    # one nonzero up-offset.  Each box is read one step beyond its top too.
    b20 = fixed_profile(20, -3)
    for prof in (b20, unlink_profile(2), unlink_profile(3),
                 split_union_with_unknot(b20),
                 split_union_with_unknot(fixed_profile(14, -5))):
        table = hfl_minus(prof)
        held = [_hat_matches_per_point_route(table, s)
                for s in box_points([(lo, hi + 2) for lo, hi in table.box])]
        assert any(held) and not all(held)
        assert table.table == corner_table_per_point(table.tgraph)


def test_one_pass_corner_table_on_split_unions():
    # The split unions of the three-component benchmark workload (the
    # unlink, every family member with alpha <= 16, b(20,-3)) at margins 2
    # and 10.
    pairs = [unlink_profile(2), fixed_profile(20, -3)]
    pairs += [fixed_profile(q * k - 1, -k) for k in range(1, 18, 2)
              for q in range(1, 18, 2) if k < q * k - 1 <= 16]
    assert len(pairs) == 13
    for margin in (2, 10):
        for pair in pairs:
            table = hfl_minus(split_union_with_unknot(pair), margin=margin)
            assert table.table == corner_table_per_point(table.tgraph)


def test_build_matches_pinned_digests():
    # Digests of the graph (or of the refusal) under both sweep orders on
    # every (alpha, beta, sign) with alpha <= 60, recorded by build_digests
    # before cubes were graded from a memo per relative key.
    path = Path(__file__).parent / "data" / "build60.csv"
    with open(path, newline="") as fh:
        want = list(csv.reader(fh))[1:]
    got = [build_digests(link.alpha, link.beta, s)
           for link in all_candidates(60) for s in (1, -1)]
    for row_want, row_got in zip(want, got):
        assert row_got == row_want, f"first difference at {row_want[:3]}"
    assert len(got) == len(want) == 1492


def test_three_component_builds_match_pinned_digests():
    # Digests of the graph and its corner table (or of the refusal) at
    # margins 2 and 4 under both sweep orders, recorded by build3_digests
    # while g was a dict keyed by points.  The last three inputs are refused
    # inside the sweep.
    path = Path(__file__).parent / "data" / "build3.csv"
    with open(path, newline="") as fh:
        want = list(csv.reader(fh))[1:]
    inputs = build3_inputs()
    got = [row for name, prof in inputs for row in build3_digests(name, prof)]
    assert got == want
    assert len(got) == 4 * len(inputs) == 72
    for name, prof in inputs[-3:]:
        c = prof.delta[prof.full()].terms[(1, 1, 1)]
        with pytest.raises(NotLSpaceLink, match=re.escape(
                "forced cube at (2, 2, 2) has Euler characteristic 0, "
                f"need coefficient {c}")):
            build_tgraph(prof)


def _family_profiles():
    return [fixed_profile(m.alpha, m.beta) for m in family_links(100)]


def test_field_matches_the_cube_sweep():
    # The H-function field against the cube-by-cube sweep: the same values,
    # or the same refusal type and text.  The 106 family builds, the named
    # three-component inputs and the narrow-box profile at margins 2 and 4,
    # and 400 random profiles of 2 or 3 components at margins 2 and 3, each
    # pinned to its stored signs so that a draw is one build; most of those
    # are refused inside the sweep.
    cases = [(prof, 2) for prof in _family_profiles()]
    cases += [(prof, margin) for prof in
              [prof for _, prof in build3_inputs()] + [unstable_profile()]
              for margin in (2, 4)]
    rng = random.Random(24)
    draws = [next(random_profile(rng, rng.choice((2, 3))).assignments())
             for _ in range(400)]
    cases += [(prof, margin) for prof in draws for margin in (2, 3)]
    outcomes = {}
    for prof, margin in cases:
        got = build_outcome(prof, margin)
        assert got == build_outcome(prof, margin, sweep_field), \
            (prof.to_json(), margin)
        kind = got[1].split()[0] if isinstance(got[0], str) else "built"
        outcomes[kind] = outcomes.get(kind, 0) + 1
    assert len(cases) == 106 + 38 + 800
    assert min(outcomes[k] for k in ("built", "forced", "neither", "labels")) \
        > 1, outcomes


def test_fields_are_symmetric():
    # g(-p) = g(p) - sum(p) wherever p and -p are stored, on the family
    # builds, both unlinks and the named three-component inputs that build
    # at margin 2; and a field with one value changed breaks it at exactly
    # that point and its mirror.
    profiles = _family_profiles() + [unlink_profile(2), unlink_profile(3)]
    built = 0
    for prof in profiles + [prof for _, prof in build3_inputs()]:
        try:
            tg = build_tgraph(prof, margin=2)
        except NotLSpaceLink:
            continue
        built += 1
        assert not symmetry_failures(tg), prof.to_json()
    assert built == len(profiles) + 15
    tg = build_tgraph(fixed_profile(20, -3))
    g = g_of(tg)
    k, p = next((k, p) for k, p in enumerate(g)
                if any(p) and tuple(-x for x in p) in g)
    values = list(tg.values)
    values[k] += 2
    bent = dataclasses.replace(tg, values=tuple(values))
    assert sorted(symmetry_failures(bent)) == sorted(
        [p, tuple(-x for x in p)])


def test_cube_rule_runs_once_per_distinct_cube(monkeypatch):
    # b(100,-1), the largest family build: its 2809 interior cubes take 4
    # configurations (vertex gradings less the origin's, and coefficient),
    # and the builder consults the cube rule, uncached, once for each.
    calls = []
    rule = lfk.floer._cube_rule.__wrapped__
    monkeypatch.setattr(lfk.floer, "_cube_rule",
                        lambda l, rel: calls.append(rel) or rule(l, rel))
    tg = build_tgraph(fixed_profile(100, -1))
    interior = list(box_points([(lo - 2, m)
                                for (lo, _), m in zip(tg.box, tg.m2)]))
    p0 = tg.family.p_empty
    cubes = {(cube_gradings(tg, s)[1], p0.coeff(s)) for s in interior}
    assert len(calls) == len(cubes) == 4
    assert len(interior) == 2809


def test_memos_match_the_direct_rules():
    # The cube rule, keyed by the upper gradings less the first, shifted
    # back; and the corner group, keyed by the absolute gradings.
    for n in (1, 2, 3):
        for cl in enumerate_valid_labelings(n):
            for origin in (-6, 0, 10):
                gs = vertex_gradings(cl, origin)
                upper = gs[1:]
                comp = complete_subgraph(n, upper)
                unique, branches = _cube_rule(
                    n, tuple(x - upper[0] for x in upper))
                assert unique == comp.is_unique
                assert [(upper[0] + d, chi) for d, chi in branches] == [
                    (g0, euler_char(n, (g0, *upper))) for g0 in comp.origins]
                rel = tuple(x - origin for x in gs)
                assert _corner_at(n, gs) == \
                    _corner_from_grading_key(n, rel).shifted(origin)


def test_nonzero_set_matches_the_table():
    for prof in (fixed_profile(20, -3), unlink_profile(3)):
        table = hfl_minus(prof)
        assert table.nonzero == {s for s, vs in table.table.items()
                                 if not vs.is_zero()}
        assert table.nonzero and table.nonzero != set(table.table)


def test_sweep_orders_match_their_keys():
    # The keyed sorts the order functions replaced, as the oracle.
    old_key = {"sum": lambda s: (-sum(s), tuple(-x for x in s)),
               "lex": lambda s: tuple(-x for x in s)}
    boxes = [((3, 3),), ((-5, 7),), ((0, 0), (1, 1)), ((-4, 6), (1, 1)),
             ((1, 1), (-4, 6)), ((-3, 5), (-2, 8)), ((2, 2), (-1, -1), (4, 4)),
             ((-2, 2), (1, 1), (-3, 3)), ((-1, 3), (0, 4), (-5, 1))]
    assert {len(b) for b in boxes} == {1, 2, 3}
    for box in boxes:
        for name, key in old_key.items():
            assert list(SWEEP_ORDERS[name](box_points(box))) == \
                sorted(box_points(box), key=key), (name, box)


def test_cross_check_on_perturbed_tables():
    # Copies of two tables with entries replaced: a zero group where the
    # predicted coefficient is nonzero, a shifted grading, two gradings at
    # the top corner, and nonzero groups on every edge and corner of the box
    # (the bottom ones block points outside it); against the per-point route.
    reasons = set()
    for alpha, beta in ((20, -3), (14, -5)):
        prof = fixed_profile(alpha, beta)
        sigma = signature(TwoBridge(alpha, beta))
        table = hfl_minus(prof)
        ok = [s for s in sorted(table.nonzero)
              if _hat_matches_per_point_route(table, s)]
        (lo1, hi1), (lo2, hi2) = table.box
        entries = dict(table.table)
        for s in ((lo1, lo2), (lo1 + 4, lo2), (lo1, lo2 + 6), (lo1, hi2),
                  (hi1, lo2), (hi1 - 4, hi2), (hi1, hi2 - 6)):
            entries[s] = vs((0, 1))
        entries[(hi1, hi2)] = vs((0, 1), (2, 1))
        entries[ok[0]] = GradedVS.zero()
        for s in ok[1:]:
            (g, d), = table.table[s].dims
            entries[s] = vs((g + 1, d))
        bent = HFLTable(table.tgraph, entries)
        rep = alternating_cross_check(prof, sigma, bent)
        assert rep == cross_check_per_point(sigma, bent), (alpha, beta)
        assert ok[0] in dict(rep.mismatches) and len(rep.mismatches) > 5
        reasons |= {r.split()[0] for _, r in rep.mismatches}
    assert reasons == {"dimension", "supported", "grading"}
