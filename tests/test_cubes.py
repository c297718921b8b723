import itertools
import random
from collections import Counter

import pytest

from lfk.cubes import (Completion, CubeLabeling, GradedVS, complete_subgraph,
                       corner_homology, edges, enumerate_valid_labelings,
                       euler_char, facet, oracle_corner_homology, validate,
                       vertex_gradings, vertices)
from lfk.errors import (DimensionUnsupported, IncompleteLabels,
                        InvalidLabeling, OddGrading)


def square(a, b, c, d):
    """n=2 labeling: a: 0->e1, b: 0->e2, c: e1->11, d: e2->11."""
    return CubeLabeling(2, {((0, 0), 1): a, ((0, 0), 2): b,
                            ((1, 0), 2): c, ((0, 1), 1): d})


def vs(*pairs):
    return GradedVS(tuple(sorted(pairs)))


def up(v, j):
    return v[:j - 1] + (1,) + v[j:]


def faces_agree(cl):
    """Opposite paths around every square face carry equal label sums."""
    for v, i in edges(cl.n):
        for j in range(i + 1, cl.n + 1):
            if not v[j - 1] and (cl.label(v, i) + cl.label(up(v, i), j)
                                 != cl.label(v, j) + cl.label(up(v, j), i)):
                return False
    return True


def upper_gradings(n, partial):
    """Gradings of the non-origin vertices, in ``vertices`` order, that the
    labels on the edges between them give (0 at the far corner), or None
    when those labels disagree around a square face."""
    g = {(1,) * n: 0}
    for v in sorted(vertices(n)[1:], key=sum, reverse=True):
        j = v.index(0) + 1 if 0 in v else None
        if j is not None:
            g[v] = g[up(v, j)] - 2 * partial[(v, j)]
    for (v, j), val in partial.items():
        if g[up(v, j)] - g[v] != 2 * val:
            return None
    return tuple(g[v] for v in vertices(n)[1:])


def labelings_from_gradings(n):
    """Every labeling of the n-cube that comes from integer heights h with
    h(0) = 0 rising by 0 or 1 along each edge; the label is the rise."""
    verts = sorted(itertools.product((0, 1), repeat=n), key=sum)

    def extend(h, k):
        if k == len(verts):
            yield CubeLabeling(n, {(v, j): h[up(v, j)] - h[v]
                                   for v, j in edges(n)})
            return
        v = verts[k]
        lower = [h[v[:j] + (0,) + v[j + 1:]] for j in range(n) if v[j]]
        for x in (range(max(lower), min(lower) + 2) if lower else (0,)):
            yield from extend({**h, v: x}, k + 1)

    yield from extend({}, 0)


def test_validate_examples():
    assert validate(square(0, 1, 1, 0))
    assert not validate(square(0, 0, 1, 0))
    for n in (1, 2, 3):
        es = edges(n)
        for bits in itertools.product((0, 1), repeat=len(es)):
            cl = CubeLabeling(n, dict(zip(es, bits)))
            assert validate(cl) == faces_agree(cl), cl
        assert (set(labelings_from_gradings(n))
                == set(enumerate_valid_labelings(n)))


def test_valid_count_n2():
    assert len(enumerate_valid_labelings(2)) == 6


def test_incomplete_labels():
    with pytest.raises(IncompleteLabels):
        CubeLabeling(2, {((0, 0), 1): 0})


def test_euler_char_base_case():
    assert euler_char(1, vertex_gradings(CubeLabeling(1, {((0,), 1): 0}))) == 0
    assert euler_char(1, vertex_gradings(CubeLabeling(1, {((0,), 1): 1}))) == 1
    # only differences of gradings count
    assert euler_char(1, (-6, -4)) == euler_char(1, (10, 12)) == 1


def test_euler_char_dichotomy_relation():
    # Grading the same upper vertices over an origin at u vs u - 2 (all-0 vs
    # all-1 origin edges) changes the Euler characteristic by (-1)^n.
    for n in (1, 2, 3):
        for cl in enumerate_valid_labelings(n):
            upper = vertex_gradings(cl)[1:]
            comp = complete_subgraph(n, upper)
            if comp.is_unique:
                continue
            g0, g1 = comp.origins
            assert g0 == g1 + 2
            assert (euler_char(n, (g0, *upper))
                    == euler_char(n, (g1, *upper)) + (-1) ** n)


def test_euler_char_all_zero_n3():
    assert euler_char(3, vertex_gradings(CubeLabeling.all_zero(3))) == 0


def test_euler_matches_homology():
    for n in (1, 2, 3):
        for cl in enumerate_valid_labelings(n):
            chi = euler_char(n, vertex_gradings(cl))
            assert corner_homology(cl, 0).euler() == chi, cl
            assert oracle_corner_homology(cl, 0).euler() == chi, cl
    # For n = 4 the labels do not determine the homology, but they do
    # determine its Euler characteristic, which the oracle also computes.
    four = list(labelings_from_gradings(4))
    assert len(four) == 990
    for cl in four:
        assert (oracle_corner_homology(cl, 0).euler()
                == euler_char(4, vertex_gradings(cl))), cl


def test_corner_homology_single_edge():
    assert corner_homology(CubeLabeling(1, {((0,), 1): 1}), 0) == vs((2, 1))
    assert corner_homology(CubeLabeling(1, {((0,), 1): 0}), 0).is_zero()


def test_corner_multiset_n2():
    got = Counter(repr(corner_homology(cl, 0))
                  for cl in enumerate_valid_labelings(2))
    want = Counter({"0": 3, "F(3)": 1, "F(2)": 1, "F(4) + F(3)": 1})
    assert got == want


def nondegenerate(cl):
    return all(not corner_homology(facet(cl, axis, side), 0).is_zero()
               for axis in range(1, cl.n + 1) for side in (0, 1))


def test_corner_multiset_n3():
    nd = [cl for cl in enumerate_valid_labelings(3) if nondegenerate(cl)]
    assert len(nd) == 5
    got = Counter(repr(corner_homology(cl, 0)) for cl in nd)
    want = Counter(["F(3)^2", "F(4) + F(3)^2", "F(4)^2",
                    "F(5)^2 + F(4)", "F(6) + F(5)^2 + F(4)"])
    assert got == want


def test_oracle_agrees_with_corner():
    for n in (1, 2, 3):
        for cl in enumerate_valid_labelings(n):
            for origin in (-4, 0, 10):
                assert (oracle_corner_homology(cl, origin)
                        == corner_homology(cl, origin))


def test_oracle_cone_of_isomorphism():
    assert oracle_corner_homology(CubeLabeling(1, {((0,), 1): 0}), 0).is_zero()


def test_n4_all_ones_is_ambiguous_dimension():
    got = oracle_corner_homology(CubeLabeling.all_one(4), 0)
    allowed = {vs((8, 1), (7, 3), (6, 3), (5, 1)),
               vs((8, 1), (7, 2), (6, 2), (5, 1))}
    assert got in allowed
    with pytest.raises(DimensionUnsupported):
        corner_homology(CubeLabeling.all_one(4), 0)


def test_odd_origin_refused():
    with pytest.raises(OddGrading):
        corner_homology(CubeLabeling.all_one(2), 1)
    with pytest.raises(OddGrading):
        oracle_corner_homology(CubeLabeling.all_one(2), -3)


def test_invalid_labeling_refused():
    bad = square(0, 0, 1, 0)
    with pytest.raises(InvalidLabeling):
        corner_homology(bad, 0)
    with pytest.raises(InvalidLabeling):
        euler_char(2, vertex_gradings(bad))


def test_vertex_gradings_well_defined():
    for n in (2, 3):
        for cl in enumerate_valid_labelings(n):
            g = dict(zip(vertices(n), vertex_gradings(cl, 0)))
            assert g[(0,) * n] == 0
            for (v, j), val in cl.labels.items():
                w = v[:j - 1] + (1,) + v[j:]
                assert g[w] - g[v] == 2 * val


def test_complete_subgraph_unique():
    # labels 10->11: 1 and 01->11: 0 grade (01, 10, 11) as (0, -2, 0)
    comp = complete_subgraph(2, (0, -2, 0))
    assert comp.is_unique
    assert comp == Completion((-2,))


def test_complete_subgraph_dichotomy():
    comp = complete_subgraph(2, (0, 0, 0))
    assert not comp.is_unique
    assert comp.origins == (0, -2)
    assert vertex_gradings(CubeLabeling.all_zero(2)) == (0, 0, 0, 0)
    assert vertex_gradings(CubeLabeling.all_one(2), -2) == (-2, 0, 0, 2)


def test_complete_subgraph_n1_is_dichotomy():
    comp = complete_subgraph(1, (4,))
    assert not comp.is_unique
    assert comp.origins == (4, 2)


def test_complete_subgraph_inconsistent():
    # The face of the 3-cube through e1 is itself inconsistent, so the
    # labels give no gradings and no origin edges can repair them.
    partial = {e: 0 for e in edges(3) if e[0] != (0, 0, 0)}
    partial[((1, 0, 0), 2)] = 1
    assert upper_gradings(3, partial) is None
    for bits in itertools.product((0, 1), repeat=3):
        origin_edges = {((0, 0, 0), j): b for j, b in enumerate(bits, 1)}
        with pytest.raises(InvalidLabeling):
            vertex_gradings(CubeLabeling(3, {**partial, **origin_edges}))
    # Gradings that step by anything but 0 or 2 are refused, and so are
    # gradings of the wrong number of vertices.
    for upper in ((0, 0, 0, 0, 0, 0, 4), (0, 0, 0, 0, 0, 2, 0),
                  (0, 0, 0, 0, 0, 0, 1)):
        with pytest.raises(ValueError, match="must be 0 or 1"):
            complete_subgraph(3, upper)
    with pytest.raises(IncompleteLabels):
        complete_subgraph(3, (0, 0, 0))


def test_complete_subgraph_matches_enumeration():
    # Independent brute force over all 2^n origin extensions of every
    # partial labeling, checked face by face; the completions are exactly
    # the origin gradings of the extensions it finds.  Labels -1 and 2 (for
    # n <= 2) are refused outright, and inconsistent partial labelings have
    # no extension.
    for n, values in ((1, ()), (2, (-1, 0, 1, 2)), (3, (0, 1))):
        origin = (0,) * n
        rest = [e for e in edges(n) if e[0] != origin]
        for vals in itertools.product(values, repeat=len(rest)):
            partial = dict(zip(rest, vals))
            upper = upper_gradings(n, partial)
            if any(x not in (0, 1) for x in vals):
                with pytest.raises(ValueError, match="must be 0 or 1"):
                    complete_subgraph(n, upper)
                continue
            found = []
            for bits in itertools.product((0, 1), repeat=n):
                full = dict(partial)
                for j, b in enumerate(bits, start=1):
                    full[(origin, j)] = b
                cand = CubeLabeling(n, full)
                if faces_agree(cand):
                    found.append(cand)
            if upper is None:
                assert not found, partial
                continue
            # each extension's origin grading, with the upper vertices
            # graded as in upper
            want = tuple(upper[0] - vertex_gradings(cl)[1] for cl in found)
            assert complete_subgraph(n, upper).origins == want, partial


def test_graded_vs_arithmetic():
    a = vs((2, 1), (0, 3))
    assert a.euler() == 4
    assert a.shifted(2) == vs((4, 1), (2, 3))
    assert (a + vs((2, 2))).dim(2) == 3
    assert GradedVS.zero().is_zero()
