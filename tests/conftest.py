import itertools
import random

from lfk.cubes import CubeLabeling, vertices
from lfk.laurent import MultiLaurent
from lfk.lspace import LinkProfile, subsets_of


def rand_poly(rng: random.Random, nvars=2, max_terms=8, span=4, parity=None):
    """Random polynomial with exponents on a fixed coset per variable."""
    if parity is None:
        parity = tuple(rng.randint(0, 1) for _ in range(nvars))
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e2 = tuple(2 * rng.randint(-span, span) + parity[i]
                   for i in range(nvars))
        c = rng.randint(-9, 9)
        if c:
            terms[e2] = c
    return MultiLaurent(nvars, terms)


def rand_nonzero(rng, **kw):
    while True:
        p = rand_poly(rng, **kw)
        if not p.is_zero():
            return p


def random_profile(rng, l):
    """Random linking numbers and random sublink polynomials (often
    vanishing, rarely symmetric) on the forced cosets; the components of a
    link are unknotted, and a lone knot is random and nonzero."""
    if l == 1:
        return LinkProfile(1, ((0,),), {frozenset({1}): rand_nonzero(
            rng, nvars=1, max_terms=4, span=3, parity=(0,))})
    lk = [[0] * l for _ in range(l)]
    for i, j in itertools.combinations(range(l), 2):
        lk[i][j] = lk[j][i] = rng.randint(-2, 2)
    delta = {}
    for m in subsets_of(l, nonempty=True):
        comps = sorted(m)
        parity = tuple((1 + sum(lk[i - 1][j - 1] for j in comps)) & 1
                       for i in comps)
        delta[m] = (MultiLaurent.const(1, 1) if len(m) == 1 else
                    rand_poly(rng, len(m), max_terms=4, span=3, parity=parity))
    return LinkProfile(l, lk, delta)


def knot_one_negated(prof):
    """The profile with Delta of component 1 negated and every flag auto."""
    delta = dict(prof.delta)
    delta[frozenset({1})] = -delta[frozenset({1})]
    return LinkProfile(prof.l, prof.lk, delta)


def split_union_with_unknot(pair_profile):
    """A two-component profile plus a distant, unlinked unknot."""
    one1 = MultiLaurent.const(1, 1)
    lk12 = pair_profile.lkval(1, 2)
    return LinkProfile(
        3,
        ((0, lk12, 0), (lk12, 0, 0), (0, 0, 0)),
        {frozenset({1}): one1, frozenset({2}): one1, frozenset({3}): one1,
         frozenset({1, 2}): pair_profile.delta[pair_profile.full()],
         frozenset({1, 3}): MultiLaurent.zero(2),
         frozenset({2, 3}): MultiLaurent.zero(2),
         frozenset({1, 2, 3}): MultiLaurent.zero(3)},
        {m: "+" for m in
         (frozenset({1}), frozenset({2}), frozenset({3}), frozenset({1, 2}),
          frozenset({1, 3}), frozenset({2, 3}), frozenset({1, 2, 3}))})


def cube_at(tg, s2):
    """The unit-cube labeling at a box point, read edge by edge off the
    graph's total label lookup, and the grading of the cube's origin."""
    lab = {}
    for eps in vertices(tg.l):
        for j in range(1, tg.l + 1):
            if not eps[j - 1]:
                p = tuple(x - 2 + 2 * e + 2 * (k == j - 1)
                          for k, (x, e) in enumerate(zip(s2, eps)))
                lab[(eps, j)] = tg.label_at(p, j)
    return CubeLabeling(tg.l, lab), tg.g[tuple(x - 2 for x in s2)]
