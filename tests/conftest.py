import hashlib
import itertools
import json
import math
import random
from contextlib import contextmanager
from dataclasses import dataclass

import lfk.floer
from lfk.bridge import EvenExpansion, F_poly, TwoBridge
from lfk.cli import SweepRecord
from lfk.cubes import (CubeLabeling, _corner_from_grading_key, edges,
                       vertex_gradings, vertices)
from lfk.errors import (HypothesisNotMet, InvalidLabeling, LfkError,
                        NotLSpaceLink, RegionUnstable)
from lfk.floer import (CrossReport, _cube_offsets, _cube_rule, _stored,
                       _sweep_order, _verify_bottom_stability, build_tgraph,
                       hfl_minus)
from lfk.laurent import MultiLaurent, TailPoly, exact_div
from lfk.lspace import (CorReport, LinkProfile, TheoremReport, _box, _corner,
                        _flat, _h_values, _hull, _length, _strides,
                        _window, box_points, cor_alex2_check, default_box,
                        normalized_family, subsets_of, theorem_alex_check,
                        two_bridge_profile, unlink_profile)


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


def involution(p: MultiLaurent) -> MultiLaurent:
    """Substitute u_i -> 1/u_i for every variable."""
    return MultiLaurent._trusted(
        p.nvars, {tuple(-x for x in e2): c for e2, c in p.terms.items()})


def diagonal(p: MultiLaurent, i2: int) -> MultiLaurent:
    """Terms of a two-variable polynomial with exponent difference i.

    i2 is the doubled difference, i.e. keeps terms with e2[0] - e2[1] == i2.
    """
    if p.nvars != 2:
        raise ValueError("diagonal is defined for two-variable polynomials")
    return MultiLaurent(
        2, {e2: c for e2, c in p.terms.items() if e2[0] - e2[1] == i2})


def restrict(p: MultiLaurent, i: int, j2: int) -> MultiLaurent:
    """Discard terms of a two-variable polynomial whose u_i exponent is not j.

    Returns a one-variable polynomial in the other variable; j2 is doubled.
    """
    if p.nvars != 2:
        raise ValueError("restrict is defined for two-variable polynomials")
    if i not in (1, 2):
        raise ValueError("variable index must be 1 or 2")
    other = 2 - i  # 0-based index of the surviving variable
    return MultiLaurent._trusted(
        1, {(e2[other],): c for e2, c in p.terms.items() if e2[i - 1] == j2})


def sub_profile(prof: LinkProfile, m) -> LinkProfile:
    """Profile of the sublink on components m, reindexed to 1..|m|."""
    comps = sorted(m)
    lk = tuple(tuple(prof.lkval(a, b) for b in comps) for a in comps)
    delta = {}
    signs = {}
    for sub in subsets_of(len(comps), nonempty=True):
        orig = frozenset(comps[i - 1] for i in sub)
        delta[sub] = prof.delta[orig]
        signs[sub] = prof.signs[orig]
    return LinkProfile(len(comps), lk, delta, signs)


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


def knotted_profile(rng):
    """A random_profile of two components whose components are knots with
    random nonzero Alexander polynomials, so the family's tails are not
    pure: mostly with unit coefficients, whose tails often still lie in
    {0, 1}, and half the time with a unit-coefficient Delta_12 too."""
    prof = random_profile(rng, 2)
    delta = dict(prof.delta)
    for m in (frozenset({1}), frozenset({2})):
        knot = rand_nonzero(rng, nvars=1, max_terms=3, span=2, parity=(0,))
        delta[m] = unit_coeffs(knot) if rng.random() < 0.7 else knot
    if rng.random() < 0.5:
        delta[frozenset({1, 2})] = unit_coeffs(delta[frozenset({1, 2})])
    return LinkProfile(2, prof.lk, delta)


def unit_coeffs(p: MultiLaurent) -> MultiLaurent:
    """p with every coefficient replaced by its sign."""
    return MultiLaurent(p.nvars, {e2: 1 if c > 0 else -1
                                  for e2, c in p.terms.items()})


def unstable_profile():
    """A two-component profile, lk = 2 with unknotted components and
    Delta_12 = -u1^(3/2) u2^(7/2), every flag pinned, whose default box at
    margin 2 is too narrow: the theorem check and the field builder both
    raise RegionUnstable there, and both pass at margin 4."""
    one = MultiLaurent.const(1, 1)
    return LinkProfile(2, ((0, 2), (2, 0)),
                       {frozenset({1}): one, frozenset({2}): one,
                        frozenset({1, 2}): MultiLaurent(2, {(3, 7): -1})},
                       {frozenset({1}): "+", frozenset({2}): "+",
                        frozenset({1, 2}): "+"})


def oriented_orbit(alpha, beta) -> frozenset:
    """The residues mod 2*alpha of every beta' with b(alpha, beta')
    equivalent to b(alpha, beta) with orientations kept: beta and its
    inverse."""
    m = 2 * alpha
    return frozenset({beta % m, pow(beta, -1, m)})


def tail_coeff(tail: TailPoly, e2: int) -> int:
    """The coefficient of a tail at the doubled exponent e2: the sum of its
    numerator's coefficients from e2 upward, 0 off the numerator's coset."""
    par = tail.numer.parity(1)
    if par is None or e2 & 1 != par:
        return 0
    return sum(c for (j2,), c in tail.numer.terms.items() if j2 >= e2)


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


# -- labelings: the valid ones of a small cube, facets, and a graph's labels --


def validate(cl: CubeLabeling) -> bool:
    """Whether the labeling comes from vertex gradings."""
    try:
        vertex_gradings(cl)
    except InvalidLabeling:
        return False
    return True


def facet(cl: CubeLabeling, axis: int, side: int) -> CubeLabeling:
    """The (n-1)-dimensional labeling on the face with coordinate axis = side."""
    if cl.n == 1:
        raise ValueError("a 1-cube has no facet labelings")
    out = {}
    for (v, j), val in cl.labels.items():
        if v[axis - 1] != side or j == axis:
            continue
        w = v[:axis - 1] + v[axis:]
        jj = j if j < axis else j - 1
        out[(w, jj)] = val
    return CubeLabeling(cl.n - 1, out)


def enumerate_valid_labelings(n: int) -> list[CubeLabeling]:
    """All valid labelings of the n-cube, in canonical order."""
    es = edges(n)
    out = []
    for bits in itertools.product((0, 1), repeat=len(es)):
        cl = CubeLabeling(n, dict(zip(es, bits)))
        if validate(cl):
            out.append(cl)
    return out


# -- sweep orders and the field of a graph, keyed by point --------------------


def lex_order(pts):
    """The second order of the interior sweep: the box points in descending
    lexicographic order.  It visits a cube after every cube that holds its
    other vertices as origins, as the library's order does."""
    return reversed(list(pts))


@contextmanager
def sweep_order(order):
    """Build lattice graphs with the interior sweep in the given order."""
    saved, lfk.floer._sweep_order = lfk.floer._sweep_order, order
    try:
        yield
    finally:
        lfk.floer._sweep_order = saved


SWEEP_ORDERS = {"sum": _sweep_order, "lex": lex_order}


def g_of(tg) -> dict:
    """The field of a graph keyed by point, over its stored region (the box
    and two steps below it)."""
    return dict(zip(box_points(_stored(tg.box)), tg.values))


def g_at(tg, p2) -> int:
    """g at one point of the stored region, found by its rank in
    ``box_points`` order; a point outside the region raises KeyError."""
    k = 0
    for x, (lo, hi) in zip(p2, _stored(tg.box)):
        if not lo <= x <= hi or (x - lo) % 2:
            raise KeyError(p2)
        k = k * ((hi - lo) // 2 + 1) + (x - lo) // 2
    return tg.values[k]


def _g_step(tg, p2, j: int) -> int:
    """Half the g difference across the edge entering p2 in direction j."""
    down = p2[:j - 1] + (p2[j - 1] - 2,) + p2[j:]
    return (g_at(tg, p2) - g_at(tg, down)) // 2


def label_at(tg, p2, j: int) -> int:
    """The label of the edge entering p2 in direction j at any lattice
    point: g differences inside the stored region and row-repeating clamps
    outside it; beyond the corner the clamp stays on the slab p_j >= m_j
    (box tops are at least m + 4), where g is constant along j."""
    rect = _stored(tg.box)
    q = [min(max(x, lo), hi) for x, (lo, hi) in zip(p2, rect)]
    q[j - 1] = max(q[j - 1], rect[j - 1][0] + 2)
    return _g_step(tg, tuple(q), j)


def labels(tg) -> dict:
    """Edge labels of a graph's stored region as g differences, keyed
    (p2, j)."""
    rect = _stored(tg.box)
    return {(p, j): _g_step(tg, p, j)
            for p in box_points(rect) for j in range(1, tg.l + 1)
            if p[j - 1] > rect[j - 1][0]}


def cube_at(tg, s2):
    """The unit-cube labeling at a box point, read edge by edge off the
    clamped label lookup, and the grading of the cube's origin."""
    lab = {}
    for eps in vertices(tg.l):
        for j in range(1, tg.l + 1):
            if not eps[j - 1]:
                p = tuple(x - 2 + 2 * e + 2 * (k == j - 1)
                          for k, (x, e) in enumerate(zip(s2, eps)))
                lab[(eps, j)] = label_at(tg, p, j)
    return CubeLabeling(tg.l, lab), g_at(tg, tuple(x - 2 for x in s2))


# -- the cube-by-cube sweep and the symmetry: second routes to the field -------


def sweep_field(fam, s_set, box, margin) -> list:
    """floer._field as a sweep over the interior cubes, one at a time in
    floer._sweep_order: each cube's origin is the completion of its other
    vertices whose Euler characteristic is the coefficient at the cube.
    Sublink fields are swept the same way and copied onto the slabs beyond
    the corner; the knot tails and the refusals are the builder's."""
    p0 = fam[s_set]
    rect = _stored(box)
    if isinstance(p0, TailPoly):
        (lo, hi), = rect
        coeffs = p0.coeffs(range(lo, hi + 1, 2))
        for p, a in zip(range(lo, hi + 1, 2), coeffs):
            if a not in (0, 1):
                raise NotLSpaceLink(
                    f"normalized coefficient {a} at exponent {p}/2; "
                    "not an L-space knot profile (or wrong sign)")
        return list(itertools.accumulate([-2 * a for a in coeffs[:0:-1]],
                                         initial=0))[::-1]

    l = len(box)
    m2 = _corner(fam, s_set)
    strides = _strides(map(_length, rect))
    g = [None] * strides[0] * _length(rect[0])
    for pos, i in enumerate(j for j in range(1, fam.l + 1) if j not in s_set):
        sub_box = _hull(_box(fam, s_set | {i}, margin),
                        rect[:pos] + rect[pos + 1:])
        sub_g = sweep_field(fam, s_set | {i}, sub_box, margin)
        heads = tuple((lo, m - 2) for (lo, _), m in zip(rect, m2[:pos]))
        block = _window(sub_g, _stored(sub_box), heads + rect[pos + 1:])
        size, run = strides[pos], _length((m2[pos], rect[pos][1]))
        starts = _flat(rect, heads + ((m2[pos], m2[pos]),)
                       + tuple((lo, lo) for lo, _ in rect[pos + 1:]))
        for t, k in enumerate(starts):
            g[k:k + size * run] = block[t * size:(t + 1) * size] * run

    origins = tuple((lo, m - 2) for (lo, _), m in zip(rect, m2))
    index = dict(zip(box_points(origins), _flat(rect, origins)))
    up = [sum(x * st for x, st in zip(d, strides)) // 2
          for d in _cube_offsets(l)[1:]]
    coeff_at = p0.shifted((-2,) * l).terms.get
    for origin in lfk.floer._sweep_order(box_points(origins)):
        i = index[origin]
        upper = [g[i + o] for o in up]
        unique, branches = _cube_rule(l, tuple([x - upper[0] for x in upper]))
        target = coeff_at(origin, 0)
        for d0, chi in branches:
            if chi == target:
                g[i] = upper[0] + d0
                break
        else:
            s = tuple([x + 2 for x in origin])
            if unique:
                raise NotLSpaceLink(
                    f"forced cube at {s} has Euler characteristic "
                    f"{chi}, need coefficient {target}")
            raise NotLSpaceLink(
                f"neither dichotomy branch at {s} matches "
                f"coefficient {target}")
    _verify_bottom_stability(g, box)
    return g


def build_outcome(prof, margin=None, field=None):
    """The values of build_tgraph, or its refusal's type and text; with a
    field function, every sublink's field is graded by it instead."""
    saved = lfk.floer._field
    if field is not None:
        lfk.floer._field = field
    try:
        return build_tgraph(prof, margin=margin).values
    except LfkError as err:
        return type(err).__name__, str(err)
    finally:
        lfk.floer._field = saved


def symmetry_failures(tg) -> list:
    """The stored points p, with -p stored as well, where the field breaks
    the L-space symmetry H(-s) = H(s) + |s|: g(-p) = g(p) - sum(p) in
    doubled coordinates, with g = -2H."""
    g = g_of(tg)
    return [p for p, v in g.items()
            if (q := tuple([-x for x in p])) in g and g[q] != v - sum(p)]


# -- per-point screens: second routes to the theorem and corollary checks ----


def r_sum(fam, s_set, point2, r: int) -> int:
    """Signed-region coefficient sum of one normalized polynomial.

    Sums the coefficients of the entry at S over the exponents that agree
    with the point in direction r and dominate it in every other remaining
    direction.  point2 is a full-length doubled lattice point; only its
    coordinates outside S matter.
    """
    s_set = frozenset(s_set)
    if r in s_set:
        raise ValueError("direction r must lie outside S")
    entry = fam.entries[s_set]
    comp = sorted(set(range(1, fam.l + 1)) - s_set)
    if isinstance(entry, TailPoly):
        return tail_coeff(entry, point2[r - 1])
    rpos = comp.index(r)
    total = 0
    for e2, c in entry.terms.items():
        if e2[rpos] != point2[r - 1]:
            continue
        if all(e2[pos] >= point2[j - 1]
               for pos, j in enumerate(comp) if j != r):
            total += c
    return total


def theorem_sum(fam, point2, r: int, s_set=frozenset()) -> int:
    """The alternating sum over admissible S of the signed region sums: the
    label of the edge entering point2 - 2 * sum_{j != r} e_j in direction r.
    With s_set, the sum of the sublink L - s_set, over the S containing it,
    in the link's coordinates."""
    l = fam.l
    total = 0
    for s in subsets_of(l, proper=True):
        if r in s or not s_set <= s:
            continue
        total += (-1) ** (l - 1 - len(s)) * r_sum(fam, s, point2, r)
    return total


def h_at(fam, s_set, p) -> int:
    """The H-function of the sublink L - S at one point p, which has one
    doubled coordinate per component outside S: over the T containing S,
    (-1)^(l - 1 - |T|) times the sum of the coefficients of fam[T] at the
    exponents dominating p, a tail's summed one lattice step at a time up
    to its numerator's top."""
    s_set = frozenset(s_set)
    at = dict(zip([j for j in range(1, fam.l + 1) if j not in s_set], p))
    total = 0
    for t, entry in fam.entries.items():
        if not s_set <= t:
            continue
        if isinstance(entry, TailPoly):
            x0 = at[entry.var]
            top = max([x0, *(y for (y,) in entry.numer.terms)])
            value = sum(tail_coeff(entry, x) for x in range(x0, top + 1, 2))
        else:
            low = [x for j, x in at.items() if j not in t]
            value = sum(c for e2, c in entry.terms.items()
                        if all(x >= y for x, y in zip(e2, low)))
        total += (-1) ** (fam.l - 1 - len(t)) * value
    return total


def theorem_field(fam, s_set, rect) -> dict:
    """Every theorem sum of the sublink L - S over a lattice rect (one
    doubled range per component outside S, on its coset) as an H
    difference, {(p, r): H(p) - H(p + 2 e_r)} with H from
    lspace._h_values, for the p with p + 2 e_r in rect."""
    comps = [j for j in range(1, fam.l + 1) if j not in s_set]
    h = dict(zip(box_points(rect), _h_values(fam, s_set, rect), strict=True))
    out = {}
    for p, v in h.items():
        for pos, r in enumerate(comps):
            q = p[:pos] + (p[pos] + 2,) + p[pos + 1:]
            if q in h:
                out[(p, r)] = v - h[q]
    return out


def theorem_check_per_point(prof, margin=2):
    """theorem_alex_check with every value read by theorem_sum, one point
    and one direction at a time."""
    fam = normalized_family(prof)
    box = default_box(prof, margin)
    l = prof.l
    values = tuple([theorem_sum(fam, p, r) for p in box_points(box)]
                   for r in range(1, l + 1))
    for axis in range(l):
        for side, step in ((0, -2), (1, 2)):
            edge = box[axis][side]
            face = tuple((edge, edge) if k == axis else b
                         for k, b in enumerate(box))
            for point in box_points(face):
                outward = tuple(x + step if k == axis else x
                                for k, x in enumerate(point))
                for r in range(1, l + 1):
                    if (theorem_sum(fam, point, r)
                            != theorem_sum(fam, outward, r)):
                        raise RegionUnstable(
                            f"value changes stepping outward at {point} "
                            f"(direction {r}); enlarge the margin")
    return TheoremReport(all(v in (0, 1) for vs in values for v in vs), box,
                         values)


def cor_check_per_column(prof):
    """cor_alex2_check with each column read through restrict, and the run
    under the other sign made on the negated polynomial."""
    fam = normalized_family(prof)
    runs = {1: _cor_failures_per_column(fam, fam.p_empty),
            -1: _cor_failures_per_column(fam, -fam.p_empty)}
    passing = [s for s in (1, -1) if not runs[s]]
    sign = passing[0] if len(passing) == 1 else None
    return CorReport(not runs[1], tuple(runs[1]), sign)


def _cor_failures_per_column(fam, p0):
    failures = []
    for e2, c in sorted(p0.terms.items()):
        if abs(c) > 1:
            failures.append(("coefficient", 0, list(e2),
                             f"coefficient {c} at {e2}"))
    for r in (1, 2):
        tail = fam.entries[frozenset({3 - r})]
        if not tail.numer.is_zero():
            for er in range(tail.numer.min_exp2(1) - 2,
                            tail.numer.max_exp2(1) + 3, 2):
                t = tail_coeff(tail, er)
                if t not in (0, 1):
                    failures.append(("tail", r, er, f"tail coefficient {t}"))
        for er in sorted({e2[r - 1] for e2 in p0.terms}):
            col = restrict(p0, r, er)
            if col.is_zero():
                continue
            nz = [c for (_,), c in sorted(col.terms.items()) if c]
            for a, b in zip(nz, nz[1:]):
                if a * b > 0:
                    failures.append(("alternation", r, er,
                                     "equal consecutive signs"))
                    break
            t = tail_coeff(tail, er)
            if t not in (0, 1):
                continue
            want = 1 if t == 1 else -1
            if nz and nz[-1] != want:
                failures.append(("leading", r, er,
                                 f"top coefficient {nz[-1]}, expected {want}"))
    return failures


# -- sweep records as JSON: each field by name, round-tripped ----------------


def sweep_record_to_json(rec: SweepRecord) -> dict:
    return {"alpha": rec.alpha, "beta": rec.beta,
            "p": list(rec.p), "q": list(rec.q),
            "cor_alex2": rec.cor_alex2, "tgraph": rec.tgraph,
            "sigma_cross": rec.sigma_cross,
            "family": rec.family_member, "class_id": rec.class_id}


def sweep_record_from_json(d) -> SweepRecord:
    return SweepRecord(d["alpha"], d["beta"], tuple(d["p"]), tuple(d["q"]),
                       d["cor_alex2"], d["tgraph"], d["sigma_cross"],
                       d["family"], d["class_id"])


def _digest(data) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def screen_digests(alpha, beta, sign):
    """One row of tests/data/check60.csv: alpha, beta and the sign of
    Delta_L, then the sha256 of the canonical JSON of theorem_alex_check at
    margin 2 (or of its refusal's type and text) and of cor_alex2_check."""
    prof = two_bridge_profile(TwoBridge(alpha, beta))
    prof = prof.with_signs({prof.full(): sign})
    try:
        thm = theorem_alex_check(prof, margin=2).to_json()
    except RegionUnstable as err:
        thm = [type(err).__name__, str(err)]
    return [str(alpha), str(beta), str(sign), _digest(thm),
            _digest(cor_alex2_check(prof).to_json())]


def build_digests(alpha, beta, sign):
    """One row of tests/data/build60.csv: alpha, beta and the sign of
    Delta_L, then for each sweep order, sum and lex, the sha256 of the
    canonical JSON of build_tgraph at margin 2 (or of its refusal's type
    and text)."""
    prof = two_bridge_profile(TwoBridge(alpha, beta))
    prof = prof.with_signs({prof.full(): sign})
    row = [str(alpha), str(beta), str(sign)]
    for order in ("sum", "lex"):
        try:
            with sweep_order(SWEEP_ORDERS[order]):
                out = build_tgraph(prof, margin=2).to_json()
        except LfkError as err:
            out = [type(err).__name__, str(err)]
        row.append(_digest(out))
    return row


def build3_inputs():
    """The named three-component inputs of tests/data/build3.csv: the split
    unions with an unknot of the unlink of two components, of each family
    member b(qk-1,-k) with alpha <= 16 and of b(20,-3), each with the sign
    cor_alex2_check pins; the unlink of three components with component 1
    as given and negated; and the b(20,-3) union with Delta_123 replaced by
    c u^(1/2,1/2,1/2), which the sweep refuses, for c = 1, -1 and 2."""
    members = sorted({(q * k - 1, -k) for k in range(1, 18, 2)
                      for q in range(1, 18, 2) if k < q * k - 1 <= 16})
    out = [("split unlink2", split_union_with_unknot(unlink_profile(2)))]
    for alpha, beta in [*members, (20, -3)]:
        prof = two_bridge_profile(TwoBridge(alpha, beta))
        prof = prof.with_signs({prof.full(): cor_alex2_check(prof).sign})
        out.append((f"split b({alpha},{beta})", split_union_with_unknot(prof)))
    b20 = out[-1][1]
    out += [("unlink3", unlink_profile(3)),
            ("unlink3 negated", knot_one_negated(unlink_profile(3)))]
    for c in (1, -1, 2):
        delta = {**b20.delta, b20.full(): MultiLaurent(3, {(1, 1, 1): c})}
        out.append((f"split b(20,-3), Delta_123 = {c}",
                    LinkProfile(3, b20.lk, delta, b20.signs)))
    return out


def build3_digests(name, prof):
    """The rows of tests/data/build3.csv for one input: per margin, 2 and 4,
    and sweep order, sum and lex, the sha256 of the canonical JSON of the
    graph and its corner table (or of the refusal's type and text)."""
    rows = []
    for margin in (2, 4):
        for order in ("sum", "lex"):
            try:
                with sweep_order(SWEEP_ORDERS[order]):
                    tg = build_tgraph(prof, margin=margin)
                out = [tg.to_json(), hfl_minus(prof, tg).to_json()]
            except LfkError as err:
                out = [type(err).__name__, str(err)]
            rows.append([name, str(margin), order, _digest(out)])
    return rows


# -- per-point readers: a second route to the corner table and hat groups -----


def cube_gradings(tg, s2):
    """The origin grading of the unit cube at s2 (whose vertices must be
    stored) and the gradings of its 2^l vertices relative to it, in
    ``vertices`` order."""
    gs = [g_at(tg, tuple(x - 2 + 2 * e for x, e in zip(s2, eps)))
          for eps in vertices(tg.l)]
    return gs[0], tuple(x - gs[0] for x in gs)


def corner_table_per_point(tg):
    """The corner table, one box point at a time."""
    out = {}
    for s in box_points(tg.box):
        origin, rel = cube_gradings(tg, s)
        out[s] = _corner_from_grading_key(tg.l, rel).shifted(origin)
    return out


def hat_per_point(table, s2):
    """The hat group at s2, every entry read through HFLTable.entry."""
    s2 = tuple(s2)
    here = table.entry(s2)
    for eps in vertices(table.tgraph.l)[1:]:
        t = tuple(x + 2 * e for x, e in zip(s2, eps))
        if not table.entry(t).is_zero():
            raise HypothesisNotMet(eps)
    return here


def cross_check_per_point(sigma, table):
    """The alternating cross-check of a two-component table with a nonzero
    polynomial, through hat_per_point at each box point."""
    derived = (MultiLaurent(2, {(0, 0): 1, (-2, 0): -1})
               * MultiLaurent(2, {(0, 0): 1, (0, -2): -1})
               * table.tgraph.family.p_empty)
    mismatches = []
    checked = 0
    for s in box_points(table.box):
        try:
            hat = hat_per_point(table, s)
        except HypothesisNotMet:
            continue
        checked += 1
        a = derived.coeff(s)
        want = (s[0] + s[1]) // 2 + (sigma - 1) // 2
        if len(hat.dims) > 1:
            mismatches.append((s, f"supported in {len(hat.dims)} gradings"))
        elif hat.total_dim() != abs(a):
            mismatches.append(
                (s, f"dimension {hat.total_dim()}, expected {abs(a)}"))
        elif not hat.is_zero() and hat.dims[0][0] != want:
            mismatches.append(
                (s, f"grading {hat.dims[0][0]}, expected {want}"))
    return CrossReport(not mismatches, tuple(mismatches), checked)


# -- the Alexander recursion: a second route to bridge.alexander ---------------


def _one_minus_u1_u2_factor() -> MultiLaurent:
    # (u1 - 1)(u2 - 1)
    return MultiLaurent(2, {(2, 2): 1, (2, 0): -1, (0, 2): -1, (0, 0): 1})


def delta_sequence(exp: EvenExpansion) -> list[MultiLaurent]:
    """The full recursion sequence Delta_0, ..., Delta_n for an expansion.

    Each step multiplies the previous difference by F at the new p-entry and
    divides exactly by F at the old one; a failed division signals an invalid
    expansion and propagates NotDivisible.
    """
    p, q = exp.p, exp.q
    seq = [MultiLaurent.zero(2), F_poly(p[0])]
    w = _one_minus_u1_u2_factor()
    for k in range(2, exp.n + 1):
        pk, pk1, qk1 = p[k - 1], p[k - 2], q[k - 2]
        head = (w * F_poly(pk) * qk1 + MultiLaurent.const(2, 1)) * seq[k - 1]
        tail = exact_div(F_poly(pk) * (seq[k - 1] - seq[k - 2]), F_poly(pk1))
        seq.append(head + tail.shifted((2 * pk1, 2 * pk1)))
    return seq


def delta_recursion(exp: EvenExpansion) -> MultiLaurent:
    """Final polynomial of the recursion (integer exponents, sign as built);
    shifted by (u1*u2)^((1 - sum p)/2) it is bridge.alexander(exp)."""
    return delta_sequence(exp)[-1]


@dataclass(frozen=True)
class DiagonalReport:
    ok: bool
    first_failure: int | None = None   # doubled diagonal index of first mismatch
    detail: str = ""


def diagonal_identities_check(exp: EvenExpansion) -> DiagonalReport:
    """Check the two closed forms for the top diagonals of the recursion.

    With q(n) the product of the q-entries and F(n) the product of the F
    polynomials, the top diagonal n-1 of Delta_n equals
    q(n) * (-u1)^(n-1) * F(n), and for n >= 2 diagonal n-2 equals the sum of
    the three explicit polynomials built from partial products.
    """
    n = exp.n
    delta_n = delta_recursion(exp)
    qprod = math.prod(exp.q) if exp.q else 1
    fprod = MultiLaurent.const(2, 1)
    for pi in exp.p:
        fprod = fprod * F_poly(pi)
    minus_u1_pow = MultiLaurent(2, {((n - 1) * 2, 0): (-1) ** (n - 1)})
    top = fprod * qprod * minus_u1_pow
    if diagonal(delta_n, 2 * (n - 1)) != top:
        return DiagonalReport(False, 2 * (n - 1), "top diagonal mismatch")
    if n >= 2:
        upow = MultiLaurent(2, {((n - 2) * 2, 0): (-1) ** (n - 2)})
        u1u2p1 = MultiLaurent(2, {(2, 2): 1, (0, 0): 1})
        p1 = u1u2p1 * fprod * qprod * (n - 1) * upow
        p2 = MultiLaurent.zero(2)
        for i in range(2, n + 1):
            p2 = p2 + _partial_product(exp, skip_f=i, skip_q=i - 1) * upow
        p3 = MultiLaurent.zero(2)
        for i in range(1, n):
            shift = (2 * exp.p[i - 1], 2 * exp.p[i - 1])
            p3 = p3 + (_partial_product(exp, skip_f=i, skip_q=i) * upow).shifted(shift)
        if diagonal(delta_n, 2 * (n - 2)) != p1 + p2 + p3:
            return DiagonalReport(False, 2 * (n - 2), "second diagonal mismatch")
    return DiagonalReport(True)


def _partial_product(exp: EvenExpansion, skip_f: int, skip_q: int) -> MultiLaurent:
    """q(n)/q_{skip_q} * F(n)/F_{p_{skip_f}} as an exact product."""
    out = MultiLaurent.const(2, 1)
    for i, pi in enumerate(exp.p, start=1):
        if i != skip_f:
            out = out * F_poly(pi)
    scalar = 1
    for i, qi in enumerate(exp.q, start=1):
        if i != skip_q:
            scalar *= qi
    return out * scalar
