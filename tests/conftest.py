import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass

from lfk.bridge import EvenExpansion, F_poly, TwoBridge
from lfk.cubes import CubeLabeling, _corner_from_grading_key, vertices
from lfk.errors import HypothesisNotMet, LfkError, RegionUnstable
from lfk.floer import CrossReport, build_tgraph
from lfk.laurent import MultiLaurent, diagonal, exact_div, restrict
from lfk.lspace import (CorReport, LinkProfile, TheoremReport, box_points,
                        cor_alex2_check, default_box, normalized_family,
                        subsets_of, theorem_alex_check, theorem_sum,
                        two_bridge_profile)


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


# -- per-point screens: second routes to the theorem and corollary checks ----


def theorem_check_per_point(prof, box=None, margin=2):
    """theorem_alex_check with every value read by theorem_sum, one point
    and one direction at a time."""
    fam = normalized_family(prof)
    box = default_box(prof, margin) if box is None else tuple(map(tuple, box))
    l = prof.l
    violations = [(p, r, v) for p in box_points(box) for r in range(1, l + 1)
                  for v in [theorem_sum(fam, p, r)] if v not in (0, 1)]
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
    return TheoremReport(not violations, tuple(violations), box)


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
                if tail.coeff(er) not in (0, 1):
                    failures.append(("tail", r, er,
                                     f"tail coefficient {tail.coeff(er)}"))
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
            t = tail.coeff(er)
            if t not in (0, 1):
                continue
            want = 1 if t == 1 else -1
            if nz and nz[-1] != want:
                failures.append(("leading", r, er,
                                 f"top coefficient {nz[-1]}, expected {want}"))
    return failures


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
            out = build_tgraph(prof, margin=2, sweep_order=order).to_json()
        except LfkError as err:
            out = [type(err).__name__, str(err)]
        row.append(_digest(out))
    return row


# -- per-point readers: a second route to the corner table and hat groups -----


def cube_gradings(tg, s2):
    """The origin grading of the unit cube at s2 (whose vertices must be
    stored) and the gradings of its 2^l vertices relative to it, in
    ``vertices`` order."""
    gs = [tg.g[tuple(x - 2 + 2 * e for x, e in zip(s2, eps))]
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
    minus_u1_pow = MultiLaurent.monomial(2, ((n - 1) * 2, 0),
                                         (-1) ** (n - 1))
    top = fprod * qprod * minus_u1_pow
    if diagonal(delta_n, 2 * (n - 1)) != top:
        return DiagonalReport(False, 2 * (n - 1), "top diagonal mismatch")
    if n >= 2:
        upow = MultiLaurent.monomial(2, ((n - 2) * 2, 0), (-1) ** (n - 2))
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
