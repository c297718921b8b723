"""Normalized Alexander-polynomial families and L-space necessary conditions.

A LinkProfile packages the symmetric Alexander polynomial of every nonempty
sublink (each defined up to a global sign, tracked by a flag) together with
the pairwise linking numbers.  From it the normalized family is built: one
polynomial per proper sublink-complement, monomially shifted by half linking
numbers, with a geometric-series tail factor when a single component
remains.

The checkers evaluate, at every lattice point of a finite box, the signed
sums of coefficients that must land in {0, 1} for an L-space link, plus the
sharper alternating-sign conditions available for two components.  The
sums are rows along the box's last axis, one per direction and index of the
other axes, built by whole-row running sums over buckets of each entry's
terms; the two-component conditions read the normalized polynomial's
columns and rows as runs of one sort per direction, under both signs.
"""

from __future__ import annotations

import itertools
import json
import operator
import os
from bisect import bisect_right
from dataclasses import dataclass, field

from .bridge import (TwoBridge, alexander, even_expansion, linking_number)
from .errors import CosetViolation, RegionUnstable
from .laurent import MultiLaurent, TailPoly

Subset = frozenset


def subsets_of(l: int, *, proper=False, nonempty=False):
    out = []
    for r in range(0 if not nonempty else 1, l + 1 if not proper else l):
        out.extend(frozenset(c) for c in itertools.combinations(range(1, l + 1), r))
    return out


def subset_key(s) -> str:
    return "".join(str(i) for i in sorted(s))


@dataclass(frozen=True)
class LinkProfile:
    """Alexander polynomials of all sublinks plus pairwise linking numbers.

    delta maps each nonempty subset of {1..l} to the Alexander polynomial of
    that sublink, in the subset's own variables (ordered by component index).
    signs carries "+", "-" or "auto" per subset; the polynomials stored in
    delta are the ones used by every computation, and flipping a sign means
    replacing the stored polynomial by its negative.
    """

    l: int
    lk: tuple[tuple[int, ...], ...]
    delta: dict
    signs: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 1 <= self.l <= 3:
            raise ValueError("component count must be 1..3")
        lk = tuple(tuple(int(x) for x in row) for row in self.lk)
        if len(lk) != self.l or any(len(r) != self.l for r in lk):
            raise ValueError("lk must be an l-by-l matrix")
        if any(lk[i][j] != lk[j][i] for i in range(self.l) for j in range(self.l)):
            raise ValueError("lk must be symmetric")
        if any(lk[i][i] != 0 for i in range(self.l)):
            raise ValueError("lk must have zero diagonal")
        object.__setattr__(self, "lk", lk)
        delta = {frozenset(k): v for k, v in self.delta.items()}
        want = set(subsets_of(self.l, nonempty=True))
        if set(delta) != want:
            raise ValueError("delta must cover every nonempty sublink")
        for m, poly in delta.items():
            if poly.nvars != len(m):
                raise ValueError(f"delta[{subset_key(m)}] has wrong variable count")
        object.__setattr__(self, "delta", delta)
        signs = {frozenset(k): v for k, v in self.signs.items()}
        for m in sorted(signs.keys() - want, key=subset_key):
            raise ValueError(f"sign flag {subset_key(m)!r} names no sublink")
        for m in want:
            signs.setdefault(m, "auto")
        if any(v not in ("+", "-", "auto") for v in signs.values()):
            raise ValueError("sign flags must be '+', '-' or 'auto'")
        object.__setattr__(self, "signs", signs)
        self._check_cosets()

    def _check_cosets(self):
        for m, poly in self.delta.items():
            comps = sorted(m)
            for pos, i in enumerate(comps, start=1):
                par = poly.parity(pos)
                if par is None:
                    continue
                lk_inside = sum(self.lkval(i, j) for j in comps if j != i)
                want = (lk_inside + (1 if len(m) > 1 else 0)) & 1
                if par != want:
                    raise CosetViolation(
                        f"delta[{subset_key(m)}] variable u{pos} exponents lie "
                        f"off the lattice forced by the linking numbers")

    def lkval(self, i: int, j: int) -> int:
        return self.lk[i - 1][j - 1]

    def lk_with(self, i: int, s) -> int:
        """Total linking number of component i with the sublink s."""
        return sum(self.lkval(i, j) for j in s if j != i)

    def lk_total(self, i: int) -> int:
        return self.lk_with(i, range(1, self.l + 1))

    def coset_parity(self, i: int) -> int:
        """Parity of the doubled coordinates of the lattice in direction i."""
        return self.lk_total(i) & 1

    def full(self) -> Subset:
        return frozenset(range(1, self.l + 1))

    def assignments(self):
        """Every sign assignment to the "auto" subsets, as pinned profiles:
        the one keeping every stored polynomial first, or just this profile
        when nothing is auto.  A vanishing polynomial has no sign to try."""
        autos = [m for m in sorted(self.signs, key=subset_key)
                 if self.signs[m] == "auto" and not self.delta[m].is_zero()]
        if not autos:
            yield self
            return
        for bits in itertools.product((1, -1), repeat=len(autos)):
            yield self.with_signs(dict(zip(autos, bits)))

    def with_signs(self, resolution: dict) -> LinkProfile:
        """Apply a sign choice (+1/-1 per subset) and pin the flags."""
        delta = dict(self.delta)
        signs = dict(self.signs)
        for m, s in resolution.items():
            m = frozenset(m)
            if s == -1:
                delta[m] = -delta[m]
            signs[m] = "+"
        return LinkProfile(self.l, self.lk, delta, signs)

    def sub_profile(self, m) -> LinkProfile:
        """Profile of the sublink on components m, reindexed to 1..|m|."""
        comps = sorted(m)
        lk = tuple(tuple(self.lkval(a, b) for b in comps) for a in comps)
        delta = {}
        signs = {}
        for sub in subsets_of(len(comps), nonempty=True):
            orig = frozenset(comps[i - 1] for i in sub)
            delta[sub] = self.delta[orig]
            signs[sub] = self.signs[orig]
        return LinkProfile(len(comps), lk, delta, signs)

    # -- JSON -----------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "l": self.l,
            "lk": [list(r) for r in self.lk],
            "delta": {subset_key(m): self.delta[m].to_json()
                      for m in sorted(self.delta, key=subset_key)},
            "signs": {subset_key(m): self.signs[m]
                      for m in sorted(self.signs, key=subset_key)},
        }

    @staticmethod
    def from_json(data) -> LinkProfile:
        """Read a profile from its JSON form.  A missing or malformed field
        raises ValueError naming it."""
        if isinstance(data, str):
            data = json.loads(data)
        if not isinstance(data, dict):
            raise ValueError("a link profile must be a JSON object")

        def read(name, parse, default=None):
            if name not in data and default is None:
                raise ValueError(f"link profile lacks the field {name!r}")
            try:
                return parse(data.get(name, default))
            except (TypeError, ValueError, KeyError, AttributeError) as err:
                raise ValueError(
                    f"link profile field {name!r} is malformed: {err!r}") from err

        def subset_map(parse_val):
            return lambda d: {frozenset(int(ch) for ch in key): parse_val(val)
                              for key, val in d.items()}

        return LinkProfile(
            read("l", operator.index),
            read("lk", lambda v: tuple(tuple(int(x) for x in row) for row in v)),
            read("delta", subset_map(MultiLaurent.from_json)),
            read("signs", subset_map(lambda flag: flag), default={}))


# -- profile constructors -------------------------------------------------------


def unknot_profile() -> LinkProfile:
    return LinkProfile(1, ((0,),), {frozenset({1}): MultiLaurent.const(1, 1)},
                       {frozenset({1}): "+"})


def unlink_profile(l: int = 2) -> LinkProfile:
    """The l-component unlink: unknot components, vanishing higher Delta."""
    lk = tuple(tuple(0 for _ in range(l)) for _ in range(l))
    delta = {}
    signs = {}
    for m in subsets_of(l, nonempty=True):
        if len(m) == 1:
            delta[m] = MultiLaurent.const(1, 1)
        else:
            delta[m] = MultiLaurent.zero(len(m))
        signs[m] = "+"
    return LinkProfile(l, lk, delta, signs)


def two_bridge_profile(link_or_expansion, sign: str = "auto") -> LinkProfile:
    """Profile of a two-bridge link: unknotted components, and Delta from
    the Schubert signs by bridge.alexander."""
    if isinstance(link_or_expansion, TwoBridge):
        exp = even_expansion(link_or_expansion)
    else:
        exp = link_or_expansion
    lkn = linking_number(exp)
    one = MultiLaurent.const(1, 1)
    full = frozenset({1, 2})
    return LinkProfile(
        2, ((0, lkn), (lkn, 0)),
        {frozenset({1}): one, frozenset({2}): one, full: alexander(exp)},
        {frozenset({1}): "+", frozenset({2}): "+", full: sign})


# -- normalized family ------------------------------------------------------------


@dataclass(frozen=True)
class NormalizedFamily:
    """Map from each proper subset S to the normalized polynomial of the
    complementary sublink: a MultiLaurent when at least two components
    remain, a TailPoly when exactly one does."""

    l: int
    entries: dict

    def __getitem__(self, s):
        return self.entries[frozenset(s)]

    @property
    def p_empty(self):
        return self.entries[frozenset()]


def normalized_family(prof: LinkProfile) -> NormalizedFamily:
    """Build every normalized sublink polynomial of the profile.

    The complement of S keeps variables in ascending component order.  For
    two or more remaining components the stored Alexander polynomial is
    shifted by u_j^(1/2 + lk(L_j, S)/2) in every remaining variable; for one
    remaining component the same linking shift is folded into a geometric
    tail.  For a knot (l = 1) the empty-S entry is the tail of Delta itself.
    """
    entries = {}
    for s in subsets_of(prof.l, proper=True):
        comp = sorted(set(range(1, prof.l + 1)) - s)
        poly = prof.delta[frozenset(comp)]
        if len(comp) >= 2:
            shift = tuple(1 + prof.lk_with(j, s) for j in comp)
            entries[s] = poly.shifted(shift)
        else:
            j = comp[0]
            numer = poly.shifted((prof.lk_with(j, s),))
            entries[s] = TailPoly(j, numer)
    return NormalizedFamily(prof.l, entries)


def r_sum(fam: NormalizedFamily, s_set, point2, r: int) -> int:
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
        return entry.coeff(point2[r - 1])
    rpos = comp.index(r)
    total = 0
    for e2, c in entry.terms.items():
        if e2[rpos] != point2[r - 1]:
            continue
        if all(e2[pos] >= point2[j - 1]
               for pos, j in enumerate(comp) if j != r):
            total += c
    return total


def theorem_sum(fam: NormalizedFamily, point2, r: int) -> int:
    """The alternating sum over admissible S of the signed region sums: the
    label of the edge entering point2 - 2 * sum_{j != r} e_j in direction r."""
    l = fam.l
    total = 0
    for s in subsets_of(l, proper=True):
        if r in s:
            continue
        total += (-1) ** (l - 1 - len(s)) * r_sum(fam, s, point2, r)
    return total


def theorem_field(fam: NormalizedFamily, grid) -> dict:
    """Every theorem sum over a grid, {(point2, r): value}, as a flattening
    of _theorem_rows.  grid holds one sorted list of doubled values per
    axis, and the points are their product."""
    heads = list(itertools.product(*grid[:-1]))
    return {(head + (x,), r): v
            for r, rows in enumerate(_theorem_rows(fam, grid), start=1)
            for head, row in zip(heads, rows.values())
            for x, v in zip(grid[-1], row)}


def _theorem_rows(fam: NormalizedFamily, grid) -> list:
    """theorem_sum over a grid: per direction r, a dict from each index
    tuple of the other axes (in product order) to the row along the last
    axis.  A signed entry term goes into the bucket at its exponent in r,
    the last grid value at or below it elsewhere outside S, and the top of
    each axis in S; a tail's terms are its coefficients on r's grid values.
    Running sums from the top along every axis but r spread the buckets."""
    l, sizes = fam.l, [len(vals) for vals in grid]
    heads = list(itertools.product(*map(range, sizes[:-1])))
    exact = [{x: k for k, x in enumerate(vals)} for vals in grid]
    out = []
    for r in range(1, l + 1):
        rows = {head: [0] * sizes[-1] for head in heads}
        for s in subsets_of(l, proper=True):
            if r in s:
                continue
            entry, vals = fam.entries[s], grid[r - 1]
            terms = entry.terms.items() if isinstance(entry, MultiLaurent) \
                else zip([(x,) for x in vals], entry.coeffs(vals))
            comp = [j - 1 for j in range(1, l + 1) if j not in s]
            sign = (-1) ** (l - 1 - len(s))
            for e2, c in terms:
                idx = [n - 1 for n in sizes]
                for a, x in zip(comp, e2):
                    idx[a] = exact[a].get(x, -1) if a == r - 1 else \
                        bisect_right(grid[a], x) - 1
                if min(idx) >= 0:       # on the grid in r, not below it
                    rows[tuple(idx[:-1])][idx[-1]] += sign * c
        for a in range(l - 1):
            for head in reversed(heads):
                if a != r - 1 and head[a] + 1 < sizes[a]:
                    above = rows[head[:a] + (head[a] + 1,) + head[a + 1:]]
                    rows[head] = list(map(operator.add, rows[head], above))
        if r != l:
            for head, row in rows.items():
                rows[head] = list(itertools.accumulate(reversed(row)))[::-1]
        out.append(rows)
    return out


# -- boxes ----------------------------------------------------------------------


def m_vector(prof: LinkProfile) -> tuple[int, ...]:
    """The stabilization corner of the lattice (doubled coords).

    For a knot this is the top degree of Delta; in general each coordinate
    is the maximum of the top degree of the normalized full polynomial and
    of the corners of the sublinks, shifted by half linking numbers.
    """
    return _corner(normalized_family(prof), frozenset())


def _corner(fam: NormalizedFamily, s) -> tuple[int, ...]:
    """The corner of the sublink L - S in the link's coordinates, one entry
    per component outside S: coordinate i is the top u_i exponent over the
    nonzero entries fam[T] with T containing S and not i.  A vanishing knot
    tail has no corner."""
    out = []
    for i in range(1, fam.l + 1):
        if i in s:
            continue
        tops = []
        for t, entry in fam.entries.items():
            if i in t or not s <= t:
                continue
            if isinstance(entry, TailPoly):     # u_i is its one variable
                entry = entry.numer
                if entry.is_zero():
                    raise ValueError(
                        "a knot profile needs a nonzero Alexander polynomial")
            if not entry.is_zero():
                tops.append(entry.max_exp2(i - sum(j < i for j in t)))
        out.append(max(tops))
    return tuple(out)


def resolve_margin(margin: int | None = None) -> int:
    """The box margin: the given value, else the environment variable
    LFK_MARGIN, else 2.  It must be an integer of at least 2."""
    if margin is None:
        text = os.environ.get("LFK_MARGIN", "2")
        try:
            margin = int(text)
        except ValueError:
            raise ValueError(
                f"LFK_MARGIN must be an integer, got {text!r}") from None
    if margin < 2:
        raise ValueError("box margin must be at least 2")
    return margin


def default_box(prof: LinkProfile, margin: int | None = None):
    """Per-coordinate doubled ranges [lo2, hi2] on the lattice cosets."""
    return _box(normalized_family(prof), frozenset(), resolve_margin(margin))


def _box(fam: NormalizedFamily, s, margin: int):
    """The default box of the sublink L - S in the link's coordinates, one
    range per component outside S."""
    m2 = _corner(fam, s)
    p = fam[s]
    if isinstance(p, TailPoly):
        p = p.numer                     # nonzero, or _corner raised
    box = []
    for pos, m in enumerate(m2, start=1):
        lo, hi = (m, m) if p.is_zero() else (p.min_exp2(pos), p.max_exp2(pos))
        box.append((lo - 2 * margin, max(m, hi) + 2 * margin))
    if p.is_zero():
        # A vanishing polynomial (a split link) does not show where the
        # sublinks stop changing, so their boxes are taken in as well.
        for pos, j in enumerate(j for j in range(1, fam.l + 1) if j not in s):
            sub = _box(fam, s | {j}, margin)
            box = _hull(box, sub[:pos] + (box[pos],) + sub[pos:])
    return tuple(box)


def _hull(box1, box2):
    return tuple((min(a, c), max(b, d)) for (a, b), (c, d) in zip(box1, box2))


def _checked_box(l: int, box) -> tuple:
    """An explicit box as (lo2, hi2) pairs, one per component."""
    box = tuple(tuple(b) for b in box)
    if len(box) != l:
        raise ValueError(f"box has {len(box)} ranges, expected {l}")
    return box


def box_points(box):
    """All doubled lattice points of a box, stepping by 2 per coordinate."""
    ranges = [range(lo, hi + 1, 2) for lo, hi in box]
    return itertools.product(*ranges)


# -- checkers ---------------------------------------------------------------------


@dataclass(frozen=True)
class TheoremReport:
    ok: bool
    violations: tuple
    box: tuple

    def to_json(self):
        return {"ok": self.ok, "box": [list(b) for b in self.box],
                "violations": [{"s2": list(p), "r": r, "value": v}
                               for p, r, v in self.violations]}


def theorem_alex_check(prof: LinkProfile, box=None,
                       margin: int | None = None) -> TheoremReport:
    """Evaluate the signed coefficient-sum condition over a box.

    Every lattice point and every direction must give a value of 0 or 1.
    Values on the box boundary are compared with their outward neighbors;
    disagreement raises RegionUnstable since the box then failed to capture
    the stable behavior.  All values come from one _theorem_rows pass over
    the box grown by one step, on one normalized family; a row within
    [0, 1], or a face equal to its outward one, is passed whole.
    """
    return _theorem_check(normalized_family(prof), box, margin)


def _theorem_check(fam: NormalizedFamily, box, margin) -> TheoremReport:
    """theorem_alex_check on a built family."""
    box = _box(fam, frozenset(), resolve_margin(margin)) if box is None \
        else _checked_box(fam.l, box)
    if any(lo > hi for lo, hi in box):
        raise ValueError(f"box {box} has an axis with lo > hi")
    l = fam.l
    # The box, its outward neighbours, and an upper edge off the lo coset:
    # lo - 2 and hi + 2 sit at the ends of each axis, lo and hi next to them.
    grid = [sorted({lo - 2, *range(lo, hi + 1, 2), hi, hi + 2})
            for lo, hi in box]
    rows = _theorem_rows(fam, grid)
    spans = [range(1, 1 + len(range(lo, hi + 1, 2))) for lo, hi in box]
    cols = slice(spans[-1].start, spans[-1].stop)
    violations = []
    for head in itertools.product(*spans[:-1]):
        line = [by_r[head] for by_r in rows]
        if any(min(row[cols]) < 0 or max(row[cols]) > 1 for row in line):
            at = tuple(vals[i] for vals, i in zip(grid, head))
            violations += [(at + (grid[-1][k],), r, row[k]) for k in spans[-1]
                           for r, row in enumerate(line, start=1)
                           if row[k] not in (0, 1)]
    for axis in range(l):
        for edge, out in ((1, 0), (len(grid[axis]) - 2, len(grid[axis]) - 1)):
            face = [range(edge, edge + 1) if a == axis else span
                    for a, span in enumerate(spans)]
            ks, last = face[-1], axis == l - 1
            # Outward along the last axis is another column of the same
            # rows; along any other axis it is another set of rows.
            moves = [(h, h if last else h[:axis] + (out,) + h[axis + 1:])
                     for h in itertools.product(*face[:-1])]
            shift = out - edge if last else 0
            if all([by_r[h][ks.start:ks.stop] for h, _ in moves]
                   == [by_r[t][ks.start + shift:ks.stop + shift]
                       for _, t in moves] for by_r in rows):
                continue
            for h, t in moves:
                diffs = [(k, r) for r, by_r in enumerate(rows, start=1)
                         for k in ks if by_r[h][k] != by_r[t][k + shift]]
                if diffs:
                    k, r = min(diffs)
                    at = tuple(vals[i] for vals, i in zip(grid, h + (k,)))
                    raise RegionUnstable(
                        f"value changes stepping outward at {at} "
                        f"(direction {r}); enlarge the margin")
    return TheoremReport(not violations, tuple(violations), tuple(box))


@dataclass(frozen=True)
class CorReport:
    ok: bool
    failures: tuple        # (clause, r, s2_of_u_r, detail)
    sign: int | None       # the unique passing global sign of Delta_L, if any

    def first_failure(self):
        return self.failures[0] if self.failures else None

    def to_json(self):
        return {"ok": self.ok, "sign": self.sign,
                "failures": [{"clause": c, "r": r, "e2": e, "detail": d}
                             for c, r, e, d in self.failures]}


def cor_alex2_check(prof: LinkProfile) -> CorReport:
    """Two-component coefficient conditions on the normalized polynomial.

    Checks that (a) all coefficients are -1, 0 or 1; (b) the nonzero
    coefficients along each row and column alternate in sign; (c) the
    highest nonzero coefficient of each restriction matches the tail
    coefficient rule (+1 under a 1, -1 under a 0).  Also reports which
    global sign of the full Alexander polynomial passes, when exactly one
    does.
    """
    if prof.l != 2:
        raise ValueError("this corollary checker needs exactly two components")
    return _cor_check(normalized_family(prof))


def _cor_check(fam: NormalizedFamily) -> CorReport:
    """cor_alex2_check on a built family.  The +1 run is the family as
    given: the sign of Delta_L enters it only through its empty-set entry."""
    runs = {1: _cor_failures(fam, 1), -1: _cor_failures(fam, -1)}
    passing = [s for s in (1, -1) if not runs[s]]
    sign = passing[0] if len(passing) == 1 else None
    return CorReport(not runs[1], tuple(runs[1]), sign)


def _cor_failures(fam: NormalizedFamily, sign: int):
    """The clauses failed by sign * P_empty, whose columns (r = 1) or rows
    (r = 2) are runs of one sort of its terms by (u_r, other) exponent."""
    terms = sorted(fam.p_empty.terms.items())
    failures = [("coefficient", 0, list(e2), f"coefficient {sign * c} at {e2}")
                for e2, c in terms if abs(c) > 1]
    for r in (1, 2):
        tail = fam.entries[frozenset({3 - r})]
        if not tail.numer.is_zero():
            span = range(tail.numer.min_exp2(1) - 2,
                         tail.numer.max_exp2(1) + 3, 2)
            failures += [("tail", r, er, f"tail coefficient {t}")
                         for er, t in zip(span, tail.coeffs(span))
                         if t not in (0, 1)]
        if r == 2:
            terms.sort(key=lambda term: term[0][::-1])
        runs = [(er, [sign * c for _, c in run]) for er, run in
                itertools.groupby(terms, key=lambda term: term[0][r - 1])]
        for (er, nz), t in zip(runs, tail.coeffs([er for er, _ in runs])):
            if any(a * b > 0 for a, b in zip(nz, nz[1:])):
                failures.append(("alternation", r, er,
                                 "equal consecutive signs"))
            if t not in (0, 1):
                continue  # reported by the tail-range scan above
            want = 1 if t == 1 else -1
            if nz[-1] != want:
                failures.append(("leading", r, er,
                                 f"top coefficient {nz[-1]}, expected {want}"))
        # tail exponents where the restriction is zero: nothing to check;
        # the theorem-level sums cover those points.
    return failures
