"""Normalized Alexander-polynomial families and L-space necessary conditions.

A LinkProfile packages the symmetric Alexander polynomial of every nonempty
sublink (each defined up to a global sign, tracked by a flag) together with
the pairwise linking numbers.  From it the normalized family is built: one
polynomial per proper sublink-complement, monomially shifted by half linking
numbers, with a geometric-series tail factor when a single component
remains.  A profile builds its family once, and with_signs carries it over.

The H-function of the sublink L - S is the signed sum, over the entries
fam[T] with T containing S, of each one's coefficients at the exponents
above a point; over a lattice rect it is one flat list in ``box_points``
order, walked by integer strides.  The theorem's signed sums, which must
land in {0, 1} for an L-space link, are its differences in each
direction.  For two components one walk over the normalized polynomial's
columns and rows, read as runs of one sort per direction, yields the
sharper alternating-sign conditions' failures; the corollary reads all of
them and decides both signs from them, since only the leading clause
depends on the sign, and the theorem passes exactly when the walk, its
tail coefficients scanned over the box, yields none.  The sums at every
point are computed only when read.

Index work that does not read the coefficients is done once.  A level's
corner and default box, and the runs, read only the entries' exponents,
so they are computed once per unsigned profile and memoized on its
family, which shares the memo with every family with_signs derives.
The strides and each entry's base offset and own axes in the H-function
depend on a rect's per-axis lengths alone, so they are built once per
shape, in a bounded memo.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import os
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial, wraps

from .bridge import (TwoBridge, alexander, even_expansion, linking_number)
from .errors import CosetViolation, RegionUnstable
from .laurent import MultiLaurent, TailPoly, json_int

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
    signs carries "+" or "auto" per subset; the polynomials stored in delta
    are the ones used by every computation.  "+" pins the stored polynomial,
    "auto" lets its sign be searched; flipping a sign means replacing the
    stored polynomial by its negative and pinning it.  family is the
    normalized family, built on first use and carried through with_signs.
    """

    l: int
    lk: tuple[tuple[int, ...], ...]
    delta: dict
    signs: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 1 <= self.l <= 3:
            raise ValueError("component count must be 1..3")
        lk = tuple(tuple(map(operator.index, row)) for row in self.lk)
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
        for m, v in signs.items():
            if v not in ("+", "auto"):
                raise ValueError(f"sign flag {subset_key(m)!r} must be '+' "
                                 f"or 'auto', not {v!r}")
        object.__setattr__(self, "signs", signs)
        self._check_cosets()

    def _check_cosets(self):
        for m, poly in self.delta.items():
            comps = sorted(m)
            for pos, i in enumerate(comps, start=1):
                par = poly.parity(pos)
                if par is None:
                    continue
                want = (self.lk_with(i, m) + (1 if len(m) > 1 else 0)) & 1
                if par != want:
                    raise CosetViolation(
                        f"delta[{subset_key(m)}] variable u{pos} exponents lie "
                        f"off the lattice forced by the linking numbers")

    def lkval(self, i: int, j: int) -> int:
        return self.lk[i - 1][j - 1]

    def lk_with(self, i: int, s) -> int:
        """Total linking number of component i with the sublink s."""
        return sum(self.lkval(i, j) for j in s if j != i)

    def coset_parity(self, i: int) -> int:
        """Parity of the doubled coordinates of the lattice in direction i."""
        return self.lk_with(i, self.full()) & 1

    def full(self) -> Subset:
        return frozenset(range(1, self.l + 1))

    @cached_property
    def family(self) -> NormalizedFamily:
        return _build_family(self)

    def assignments(self):
        """Every sign assignment to the "auto" subsets, as pinned profiles:
        the one keeping every stored polynomial first, or just this profile
        when nothing is auto.  A vanishing polynomial has no sign to try."""
        autos = [m for m in sorted(self.signs, key=subset_key)
                 if self.signs[m] == "auto" and not self.delta[m].is_zero()]
        if not autos:
            yield self
            return
        self.family                     # each assignment derives its own
        for bits in itertools.product((1, -1), repeat=len(autos)):
            yield self.with_signs(dict(zip(autos, bits)))

    def with_signs(self, resolution: dict) -> LinkProfile:
        """Apply a sign choice (+1/-1 per subset) and pin the flags.  The
        result is not validated again: negation keeps every coset, and lk
        and the set of sublinks do not change.  A built family is carried
        over, negated where flipped: negation commutes with the shift."""
        delta = dict(self.delta)
        signs = dict(self.signs)
        entries = dict(self.family.entries) if "family" in vars(self) else None
        for m, s in resolution.items():
            m = frozenset(m)
            if m not in delta or s not in (1, -1):
                raise ValueError(f"cannot pin {subset_key(m)!r} to {s!r}: the "
                                 "key must name a sublink, the sign be 1 or -1")
            if s == -1:
                delta[m] = -delta[m]
                if entries is not None:
                    entries[self.full() - m] = -entries[self.full() - m]
            signs[m] = "+"
        out = object.__new__(LinkProfile)
        out.__dict__.update(vars(self), delta=delta, signs=signs)
        if entries is not None:
            out.__dict__["family"] = NormalizedFamily(
                self.l, entries, self.family.geometry)
        return out

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
            def parse(d):
                out = {}
                for key, val in d.items():
                    m = frozenset(int(ch) for ch in key)
                    if len(m) != len(key):
                        raise ValueError(f"key {key!r} names a component "
                                         "twice")
                    if m in out:
                        raise ValueError(f"key {key!r} names the sublink "
                                         f"{subset_key(m)!r} again")
                    out[m] = parse_val(val)
                return out
            return parse

        return LinkProfile(
            read("l", json_int),
            read("lk", lambda v: tuple(tuple(map(json_int, row))
                                       for row in v)),
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


def two_bridge_profile(link_or_expansion) -> LinkProfile:
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
        {frozenset({1}): "+", frozenset({2}): "+", full: "auto"})


# -- normalized family ------------------------------------------------------------


@dataclass(frozen=True)
class NormalizedFamily:
    """Map from each proper subset S to the normalized polynomial of the
    complementary sublink: a MultiLaurent when at least two components
    remain, a TailPoly when exactly one does.  geometry memoizes each
    level's corner and default box, and P_empty's runs for two components;
    the families with_signs derives share it, since negating entries keeps
    their exponents, all that those read."""

    l: int
    entries: dict
    geometry: dict = field(default_factory=dict, compare=False, repr=False)

    def __getitem__(self, s):
        return self.entries[frozenset(s)]

    @property
    def p_empty(self):
        return self.entries[frozenset()]


def normalized_family(prof: LinkProfile) -> NormalizedFamily:
    """The profile's normalized family, built once per profile."""
    return prof.family


def _build_family(prof: LinkProfile) -> NormalizedFamily:
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


def _length(r) -> int:
    """The number of doubled lattice points in the range r."""
    return (r[1] - r[0]) // 2 + 1


def _flat(rect, window):
    """The flat indices in rect of the points of window, a box inside it,
    in ``box_points`` order."""
    strides = _strides(map(_length, rect))
    return map(sum, itertools.product(*[
        range((a - lo) // 2 * st, (b - lo) // 2 * st + 1, st)
        for (a, b), (lo, _), st in zip(window, rect, strides)]))


def _window(values, rect, window) -> list:
    """The flat values over rect restricted to window, a box inside it, in
    ``box_points`` order: one slice per row along the last axis."""
    a, n = window[-1][0], _length(window[-1])
    return list(itertools.chain.from_iterable(
        values[k:k + n] for k in _flat(rect, [*window[:-1], (a, a)])))


def _strides(sizes) -> list:
    """The flat-index step of each axis in ``box_points`` order over axes
    of the given sizes."""
    return list(itertools.accumulate([1, *list(sizes)[:0:-1]],
                                     operator.mul))[::-1]


@lru_cache(maxsize=256)
def _h_plan(l: int, s_set, sizes: tuple) -> tuple:
    """The shape-only part of _h_values at the level S of an l-component
    link over a rect of the given per-axis lengths: the strides, and per
    entry fam[T] with T containing S its sign, its base offset (the top of
    each axis in T - S) and its own axes as (axis, top index, stride)."""
    comps = [j for j in range(1, l + 1) if j not in s_set]
    strides = _strides(sizes)
    plan = []
    for t in subsets_of(l, proper=True):
        if s_set <= t:
            k0 = sum((size - 1) * st for j, size, st
                     in zip(comps, sizes, strides) if j in t)
            own = tuple((a, sizes[a] - 1, strides[a])
                        for a, j in enumerate(comps) if j not in t)
            plan.append((t, (-1) ** (l - 1 - len(t)), k0, own))
    return strides, tuple(plan)


def _h_values(fam: NormalizedFamily, s_set, rect, scale=1) -> list:
    """scale times the H-function of the sublink L - S over rect (one
    doubled range per component outside S, on its coset), flat in
    ``box_points`` order: the signed suffix sums, along every axis, of each
    entry fam[T] with T containing S, taken with the sign
    (-1)^(l - 1 - |T|) and scaled by scale in the buckets.  A term goes into
    the bucket at the last rect value at or below its exponent on each of
    the entry's axes, and at the top of each axis in T - S; a tail adds its
    coefficients as one strided slice, the ones above rect in its top.  The
    sums run from the top: whole planes of the last two axes along the
    leading one, then row by row in each plane, a row's accumulate plus
    the row before it.  The offsets come from the rect's shape alone (_h_plan);
    only the buckets read its position."""
    sizes = tuple(map(_length, rect))
    strides, plan = _h_plan(fam.l, s_set, sizes)
    total, n = strides[0] * sizes[0], sizes[-1]
    flat = [0] * total
    for t, sign, k0, own in plan:
        entry, sign = fam.entries[t], sign * scale
        if isinstance(entry, TailPoly):
            (a, top, st), = own
            lo, hi = rect[a]
            coeffs = entry.coeffs(range(lo, hi + 1, 2))
            coeffs[-1] += sum(c * ((y - hi) // 2) for (y,), c
                              in entry.numer.terms.items() if y > hi)
            cut = slice(k0, k0 + (top + 1) * st, st)
            flat[cut] = map(operator.add, flat[cut],
                            [sign * c for c in coeffs])
            continue
        axes = [(rect[a][0], top, st) for a, top, st in own]
        for e2, c in entry.terms.items():
            k = k0
            for x, (lo, top, st) in zip(e2, axes):
                i = (x - lo) // 2
                if i < 0:               # below rect: in no suffix sum
                    break
                k += (i if i < top else top) * st
            else:
                flat[k] += sign * c
    flat.reverse()                      # sums from the top run forward
    plane = math.prod(sizes[-2:])       # at most one axis leads (l <= 3)
    for k in range(plane, total, plane):
        flat[k:k + plane] = map(operator.add, flat[k:k + plane],
                                flat[k - plane:k])
    for base in range(0, total, plane):
        row = [0] * n
        for k in range(base, base + plane, n):
            flat[k:k + n] = row = list(map(
                operator.add, row, itertools.accumulate(flat[k:k + n])))
    flat.reverse()
    return flat


# -- boxes ----------------------------------------------------------------------


def m_vector(prof: LinkProfile) -> tuple[int, ...]:
    """The stabilization corner of the lattice (doubled coords).

    For a knot this is the top degree of Delta; in general each coordinate
    is the maximum of the top degree of the normalized full polynomial and
    of the corners of the sublinks, shifted by half linking numbers.
    """
    return _corner(normalized_family(prof), frozenset())


def _sign_free(fn):
    """fn(fam, *args) memoized on fam.geometry, which a family shares with
    the ones with_signs derives from it: fn may read only the entries'
    exponents, which negation keeps.  A miss calls ``__wrapped__``,
    looked up at that call."""
    @wraps(fn)
    def memo(fam, *args):
        key = (fn.__name__, *args)
        out = fam.geometry.get(key)
        if out is None:
            out = fam.geometry[key] = memo.__wrapped__(fam, *args)
        return out
    return memo


@_sign_free
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


def ascii_int(text: str, *, signed: bool = True) -> int:
    """The integer an ASCII decimal names, with an optional leading sign
    when signed: no spaces, underscores or other scripts' digits, which
    int() would take.  Anything else raises ValueError."""
    if not re.fullmatch("[+-]?[0-9]+" if signed else "[0-9]+", text):
        raise ValueError(f"not an ASCII decimal integer: {text!r}")
    return int(text)


def resolve_margin(margin: int | None = None) -> int:
    """The box margin: the given value, else the environment variable
    LFK_MARGIN (ASCII decimal digits only), else 2.  It must be an integer
    of at least 2; a float or a boolean is refused, not read as one."""
    if margin is None:
        text = os.environ.get("LFK_MARGIN", "2")
        try:
            margin = ascii_int(text, signed=False)
        except ValueError:
            raise ValueError(
                f"LFK_MARGIN must be an integer, got {text!r}") from None
    else:
        try:
            margin = json_int(margin)
        except TypeError:
            raise TypeError(
                f"box margin must be an integer, got {margin!r}") from None
    if margin < 2:
        raise ValueError("box margin must be at least 2")
    return margin


def default_box(prof: LinkProfile, margin: int | None = None):
    """Per-coordinate doubled ranges [lo2, hi2] on the lattice cosets."""
    return _box(normalized_family(prof), frozenset(), resolve_margin(margin))


@_sign_free
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


@_sign_free
def _runs(fam: NormalizedFamily) -> tuple:
    """The columns (r = 1) and rows (r = 2) of a two-component family's
    P_empty: per r, for each u_r exponent with terms, ascending, that
    exponent and its terms' exponent vectors, ascending in the other.
    _run_failures walks them for the corollary and the theorem check."""
    cols = sorted(fam.p_empty.terms)
    rows = sorted(cols, key=lambda e2: e2[::-1])
    return tuple(tuple((er, tuple(run)) for er, run in itertools.groupby(
        keys, key=operator.itemgetter(axis)))
        for axis, keys in enumerate((cols, rows)))


def _hull(box1, box2):
    return tuple((min(a, c), max(b, d)) for (a, b), (c, d) in zip(box1, box2))


def box_points(box):
    """All doubled lattice points of a box, stepping by 2 per coordinate."""
    ranges = [range(lo, hi + 1, 2) for lo, hi in box]
    return itertools.product(*ranges)


# -- checkers ---------------------------------------------------------------------


class TheoremReport:
    """The verdict, the box, and per direction the values at the box points
    in ``box_points`` order, given or computed by read when first read (a
    two-component verdict comes from the run walk, its values from H);
    violations are listed from them when read."""

    def __init__(self, ok: bool, box: tuple, values=None, *, read=None):
        self.ok, self.box, self._read = ok, box, read
        if values is not None:
            self.values = values

    @cached_property
    def values(self) -> tuple:
        return self._read()

    @cached_property
    def violations(self) -> tuple:
        return tuple((p, r, v) for p, vs in zip(box_points(self.box),
                                                zip(*self.values))
                     for r, v in enumerate(vs, start=1) if v not in (0, 1))

    def __eq__(self, other):
        key = operator.attrgetter("ok", "violations", "box")
        return isinstance(other, TheoremReport) and key(self) == key(other)

    def to_json(self):
        return {"ok": self.ok, "box": [list(b) for b in self.box],
                "violations": [{"s2": list(p), "r": r, "value": v}
                               for p, r, v in self.violations]}


def theorem_alex_check(prof: LinkProfile,
                       margin: int | None = None) -> TheoremReport:
    """Evaluate the signed coefficient-sum condition over the default box.

    Every lattice point and every direction must give a value of 0 or 1:
    the sum in direction r at s is H(s) - H(s + 2 e_r).  A lower face of
    the box whose values differ from their outward neighbours raises
    RegionUnstable since the box then failed to capture the stable
    behavior.  The upper faces need no comparison: the box top lies at
    least 2 * margin above the corner, where H no longer depends on that
    coordinate.  For two components the sum in direction r at s is the
    tail coefficient at s_r less the sum of P_empty's run at s_r from the
    top down to s, so the verdict is that the corollary's walk, its tails
    scanned over the box, finds no failure; no term lies outside the box,
    so a lower face is unstable exactly when a tail coefficient changes
    one step below it.  The values, when read, and an unstable face's
    witness come from H.
    """
    fam = normalized_family(prof)
    box = _box(fam, frozenset(), resolve_margin(margin))
    dense = partial(_dense_values, fam, box)
    # per direction, the tail coefficients one step below the box and on it
    faces = (fam.entries[frozenset({3 - r})].coeffs((lo - 2, lo))
             for r, (lo, _) in enumerate(box, start=1))
    if fam.l == 2 and all(below == on for below, on in faces):
        walk = _run_failures(fam, [range(lo, hi + 1, 2) for lo, hi in box])
        return TheoremReport(next(walk, None) is None, box, read=dense)
    values = dense()
    return TheoremReport(all(min(v) >= 0 and max(v) <= 1 for v in values),
                         box, values)


def _dense_values(fam: NormalizedFamily, box) -> tuple:
    """Per direction the theorem's sums over box, from _h_values over box
    grown by one step, once each lower face matches its outward
    neighbours; else the first point and direction that differ raise."""
    # Both edges of an axis lie on one coset: lo - 2 holds the outward
    # neighbours, hi + 2 the values the box's top is differenced against.
    rect = tuple((lo - 2, hi + 2) for lo, hi in box)
    h = _h_values(fam, frozenset(), rect)
    strides = _strides(map(_length, rect))
    rows = [list(map(operator.sub, h, h[st:])) for st in strides]
    for axis, st in enumerate(strides):
        face = box[:axis] + ((box[axis][0],) * 2,) + box[axis + 1:]
        for p, k in zip(box_points(face), _flat(rect, face)):
            for r, by_r in enumerate(rows, start=1):
                if by_r[k] != by_r[k - st]:
                    raise RegionUnstable(
                        f"value changes stepping outward at {p} "
                        f"(direction {r}); enlarge the margin")
    return tuple(tuple(_window(by_r, rect, box)) for by_r in rows)


def _run_failures(fam: NormalizedFamily, spans):
    """The corollary's failures on a two-component family, lazily and in
    order: a coefficient of P_empty outside {-1, 0, 1}; then per direction
    r, a tail coefficient outside {0, 1} over spans[r - 1], and per run
    (_runs) of P_empty along u_r, equal consecutive signs, and a top
    coefficient other than +1 under a tail coefficient 1 or -1 under a 0.
    Each failure is (clause, r, s2_of_u_r, detail)."""
    p, (cols, rows) = fam.p_empty.terms, _runs(fam)
    for _, run in cols:
        for e2 in run:
            if abs(p[e2]) > 1:
                yield ("coefficient", 0, list(e2),
                       f"coefficient {p[e2]} at {e2}")
    for r, runs, span in zip((1, 2), (cols, rows), spans):
        tail = fam.entries[frozenset({3 - r})]
        for er, t in zip(span, tail.coeffs(span)):
            if t not in (0, 1):
                yield ("tail", r, er, f"tail coefficient {t}")
        for (er, run), t in zip(runs, tail.coeffs([er for er, _ in runs])):
            nz = [p[e2] for e2 in run]
            if any(a * b > 0 for a, b in zip(nz, nz[1:])):
                yield ("alternation", r, er, "equal consecutive signs")
            want = 1 if t == 1 else -1
            if t in (0, 1) and nz[-1] != want:   # else the tail scan fails
                yield ("leading", r, er,
                       f"top coefficient {nz[-1]}, expected {want}")


@dataclass(frozen=True)
class CorReport:
    ok: bool
    failures: tuple        # (clause, r, s2_of_u_r, detail)
    sign: int | None       # the unique passing global sign of Delta_L, if any

    def to_json(self):
        return {"ok": self.ok, "sign": self.sign,
                "failures": [{"clause": c, "r": r, "e2": e, "detail": d}
                             for c, r, e, d in self.failures]}


def cor_alex2_check(prof: LinkProfile) -> CorReport:
    """Two-component coefficient conditions on the normalized polynomial.

    Checks that (a) all coefficients are -1, 0 or 1; (b) the nonzero
    coefficients along each row and column alternate in sign; (c) the
    highest nonzero coefficient of each restriction matches the tail
    coefficient rule (+1 under a 1, -1 under a 0), with every tail
    coefficient in {0, 1} from one step below its numerator to one step
    above.  The failures are those of _run_failures, the walk the theorem
    check reads too.  Also reports which global sign of the full
    Alexander polynomial passes, when exactly one does: the sign enters
    only through P_empty and, of the clauses, only the leading one depends
    on it, so -P_empty passes exactly when every failure is a leading one,
    one per run.
    """
    if prof.l != 2:
        raise ValueError("this corollary checker needs exactly two components")
    fam = normalized_family(prof)
    spans = []
    for r in (1, 2):
        numer = fam.entries[frozenset({3 - r})].numer
        spans.append(() if numer.is_zero() else
                     range(numer.min_exp2(1) - 2, numer.max_exp2(1) + 3, 2))
    failures = tuple(_run_failures(fam, spans))
    flipped = (len(failures) == sum(map(len, _runs(fam)))
               and all(f[0] == "leading" for f in failures))
    passing = [s for s, ok in ((1, not failures), (-1, flipped)) if ok]
    sign = passing[0] if len(passing) == 1 else None
    return CorReport(not failures, failures, sign)
