"""The lattice grading field and homology tables for up to 3 components.

Each lattice point s carries the even top grading g(s) of its sublevel
tower, normalized to 0 in the stable region.  g is the one stored field:
the label of the edge into s in direction j is read off it as
(g(s) - g(s - e_j)) / 2, which is 0 when the inclusion of sublevel
complexes is an isomorphism and 1 when it drops a tower step.  At the
link and at every sublink, in the link's coordinates, g is read off the
H-function of the normalized family: g(p) = -2 H(p + 2 e) for e the
all-ones vector.  A build checks it in the order a grading would be made:

* every sublink's field first; a single component's labels are its tail
  coefficients, which must be 0 or 1;
* each cube below the stabilization corner m(L) must be graded at its
  origin by the completion of its other vertices whose Euler
  characteristic is the coefficient of the normalized polynomial there,
  checked once per distinct cube;
* afterwards the labels one step below the box must repeat.

The construction refuses inputs for which no consistent field exists: such
inputs cannot be L-space links.  The homology table assigns to each lattice
point the corner homology of its unit cube.  g is stored flat in
``box_points`` order and walked by integer strides: the check and the
table read a cube's vertices as one column of row slices per offset.
They answer from memos, keyed by a cube's upper gradings less the first
(its rules commute with a shift) and by its vertex gradings.  The first
failing cube in the sweep order, by coordinate sum, names a refusal.  The
hat hypothesis is one map, ``HFLTable.blocked``, from each point where it
fails to its first nonzero up-offset: the hat groups read it, and the
alternating cross-check visits only the points outside it where the group
or the predicted coefficient is nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, compress, repeat
from operator import attrgetter, mul, sub

from .cubes import (GradedVS, _corner_at, complete_subgraph, euler_char,
                    vertices)
from .errors import HypothesisNotMet, NotLSpaceLink, RegionUnstable
from .laurent import MultiLaurent, TailPoly
from .lspace import (LinkProfile, NormalizedFamily, _box, _corner, _flat,
                     _h_values, _hull, _length, _strides, _window, box_points,
                     normalized_family, resolve_margin)


@dataclass(frozen=True)
class TGraph:
    """Top gradings over a box of the Alexander lattice.

    values holds the even top grading of the sublevel tower at each
    (doubled) point of the stored region (the box and two steps below it),
    in ``box_points`` order, normalized to 0 in the stable region; it is
    the one stored field.  The label of the edge entering a point from
    below in a direction is half the difference of g across that edge.
    Labels repeat verbatim below the box (checked during construction).
    family is the normalized family g was built from, under the sign
    assignment that built it.
    """

    l: int
    box: tuple                      # user-facing per-coordinate (lo2, hi2)
    m2: tuple
    values: tuple
    family: NormalizedFamily

    def to_json(self) -> dict:
        # Box points lie 2 steps above the stored bottom: no label clamps.
        v, rect = self.values, _stored(self.box)
        steps = list(enumerate(_strides(map(_length, rect)), start=1))
        pts = list(zip(box_points(self.box), _flat(rect, self.box)))
        return {
            "box": [list(b) for b in self.box],
            "m2": list(self.m2),
            "labels": [{"s2": list(p), "dir": j, "l": (v[k] - v[k - st]) // 2}
                       for p, k in pts for j, st in steps],
            "g": [{"s2": list(p), "g": v[k]} for p, k in pts],
            "stabilized_below": True,   # construction refuses otherwise
        }


def build_tgraph(prof: LinkProfile, box=None, margin=None) -> TGraph:
    """Construct the labeled lattice graph for a profile.

    Sign flags marked "auto" are resolved by trying the profile's sign
    assignments in order: the first that builds is the answer, and when
    none builds the last one's NotLSpaceLink is raised.  At most one
    assignment can build.  Take two and let M be a smallest sublink on
    which they differ: both build every field below M identically, so M's
    field gets identical gradings up to the first cube whose target is
    +-c with c != 0.  Each branch of that cube's completion has Euler
    characteristic a or a +- 1, so c and -c cannot both match; for a knot
    M, the top tail coefficient cannot be both c and -c in {0, 1}.  An
    explicit box needs one range per component; it is widened to the
    lattice and to the default box.
    """
    margin = resolve_margin(margin)
    if box:
        box = tuple(map(tuple, box))
        if len(box) != prof.l:
            raise ValueError(f"box has {len(box)} ranges, expected {prof.l}")
    for candidate in prof.assignments():
        try:
            return _build_resolved(candidate, box, margin)
        except NotLSpaceLink as err:
            failure = err
    raise failure


def _sweep_order(pts):
    """The interior sweep's order of the box points given in product order:
    by descending coordinate sum, ties descending (the sort is stable).  It
    visits a cube after every cube holding its other vertices as origins."""
    return sorted(reversed(list(pts)), key=sum, reverse=True)


def _build_resolved(prof, box, margin) -> TGraph:
    fam = normalized_family(prof)
    user_box = _box(fam, frozenset(), margin)
    if box:
        # An explicit edge off the lattice coset of its axis moves outward.
        cosets = [prof.coset_parity(i) for i in range(1, prof.l + 1)]
        user_box = _hull(user_box, [(lo - (lo - c) % 2, hi + (hi - c) % 2)
                                    for (lo, hi), c in zip(box, cosets)])
    g = _field(fam, frozenset(), user_box, margin)
    return TGraph(prof.l, user_box, _corner(fam, frozenset()), tuple(g), fam)


def _field(fam, s_set, box, margin) -> list:
    """g of the sublink L - S over the stored region of its box (the box and
    two steps below it), flat in ``box_points`` order, on the components
    outside S in the link's coordinates: g(p) = -2 H(p + 2 (1, ..., 1)).
    Each sublink's checks run first; then fam[S] gives the Euler
    characteristics of the cubes, checked once per distinct cube."""
    p0, rect = fam[s_set], _stored(box)
    if isinstance(p0, TailPoly):
        # One component remains: the label entering p is the tail
        # coefficient at p, H(p) - H(p + 2).  The box reaches below the
        # tail's numerator, where the labels are constant.
        (lo, hi), = rect
        h = _h_values(fam, s_set, ((lo, hi + 2),))
        for p, a in zip(range(lo, hi + 1, 2), map(sub, h, h[1:])):
            if a not in (0, 1):
                raise NotLSpaceLink(
                    f"normalized coefficient {a} at exponent {p}/2; "
                    "not an L-space knot profile (or wrong sign)")
        return [-2 * x for x in h[1:]]

    for pos, i in enumerate(j for j in range(1, fam.l + 1) if j not in s_set):
        _field(fam, s_set | {i}, _hull(_box(fam, s_set | {i}, margin),
                                       rect[:pos] + rect[pos + 1:]), margin)
    g = _h_values(fam, s_set, tuple((lo + 2, hi + 2) for lo, hi in rect), -2)

    # The cube at s = o + 2 with its origin o below the corner must have
    # Euler characteristic c(s), the coefficient at s.  Other cubes lie in
    # a slab, where g is constant along the slab direction and the
    # coefficient is 0, so their rule holds.
    l, m2 = len(box), _corner(fam, s_set)
    strides = _strides(map(_length, rect))
    origins = tuple((lo, m - 2) for (lo, _), m in zip(rect, m2))
    sizes = list(map(_length, origins))
    o_strides, n = _strides(sizes), sizes[-1]
    coef = [0] * o_strides[0] * sizes[0]
    for e2, c in p0.terms.items():
        at = [(x - lo) // 2 - 1 for x, (lo, _) in zip(e2, origins)]
        if all(0 <= i < size for i, size in zip(at, sizes)):
            coef[sum(map(mul, at, o_strides))] = c
    starts = list(_flat(rect, origins[:-1] + ((rect[-1][0],) * 2,)))

    # One check per distinct cube, keyed by its vertex gradings less its
    # first upper vertex's and its coefficient.  A refusal names the first
    # failing cube in sweep order: every cube before it holds the gradings
    # a cube-by-cube sweep gives, so that sweep fails there too.
    cols = [list(chain.from_iterable(g[k + o:k + o + n] for k in starts))
            for o in (sum(map(mul, d, strides)) // 2
                      for d in _cube_offsets(l))]
    keys = list(zip(*[list(map(sub, col, cols[1])) for col in cols], coef))
    bad = {key for key in set(keys) if not _fits(l, key)}
    if bad:
        key_of = dict(zip(box_points(origins), keys))
        origin = next(o for o in _sweep_order(box_points(origins))
                      if key_of[o] in bad)
        key, s = key_of[origin], tuple([x + 2 for x in origin])
        unique, branches = _cube_rule(l, key[1:-1])
        if unique:
            raise NotLSpaceLink(
                f"forced cube at {s} has Euler characteristic "
                f"{branches[-1][1]}, need coefficient {key[-1]}")
        raise NotLSpaceLink(
            f"neither dichotomy branch at {s} matches "
            f"coefficient {key[-1]}")
    _verify_bottom_stability(g, box)
    return g


def _fits(l: int, key: tuple) -> bool:
    """Whether a cube's key has the origin the cube rule grades; upper
    edges other than 0- or 2-steps fail."""
    try:
        _, branches = _cube_rule(l, key[1:-1])
    except ValueError:
        return False
    return (key[0], key[-1]) in branches


@lru_cache(maxsize=None)
def _cube_rule(l: int, rel: tuple) -> tuple:
    """is_unique and (origin, Euler characteristic) per completion of rel."""
    comp = complete_subgraph(l, rel)
    return comp.is_unique, tuple([(g0, euler_char(l, (g0, *rel)))
                                  for g0 in comp.origins])


@lru_cache(maxsize=None)
def _cube_offsets(l: int) -> tuple:
    """The doubled offsets 2 eps of the vertices eps of a unit l-cube from
    its origin, in ``vertices`` order; the cube at s has origin s - 2."""
    return tuple(tuple(2 * e for e in eps) for eps in vertices(l))


def _stored(box) -> tuple:
    """The region a field over box is stored on: the box and two steps
    below it."""
    return tuple((lo - 4, hi) for lo, hi in box)


def _verify_bottom_stability(g, box):
    """One step below the box, the g differences must repeat the bottom row;
    points are scanned in sorted order, so the witness is canonical."""
    rect = _stored(box)
    strides = _strides(map(_length, rect))
    for axis, (low, _) in enumerate(box):
        row = rect[:axis] + ((low - 2, low - 2),) + rect[axis + 1:]
        for p, k in zip(box_points(row), _flat(rect, row)):
            u = k + strides[axis]
            for x, (lo, _), st in zip(p, rect, strides):
                if x > lo and (g[k] - g[k - st]) // 2 != \
                        (g[u] - g[u - st]) // 2:
                    raise RegionUnstable(
                        f"labels below the box at {p} differ from the bottom "
                        "row; enlarge the margin (LFK_MARGIN)")


# -- homology tables ---------------------------------------------------------------


@dataclass(frozen=True)
class HFLTable:
    """Corner homology of each box point's unit cube, in box point order."""

    tgraph: TGraph
    table: dict

    @property
    def box(self):
        return self.tgraph.box

    @cached_property
    def _mask(self) -> list:
        """Whether each group is nonzero, in the table's order."""
        return list(map(bool, map(attrgetter("dims"), self.table.values())))

    @cached_property
    def nonzero(self) -> frozenset:
        """The points whose group is nonzero."""
        return frozenset(compress(self.table, self._mask))

    @cached_property
    def blocked(self) -> dict:
        """Each tabulated point where the hat hypothesis fails, mapped to
        its first 0/1 offset eps in ``vertices`` order with a nonzero group
        at s2 + 2 eps.  Other up-neighbours lie beyond the corner (box tops
        are at least m + 4), so the mask decides it: one window per offset,
        written last to first so that the first wins."""
        out, box = {}, self.box
        for d in reversed(_cube_offsets(self.tgraph.l)[1:]):
            hits = _window(self._mask, box,
                           [(lo + e, hi) for (lo, hi), e in zip(box, d)])
            pts = box_points([(lo, hi - e) for (lo, hi), e in zip(box, d)])
            out.update(dict.fromkeys(compress(pts, hits),
                                     tuple([x // 2 for x in d])))
        return out

    def entry(self, s2) -> GradedVS:
        """The group at a lattice point: tabulated over the box and 0 beyond
        the corner; other points raise ValueError."""
        s2 = tuple(s2)
        if s2 in self.table:
            return self.table[s2]
        if len(s2) != len(self.box) or any(
                (x - lo) % 2 for x, (lo, _) in zip(s2, self.box)):
            raise ValueError(f"{s2} is not a point of the lattice of the "
                             f"box {self.box}")
        if any(x >= m + 2 for x, m in zip(s2, self.tgraph.m2)):
            return GradedVS.zero()
        raise ValueError(f"{s2} is below the tabulated box")

    def euler_series(self) -> MultiLaurent:
        """The generating polynomial of Euler characteristics over the box."""
        if self.tgraph.l == 1:
            raise ValueError("euler_series needs two or more components")
        terms = {}
        for s2, vs in self.table.items():
            chi = vs.euler()
            if chi:
                terms[s2] = chi
        return MultiLaurent(self.tgraph.l, terms)

    def to_json(self) -> dict:
        return {
            "box": [list(b) for b in self.box],
            "hfl": [{"s2": list(s2), "groups": vs.to_json()}
                    for s2, vs in sorted(self.table.items())],
        }


def _corner_table(tg: TGraph) -> dict:
    """Corner homology of each box point's unit cube, read off the gradings
    of its 2^l vertices: one column of g over the box per cube offset, read
    as row slices of the flat values."""
    rect = _stored(tg.box)
    cols = [_window(tg.values, rect, [(lo - 2 + e, hi - 2 + e)
                                      for (lo, hi), e in zip(tg.box, d)])
            for d in _cube_offsets(tg.l)]
    return dict(zip(box_points(tg.box),
                    map(_corner_at, repeat(tg.l), zip(*cols))))


def hfl_minus(prof: LinkProfile, tgraph: TGraph | None = None,
              margin=None) -> HFLTable:
    """Corner homology at every box point of the labeled lattice graph."""
    tg = tgraph if tgraph is not None else build_tgraph(prof, margin=margin)
    return HFLTable(tg, _corner_table(tg))


def hfl_hat(table: HFLTable, s2) -> GradedVS:
    """The hat-flavor group at a point, where the vanishing hypothesis holds.

    Requires the minus-flavor entries at every nonzero 0/1 offset of the
    point to vanish; otherwise raises HypothesisNotMet with the offending
    offset.
    """
    s2 = tuple(s2)
    here = table.entry(s2)
    if (eps := table.blocked.get(s2)) is not None:
        raise HypothesisNotMet(eps)
    return here


# (1 - 1/u1)(1 - 1/u2), the factor of the alternating model.
_ALT_FACTOR = MultiLaurent(2, {(0, 0): 1, (-2, 0): -1, (0, -2): -1,
                                (-2, -2): 1})


@dataclass(frozen=True)
class CrossReport:
    ok: bool
    mismatches: tuple   # (s2, reason)
    checked: int


def alternating_cross_check(prof: LinkProfile, sigma: int,
                            table: HFLTable | None = None) -> CrossReport:
    """Compare the computed table against the alternating-link model.

    For a two-component alternating link, wherever the hat-flavor group is
    determined it must be supported in the single grading
    s1 + s2 + (sigma - 1)/2 with dimension given by the matching coefficient
    of (1 - 1/u1)(1 - 1/u2) times the normalized polynomial.
    """
    if prof.l != 2:
        raise ValueError("the alternating model applies to two components")
    if table is None:
        table = hfl_minus(prof)
    p0 = table.tgraph.family.p_empty
    if p0.is_zero():
        # A vanishing polynomial means a split-like profile; the
        # single-grading model presumes a non-split diagram, so there is
        # nothing to compare.
        return CrossReport(True, (), 0)
    if sigma % 2 == 0:
        raise ValueError("two-bridge link signatures are odd")
    derived = _ALT_FACTOR * p0
    # Where the hypothesis holds, a zero group can only mismatch a nonzero
    # coefficient, so the rest are checked without a visit.  Ascending
    # points are box order.
    pts, blocked = table.table.keys(), table.blocked.keys()
    visit = (table.nonzero | (derived.terms.keys() & pts)) - blocked
    mismatches = []
    for s in sorted(visit):
        hat = table.table[s]
        a = derived.terms.get(s, 0)
        if len(hat.dims) > 1:
            mismatches.append((s, f"supported in {len(hat.dims)} gradings"))
            continue
        if hat.total_dim() != abs(a):
            mismatches.append(
                (s, f"dimension {hat.total_dim()}, expected {abs(a)}"))
            continue
        if not hat.is_zero():
            want = (s[0] + s[1]) // 2 + (sigma - 1) // 2
            got = hat.dims[0][0]
            if got != want:
                mismatches.append((s, f"grading {got}, expected {want}"))
    return CrossReport(not mismatches, tuple(mismatches),
                       len(table.table) - len(blocked))
