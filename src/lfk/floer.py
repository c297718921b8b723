"""The lattice grading field and homology tables for up to 3 components.

Each lattice point s carries the even top grading g(s) of its sublevel
tower, normalized to 0 in the stable region (g = -2H for the H-function of
an L-space link).  g is the one stored field: the label of the edge into s
in direction j is read off it as (g(s) - g(s - e_j)) / 2, which is 0 when
the inclusion of sublevel complexes is an isomorphism and 1 when it drops a
tower step.  The field is built from the link's normalized family alone,
in one downward pass per sublink, all in the link's coordinates:

* on each slab s_i >= m_i beyond the stabilization corner m(L), g repeats
  the field of the sublink with component i removed, which is built the
  same way from its own family entry; a single component's field is read
  off its tail;
* inside, the origin s - 1 of the cube at s is graded from the gradings
  of the cube's other vertices: of the at most two completions, the one
  whose Euler characteristic matches the coefficient of the normalized
  polynomial at s fixes g(s - 1);
* afterwards the labels one step below the box must repeat.

The construction refuses inputs for which no consistent field exists: such
inputs cannot be L-space links.  The homology table assigns to each lattice
point the corner homology of its unit cube.  The cube sweep, the corner
table and the hat groups read g through one set of cube offsets and answer
from memos, keyed by a cube's upper gradings less the first (its rules
commute with a shift), by its vertex gradings, and by the table's nonzero
points.  The sweep orders list cube origins without a keyed sort, and the
alternating cross-check visits only the points where the hat hypothesis
holds and the group or the predicted coefficient is nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import add

from .cubes import (GradedVS, _corner_at, complete_subgraph, euler_char,
                    vertices)
from .errors import HypothesisNotMet, NotLSpaceLink, RegionUnstable
from .laurent import MultiLaurent, TailPoly
from .lspace import (LinkProfile, NormalizedFamily, _box, _checked_box,
                     _corner, _hull, box_points, normalized_family,
                     resolve_margin)


@dataclass(frozen=True)
class TGraph:
    """Top gradings over a box of the Alexander lattice.

    g maps (doubled) points of the stored region to the even top grading of
    the sublevel tower, normalized to 0 in the stable region; it is the one
    stored field.  The label of the edge entering a point from below in a
    direction is half the difference of g across that edge.  Labels repeat
    verbatim below the box (checked during construction), so lookups outside
    the stored region clamp back into it.  family is the normalized family
    g was built from, under the sign assignment that built it.
    """

    l: int
    box: tuple                      # user-facing per-coordinate (lo2, hi2)
    m2: tuple
    g: dict
    family: NormalizedFamily
    store_lo: tuple
    store_hi: tuple

    def label_at(self, p2, j: int) -> int:
        """Total lookup: 0 beyond the corner, g differences inside the
        stored region, and row-repeating clamps outside it."""
        if p2[j - 1] >= self.m2[j - 1] + 2:
            return 0
        q = [min(max(x, lo), hi)
             for x, lo, hi in zip(p2, self.store_lo, self.store_hi)]
        q[j - 1] = max(q[j - 1], self.store_lo[j - 1] + 2)
        return _g_step(self.g, tuple(q), j)

    @property
    def labels(self) -> dict:
        """Edge labels of the stored region as g differences, keyed (p2, j)."""
        return {(p, j): _g_step(self.g, p, j)
                for p in sorted(self.g) for j in range(1, self.l + 1)
                if p[j - 1] > self.store_lo[j - 1]}

    def to_json(self) -> dict:
        pts = list(box_points(self.box))
        return {
            "box": [list(b) for b in self.box],
            "m2": list(self.m2),
            "labels": [{"s2": list(p), "dir": j, "l": self.label_at(p, j)}
                       for p in pts for j in range(1, self.l + 1)],
            "g": [{"s2": list(p), "g": self.g[p]} for p in pts],
            "stabilized_below": True,   # construction refuses otherwise
        }


def build_tgraph(prof: LinkProfile, box=None, margin=None,
                 sweep_order: str = "sum") -> TGraph:
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
    if sweep_order not in _SWEEP_ORDERS:
        raise ValueError(f"unknown sweep order {sweep_order!r}")
    order = _SWEEP_ORDERS[sweep_order]
    margin = resolve_margin(margin)
    if box:
        box = _checked_box(prof.l, box)
    for candidate in prof.assignments():
        try:
            return _build_resolved(candidate, box, margin, order)
        except NotLSpaceLink as err:
            failure = err
    raise failure


# Orders of the interior sweep, from box points in product order; each visits
# a cube after every cube that holds its other vertices as origins.  "lex" is
# descending, "sum" descending by coordinate sum with ties in "lex" order (the
# reversed sort is stable); both commute with a translation.
_SWEEP_ORDERS = {
    "sum": lambda pts: sorted(reversed(list(pts)), key=sum, reverse=True),
    "lex": lambda pts: reversed(list(pts)),
}


def _build_resolved(prof, box, margin, order) -> TGraph:
    fam = normalized_family(prof)
    user_box = _box(fam, frozenset(), margin)
    if box:
        # An explicit edge off the lattice coset of its axis moves outward.
        cosets = [prof.coset_parity(i) for i in range(1, prof.l + 1)]
        user_box = _hull(user_box, [(lo - (lo - c) % 2, hi + (hi - c) % 2)
                                    for (lo, hi), c in zip(box, cosets)])
    g = _field(fam, frozenset(), user_box, margin, order)
    return TGraph(prof.l, user_box, _corner(fam, frozenset()), g, fam,
                  tuple(lo - 4 for lo, _ in user_box),
                  tuple(hi for _, hi in user_box))


def _field(fam, s_set, box, margin, order) -> dict:
    """g of the sublink L - S over its box and two steps below it, keyed by
    points on the components outside S in the link's coordinates; fam[S]
    gives the Euler characteristics of its cubes."""
    p0 = fam[s_set]
    if isinstance(p0, TailPoly):
        # One component remains: the label entering p is the tail
        # coefficient at p, and g is 0 at the top of the box.  The box
        # reaches below the tail's numerator, where the labels are constant.
        (lo, hi), = box
        for p in range(lo - 4, hi + 1, 2):
            a = p0.coeff(p)
            if a not in (0, 1):
                raise NotLSpaceLink(
                    f"normalized coefficient {a} at exponent {p}/2; "
                    "not an L-space knot profile (or wrong sign)")
        g = {(hi,): 0}
        for p in range(hi - 2, lo - 5, -2):
            g[(p,)] = g[(p + 2,)] - 2 * p0.coeff(p + 2)
        return g

    l = len(box)
    m2 = _corner(fam, s_set)
    rect = tuple((lo - 4, hi) for lo, hi in box)
    subs = []
    for pos, i in enumerate(j for j in range(1, fam.l + 1) if j not in s_set):
        sub_box = _hull(_box(fam, s_set | {i}, margin),
                        rect[:pos] + rect[pos + 1:])
        subs.append(_field(fam, s_set | {i}, sub_box, margin, order))

    # Stable prefill: on the slab p_i >= m_i the grading is that of the
    # sublink without component i, read at the same point.  Where slabs i
    # and j overlap the first is taken: both repeat the field of the
    # sublink without i and j there.
    g = {}
    for p in box_points(rect):
        for pos, sub in enumerate(subs):
            if p[pos] >= m2[pos]:
                g[p] = sub[p[:pos] + p[pos + 1:]]
                break

    # Interior sweep: the cube at s has its origin s - 1 below every slab;
    # its other vertices are graded before it, and of its completions the
    # one whose Euler characteristic matches the coefficient grades the
    # origin.  Every other cube lies in a slab, where g is constant along
    # the slab direction and the coefficient is 0, so its Euler
    # characteristic holds as well.  The sweep walks the doubled origins
    # s - 2, with the coefficient at s read off p0 shifted down by 2.
    origins = tuple((lo, m - 2) for (lo, _), m in zip(rect, m2))
    up = _cube_offsets(l)[1:]
    coeff_at = p0.shifted((-2,) * l).terms.get
    for origin in order(box_points(origins)):
        upper = [g[tuple(map(add, origin, d))] for d in up]
        unique, branches = _cube_rule(l, tuple([x - upper[0] for x in upper]))
        target = coeff_at(origin, 0)
        for d0, chi in branches:
            if chi == target:
                g[origin] = upper[0] + d0
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


def _g_step(g, p2, j: int) -> int:
    """Half the g difference across the edge entering p2 in direction j."""
    down = p2[:j - 1] + (p2[j - 1] - 2,) + p2[j:]
    return (g[p2] - g[down]) // 2


def _verify_bottom_stability(g, box):
    """One step below the box, the g differences must repeat the bottom row;
    points are scanned in sorted order, so the witness is canonical."""
    rect = tuple((lo - 4, hi) for lo, hi in box)
    for axis, (low, _) in enumerate(box):
        row = rect[:axis] + ((low - 2, low - 2),) + rect[axis + 1:]
        for p in box_points(row):
            up = p[:axis] + (low,) + p[axis + 1:]
            for j in range(1, len(box) + 1):
                if p[j - 1] > rect[j - 1][0] and \
                        _g_step(g, p, j) != _g_step(g, up, j):
                    raise RegionUnstable(
                        f"labels below the box at {p} differ from the bottom "
                        "row; enlarge the margin (LFK_MARGIN)")


# -- homology tables ---------------------------------------------------------------


@dataclass(frozen=True)
class HFLTable:
    """Corner homology of every unit cube over the box."""

    tgraph: TGraph
    table: dict

    @property
    def box(self):
        return self.tgraph.box

    @cached_property
    def nonzero(self) -> frozenset:
        """The points whose group is nonzero."""
        return frozenset(s for s, vs in self.table.items() if not vs.is_zero())

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
    of its 2^l vertices: one column of g over the box per cube offset."""
    cols = [map(tg.g.__getitem__, box_points(
                [(lo - 2 + e, hi - 2 + e) for (lo, hi), e in zip(tg.box, d)]))
            for d in _cube_offsets(tg.l)]
    return {s: _corner_at(tg.l, gs)
            for s, gs in zip(box_points(tg.box), zip(*cols))}


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
    if (eps := _first_nonzero_up(table, s2)) is not None:
        raise HypothesisNotMet(eps)
    return here


def _first_nonzero_up(table: HFLTable, s2):
    """The first nonzero 0/1 offset eps, in ``vertices`` order, with a
    nonzero group at s2 + 2 eps, or None; the cross-check reads the same
    fact down from each nonzero point.  Wherever entry(s2) is defined, each
    s2 + 2 eps is in the table or beyond the corner (every box top is at
    least m + 4), so membership in the nonzero set decides it."""
    for d in _cube_offsets(table.tgraph.l)[1:]:
        if tuple(map(add, s2, d)) in table.nonzero:
            return tuple([x // 2 for x in d])
    return None


# (1 - 1/u1)(1 - 1/u2), the factor of the alternating model.
_ALT_FACTOR = MultiLaurent(2, {(0, 0): 1, (-2, 0): -1, (0, -2): -1,
                                (-2, -2): 1})


@dataclass(frozen=True)
class CrossReport:
    ok: bool
    mismatches: tuple   # (s2, reason)
    checked: int

    def to_json(self):
        return {"ok": self.ok, "checked": self.checked,
                "mismatches": [{"s2": list(s), "reason": r}
                               for s, r in self.mismatches]}


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
    # The hypothesis fails exactly one up-offset below a nonzero group; where
    # it holds, a zero group can only mismatch a nonzero coefficient, so the
    # rest are checked without a visit.  Ascending points are box order.
    pts = table.table.keys()
    blocked = pts & {tuple([x - y for x, y in zip(s, d)])
                     for s in table.nonzero for d in _cube_offsets(2)[1:]}
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
