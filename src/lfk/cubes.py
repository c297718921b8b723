"""Edge-labeled hypercubes and graded corner homology over GF(2).

A labeling assigns 0 or 1 to every directed edge of {0,1}^n (edges point from
eps to eps + e_j).  A labeling is valid when it comes from vertex gradings:
an even top grading at each vertex that every edge raises by twice its
label.  Valid labelings are exactly the ones realized by towers F[U] at the
vertices with inclusion maps that either preserve or raise the top grading
by 2, and every invariant below is read off those gradings, the completion
of a cube (its origin graded from its other vertices) included.

The corner homology of such a configuration (the total homology of the
iterated quotient at the far corner) is computed two independent ways:

* ``corner_homology`` decomposes the total complex by internal grading; each
  slice is the GF(2) Koszul complex of an up-closed vertex set, so the answer
  is a finite exact computation.  Determined outcomes exist only for n <= 3.
* ``oracle_corner_homology`` realizes the towers explicitly, truncates the
  total complex in a grading window, runs bitmask Gaussian elimination per
  total grading, and verifies vanishing at the low edge of the window.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .errors import (DimensionUnsupported, IncompleteLabels, InvalidLabeling,
                     OddGrading, TruncationUnstable)

Vertex = tuple[int, ...]
Edge = tuple[Vertex, int]  # (source vertex, 1-based direction), source bit 0


def vertices(n: int) -> list[Vertex]:
    return [tuple(v) for v in itertools.product((0, 1), repeat=n)]


def edges(n: int) -> list[Edge]:
    out = []
    for v in vertices(n):
        for j in range(1, n + 1):
            if v[j - 1] == 0:
                out.append((v, j))
    return out


@dataclass(frozen=True)
class GradedVS:
    """A finite multiset of integer gradings: dims maps grading -> dimension."""

    dims: tuple[tuple[int, int], ...]

    @staticmethod
    def from_dict(d) -> GradedVS:
        items = tuple(sorted((g, m) for g, m in d.items() if m))
        if any(m < 0 for _, m in items):
            raise ValueError("dimensions must be nonnegative")
        return GradedVS(items)

    @staticmethod
    def zero() -> GradedVS:
        return GradedVS(())

    def is_zero(self) -> bool:
        return not self.dims

    def total_dim(self) -> int:
        return sum(m for _, m in self.dims)

    def euler(self) -> int:
        return sum(m if g % 2 == 0 else -m for g, m in self.dims)

    def shifted(self, d: int) -> GradedVS:
        return GradedVS(tuple((g + d, m) for g, m in self.dims))

    def __repr__(self):
        if not self.dims:
            return "0"
        return " + ".join(
            f"F({g})" + (f"^{m}" if m > 1 else "")
            for g, m in sorted(self.dims, reverse=True))

    def to_json(self) -> list[dict]:
        return [{"grading": g, "dim": m}
                for g, m in sorted(self.dims, reverse=True)]


def check_dimension(n: int):
    """Refuse a cube dimension outside 1..4, the range labelings support."""
    if not 1 <= n <= 4:
        raise ValueError(f"cube dimension must be 1..4, got {n}")


class CubeLabeling:
    """A complete 0/1 edge labeling of the directed n-cube."""

    __slots__ = ("n", "labels")

    def __init__(self, n: int, labels):
        check_dimension(n)
        want = set(edges(n))
        got = {(tuple(v), j): int(val) for (v, j), val in dict(labels).items()}
        if set(got) != want:
            missing = want - set(got)
            extra = set(got) - want
            raise IncompleteLabels(
                f"labeling has {len(missing)} missing / {len(extra)} stray edges")
        if any(val not in (0, 1) for val in got.values()):
            raise ValueError("edge labels must be 0 or 1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "labels", got)

    def __setattr__(self, name, value):
        raise AttributeError("CubeLabeling is immutable")

    @staticmethod
    def all_zero(n: int) -> CubeLabeling:
        return CubeLabeling(n, {e: 0 for e in edges(n)})

    @staticmethod
    def all_one(n: int) -> CubeLabeling:
        return CubeLabeling(n, {e: 1 for e in edges(n)})

    def label(self, v, j) -> int:
        return self.labels[(tuple(v), j)]

    def key(self):
        """Canonical hashable form."""
        return (self.n, tuple(sorted(self.labels.items())))

    def __eq__(self, other):
        return isinstance(other, CubeLabeling) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        def bits(v):
            return "".join(map(str, v))
        body = ", ".join(f"{bits(v)}->{bits(v[:j - 1] + (1,) + v[j:])}:{val}"
                         for (v, j), val in sorted(self.labels.items()))
        return f"CubeLabeling({self.n}; {body})"


def vertex_gradings(cl: CubeLabeling, origin: int = 0) -> tuple[int, ...]:
    """Top grading at each vertex, in ``vertices`` order: origin plus twice
    the path label sum.

    Raises InvalidLabeling when the sum depends on the path, that is, when
    the labeling is not valid.
    """
    if origin % 2:
        raise OddGrading("origin grading must be even")
    g = {(0,) * cl.n: origin}
    for v in sorted(vertices(cl.n), key=sum):
        if v in g:
            continue
        vals = set()
        for j in range(1, cl.n + 1):
            if v[j - 1]:
                src = v[:j - 1] + (0,) + v[j:]
                vals.add(g[src] + 2 * cl.label(src, j))
        if len(vals) != 1:
            raise InvalidLabeling("labels violate square-face consistency")
        g[v] = vals.pop()
    return tuple(g[v] for v in vertices(cl.n))


def euler_char(n: int, gradings) -> int:
    """Euler characteristic of the corner of the n-cube whose vertices carry
    the given gradings, listed in ``vertices`` order."""
    g0 = gradings[0]
    return _euler(n, tuple(x - g0 for x in gradings))


@lru_cache(maxsize=None)
def _euler(n: int, gkey: tuple) -> int:
    """Half the signed sum of (-1)^(n + |eps|) g(eps) over the vertex
    gradings gkey, listed in ``vertices`` order."""
    return sum(x if (n + sum(v)) % 2 == 0 else -x
               for v, x in zip(vertices(n), gkey)) // 2


@lru_cache(maxsize=None)
def _corner_at(n: int, gradings: tuple) -> GradedVS:
    """Corner homology from absolute vertex gradings, cached per tuple."""
    return _corner_from_grading_key(n, tuple(
        [x - gradings[0] for x in gradings])).shifted(gradings[0])


# -- GF(2) linear algebra on bitmask rows ------------------------------------

def _gf2_rank(rows: list[int]) -> int:
    rank = 0
    basis: list[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
            rank += 1
    return rank


@lru_cache(maxsize=None)
def _upset_level_homology(n: int, vert_key: frozenset) -> tuple[tuple[int, int], ...]:
    """Homology of the Koszul complex on an up-closed vertex set.

    The complex places each vertex eps at level |eps| with differential
    sending eps to the sum of its in-set upward neighbors.  Returns pairs
    (level, betti) with betti > 0.
    """
    levels: dict[int, list[Vertex]] = {}
    for v in vert_key:
        levels.setdefault(sum(v), []).append(v)
    for vs in levels.values():
        vs.sort()
    index = {m: {v: i for i, v in enumerate(vs)} for m, vs in levels.items()}
    ranks: dict[int, int] = {}
    for m, vs in levels.items():
        tgt = index.get(m + 1, {})
        rows = []
        for v in vs:
            row = 0
            for j in range(n):
                if v[j] == 0:
                    w = v[:j] + (1,) + v[j + 1:]
                    if w in tgt:
                        row |= 1 << tgt[w]
            rows.append(row)
        ranks[m] = _gf2_rank(rows)
    out = []
    for m, vs in levels.items():
        betti = len(vs) - ranks.get(m, 0) - ranks.get(m - 1, 0)
        if betti:
            out.append((m, betti))
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def _corner_from_grading_key(n: int, gkey: tuple) -> GradedVS:
    """Corner homology from relative vertex gradings (origin normalized to 0)."""
    g = dict(zip(vertices(n), gkey))
    gmax = g[(1,) * n]
    dims: dict[int, int] = {}
    for k in range(2, gmax + 1, 2):
        vert = frozenset(v for v in g if g[v] >= k)
        for level, betti in _upset_level_homology(n, vert):
            d = k + n - level
            dims[d] = dims.get(d, 0) + betti
    return GradedVS.from_dict(dims)


def corner_homology(cl: CubeLabeling, origin: int = 0) -> GradedVS:
    """Graded corner homology, exact, for cubes of dimension at most 3.

    Splits the total complex by internal grading; each slice contributes the
    Koszul homology of the vertices whose tower reaches that grading.
    """
    if cl.n >= 4:
        raise DimensionUnsupported(
            "corner homology is not determined by edge labels for n >= 4")
    return _corner_at(cl.n, vertex_gradings(cl, origin))


def oracle_corner_homology(cl: CubeLabeling, origin: int = 0) -> GradedVS:
    """Independent free-realization computation of the corner homology.

    Builds one rank-1 free tower per vertex, truncates every tower at a low
    grading, assembles the total complex of the cube (vertex eps shifted up
    by n - |eps|), and reads off homology per total grading by Gaussian
    elimination over GF(2).  The window is widened until homology vanishes at
    its two lowest reliable gradings.
    """
    g = dict(zip(vertices(cl.n), vertex_gradings(cl, origin)))
    lo = origin - 2
    hi = origin + 2 * cl.n + 4
    for _ in range(3):
        h = _truncated_total_homology(cl.n, g, lo, hi)
        if h.get(lo + 1, 0) == 0 and h.get(lo + 2, 0) == 0:
            return GradedVS.from_dict(
                {d: m for d, m in h.items() if d > lo + 2})
        lo -= 4
    raise TruncationUnstable(
        "corner homology failed to vanish at the truncation boundary")


def _truncated_total_homology(n, g, dlo, dhi) -> dict[int, int]:
    """Betti numbers of the truncated total complex, per total grading.

    Basis elements are pairs (vertex, internal grading); the differential
    preserves the internal grading and flips each 0 coordinate in turn.
    Values are reliable for total gradings above dlo.
    """
    verts = vertices(n)
    basis: dict[int, list[tuple[Vertex, int]]] = {d: [] for d in range(dlo, dhi + 1)}
    for v in verts:
        shift = n - sum(v)
        kk = g[v]
        while kk + shift >= dlo:
            d = kk + shift
            if d <= dhi:
                basis[d].append((v, kk))
            kk -= 2
    index = {d: {b: i for i, b in enumerate(bs)} for d, bs in basis.items()}
    ranks: dict[int, int] = {}
    for d in range(dlo + 1, dhi + 1):
        tgt = index.get(d - 1, {})
        rows = []
        for v, kk in basis.get(d, []):
            row = 0
            for j in range(n):
                if v[j] == 0:
                    w = v[:j] + (1,) + v[j + 1:]
                    row |= 1 << tgt[(w, kk)]
            rows.append(row)
        ranks[d] = _gf2_rank(rows)
    out = {}
    for d in range(dlo + 1, dhi + 1):
        betti = len(basis.get(d, ())) - ranks.get(d, 0) - ranks.get(d + 1, 0)
        if betti:
            out[d] = betti
    return out


@dataclass(frozen=True)
class Completion:
    """The gradings the origin of a cube can take, given its other vertices."""

    origins: tuple[int, ...]

    @property
    def is_unique(self) -> bool:
        return len(self.origins) == 1


def complete_subgraph(n: int, upper) -> Completion:
    """Grade the origin of the n-cube from the gradings of its other
    2^n - 1 vertices, listed in ``vertices`` order.

    Every edge must raise the grading by 0 or 2, so the origin grading g0
    satisfies g(e_j) - g0 in {0, 2} for every j.  Any two g(e_j) lie within
    2 of each other, below the common vertex e_i + e_j, so with u the
    largest of them a completion always exists: g0 = u - 2 when they
    differ, and either u or u - 2 (the all-0 and all-1 origin extensions)
    when they are all equal.
    """
    g = (None, *upper)   # g[a] grades the vertex whose bits spell a
    if len(g) != 2 ** n:
        raise IncompleteLabels(
            "need the gradings of exactly the non-origin vertices")
    for a in range(1, 2 ** n):
        for b in (1 << k for k in range(n)):
            if not a & b and g[a | b] - g[a] not in (0, 2):
                raise ValueError("edge labels must be 0 or 1")
    units = [g[1 << k] for k in range(n)]
    u = max(units)
    return Completion((u, u - 2) if min(units) == u else (u - 2,))
