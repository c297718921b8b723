"""Exact integer Laurent polynomials on a half-integer exponent lattice.

Exponents are stored doubled: the monomial u1^(3/2) * u2^(-1/2) is keyed by
the exponent vector (3, -1).  Within one polynomial all exponents of a given
variable share one parity, i.e. they lie in a single coset of Z.  Coefficients
are arbitrary-precision Python ints, so all arithmetic is exact.

Values are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import add, index

from .errors import CosetMismatch, NotDivisible

# A vector of doubled half-integer exponents.
ExponentVec = tuple[int, ...]


def _fmt_exp(e2: int) -> str:
    return str(e2 // 2) if e2 % 2 == 0 else f"({e2}/2)"


class MultiLaurent:
    """Finitely supported integer combination of Laurent monomials.

    Negation, nonzero int scaling and shifted skip the constructor's
    validation (through _trusted): they map a valid operand's terms one to
    one, move every exponent of a variable by one integer, and make no
    coefficient zero, so the result is valid.  So does a product, whose
    exponent sums keep one coset per variable and whose zero sums drop.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        # index, not int: a float or a numeric string is refused, not cut
        nvars = index(nvars)
        if not 1 <= nvars <= 3:
            raise ValueError(f"nvars must be between 1 and 3, got {nvars}")
        clean: dict[ExponentVec, int] = {}
        for e2, c in (terms or {}).items():
            key = tuple(map(index, e2))
            if len(key) != nvars:
                raise ValueError(f"exponent vector {key} has wrong length")
            c = index(c)
            if c != 0:
                clean[key] = c
        for i in range(nvars):
            if len({e2[i] & 1 for e2 in clean}) > 1:
                raise CosetMismatch(
                    f"variable {i + 1} carries exponents from two cosets of Z")
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, nvars: int, terms: dict) -> MultiLaurent:
        self = object.__new__(cls)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", terms)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("MultiLaurent is immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> MultiLaurent:
        return MultiLaurent(nvars, {})

    @staticmethod
    def const(nvars: int, c: int) -> MultiLaurent:
        return MultiLaurent(nvars, {(0,) * nvars: c})

    # -- basic queries --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, e2) -> int:
        return self.terms.get(tuple(e2), 0)

    def sorted_terms(self) -> list[tuple[ExponentVec, int]]:
        """Terms in the canonical (lexicographic) order."""
        return sorted(self.terms.items())

    def min_exp2(self, i: int):
        """Smallest doubled exponent of variable i (1-based); None if zero."""
        if not self.terms:
            return None
        return min(e2[i - 1] for e2 in self.terms)

    def max_exp2(self, i: int):
        if not self.terms:
            return None
        return max(e2[i - 1] for e2 in self.terms)

    def parity(self, i: int):
        """Coset parity of variable i (0 or 1); None for the zero polynomial."""
        if not self.terms:
            return None
        return next(iter(self.terms))[i - 1] & 1

    # -- ring structure --------------------------------------------------------

    def __add__(self, other: MultiLaurent) -> MultiLaurent:
        # The constructor refuses a sum that mixes cosets.
        if self.nvars != other.nvars:
            raise ValueError("operands have different numbers of variables")
        out = dict(self.terms)
        for e2, c in other.terms.items():
            s = out.get(e2, 0) + c
            if s:
                out[e2] = s
            else:
                out.pop(e2, None)
        return MultiLaurent(self.nvars, out)

    def __sub__(self, other: MultiLaurent) -> MultiLaurent:
        return self + (-other)

    def __neg__(self) -> MultiLaurent:
        return MultiLaurent._trusted(
            self.nvars, {e2: -c for e2, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return MultiLaurent.zero(self.nvars)
            return MultiLaurent._trusted(
                self.nvars, {e2: c * other for e2, c in self.terms.items()})
        if not isinstance(other, MultiLaurent):
            return NotImplemented
        if self.nvars != other.nvars:
            raise ValueError("operands have different numbers of variables")
        out: dict[ExponentVec, int] = {}
        for e2, c in self.terms.items():
            for f2, d in other.terms.items():
                key = tuple(map(add, e2, f2))
                s = out.get(key, 0) + c * d
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return MultiLaurent._trusted(self.nvars, out)

    __rmul__ = __mul__

    def shifted(self, e2) -> MultiLaurent:
        """Multiply by the monomial with doubled exponent vector e2."""
        e2 = tuple(int(x) for x in e2)
        if len(e2) != self.nvars:
            raise ValueError("shift vector has wrong length")
        return MultiLaurent._trusted(
            self.nvars,
            {tuple(map(add, f2, e2)): c for f2, c in self.terms.items()})

    # -- plumbing ---------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, MultiLaurent)
                and self.nvars == other.nvars and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, tuple(self.sorted_terms())))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e2, c in self.sorted_terms():
            mono = "*".join(
                f"u{i + 1}^{_fmt_exp(x)}" for i, x in enumerate(e2) if x != 0)
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    def to_json(self) -> dict:
        return {"nvars": self.nvars,
                "terms": [{"e2": list(e2), "c": c}
                          for e2, c in self.sorted_terms()]}

    @staticmethod
    def from_json(data) -> MultiLaurent:
        """Read a polynomial from its JSON form, refusing booleans and an
        exponent vector given twice."""
        if isinstance(data, str):
            data = json.loads(data)
        nvars, terms = data["nvars"], {}
        for t in data["terms"]:
            e2 = tuple(map(json_int, t["e2"]))
            if e2 in terms:
                raise ValueError(f"exponent {list(e2)} appears twice")
            terms[e2] = json_int(t["c"])
        return MultiLaurent(json_int(nvars), terms)


def json_int(x) -> int:
    """An integer read from JSON: operator.index, which refuses floats and
    strings, minus the booleans it takes for 0 and 1."""
    if isinstance(x, bool):
        raise TypeError(f"expected an integer, got {x!r}")
    return index(x)


def exact_div(num: MultiLaurent, den: MultiLaurent) -> MultiLaurent:
    """Exact quotient in the Laurent ring; raises NotDivisible otherwise.

    Works by cancelling lexicographically-leading terms.  If the quotient
    exists its per-variable exponent range is pinned by the ranges of num
    and den, which bounds the loop.
    """
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero():
        return MultiLaurent.zero(num.nvars)
    if num.nvars != den.nvars:
        raise ValueError("operands have different numbers of variables")
    n = num.nvars
    qlo = [num.min_exp2(i) - den.min_exp2(i) for i in range(1, n + 1)]
    qhi = [num.max_exp2(i) - den.max_exp2(i) for i in range(1, n + 1)]
    dlead = max(den.terms)
    dc = den.terms[dlead]
    rem = dict(num.terms)
    quot: dict[ExponentVec, int] = {}
    while rem:
        rlead = max(rem)
        rc = rem[rlead]
        te = tuple(a - b for a, b in zip(rlead, dlead))
        if any(x < lo or x > hi for x, lo, hi in zip(te, qlo, qhi)):
            raise NotDivisible(f"{num!r} is not divisible by {den!r}")
        if rc % dc != 0:
            raise NotDivisible(f"{num!r} is not divisible by {den!r}")
        tc = rc // dc
        quot[te] = tc
        for f2, d in den.terms.items():
            key = tuple(a + b for a, b in zip(te, f2))
            s = rem.get(key, 0) - tc * d
            if s:
                rem[key] = s
            else:
                rem.pop(key, None)
    return MultiLaurent(n, quot)


@dataclass(frozen=True)
class TailPoly:
    """A one-variable series  numer(u) * sum_{i >= 0} u^(-i).

    numer is a finite one-variable polynomial; the product has one coefficient
    per lattice point of numer's coset, namely the suffix sum of numer's
    coefficients from that exponent upward.  A pure tail (numer a single
    monomial with coefficient +-1) has all coefficients equal to that sign at
    exponents at or below the threshold, and 0 above.

    Enters no ring arithmetic but negation; coefficient extraction reads it.
    """

    var: int              # 1-based index of the surviving component variable
    numer: MultiLaurent   # one-variable numerator

    def __post_init__(self):
        if self.numer.nvars != 1:
            raise ValueError("TailPoly numerator must be one-variable")

    def coeffs(self, vals) -> list[int]:
        """The coefficient at each of the ascending doubled exponents vals
        (the suffix sum of numer there, 0 off its coset), in one pass."""
        par, terms = self.numer.parity(1), sorted(self.numer.terms.items())
        out, total = [], 0
        for x in reversed(vals):
            while terms and terms[-1][0][0] >= x:
                total += terms.pop()[1]
            out.append(total if x & 1 == par else 0)
        return out[::-1]

    def __neg__(self) -> TailPoly:
        return TailPoly(self.var, -self.numer)

    def __repr__(self):
        return f"TailPoly(u{self.var}; numer={self.numer!r})"
