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

from .errors import CosetMismatch, HalfIntegerExponent, NotDivisible

# A vector of doubled half-integer exponents.
ExponentVec = tuple[int, ...]


def _fmt_exp(e2: int) -> str:
    return str(e2 // 2) if e2 % 2 == 0 else f"({e2}/2)"


class MultiLaurent:
    """Finitely supported integer combination of Laurent monomials.

    Negation, nonzero int scaling, shifted, involution and restrict skip the
    constructor's validation (through _trusted): they map a valid operand's
    terms one to one, move every exponent of a variable by one integer or
    negate them all, and make no coefficient zero, so the result is valid.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        if not 1 <= nvars <= 3:
            raise ValueError(f"nvars must be between 1 and 3, got {nvars}")
        clean: dict[ExponentVec, int] = {}
        for e2, c in (terms or {}).items():
            key = tuple(int(x) for x in e2)
            if len(key) != nvars:
                raise ValueError(f"exponent vector {key} has wrong length")
            c = int(c)
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
    def monomial(nvars: int, e2, c: int = 1) -> MultiLaurent:
        return MultiLaurent(nvars, {tuple(e2): c})

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

    def _check_compat(self, other: MultiLaurent):
        if self.nvars != other.nvars:
            raise ValueError("operands have different numbers of variables")
        for i in range(1, self.nvars + 1):
            p, q = self.parity(i), other.parity(i)
            if p is not None and q is not None and p != q:
                raise CosetMismatch(
                    f"variable {i} exponents lie on different cosets")

    def __add__(self, other: MultiLaurent) -> MultiLaurent:
        self._check_compat(other)
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
                key = tuple(a + b for a, b in zip(e2, f2))
                s = out.get(key, 0) + c * d
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return MultiLaurent(self.nvars, out)

    __rmul__ = __mul__

    def shifted(self, e2) -> MultiLaurent:
        """Multiply by the monomial with doubled exponent vector e2."""
        e2 = tuple(int(x) for x in e2)
        if len(e2) != self.nvars:
            raise ValueError("shift vector has wrong length")
        return MultiLaurent._trusted(
            self.nvars,
            {tuple(a + b for a, b in zip(f2, e2)): c
             for f2, c in self.terms.items()})

    def involution(self) -> MultiLaurent:
        """Substitute u_i -> 1/u_i for every variable."""
        return MultiLaurent._trusted(
            self.nvars,
            {tuple(-x for x in e2): c for e2, c in self.terms.items()})

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
        if isinstance(data, str):
            data = json.loads(data)
        return MultiLaurent(
            data["nvars"], {tuple(t["e2"]): t["c"] for t in data["terms"]})


def arith(a: MultiLaurent, kind: str, b=None) -> MultiLaurent:
    """Dispatch exact ring arithmetic by name.

    kind is one of add, sub, mul, neg, monomial_shift; b is the second
    operand (a polynomial, or an exponent vector for monomial_shift).
    """
    if kind == "add":
        return a + b
    if kind == "sub":
        return a - b
    if kind == "mul":
        return a * b
    if kind == "neg":
        return -a
    if kind == "monomial_shift":
        return a.shifted(b)
    raise ValueError(f"unknown arithmetic kind {kind!r}")


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


def eval_signs(p: MultiLaurent, x: int, y: int) -> int:
    """Evaluate a two-variable polynomial at (x, y) with x, y in {1, -1}."""
    if p.nvars != 2:
        raise ValueError("eval_signs is defined for two-variable polynomials")
    if x not in (1, -1) or y not in (1, -1):
        raise ValueError("evaluation points must be +1 or -1")
    total = 0
    for e2, c in p.terms.items():
        if e2[0] % 2 or e2[1] % 2:
            raise HalfIntegerExponent(
                "cannot evaluate half-integer exponents at -1")
        total += c * x ** (e2[0] // 2) * y ** (e2[1] // 2)
    return total


@dataclass(frozen=True)
class TailPoly:
    """A one-variable series  numer(u) * sum_{i >= 0} u^(-i).

    numer is a finite one-variable polynomial; the product has one coefficient
    per lattice point of numer's coset, namely the suffix sum of numer's
    coefficients from that exponent upward.  A pure tail (numer a single
    monomial with coefficient +-1) has all coefficients equal to that sign at
    exponents at or below the threshold, and 0 above.

    Never enters ring arithmetic; only coefficient extraction consumes it.
    """

    var: int              # 1-based index of the surviving component variable
    numer: MultiLaurent   # one-variable numerator

    def __post_init__(self):
        if self.numer.nvars != 1:
            raise ValueError("TailPoly numerator must be one-variable")

    @staticmethod
    def pure(var: int, t2: int, scale: int = 1) -> TailPoly:
        if scale not in (1, -1):
            raise ValueError("pure tail scale must be +1 or -1")
        return TailPoly(var, MultiLaurent.monomial(1, (t2,), scale))

    @property
    def is_pure(self) -> bool:
        if len(self.numer.terms) != 1:
            return False
        return abs(next(iter(self.numer.terms.values()))) == 1

    @property
    def threshold2(self) -> int:
        """Doubled threshold exponent of a pure tail."""
        if not self.is_pure:
            raise ValueError("threshold is defined for pure tails only")
        return next(iter(self.numer.terms))[0]

    @property
    def scale(self) -> int:
        if not self.is_pure:
            raise ValueError("scale is defined for pure tails only")
        return next(iter(self.numer.terms.values()))

    def coeff(self, e2: int) -> int:
        """Coefficient at the doubled exponent e2 (suffix sum of numer)."""
        par = self.numer.parity(1)
        if par is None or e2 & 1 != par:
            return 0
        return sum(c for (j2,), c in self.numer.terms.items() if j2 >= e2)

    def coeffs(self, vals) -> list[int]:
        """coeff at each of the ascending values vals, in one suffix pass."""
        par, terms = self.numer.parity(1), sorted(self.numer.terms.items())
        out, total = [], 0
        for x in reversed(vals):
            while terms and terms[-1][0][0] >= x:
                total += terms.pop()[1]
            out.append(total if x & 1 == par else 0)
        return out[::-1]

    def __repr__(self):
        return f"TailPoly(u{self.var}; numer={self.numer!r})"


def coeff(p, e2):
    """Coefficient of a MultiLaurent or TailPoly at an exponent vector.

    For a TailPoly, e2 may be the bare doubled exponent or a 1-tuple.
    """
    if isinstance(p, TailPoly):
        if isinstance(e2, tuple):
            (e2,) = e2
        return p.coeff(e2)
    return p.coeff(e2)
