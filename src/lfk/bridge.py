"""Two-bridge links: continued fractions, Schubert signs, invariants.

A two-bridge link b(alpha, beta) is encoded by a fraction alpha/beta with
alpha even, gcd(alpha, beta) = 1 and 0 < |beta| < alpha.  Every such fraction
has an all-even continued-fraction expansion

    alpha/beta = 2*p1 + 1/(2*q1 + 1/(... + 1/(2*pn))),

written D(p1, q1, ..., pn), whose p-entries give the linking number.  The
Schubert signs (-1)^floor(i*beta/alpha), 0 < i < alpha, give the rest: the
two-variable Alexander polynomial is a Fox derivative of the Schubert word
they spell, with no division, and the link signature is their sum.  The
tests keep the recursion on the polynomials F_r of an expansion as a second
route to the Alexander polynomial, and exact congruence diagonalization of
the families' tridiagonal Goeritz matrices as one to the signature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest

from .laurent import MultiLaurent


@dataclass(frozen=True)
class TwoBridge:
    """The link b(alpha, beta): alpha positive even, beta odd, reduced."""

    alpha: int
    beta: int

    def __post_init__(self):
        a, b = self.alpha, self.beta
        if a <= 0 or a % 2:
            raise ValueError(f"alpha must be positive and even, got {a}")
        if b % 2 == 0 or not 0 < abs(b) < a:
            raise ValueError(f"beta must be odd with 0 < |beta| < alpha, got {b}")
        if math.gcd(a, b) != 1:
            raise ValueError(f"alpha and beta must be coprime, got ({a}, {b})")

    def __repr__(self):
        return f"b({self.alpha},{self.beta})"


@dataclass(frozen=True)
class EvenExpansion:
    """All-even continued fraction data D(p1, q1, ..., pn)."""

    p: tuple[int, ...]
    q: tuple[int, ...]

    def __post_init__(self):
        if len(self.p) < 1 or len(self.q) != len(self.p) - 1:
            raise ValueError("need n >= 1 p-entries and n-1 q-entries")
        if any(x == 0 for x in self.p) or any(x == 0 for x in self.q):
            raise ValueError("expansion entries must be nonzero")

    @property
    def n(self) -> int:
        return len(self.p)

    def __repr__(self):
        return "D(" + ",".join(str(x) for x in self.interleaved_pq()) + ")"

    def interleaved_pq(self) -> list[int]:
        """The entries p1, q1, p2, ..., pn."""
        out = [0] * (2 * self.n - 1)
        out[0::2], out[1::2] = self.p, self.q
        return out


def fraction_of(expansion: EvenExpansion) -> tuple[int, int]:
    """Evaluate an expansion to the reduced pair (alpha, beta), alpha > 0.

    Each continuant step has determinant -1, so num and den stay coprime.
    No tail vanishes: with |den| < |num| and |a| >= 2, the next numerator
    has |a * num + den| >= 2|num| - |den| > |num|.
    """
    entries = [2 * x for x in expansion.interleaved_pq()]
    num, den = entries[-1], 1
    for a in reversed(entries[:-1]):
        num, den = a * num + den, num
    return abs(num), abs(den) if num * den >= 0 else -abs(den)


def even_expansion(link: TwoBridge) -> EvenExpansion:
    """All-even continued-fraction expansion of alpha/beta.

    Each step takes the even quotient with the remainder of least absolute
    value; parities force the remainder strictly inside the denominator, so
    the expansion terminates on a p-entry.  The round trip through
    fraction_of is checked before returning.
    """
    num, den = link.alpha, link.beta
    entries = []
    while True:
        c = (num + den) // (2 * den)       # floor(num / (2 den) + 1/2)
        r = num - 2 * c * den
        assert abs(r) < abs(den) and c != 0
        entries.append(c)
        if r == 0:
            break
        num, den = den, r
    if len(entries) % 2 == 0:
        raise AssertionError("expansion terminated on a q-entry")
    exp = EvenExpansion(tuple(entries[0::2]), tuple(entries[1::2]))
    if fraction_of(exp) != (link.alpha, link.beta):
        raise AssertionError(f"expansion of {link} failed to round-trip")
    return exp


def equivalence_orbit(alpha: int, beta: int) -> frozenset[int]:
    """The residues mod 2*alpha of every beta' with b(alpha, beta')
    equivalent to b(alpha, beta), a component's orientation reversal
    allowed: beta and its inverse, both also shifted by alpha.  No further
    residue arises, since (b + alpha)^-1 = b^-1 + alpha mod 2*alpha for
    alpha even and b odd."""
    m = 2 * alpha
    orbit = {beta % m, pow(beta, -1, m)}
    return frozenset(orbit | {(b + alpha) % m for b in orbit})


@lru_cache(maxsize=None)
def F_poly(r: int) -> MultiLaurent:
    """Sum of (u1*u2)^i for 0 <= i < r; zero at r = 0; negated range for r < 0.

    The building block of the tests' Alexander recursion; the benchmark's
    tracer reads this cache's statistics."""
    if r == 0:
        return MultiLaurent.zero(2)
    if r > 0:
        return MultiLaurent(2, {(2 * i, 2 * i): 1 for i in range(r)})
    return MultiLaurent(2, {(2 * i, 2 * i): -1 for i in range(r, 0)})


def _schubert_signs(alpha: int, beta: int):
    """The Schubert signs (-1)^floor(i*beta/alpha) for 0 < i < alpha, in
    order, as an iterator."""
    return (1 - 2 * (i * beta // alpha % 2) for i in range(1, alpha))


def linking_number(exp: EvenExpansion) -> int:
    """Linking number of the two components: minus the sum of the p-entries."""
    return -sum(exp.p)


def alexander(exp: EvenExpansion) -> MultiLaurent:
    """The polynomial alexander_of gives the expansion's link."""
    return alexander_of(TwoBridge(*fraction_of(exp)))


def alexander_of(link: TwoBridge) -> MultiLaurent:
    """Symmetric two-variable Alexander polynomial, up to a global sign.

    With e_i the Schubert signs, the link group is <a, b | a w a^-1 w^-1>
    for w = b^e1 a^e2 ... b^e(alpha-1), and Delta is the Fox derivative
    dw/db under a -> u1, b -> u2: a sum over odd i of e_i times the image
    of w's prefix before letter i, a b^-1 counted in its own prefix.  It is
    centred at (min + max)/2 in each variable, so Delta(1/u1, 1/u2) =
    +-Delta(u1, u2); the global sign is fixed downstream by the
    alternating-coefficient conditions.
    """
    terms: dict[tuple[int, int], int] = {}
    a2 = b2 = 0                 # doubled exponents of the prefix's image
    signs = _schubert_signs(link.alpha, link.beta)
    for eb, ea in zip_longest(signs, signs, fillvalue=0):   # letters b, a
        key = (a2, b2 + eb - 1)
        terms[key] = terms.get(key, 0) + eb
        a2 += 2 * ea
        b2 += 2 * eb
    delta = MultiLaurent(2, terms)
    return delta.shifted(tuple(-(delta.min_exp2(v) + delta.max_exp2(v)) // 2
                               for v in (1, 2)))


# -- signatures ------------------------------------------------------------------


def tridiagonal_matrix(n: int, corner) -> list[list[Fraction]]:
    """The n-by-n matrix with given (1,1) entry, 2 on the rest of the
    diagonal and -1 on the off-diagonals."""
    if n < 1:
        raise ValueError("matrix size must be positive")
    m = [[Fraction(0)] * n for _ in range(n)]
    m[0][0] = Fraction(corner)
    for i in range(1, n):
        m[i][i] = Fraction(2)
    for i in range(n - 1):
        m[i][i + 1] = m[i + 1][i] = Fraction(-1)
    return m


def signature_of_matrix(mat) -> int:
    """Signature of a symmetric rational matrix by exact congruence
    diagonalization (pivot on nonzero diagonal entries, symmetric swaps,
    and a row-addition fallback when the whole diagonal vanishes)."""
    m = [[Fraction(x) for x in row] for row in mat]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    if any(m[i][j] != m[j][i] for i in range(n) for j in range(i)):
        raise ValueError("matrix must be symmetric")
    sig = 0
    for i in range(n):
        if m[i][i] == 0:
            j = next((j for j in range(i + 1, n) if m[j][j] != 0), None)
            if j is not None:
                for row in m:
                    row[i], row[j] = row[j], row[i]
                m[i], m[j] = m[j], m[i]
            else:
                j = next((j for j in range(i + 1, n) if m[i][j] != 0), None)
                if j is None:
                    continue  # zero row and column: rank drops, no contribution
                for row in m:
                    row[i] += row[j]
                for k in range(n):
                    m[i][k] += m[j][k]
        d = m[i][i]
        sig += 1 if d > 0 else -1
        # Only the pivot row's nonzero columns (its column's nonzero rows,
        # by symmetry) take part; every other update would subtract 0.
        nz = [k for k in range(i, n) if m[i][k] != 0]
        for r in nz[1:]:
            f = m[r][i] / d
            for k in nz:
                m[r][k] -= f * m[i][k]
            for k in nz:
                m[k][r] -= f * m[k][i]
    return sig


@lru_cache(maxsize=None)
def _tridiag_signature(n: int, corner: int) -> int:
    """Congruence diagonalization specialized to the tridiagonal band.

    Eliminating row i only changes the next diagonal entry, to 2 - 1/d; the
    generic routine is the fallback should a pivot ever vanish.
    """
    d = Fraction(corner)
    sig = 0
    for _ in range(n):
        if d == 0:
            return signature_of_matrix(tridiagonal_matrix(n, corner))
        sig += 1 if d > 0 else -1
        d = 2 - 1 / d
    return sig


def signature(link: TwoBridge) -> int:
    """Link signature of b(alpha, beta): the sum over 0 < i < alpha of
    (-1)^floor(i*beta/alpha), in integers.  The mirror b(alpha, -beta)
    negates it; the tridiagonal Goeritz matrices of the families are an
    independent route to the same values."""
    return sum(_schubert_signs(link.alpha, link.beta))
