"""Two-bridge links: continued fractions, Alexander recursion, signatures.

A two-bridge link b(alpha, beta) is encoded by a fraction alpha/beta with
alpha even, gcd(alpha, beta) = 1 and 0 < |beta| < alpha.  Every such fraction
has an all-even continued-fraction expansion

    alpha/beta = 2*p1 + 1/(2*q1 + 1/(... + 1/(2*pn))),

written D(p1, q1, ..., pn).  The two-variable Alexander polynomial is built
from the expansion by an exact recursion on polynomials F_r.  The link
signature of every b(alpha, beta) is a sum of signs over 0 < i < alpha;
exact congruence diagonalization of a symmetric matrix (the tridiagonal
Goeritz matrices of the families b(qk +- 1, +-k)) is kept as a second route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import ZeroDenominator
from .laurent import MultiLaurent, diagonal, exact_div


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

    @staticmethod
    def from_string(text: str) -> TwoBridge:
        """Parse the "alpha/beta" form, e.g. "20/-3"."""
        a, _, b = text.partition("/")
        return TwoBridge(int(a), int(b))

    def as_string(self) -> str:
        return f"{self.alpha}/{self.beta}"


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

    def interleaved(self) -> list[int]:
        out = []
        for i, pi in enumerate(self.p):
            out.append(2 * pi)
            if i < len(self.q):
                out.append(2 * self.q[i])
        return out

    def __repr__(self):
        return "D(" + ",".join(str(x) for x in self.interleaved_pq()) + ")"

    def interleaved_pq(self) -> list[int]:
        out = []
        for i, pi in enumerate(self.p):
            out.append(pi)
            if i < len(self.q):
                out.append(self.q[i])
        return out


def fraction_of(expansion) -> tuple[int, int]:
    """Evaluate an expansion to the reduced pair (alpha, beta), alpha > 0.

    Accepts an EvenExpansion or a raw interleaved list [p1, q1, p2, ..., pn];
    raw lists may contain zeros, in which case an intermediate tail can
    vanish and ZeroDenominator is raised.
    """
    if isinstance(expansion, EvenExpansion):
        entries = expansion.interleaved()
    else:
        entries = [2 * int(x) for x in expansion]
        if len(entries) % 2 == 0:
            raise ValueError("interleaved expansion must have odd length")
    value = None
    for a in reversed(entries):
        if value is None:
            value = Fraction(a)
        else:
            if value == 0:
                raise ZeroDenominator("intermediate continued-fraction tail is 0")
            value = a + 1 / value
    alpha, beta = value.numerator, value.denominator
    if alpha < 0:
        alpha, beta = -alpha, -beta
    return alpha, beta


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
        c = math.floor(Fraction(num, 2 * den) + Fraction(1, 2))
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


def equivalence_orbit(alpha: int, beta: int,
                      reversal: bool = True) -> frozenset[int]:
    """The residues mod 2*alpha of every beta' with b(alpha, beta')
    equivalent to b(alpha, beta): beta and its inverse, and with reversal
    (of one component's orientation) both shifted by alpha.  No further
    residue arises, since (b + alpha)^-1 = b^-1 + alpha mod 2*alpha for
    alpha even and b odd."""
    m = 2 * alpha
    orbit = {beta % m, pow(beta, -1, m)}
    if reversal:
        orbit |= {(b + alpha) % m for b in orbit}
    return frozenset(orbit)


def equivalent(l1: TwoBridge, l2: TwoBridge,
               allow_orientation_reversal: bool = False) -> bool:
    """Whether two two-bridge links are equivalent, optionally after
    reversing the orientation of one component."""
    return l1.alpha == l2.alpha and l2.beta % (2 * l2.alpha) in \
        equivalence_orbit(l1.alpha, l1.beta, allow_orientation_reversal)


@lru_cache(maxsize=None)
def F_poly(r: int) -> MultiLaurent:
    """Sum of (u1*u2)^i for 0 <= i < r; zero at r = 0; negated range for r < 0."""
    if r == 0:
        return MultiLaurent.zero(2)
    if r > 0:
        return MultiLaurent(2, {(2 * i, 2 * i): 1 for i in range(r)})
    return MultiLaurent(2, {(2 * i, 2 * i): -1 for i in range(r, 0)})


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
    """Final polynomial of the recursion (integer exponents, sign as built)."""
    return delta_sequence(exp)[-1]


def linking_number(exp: EvenExpansion) -> int:
    """Linking number of the two components: minus the sum of the p-entries."""
    return -sum(exp.p)


def alexander(exp: EvenExpansion) -> MultiLaurent:
    """Symmetric two-variable Alexander polynomial, up to a global sign.

    The recursion output is recentred by (u1*u2)^((1 - sum p)/2); the result
    satisfies Delta(1/u1, 1/u2) = +-(monomial) * Delta(u1, u2) and its global
    sign is fixed downstream by the alternating-coefficient conditions.
    """
    ln = sum(exp.p)
    return delta_recursion(exp).shifted((1 - ln, 1 - ln))


def alexander_of(link: TwoBridge) -> MultiLaurent:
    return alexander(even_expansion(link))


# -- diagonal identities -------------------------------------------------------


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
        for r in range(i + 1, n):
            f = m[r][i] / d
            if f == 0:
                continue
            for k in range(i, n):
                m[r][k] -= f * m[i][k]
            for k in range(i, n):
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
    a, b = link.alpha, link.beta
    return sum(1 - 2 * (i * b // a % 2) for i in range(1, a))
