import json
import random

import pytest

from conftest import (diagonal, involution, rand_nonzero, rand_poly, restrict,
                      tail_coeff)
from lfk.errors import CosetMismatch, NotDivisible
from lfk.laurent import MultiLaurent, TailPoly, exact_div

U1U2 = MultiLaurent(2, {(2, 2): 1})
ONE = MultiLaurent.const(2, 1)

# The ten-term symmetric polynomial of b(20,-3) and its integer-lattice shift.
B20_DELTA = MultiLaurent(2, {
    (1, 3): 1, (3, 1): 1, (1, -1): 1, (-1, 1): 1, (-3, -1): 1, (-1, -3): 1,
    (3, 3): -1, (1, 1): -1, (-1, -1): -1, (-3, -3): -1})
B20_P_EMPTY = MultiLaurent(2, {
    (2, 4): 1, (4, 2): 1, (2, 0): 1, (0, 2): 1, (-2, 0): 1, (0, -2): 1,
    (4, 4): -1, (2, 2): -1, (0, 0): -1, (-2, -2): -1})


def test_arith_product_example():
    f2 = MultiLaurent(2, {(0, 0): 1, (2, 2): 1})
    fm1 = MultiLaurent(2, {(-2, -2): -1})
    assert f2 * fm1 == MultiLaurent(2, {(-2, -2): -1, (0, 0): -1})


def test_additive_inverse():
    rng = random.Random(1)
    for _ in range(50):
        p = rand_poly(rng)
        assert (p + -p).is_zero()


def test_monomial_shift_gives_normalized_polynomial():
    assert B20_DELTA.shifted((1, 1)) == B20_P_EMPTY


def test_ring_axioms_random():
    rng = random.Random(2)
    for _ in range(300):
        par = (rng.randint(0, 1), rng.randint(0, 1))
        a, b, c = (rand_poly(rng, parity=par) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_products_need_no_revalidation():
    # A product skips the constructor's checks: its terms are already on
    # one coset per variable with the cancelled sums dropped.
    rng = random.Random(3)
    cancelled = 0
    for _ in range(300):
        n = rng.randint(1, 3)
        a, b = (rand_poly(rng, n, max_terms=6, span=2) for _ in range(2))
        p = a * b
        assert p == MultiLaurent(n, dict(p.terms)), (a, b)
        cancelled += len(p.terms) < len({tuple(map(sum, zip(e, f)))
                                         for e in a.terms for f in b.terms})
    assert cancelled


def test_coset_mismatch_on_addition():
    a = MultiLaurent(2, {(1, 0): 1})
    b = MultiLaurent(2, {(0, 0): 1})
    with pytest.raises(CosetMismatch):
        a + b
    with pytest.raises(CosetMismatch):
        MultiLaurent(2, {(1, 0): 1, (2, 0): 1})


def test_exact_div_roundtrip():
    rng = random.Random(3)
    for _ in range(200):
        par = (rng.randint(0, 1), rng.randint(0, 1))
        a = rand_poly(rng, parity=par)
        b = rand_nonzero(rng, parity=(0, 0))
        assert exact_div(a * b, b) == a


def test_exact_div_multiply_then_divide_example():
    f2 = MultiLaurent(2, {(0, 0): 1, (2, 2): 1})
    rng = random.Random(4)
    for _ in range(30):
        x = rand_poly(rng, parity=(0, 0))
        assert exact_div(f2 * x, f2) == x


def test_exact_div_monomial():
    num = ONE
    den = U1U2
    assert exact_div(num, den) == MultiLaurent(2, {(-2, -2): 1})


def test_exact_div_rejects_inexact():
    with pytest.raises(NotDivisible):
        exact_div(MultiLaurent(2, {(0, 0): 1}),
                  MultiLaurent(2, {(0, 0): 1, (2, 2): 1}))
    with pytest.raises(NotDivisible):
        exact_div(MultiLaurent(2, {(0, 0): 3}), MultiLaurent(2, {(0, 0): 2}))


def test_diagonal_of_zero():
    assert diagonal(MultiLaurent.zero(2), 0).is_zero()


def test_diagonal_picks_constant_difference():
    assert diagonal(B20_P_EMPTY, 2) == MultiLaurent(
        2, {(4, 2): 1, (2, 0): 1, (0, -2): 1})
    assert diagonal(B20_P_EMPTY, 0) == MultiLaurent(2, {
        (4, 4): -1, (2, 2): -1, (0, 0): -1, (-2, -2): -1})
    assert diagonal(B20_P_EMPTY, 6).is_zero()


def test_diagonal_convolution_identity():
    rng = random.Random(5)
    for _ in range(200):
        p = rand_poly(rng, parity=(0, 0), max_terms=6)
        q = rand_poly(rng, parity=(0, 0), max_terms=6)
        diags = {i2 for e2 in (p * q).terms for i2 in [e2[0] - e2[1]]}
        diags |= {0, 2, -2}
        for k in diags:
            conv = MultiLaurent.zero(2)
            avals = {e2[0] - e2[1] for e2 in p.terms}
            for a in avals:
                conv = conv + diagonal(p, a) * diagonal(q, k - a)
            assert diagonal(p * q, k) == conv


def test_restrict_example():
    assert restrict(B20_P_EMPTY, 1, 4) == MultiLaurent(1, {(2,): 1, (4,): -1})
    assert restrict(MultiLaurent.zero(2), 1, 0).is_zero()


def test_restrict_partition_identity():
    rng = random.Random(6)
    for _ in range(100):
        p = rand_poly(rng)
        total = MultiLaurent.zero(2)
        for j2 in {e2[0] for e2 in p.terms}:
            col = restrict(p, 1, j2)
            total = total + MultiLaurent(
                2, {(j2, e2[0]): c for e2, c in col.terms.items()})
        assert total == p


def test_derived_polynomials_hold_the_invariants():
    # Negation, int scaling, shifted, involution and restrict skip the
    # constructor's validation; their terms must be what it would keep.
    rng = random.Random(13)
    for _ in range(300):
        nvars = rng.randint(1, 3)
        p = rand_poly(rng, nvars=nvars)
        shift = tuple(rng.randint(-5, 5) for _ in range(nvars))
        derived = [-p, p * rng.choice((-3, -1, 2, 5)), 7 * p, p.shifted(shift),
                   involution(p)]
        if nvars == 2:
            derived += [restrict(p, i, j2) for i in (1, 2)
                        for j2 in {e2[i - 1] for e2 in p.terms} | {1, 2}]
        for q in derived:
            assert q.terms == MultiLaurent(q.nvars, q.terms).terms
            assert all(q.terms.values())
            assert all(type(x) is int for e2 in q.terms for x in e2)
            for i in range(q.nvars):
                assert len({e2[i] & 1 for e2 in q.terms}) <= 1


def test_tail_poly_coeffs():
    # the tail u * sum u^-i: threshold 1 (doubled 2), scale 1
    t = TailPoly(2, MultiLaurent(1, {(2,): 1}))
    assert tail_coeff(t, 2) == 1
    assert tail_coeff(t, 4) == 0
    assert tail_coeff(t, -6) == 1
    assert tail_coeff(t, 3) == 0  # off the coset


def test_tail_poly_general_numerator():
    # numerator u - 1 + 1/u gives suffix sums 1, 0, 1, 1, ...
    t = TailPoly(1, MultiLaurent(1, {(2,): 1, (0,): -1, (-2,): 1}))
    assert [tail_coeff(t, e) for e in (4, 2, 0, -2, -4)] == [0, 1, 0, 1, 1]


def test_tail_coeffs_in_one_pass_match_coeff():
    rng = random.Random(17)
    for _ in range(300):
        numer = rand_poly(rng, nvars=1, max_terms=4)
        t = TailPoly(1, numer)
        vals = sorted({rng.randint(-12, 12) for _ in range(rng.randint(0, 9))})
        for vs in (vals, range(-13, 14, 2), range(-12, 13, 2)):
            assert t.coeffs(vs) == [tail_coeff(t, x) for x in vs], (numer, vs)


def test_coeff_zero_polynomial():
    assert MultiLaurent.zero(2).coeff((0, 0)) == 0
    assert tail_coeff(TailPoly(1, MultiLaurent.zero(1)), 0) == 0


def test_json_roundtrip_bit_exact():
    rng = random.Random(7)
    for _ in range(50):
        p = rand_poly(rng, nvars=rng.randint(1, 3))
        blob = json.dumps(p.to_json(), sort_keys=True)
        q = MultiLaurent.from_json(json.loads(blob))
        assert q == p
        assert json.dumps(q.to_json(), sort_keys=True) == blob


def test_terms_are_canonically_sorted():
    p = MultiLaurent(2, {(2, 0): 1, (-2, 0): 2, (0, 0): 3})
    assert [e2 for e2, _ in p.sorted_terms()] == [(-2, 0), (0, 0), (2, 0)]
