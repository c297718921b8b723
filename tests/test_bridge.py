import math
import random

import pytest

from conftest import delta_recursion, delta_sequence, diagonal_identities_check
from lfk.bridge import (EvenExpansion, TwoBridge, _schubert_signs, alexander,
                        alexander_of, equivalence_orbit, even_expansion,
                        F_poly, fraction_of, linking_number, signature,
                        signature_of_matrix, tridiagonal_matrix)
from lfk.laurent import MultiLaurent, exact_div


def all_links(max_alpha):
    for alpha in range(2, max_alpha + 1, 2):
        for beta in range(-alpha + 1, alpha, 2):
            if math.gcd(alpha, beta) == 1:
                yield TwoBridge(alpha, beta)


def rand_expansion(rng, max_n=5, span=4):
    n = rng.randint(1, max_n)
    pick = lambda: rng.choice([x for x in range(-span, span + 1) if x])
    return EvenExpansion(tuple(pick() for _ in range(n)),
                         tuple(pick() for _ in range(n - 1)))


def test_even_expansion_examples():
    assert even_expansion(TwoBridge(20, -3)) == EvenExpansion((-3, 1), (-1,))
    assert even_expansion(TwoBridge(2, 1)) == EvenExpansion((1,), ())
    assert even_expansion(TwoBridge(12, 5)) == EvenExpansion((1, 1), (1,))


def test_fraction_of_examples():
    assert fraction_of(EvenExpansion((-3, 1), (-1,))) == (20, -3)
    assert fraction_of(EvenExpansion((1,), ())) == (2, 1)
    assert fraction_of(EvenExpansion((-1, 1), (-1,))) == (8, -3)


def test_expansion_roundtrip_up_to_200():
    for link in all_links(200):
        exp = even_expansion(link)
        assert fraction_of(exp) == (link.alpha, link.beta)


def test_two_bridge_validation():
    with pytest.raises(ValueError):
        TwoBridge(6, 3)     # not coprime
    with pytest.raises(ValueError):
        TwoBridge(5, 2)     # alpha odd
    with pytest.raises(ValueError):
        TwoBridge(4, 5)     # |beta| >= alpha


def test_equivalence_examples():
    oriented = equivalence_orbit(20, -3, reversal=False)
    assert -3 % 40 in oriented
    # (-3)^-1 is 13 mod 40, and -7 is 33: not oriented-equivalent
    assert pow(-3, -1, 40) == 13
    assert -7 % 40 not in oriented
    assert 13 in oriented
    assert -7 % 40 in equivalence_orbit(20, -3)
    assert -1 % 8 in equivalence_orbit(4, 3)
    assert -1 % 8 not in equivalence_orbit(4, 3, reversal=False)


def test_equivalence_is_an_equivalence_relation():
    # With or without reversal, on every b(alpha, beta), alpha <= 100.
    for flag in (False, True):
        for alpha in range(2, 101, 2):
            betas = [b for b in range(-alpha + 1, alpha, 2)
                     if math.gcd(alpha, b) == 1]
            orbit = {b: equivalence_orbit(alpha, b, flag) for b in betas}
            classes = {}
            for x in betas:
                assert x % (2 * alpha) in orbit[x]
                classes[x] = frozenset(b for b in betas
                                       if b % (2 * alpha) in orbit[x])
            for x in betas:
                for y in betas:
                    same = y % (2 * alpha) in orbit[x]
                    assert same == (x % (2 * alpha) in orbit[y])
                    assert same == (classes[x] == classes[y])


def _bfs_orbit(alpha, beta, reversal):
    """The orbit of beta mod 2*alpha by search under inversion and, with
    reversal, the alpha shift: a second route to equivalence_orbit."""
    m = 2 * alpha
    moves = [lambda b: pow(b, -1, m)]
    if reversal:
        moves += [lambda b: (b + alpha) % m,
                  lambda b: (pow(b, -1, m) + alpha) % m]
    seen = {beta % m}
    frontier = list(seen)
    while frontier:
        b = frontier.pop()
        for nxt in (move(b) for move in moves):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def test_equivalence_orbit_matches_search():
    count = 0
    for link in all_links(300):
        for reversal in (False, True):
            assert equivalence_orbit(link.alpha, link.beta, reversal) == \
                _bfs_orbit(link.alpha, link.beta, reversal), (link, reversal)
        count += 1
    assert count == 18330


def test_f_poly():
    assert F_poly(3) == MultiLaurent(2, {(0, 0): 1, (2, 2): 1, (4, 4): 1})
    assert F_poly(0).is_zero()
    assert F_poly(-1) == MultiLaurent(2, {(-2, -2): -1})


def test_delta_recursion_values():
    assert delta_recursion(EvenExpansion((1, 1), (1,))) == MultiLaurent(
        2, {(0, 0): 2, (2, 0): -1, (0, 2): -1, (2, 2): 2})
    assert delta_recursion(EvenExpansion((-1, -1), (-1,))) == MultiLaurent(
        2, {(-4, -4): -2, (-4, -2): 1, (-2, -4): 1, (-2, -2): -2})
    assert delta_recursion(EvenExpansion((1,), ())) == MultiLaurent.const(2, 1)


def test_recursion_divisions_are_exact():
    # Each step divides F at the new entry times the running difference by F
    # at the previous entry; verify the quotient against multiplication.
    rng = random.Random(11)
    for _ in range(40):
        exp = rand_expansion(rng, max_n=4, span=3)
        seq = delta_sequence(exp)
        for k in range(2, exp.n + 1):
            num = F_poly(exp.p[k - 1]) * (seq[k - 1] - seq[k - 2])
            den = F_poly(exp.p[k - 2])
            q = exact_div(num, den)
            assert q * den == num


def test_alexander_b20_matches_known_value_up_to_sign():
    known = MultiLaurent(2, {
        (1, 3): 1, (3, 1): 1, (1, -1): 1, (-1, 1): 1, (-3, -1): 1,
        (-1, -3): 1, (3, 3): -1, (1, 1): -1, (-1, -1): -1, (-3, -3): -1})
    got = alexander_of(TwoBridge(20, -3))
    assert got == known or got == -known


def test_alexander_hopf_like():
    got = alexander_of(TwoBridge(2, 1))
    assert got == MultiLaurent.const(2, 1) or got == -MultiLaurent.const(2, 1)


def test_alexander_symmetry():
    rng = random.Random(12)
    links = [l for l in all_links(40)]
    for link in rng.sample(links, 30):
        d = alexander_of(link)
        inv = d.involution()
        # d(1/u1, 1/u2) = (+-monomial) * d(u1, u2)
        lead_inv = max(inv.terms)
        lead = max(d.terms)
        shift = tuple(a - b for a, b in zip(lead_inv, lead))
        shifted = d.shifted(shift)
        assert inv == shifted or inv == -shifted, link


def fox_alexander(link):
    """Delta of b(alpha, beta) by Fox calculus on the whole relator, a
    second route to alexander_of: the Schubert form <a, b | a w a^-1 w^-1>
    with w = b^e1 a^e2 ... b^e(alpha-1) and e_i = (-1)^floor(i beta / alpha);
    the derivative by b, abelianised by a -> t1 and b -> t2, is
    (t1 - 1) Delta up to a unit."""
    alpha, beta = link.alpha, link.beta
    w = [(i % 2, (-1) ** (i * beta // alpha % 2)) for i in range(1, alpha)]
    relator = [(0, 1)] + w + [(0, -1)] + [(g, -e) for g, e in reversed(w)]
    terms = {}
    pos = [0, 0]            # doubled exponents of the prefix's image
    for gen, e in relator:  # gen 1 is b, gen 0 is a
        if e < 0:
            pos[gen] -= 2
        if gen == 1:
            terms[tuple(pos)] = terms.get(tuple(pos), 0) + e
        if e > 0:
            pos[gen] += 2
    return exact_div(MultiLaurent(2, terms),
                     MultiLaurent(2, {(2, 0): 1, (0, 0): -1}))


def _up_to_unit(p):
    """p times the +-monomial that puts its minimum exponents at 0 and makes
    its leading coefficient positive."""
    p = p.shifted((-p.min_exp2(1), -p.min_exp2(2)))
    return -p if p.terms[max(p.terms)] < 0 else p


def _recursion_alexander(exp):
    """The test-side recursion, centred as alexander() centres."""
    shift = 1 - sum(exp.p)
    return delta_recursion(exp).shifted((shift, shift))


def test_alexander_matches_fox_calculus():
    # Fox calculus up to a unit, and the recursion with the global sign
    count = 0
    for link in all_links(60):
        got = alexander_of(link)
        assert _up_to_unit(fox_alexander(link)) == _up_to_unit(got), link
        assert got == _recursion_alexander(even_expansion(link)), link
        count += 1
    assert count == 746


def test_degree_bounds():
    rng = random.Random(13)
    exps = [EvenExpansion((p1,), ()) for p1 in (-4, -1, 1, 4)]
    exps += [rand_expansion(rng) for _ in range(200)]
    checked = 0
    for exp in exps:
        d = delta_recursion(exp)
        ln = sum(exp.p)
        lt = sum(abs(x) for x in exp.p)
        for i in (1, 2):
            assert d.min_exp2(i) == ln - lt
            assert d.max_exp2(i) == ln + lt - 2
        # alexander() walks all alpha - 1 Schubert signs, so it is checked
        # where alpha <= 1e5; alpha reaches 1.3e7 here
        if fraction_of(exp)[0] <= 10 ** 5:
            assert even_expansion(TwoBridge(*fraction_of(exp))) == exp
            sym = alexander(exp)
            assert sym == _recursion_alexander(exp), exp
            for i in (1, 2):
                assert sym.min_exp2(i) == 1 - lt
                assert sym.max_exp2(i) == lt - 1
            checked += 1
    assert checked == 155


def test_recursion_matches_family_closed_forms():
    # Both single-parameter families have fully expanded closed forms; the
    # recursion must reproduce them term by term, and alexander() them
    # centred by (u1*u2)^((1 - sum p)/2).
    def family_a(n, w):   # D(-1,1,...,-1,1,w)
        terms = {}
        for i in range(w):
            for j in range(n):
                e = (2 * (i + j + 1 - n), 2 * (i - j))
                terms[e] = terms.get(e, 0) + 1
        for i in range(w + 1):
            for j in range(n - 1):
                e = (2 * (i + j + 1 - n), 2 * (i - j - 1))
                terms[e] = terms.get(e, 0) - 1
        return MultiLaurent(2, terms)

    def family_b(n, w):   # D(1,-1,...,1,-1,w)
        terms = {}
        for i in range(w):
            for j in range(n):
                e = (2 * (i + j), 2 * (i - j + n - 1))
                terms[e] = terms.get(e, 0) + 1
        for i in range(1, w):
            for j in range(n - 1):
                e = (2 * (i + j), 2 * (i - j + n - 2))
                terms[e] = terms.get(e, 0) - 1
        return MultiLaurent(2, terms)

    for n in (1, 2, 3, 4):
        for w in (1, 2, 3):
            exp_a = EvenExpansion(tuple([-1] * (n - 1) + [w]),
                                  tuple([1] * (n - 1)))
            assert delta_recursion(exp_a) == family_a(n, w)
            exp_b = EvenExpansion(tuple([1] * (n - 1) + [w]),
                                  tuple([-1] * (n - 1)))
            assert delta_recursion(exp_b) == family_b(n, w)
            for exp, fam in ((exp_a, family_a), (exp_b, family_b)):
                shift = 1 - sum(exp.p)
                assert alexander(exp) == fam(n, w).shifted((shift, shift))


def test_linking_number():
    assert linking_number(EvenExpansion((-3, 1), (-1,))) == 2
    assert linking_number(EvenExpansion((1,), ())) == -1
    assert linking_number(EvenExpansion((1, 1), (1,))) == -2
    # second route: minus the sum of the signs of the Schubert word's b's
    count = 0
    for link in all_links(200):
        signs = list(_schubert_signs(link.alpha, link.beta))
        assert -sum(signs[0::2]) == linking_number(even_expansion(link)), link
        count += 1
    assert count == 8162


def test_diagonal_identity_for_d111():
    from lfk.laurent import diagonal
    d = delta_recursion(EvenExpansion((1, 1), (1,)))
    assert diagonal(d, 2) == MultiLaurent(2, {(2, 0): -1})
    assert diagonal_identities_check(EvenExpansion((1, 1), (1,))).ok


def test_diagonal_identities_random():
    rng = random.Random(14)
    assert diagonal_identities_check(EvenExpansion((-3, 1), (-1,))).ok
    assert diagonal_identities_check(EvenExpansion((1,), ())).ok
    for _ in range(60):
        assert diagonal_identities_check(rand_expansion(rng, max_n=4)).ok


def test_signature_examples():
    assert signature(TwoBridge(8, 3)) == 1
    assert signature(TwoBridge(4, 3)) == 1
    assert signature_of_matrix(tridiagonal_matrix(5, 4)) == 5
    assert signature(TwoBridge(20, -3)) == -5
    assert signature(TwoBridge(2, 1)) == 1
    assert signature(TwoBridge(2, -1)) == -1


def test_signature_mirror_antisymmetry():
    for q in (3, 5, 7):
        for k in (1, 3, 5):
            alpha = q * k - 1
            if alpha < 2 or k >= alpha:
                continue
            assert signature(TwoBridge(alpha, -k)) == -signature(
                TwoBridge(alpha, k))


def test_signature_families_match_diagonalization():
    # closed forms against exact congruence diagonalization, alpha <= 200
    for k in range(1, 201, 2):
        for q in range(1, 202, 2):
            alpha = q * k - 1
            if 2 <= alpha <= 200 and k < alpha and k > 1:
                assert signature_of_matrix(tridiagonal_matrix(q, 1 - k)) == q - 2
            alpha = q * k + 1
            if 2 <= alpha <= 200 and k < alpha:
                assert signature_of_matrix(tridiagonal_matrix(q, 1 + k)) == q


def _scanned_signature(link):
    """The family signature by scanning every odd k < alpha for a member
    b(alpha, +-k) equivalent to the link by the congruences
    beta' = beta or beta * beta' = 1 mod 2*alpha; None outside the
    families.  A second route to signature() wherever it applies."""
    alpha, m = link.alpha, 2 * link.alpha
    sigmas = set()
    for k in range(1, alpha, 2):
        for sign in (1, -1):
            b = sign * k
            if math.gcd(alpha, k) != 1 or not (
                    (b - link.beta) % m == 0 or (b * link.beta) % m == 1):
                continue
            if (alpha + 1) % k == 0:
                sigmas.add(sign * ((alpha + 1) // k - 2))
            if (alpha - 1) % k == 0:
                sigmas.add(sign * ((alpha - 1) // k))
    assert len(sigmas) <= 1, link
    return sigmas.pop() if sigmas else None


def test_signature_matches_family_scan():
    for link in all_links(200):
        want = _scanned_signature(link)
        if want is not None:
            assert signature(link) == want, link


def test_signature_is_an_invariant_of_every_link():
    # b(12,5) and most other links lie outside the families
    assert signature(TwoBridge(12, 5)) == 3
    for link in all_links(200):
        alpha, sigma = link.alpha, signature(link)
        assert type(sigma) is int and sigma % 2 == 1, link
        assert abs(sigma) < alpha, link
        assert signature(TwoBridge(alpha, -link.beta)) == -sigma, link
        for r in equivalence_orbit(alpha, link.beta, reversal=False):
            beta = r if r < alpha else r - 2 * alpha
            assert signature(TwoBridge(alpha, beta)) == sigma, (link, beta)


def test_signature_of_matrix_basics():
    assert signature_of_matrix([[2, 0], [0, -3]]) == 0
    assert signature_of_matrix([[0, 1], [1, 0]]) == 0
    assert signature_of_matrix([[0, 0], [0, 0]]) == 0
    assert signature_of_matrix([[1]]) == 1
