"""Curve invariants against the spec'd values and the counting oracles."""

import random
from fractions import Fraction
from math import comb, gcd

import pytest

from helpers import count_calls, matrix_power_by_products
from isofib.curves import (
    BRANCH_MAX_DEGREE,
    RECURRENCE_MAX_WORK,
    EllipticCurveW,
    HyperellipticModel,
    OracleBoundError,
    cartier_manin,
    check_closed_form_bound,
    check_recurrence_bound,
    _cartier_p_rank,
    _cartier_rows,
    hasse_invariant,
    hyperelliptic_p_ranks,
    j_invariant_and_aut,
    ordinary_primes,
    p_rank_hyperelliptic,
    point_count_oracle,
    zeta_prank_oracle,
)
from isofib.ffpoly import (
    FpMatrix,
    FpPolynomial,
    PrimeField,
    _is_prime,
    integer_resultant,
    matrix_rank_det,
    rank_det_mod,
    recurrence_work_mod,
)

F5 = PrimeField(5)
F7 = PrimeField(7)


def curve(p, a, b):
    return EllipticCurveW(PrimeField(p), a, b)


def hyper(p, coeffs):
    return HyperellipticModel(FpPolynomial(PrimeField(p), coeffs))


def test_singular_weierstrass_model_rejected():
    with pytest.raises(ValueError):
        curve(5, 0, 0)
    with pytest.raises(ValueError):
        curve(7, -3, 2)  # 4*(-27) + 27*4 = 0


def test_j_invariant_trichotomy():
    j, aut = j_invariant_and_aut(curve(7, 1, 0))
    assert (j, aut) == (1728 % 7, 4)
    j, aut = j_invariant_and_aut(curve(7, 0, 1))
    assert (j, aut) == (0, 6)
    j, aut = j_invariant_and_aut(curve(5, 1, 1))
    assert (j, aut) == (2, 2)


def test_discriminant_and_j_invariant_are_the_rational_values_mod_p():
    # GF(p) arithmetic is plain integers: 4a^3 + 27b^2 and
    # j = 1728 * 4a^3 / (4a^3 + 27b^2), reduced mod p, for models given unreduced
    rng = random.Random(23)
    for p in (5, 7, 11, 13, 101, 2**61 - 1):
        for _ in range(40):
            a, b = rng.randrange(-3 * p, 3 * p), rng.randrange(-3 * p, 3 * p)
            disc = 4 * a**3 + 27 * b**2
            if disc % p == 0:
                with pytest.raises(ValueError, match="singular model"):
                    curve(p, a, b)
                continue
            model = curve(p, a, b)
            assert model.discriminant_factor() == disc % p
            j = Fraction(1728 * 4 * a**3, disc)
            assert j_invariant_and_aut(model)[0] == j.numerator * pow(j.denominator, -1, p) % p


def test_hasse_invariant_known_values():
    assert hasse_invariant(curve(7, 0, 1)) == 3  # ordinary
    assert hasse_invariant(curve(7, 1, 0)) == 0  # supersingular
    assert hasse_invariant(curve(5, 0, 1)) == 0  # 5 = 2 mod 3


def test_point_count_known_values():
    assert point_count_oracle(curve(5, 1, 0)) == (4, 2)
    assert point_count_oracle(curve(5, 0, 1)) == (6, 0)


def test_point_count_always_sees_infinity():
    rng = random.Random(5)
    for _ in range(20):
        p = rng.choice([5, 7, 11])
        field = PrimeField(p)
        while True:
            a, b = rng.randrange(p), rng.randrange(p)
            if (4 * a**3 + 27 * b**2) % p != 0:
                break
        n, _ = point_count_oracle(EllipticCurveW(field, a, b))
        assert n >= 1


def test_point_count_bound_refusal():
    big = PrimeField(10007)
    with pytest.raises(OracleBoundError):
        point_count_oracle(EllipticCurveW(big, 1, 1))


def test_hyperelliptic_model_validation():
    with pytest.raises(ValueError):
        hyper(7, [0, 0, 0, 0, 1])  # x^4 is not squarefree
    with pytest.raises(ValueError):
        hyper(7, [1, 1])  # degree too small
    assert hyper(7, [1, 0, 0, 0, 0, 1]).genus == 2


def test_cartier_manin_genus_one_matches_hasse():
    m = cartier_manin(hyper(7, [1, 0, 0, 1]))
    assert m.entries == ((3,),)


def test_cartier_manin_genus_two_quintic():
    # (x^5+1)^3 = x^15 + 3x^10 + 3x^5 + 1; entries c6, c5 / c13, c12
    m = cartier_manin(hyper(7, [1, 0, 0, 0, 0, 1]))
    assert m.entries == ((0, 3), (0, 0))


def test_p_rank_examples():
    assert p_rank_hyperelliptic(hyper(7, [1, 0, 0, 1])) == 1
    assert p_rank_hyperelliptic(hyper(7, [1, 0, 0, 0, 0, 1])) == 0


def test_p_rank_bounded_by_genus():
    rng = random.Random(17)
    for _ in range(30):
        p = rng.choice([5, 7, 11])
        field = PrimeField(p)
        while True:
            coeffs = [rng.randrange(p) for _ in range(6)] + [1]
            f = FpPolynomial(field, coeffs)
            if f.is_squarefree():
                break
        model = HyperellipticModel(f)
        assert 0 <= p_rank_hyperelliptic(model) <= model.genus


def test_zeta_oracle_known_values():
    assert zeta_prank_oracle(hyper(5, [1, 0, 0, 1])) == 0
    assert zeta_prank_oracle(hyper(7, [1, 0, 0, 0, 0, 1])) == 0
    assert zeta_prank_oracle(hyper(5, [1, 1, 0, 1])) == 1


def test_zeta_oracle_bounds():
    # point counts are bounded by genus: p <= 10^4 at genus 1, p <= 101 at genus 2
    assert zeta_prank_oracle(hyper(101, [1, 0, 0, 1])) == 0  # j = 0 at p = 2 mod 3
    assert zeta_prank_oracle(hyper(9973, [1, 0, 0, 1])) == 1  # j = 0 at p = 1 mod 3
    with pytest.raises(OracleBoundError):
        zeta_prank_oracle(hyper(10007, [1, 0, 0, 1]))
    with pytest.raises(OracleBoundError):
        point_count_oracle(curve(10007, 0, 1))
    quintic = hyper(101, [1, 0, 0, 0, 0, 1])
    assert zeta_prank_oracle(quintic) == p_rank_hyperelliptic(quintic)
    with pytest.raises(OracleBoundError):
        zeta_prank_oracle(hyper(103, [1, 0, 0, 0, 0, 1]))
    field = PrimeField(7)
    f = FpPolynomial(field, [1, 1, 0, 0, 0, 0, 0, 1])  # degree 7: genus 3
    assert f.is_squarefree()
    with pytest.raises(OracleBoundError):
        zeta_prank_oracle(HyperellipticModel(f))


def test_elliptic_oracle_agreement_exhaustive():
    # hasse_invariant = 0 exactly when p divides the Frobenius trace
    for p in (5, 7, 11, 13):
        field = PrimeField(p)
        for a in range(p):
            for b in range(p):
                if (4 * a**3 + 27 * b**2) % p == 0:
                    continue
                e = EllipticCurveW(field, a, b)
                _, ap = point_count_oracle(e)
                assert (hasse_invariant(e) == 0) == (ap % p == 0), (p, a, b)


def test_hasse_invariant_matches_point_count_over_many_primes():
    # #E(GF(p)) = 1 - H mod p, so H is the Frobenius trace mod p; x^3 + x has f(0) = 0
    for a, b in ((1, 1), (0, 1), (1, 0)):
        for p in range(5, 501):
            if not _is_prime(p) or (4 * a**3 + 27 * b**2) % p == 0:
                continue
            e = curve(p, a, b)
            _, ap = point_count_oracle(e)
            assert hasse_invariant(e) == ap % p, (p, a, b)


def test_closed_forms_refuse_beyond_recurrence_bound():
    # the Hasse invariant takes (p - 1)/2 steps of one p-adic digit: 999996 at
    # p = 1999993, 1000001 at p = 2000003
    assert (1999993 - 1) // 2 <= RECURRENCE_MAX_WORK < (2000003 - 1) // 2
    for p in (100003, 1999993):
        check_recurrence_bound(curve(p, 1, 1).rhs_poly(), (p - 1) // 2, (p - 1,))
    with pytest.raises(OracleBoundError, match="the recurrence takes 1000001 steps"):
        hasse_invariant(curve(2000003, 1, 1))
    # a sextic's Cartier-Manin matrix takes p - 1 steps from each end
    sextic = [1, 2, 0, 3, 0, 1, 1]
    for p in (50021, 499979):
        f = FpPolynomial(PrimeField(p), sextic)
        check_recurrence_bound(f, (p - 1) // 2, [p * i - j for i in (1, 2) for j in (1, 2)])
    with pytest.raises(OracleBoundError, match="the recurrence takes 1000016 steps"):
        cartier_manin(hyper(500009, sextic))
    with pytest.raises(OracleBoundError, match="the recurrence takes"):
        p_rank_hyperelliptic(hyper(500009, sextic))


def test_closed_forms_refuse_a_branch_beyond_degree_bound():
    rng = random.Random(101)
    at_bound = _random_squarefree(rng, F5, BRANCH_MAX_DEGREE)
    check_closed_form_bound(at_bound)  # degree 100: accepted
    beyond = HyperellipticModel(_random_squarefree(rng, F5, BRANCH_MAX_DEGREE + 1))
    with pytest.raises(OracleBoundError, match="branch refused: degree 101 exceeds bound 100"):
        cartier_manin(beyond)
    with pytest.raises(OracleBoundError, match="degree 101 exceeds bound 100"):
        p_rank_hyperelliptic(beyond)


def test_hyperelliptic_p_ranks_refuse_before_the_resultant_over_all_primes(monkeypatch):
    # Res(f, f') of a degree-100 f with 400-digit coefficients, reduced mod the
    # product of the primes to 10^4, takes minutes; the refusal at p = 439
    # asks Res(f, f') mod that prime alone, on coefficients below p
    rng = random.Random(7)
    f = [rng.randrange(-10**400, 10**400) for _ in range(BRANCH_MAX_DEGREE)] + [1]
    sizes = count_calls(monkeypatch, "ffpoly", "integer_resultant",
                        key=lambda a, b: max(abs(c) for c in a).bit_length())
    primes = [p for p in range(5, 10_000) if _is_prime(p)]
    with pytest.raises(OracleBoundError, match="the recurrence takes 1011846 steps"):
        hyperelliptic_p_ranks(f, primes)
    assert max(sizes, default=0) < 10


def test_hyperelliptic_p_ranks_refuse_at_the_first_squarefree_prime_past_the_bound():
    # the branch above with its residues mod 439 replaced by those of (x - 1)^2 g
    # for a monic g: 439 is past the recurrence bound, but f mod 439 is not
    # squarefree, so the refusal names the next prime past the bound where it is
    rng = random.Random(7)
    f = [rng.randrange(-10**400, 10**400) for _ in range(BRANCH_MAX_DEGREE)] + [1]
    q = 439
    g = [c % q for c in f[2:]]
    square = [a - 2 * b + c for a, b, c in zip([0, 0] + g, [0] + g + [0], g + [0, 0])]
    f = [c - c % q + r % q for c, r in zip(f, square)]
    assert f[-1] == 1 and all(abs(c) >= 10**390 for c in f[:-1])
    genus = (BRANCH_MAX_DEGREE - 1) // 2

    def work(p):
        ks = [p * i - j for i in range(1, genus + 1) for j in range(1, genus + 1)]
        return recurrence_work_mod(tuple(c % p for c in f), p, (p - 1) // 2, ks)

    primes = [p for p in range(5, 10_000) if _is_prime(p)]
    assert work(q) > RECURRENCE_MAX_WORK
    assert all(work(p) <= RECURRENCE_MAX_WORK for p in primes if p < q)
    assert not FpPolynomial(PrimeField(q), f).is_squarefree()
    refused = next(p for p in primes if p > q and work(p) > RECURRENCE_MAX_WORK
                   and FpPolynomial(PrimeField(p), f).is_squarefree())
    assert work(refused) != work(q)
    with pytest.raises(OracleBoundError, match=f"the recurrence takes {work(refused)} steps"):
        hyperelliptic_p_ranks(f, primes)


def _random_squarefree(rng, field, degree):
    while True:
        coeffs = [rng.randrange(field.p) for _ in range(degree)]
        coeffs.append(rng.randrange(1, field.p))
        f = FpPolynomial(field, coeffs)
        if f.is_squarefree():
            return f


def test_hyperelliptic_oracle_agreement_random():
    rng = random.Random(2024)
    for p, curves in ((5, 50), (7, 50), (11, 50), (13, 5), (31, 5), (61, 4), (101, 3)):
        field = PrimeField(p)
        for _ in range(curves):
            f = _random_squarefree(rng, field, rng.choice([5, 6]))
            model = HyperellipticModel(f)
            assert p_rank_hyperelliptic(model) == zeta_prank_oracle(model), f


def test_extension_count_satisfies_weil_relation():
    # for an elliptic curve with trace a, the count over GF(p^2) must be
    # p^2 + 1 - (a^2 - 2p); this checks the extension-field enumeration
    # against the prime-field one
    from isofib.curves import _count_over_ext

    rng = random.Random(61)
    for p in (5, 7, 11, 13):
        field = PrimeField(p)
        for _ in range(10):
            while True:
                a, b = rng.randrange(p), rng.randrange(p)
                if (4 * a**3 + 27 * b**2) % p != 0:
                    break
            e = EllipticCurveW(field, a, b)
            _, ap = point_count_oracle(e)
            n2 = _count_over_ext(HyperellipticModel(e.rhs_poly()))
            assert n2 == p * p + 1 - (ap * ap - 2 * p)


def test_congruence_laws_small_primes():
    # j=0 ordinary iff p = 1 mod 3 (equivalently 1 mod 6); j=1728 iff p = 1 mod 4
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        field = PrimeField(p)
        for b in range(1, p):
            ordinary = hasse_invariant(EllipticCurveW(field, 0, b)) != 0
            assert ordinary == (p % 3 == 1)
            assert ordinary == (p % 6 == 1)
        for a in range(1, p):
            ordinary = hasse_invariant(EllipticCurveW(field, a, 0)) != 0
            assert ordinary == (p % 4 == 1)


def test_genus_one_cartier_consistency():
    # the 1 x 1 Cartier-Manin matrix is the Hasse invariant, the trace mod p by counting
    rng = random.Random(9)
    for _ in range(40):
        p = rng.choice([5, 7, 11, 13])
        field = PrimeField(p)
        while True:
            a, b = rng.randrange(p), rng.randrange(p)
            if (4 * a**3 + 27 * b**2) % p != 0:
                break
        e = EllipticCurveW(field, a, b)
        trace = point_count_oracle(e)[1] % p
        assert hasse_invariant(e) == trace
        assert cartier_manin(HyperellipticModel(e.rhs_poly())).entries == ((trace,),)


def test_twist_invariance_of_ordinarity():
    # x -> x/u^2, y -> y/u^d is an isomorphism: u^(2d) f(x/u^2) keeps the Cartier rank
    rng = random.Random(33)
    for p in (5, 7, 11):
        field = PrimeField(p)
        for _ in range(20):
            f = _random_squarefree(rng, field, rng.choice([5, 6]))
            u = rng.randrange(1, p)
            d = f.degree()
            twisted = FpPolynomial(
                field, [f.coeff(i) * pow(u, 2 * (d - i), p) for i in range(d + 1)]
            )
            det_f = matrix_rank_det(cartier_manin(HyperellipticModel(f)))[1]
            det_t = matrix_rank_det(cartier_manin(HyperellipticModel(twisted)))[1]
            assert (det_f != 0) == (det_t != 0)


def test_rational_model_reduction():
    # disc factor 27: bad only at 3
    assert ordinary_primes(0, 1, [7]) == [_hasse_ordinary((0, 1), 7)]
    with pytest.raises(ValueError):
        ordinary_primes(0, 1, [3])
    assert EllipticCurveW(PrimeField(7), 0, 1) == EllipticCurveW(PrimeField(7), 7, 8)
    with pytest.raises(ValueError):
        ordinary_primes(1, 2, [7])
    with pytest.raises(ValueError):
        EllipticCurveW(PrimeField(7), 1, 2)  # 4 + 108 = 112 = 0 mod 7
    with pytest.raises(ValueError):
        ordinary_primes(0, 0, [5])


def test_bad_prime_detection_uses_integer_discriminant():
    # 4*(-1)^3 = -4: bad at 2 only, but p>3 anyway
    assert ordinary_primes(-1, 0, [5]) == [_hasse_ordinary((-1, 0), 5)]
    with pytest.raises(ValueError):
        ordinary_primes(-1, 0, [2])


# (a, b): j = 0 and j = 1728 with both signs, generic curves with negative
# coefficients, and coefficients built from small primes, so that p | a and
# p | b both occur
TREE_CURVES = (
    (0, 1),
    (0, -35),
    (1, 0),
    (-5, 0),
    (-7, 6),
    (5, -3),
    (-40, -39),
    (2 * 3 * 5 * 7 * 11 * 13, -17 * 19 * 23),
    (-17 * 19 * 29, 5 * 7 * 11 * 13 * 31),
)


def _good_primes(e, pmax):
    a, b = e
    return [p for p in range(5, pmax + 1) if _is_prime(p) and (4 * a**3 + 27 * b**2) % p]


def _hasse_ordinary(e, p):
    return hasse_invariant(EllipticCurveW(PrimeField(p), *e)) != 0


@pytest.mark.parametrize("a, b", TREE_CURVES)
def test_ordinary_primes_agree_with_the_hasse_invariant(a, b):
    e = (a, b)
    primes = _good_primes(e, 3000)
    assert len(primes) > 420
    ordinary = ordinary_primes(a, b, primes)
    assert ordinary == [_hasse_ordinary(e, p) for p in primes]
    # and, sharing no code with either, the genus-1 point count: ordinary iff p does not
    # divide the trace
    counted = [point_count_oracle(curve(p, a, b))[1] % p != 0 for p in primes if p <= 600]
    assert ordinary[: len(counted)] == counted


def test_ordinary_primes_with_zero_one_and_two_primes():
    e = (1, 1)
    for pmax, count in ((4, 0), (5, 1), (7, 2)):
        primes = _good_primes(e, pmax)
        assert len(primes) == count
        assert ordinary_primes(*e, primes) == [_hasse_ordinary(e, p) for p in primes]


def test_ordinary_primes_with_four_thousand_digit_coefficients():
    rng = random.Random(4000)
    e = (rng.randrange(10**3999, 10**4000), -rng.randrange(10**3999, 10**4000))
    primes = _good_primes(e, 600)
    assert ordinary_primes(*e, primes) == [_hasse_ordinary(e, p) for p in primes]


def test_ordinary_primes_takes_exact_integers_of_a_smooth_model():
    with pytest.raises(ValueError):
        ordinary_primes(0, 0, [5])
    with pytest.raises(TypeError):
        ordinary_primes(1.5, 1, [5])


def test_ordinary_primes_refuses_bad_or_unordered_primes():
    # 4 + 27 = 31
    for primes in ([3], [5, 31], [7, 5], [5, 5]):
        with pytest.raises(ValueError, match="increasing primes > 3 of good reduction"):
            ordinary_primes(1, 1, primes)


# branches of degree 5 to 8 (genus 2 and 3): f(0) = 0; h(0) = 3 and lc = 4;
# sparse with 5 and 7 dividing h(0); h(0) = -2 and lc = 5
SCAN_BRANCHES = (
    (0, 3, -1, 4, 0, 2),
    (3, 1, -2, 5, 7, -1, 4),
    (35, -2, 0, 1, 3, 0, -1, 2),
    (-2, 5, 1, 0, -3, 2, 0, 1, 5),
)


def _squarefree_primes(f, pmax):
    return [
        p for p in range(5, pmax + 1)
        if _is_prime(p) and f[-1] % p and FpPolynomial(PrimeField(p), f).is_squarefree()
    ]


def _cartier_manin_rows(f, p):
    return [list(row) for row in cartier_manin(hyper(p, f)).entries]


@pytest.mark.parametrize("f", SCAN_BRANCHES, ids=("quintic", "sextic", "heptic", "octic"))
def test_cartier_rows_agree_with_the_kernel_at_every_prime(f):
    primes = _squarefree_primes(f, 3000)
    assert len(primes) > 420
    for p, rows in zip(primes, _cartier_rows(f, primes)):
        assert rows == _cartier_manin_rows(f, p), (f, p)


# sparse branches f = F(x^d), whose runs go through F, with the p-ranks they
# take below 400: x^5 + 1 only 0 or g, so the other two reach 0 < rank < g
SPARSE_BRANCHES = (
    ((1, 0, 0, 0, 0, 1), {0, 2}),
    ((2, 0, 1, 0, 0, 0, 1), {0, 1, 2}),
    ((1, 0, 0, 0, 1, 0, 0, 0, 1), {0, 1, 2, 3}),
)


def test_cartier_rows_of_sparse_branches_agree_with_the_kernel():
    for f, _ in SPARSE_BRANCHES:
        primes = _squarefree_primes(f, 1000)
        for p, rows in zip(primes, _cartier_rows(f, primes)):
            assert rows == _cartier_manin_rows(f, p), (f, p)


def _sparse_branch(rng, v, step, terms):
    """x^v H(x^step) of degree at least 3, with H(0) != 0 and H of degree at least terms."""
    terms = max(terms, -(-(3 - v) // step))
    h = [0] * (step * terms + 1)
    h[::step] = [rng.choice((1, 2, -3))] + [rng.randrange(-9, 10) for _ in range(terms - 1)] + [
        rng.choice((1, 2, -3))]
    return (0,) * v + tuple(h)


def test_cartier_read_plan_rule_matches_the_run_indices():
    # at p >= 5 and v <= 1, row i has a read with run index below p at the low
    # end of h = f/x^v iff i <= s (s the exponent gcd of h), and at the top end
    # iff i > g - s; where both do, the low end is the nearer iff 4i <= d + v
    rng = random.Random(48)
    primes = [p for p in range(5, 3000) if _is_prime(p)]
    branches = [_sparse_branch(rng, rng.randrange(2), rng.choice((1, 1, 2, 3, 4, 6)),
                               rng.randrange(1, 13)) for _ in range(40)]
    pairs = 0
    for f in branches:
        d, v = len(f) - 1, next(i for i, c in enumerate(f) if c)
        g, s = (d - 1) // 2, gcd(*(k - v for k, c in enumerate(f) if k > v and c))
        for p in primes:
            e = (p - 1) // 2
            for i in range(1, g + 1):
                low, top = p * i - 1 - v * e, d * e - p * i + g
                assert (low // s < p) == (i <= s), (f, p, i)
                assert (top // s < p) == (i > g - s), (f, p, i)
                if i <= s and i > g - s:
                    assert (low <= top) == (4 * i <= d + v), (f, p, i)
                pairs += 1
    assert pairs > 100_000


def test_cartier_rows_of_sparse_branches_fall_back_only_where_the_rule_says(monkeypatch):
    # a good prime dividing h(0) has v = 0 and s = 1, so it reads every row at
    # the top when g = 1 and takes the kernel otherwise; where 2s < g a prime
    # not above the largest shift c or dividing some f(c) takes it too
    kernel = count_calls(monkeypatch, "ffpoly", "poly_pow_coeff", key=lambda f, *_: f.field.p)
    rng = random.Random(21)
    branches = [f for f, _ in SPARSE_BRANCHES]
    branches += [_sparse_branch(rng, rng.randrange(2), step, terms)
                 for step in (2, 3, 4, 6) for terms in (1, 2, 4, 6)]
    for degree in range(3, 13):  # h(0) = 5 * 7 * 11, and about half the other terms zero
        middle = [rng.choice((0, rng.randrange(-9, 10))) for _ in range(degree - 2)]
        branches.append((5 * 7 * 11, rng.choice((1, 2, -3)), *middle, rng.choice((1, 2, -3))))
    kernel_calls = 0
    for f in branches:
        d, v = len(f) - 1, next(i for i, c in enumerate(f) if c)
        g, s = (d - 1) // 2, gcd(*(k - v for k, c in enumerate(f) if k > v and c))
        primes = _squarefree_primes(f, 200)
        shifts = [c for c in range(1, 2 * d) if _translate(f, c)[0]][: g - 2]
        expected = [p for p in primes if f[v] % p == 0 and s < g or f[v] % p and 2 * s < g and (
            p <= shifts[-1] or any(_translate(f, c)[0] % p == 0 for c in shifts))]
        kernel.clear()
        matrices = _cartier_rows(f, primes)
        assert dict(kernel) == dict.fromkeys(expected, 1), f
        kernel_calls += len(expected)
        for p, rows in zip(primes, matrices):
            assert rows == _cartier_manin_rows(f, p), (f, p)
    assert kernel_calls > 40


def _translate(f, c):
    """f(x + c), lowest degree first."""
    return [sum(a * comb(n, k) * c ** (n - k) for n, a in enumerate(f) if n >= k)
            for k in range(len(f))]


def test_row_one_of_a_translate_is_the_lucas_transform_of_the_rows():
    # c_(p-j)(f(x + c)^e) = sum_(j'<=j) (-1)^(j-j') C(j-1, j'-1) c^(j-j')
    # sum_i c^(i-1) M_ij' mod p, both sides from the per-prime kernel
    rng = random.Random(31)
    for degree in range(5, 15):
        f = [rng.randrange(-9, 10) for _ in range(degree)] + [rng.choice((1, 2, -3))]
        g = (degree - 1) // 2
        for p in _squarefree_primes(f, 199):
            rows = _cartier_manin_rows(f, p)
            for c in (1, 2, 3, -1):
                columns = [sum(c ** (i - 1) * rows[i - 1][j - 1] for i in range(1, g + 1))
                           for j in range(1, g + 1)]
                expected = [
                    sum((-1) ** (j - k) * comb(j - 1, k - 1) * c ** (j - k) * columns[k - 1]
                        for k in range(1, j + 1)) % p
                    for j in range(1, g + 1)
                ]
                assert _cartier_manin_rows(_translate(f, c), p)[0] == expected, (f, p, c)


def test_cartier_rows_read_deep_rows_per_prime(monkeypatch):
    # genus 4 to 9: the middle rows come from translates f(x + c), and the
    # kernel runs only at the primes that divide h(0) or a translate's f(c),
    # or do not exceed the largest c
    kernel = count_calls(monkeypatch, "ffpoly", "poly_pow_coeff", key=lambda f, *_: f.field.p)
    rng = random.Random(29)
    branches = [tuple(rng.randrange(-9, 10) for _ in range(degree)) + (rng.choice((1, 3, -2)),)
                for degree in range(9, 21)]
    for degree in (11, 16):  # x (x - 2) q(x): v = 1, and c = 2 is skipped
        f = [rng.randrange(-9, 10) for _ in range(degree - 2)] + [1]
        f = [0] + [a - 2 * b for a, b in zip([0] + f, f + [0])]
        branches.append(tuple(f))
    fell_back = 0
    for f in branches:
        degree = len(f) - 1
        primes = _squarefree_primes(f, 300)
        h0 = next(c for c in f if c)
        shifts = [c for c in range(1, 2 * degree) if _translate(f, c)[0]][: (degree - 1) // 2 - 2]
        values = [_translate(f, c)[0] for c in shifts]
        expected = [p for p in primes
                    if h0 % p == 0 or p <= shifts[-1] or any(v % p == 0 for v in values)]
        kernel.clear()
        matrices = _cartier_rows(f, primes)
        assert dict(kernel) == dict.fromkeys(expected, 1), f
        for p, rows in zip(primes, matrices):
            assert rows == _cartier_manin_rows(f, p), (f, p)
        assert len(expected) < len(primes) / 2
        fell_back += len(expected)
    assert fell_back > 12


# branches with repeated factors mod small primes
REPEATED_MOD_P = (
    (36, -30, 10, -13, -4, 1),  # (x - 1)(x - 6)(x^2 + 2)(x + 3): mod 5, 11, 19
    (360, 342, -31, 60, 55, -17, 1),  # (x + 1)(x - 6)(x - 12)(x^3 + x + 5): mod 5, 7, 13, 97
    (4, 0, 8, 0, 1, 3),  # (x^2 + 2)^2 + 3x^5: mod 5, 11, 97
)


def test_squarefree_by_the_discriminant_matches_is_squarefree():
    for f in SCAN_BRANCHES + REPEATED_MOD_P:
        discriminant = integer_resultant(f, [i * c for i, c in enumerate(f)][1:])
        primes = [p for p in range(5, 2001) if _is_prime(p) and f[-1] % p]
        ranks = hyperelliptic_p_ranks(f, primes)
        for p, rank in zip(primes, ranks):
            squarefree = FpPolynomial(PrimeField(p), f).is_squarefree()
            assert (discriminant % p != 0) == squarefree == (rank is not None), (f, p)
    assert hyperelliptic_p_ranks(REPEATED_MOD_P[0], [5, 7])[0] is None
    assert hyperelliptic_p_ranks(REPEATED_MOD_P[1], [5, 7, 11, 13])[1::2] == [None, None]
    square = (1, 0, 2, 0, 1)  # (x^2 + 1)^2
    assert integer_resultant(square, (0, 4, 0, 4)) == 0
    assert hyperelliptic_p_ranks(square, [5, 7, 11]) == [None, None, None]


def test_hyperelliptic_p_ranks_match_the_model_p_rank():
    rng = random.Random(31)
    branches = [(tuple(rng.randrange(-5, 6) for _ in range(degree)) + (rng.choice((1, 2, -3)),), None)
                for degree in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)]
    for f, rank_set in branches + list(SPARSE_BRANCHES):
        degree = len(f) - 1
        primes = [p for p in range(5, 400) if _is_prime(p) and f[-1] % p]
        seen = set()
        for p, rank in zip(primes, hyperelliptic_p_ranks(f, primes)):
            fp = FpPolynomial(PrimeField(p), f)
            if not fp.is_squarefree():
                assert rank is None
            elif degree < 3:
                assert rank == 0  # genus 0
            else:
                model = HyperellipticModel(fp)
                assert rank == p_rank_hyperelliptic(model), (f, p)
                # the rank of M^g itself, where the determinant decides nothing
                power = matrix_power_by_products(cartier_manin(model).entries, model.genus, p)
                assert rank == matrix_rank_det(FpMatrix(model.field, power))[0], (f, p)
                seen.add(rank)
        assert rank_set is None or seen == rank_set, f


def test_cartier_p_rank_is_the_rank_of_the_g_th_power():
    # upper triangular with a zero on the diagonal, conjugated by a permutation,
    # is singular with rank(M^k) falling over several k; squaring reaches the
    # stable rank rank(M^g)
    rng = random.Random(25)
    for p in (5, 7, 101):
        for _ in range(40):
            g = rng.randrange(1, 9)
            zeros = set(rng.sample(range(g), rng.randrange(1, g + 1)))
            upper = [[0 if j < i or (j == i and i in zeros) else rng.randrange(p)
                      for j in range(g)] for i in range(g)]
            order = rng.sample(range(g), g)
            rows = [[upper[order[i]][order[j]] for j in range(g)] for i in range(g)]
            assert rank_det_mod(rows, g, p)[1] == 0
            stable = rank_det_mod(matrix_power_by_products(rows, g, p), g, p)[0]
            assert _cartier_p_rank(rows, p) == stable, (p, rows)


def test_hyperelliptic_p_ranks_refuse_bad_input():
    for primes in ([3], [5, 5], [7, 5], [5, 13]):  # 13 divides lc
        with pytest.raises(ValueError, match="increasing primes > 3 not dividing lc"):
            hyperelliptic_p_ranks((1, 0, 0, 2, 0, 13), primes)
    with pytest.raises(OracleBoundError, match="branch refused: degree 101 exceeds bound 100"):
        hyperelliptic_p_ranks((1,) * 102, [5])
