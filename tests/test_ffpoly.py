"""Field, polynomial and matrix arithmetic checks."""

import math
import random
from time import perf_counter

import pytest

from helpers import bareiss_resultant, matrix_power_by_products
from isofib import ffpoly
from isofib.ffpoly import (
    FpMatrix,
    FpPolynomial,
    PrimeField,
    _is_prime,
    matrix_mul_mod,
    matrix_rank_det,
    poly_pow_coeff,
    rank_det_mod,
    recurrence_work_mod,
)

F5 = PrimeField(5)
F7 = PrimeField(7)


def test_prime_field_rejects_bad_moduli():
    for bad in (0, 1, 4, 6, 91, 2, 3):
        with pytest.raises(ValueError):
            PrimeField(bad)
    with pytest.raises(ValueError):
        PrimeField(2**63 + 9)  # beyond a machine word


def test_prime_field_accepts_large_mersenne_prime():
    start = perf_counter()
    assert PrimeField(2**61 - 1).p == 2305843009213693951
    assert perf_counter() - start < 1.0  # trial division would need ~2^29 steps


def test_prime_field_rejects_strong_pseudoprime():
    # 151 * 751 * 28351 passes the strong test to bases 2, 3, 5 and 7
    with pytest.raises(ValueError, match="not prime"):
        PrimeField(3215031751)
    with pytest.raises(ValueError, match="not prime"):
        PrimeField((2**31 - 1) * (2**31 - 1))


def test_is_prime_matches_sieve():
    limit = 10**6 + 1
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    assert [n for n in range(limit) if _is_prime(n)] == [n for n in range(limit) if sieve[n]]
    for carmichael in (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265):
        assert not _is_prime(carmichael)


def test_is_prime_rejects_strong_pseudoprimes_to_the_first_bases():
    # strong pseudoprimes to bases 2, 3, 5 (below the four-base limit), to 2, 3, 5, 7
    # (the limit itself, so the twelve bases decide) and to 2, 3, 5, 7, 11
    for n in (25_326_001, 3_215_031_751, 2_152_302_898_747):
        assert not _is_prime(n), n
    # primes on either side of the limit, each base set deciding one
    assert _is_prime(3_215_031_749) and _is_prime(3_215_031_767)


def test_is_square_euler_criterion():
    for p in (5, 7, 11, 101):
        field = PrimeField(p)
        squares = {x * x % p for x in range(p)}
        for x in range(-p, 2 * p):
            assert field.is_square(x) == (x % p in squares), (p, x)
        assert field.smallest_non_residue() == min(set(range(2, p)) - squares)


def test_polynomial_normalization():
    f = FpPolynomial(F7, [1, 0, 0, 7, 0])
    assert f.coeffs == (1,)
    assert f.degree() == 0
    assert FpPolynomial(F7, []).coeffs == ()
    assert FpPolynomial(F7, [0, 0]) == FpPolynomial.zero(F7)
    assert FpPolynomial(F7, [0, 0]).degree() == -1


def test_poly_pow_coeff_cube_of_x3_plus_1():
    # (x^3+1)^3 = x^9 + 3x^6 + 3x^3 + 1
    f = FpPolynomial(F7, [1, 0, 0, 1])
    assert poly_pow_coeff(f, 3, (6, 9, 5)) == (3, 1, 0)


def test_poly_pow_coeff_cube_of_x3_plus_x():
    # (x^3+x)^3 = x^9 + 3x^7 + 3x^5 + x^3: no x^6 term
    f = FpPolynomial(F7, [0, 1, 0, 1])
    assert poly_pow_coeff(f, 3, (6, 7)) == (0, 3)


def test_poly_pow_coeff_unit_polynomial():
    one = FpPolynomial(F7, [1])
    assert poly_pow_coeff(one, 5, (0, 3)) == (1, 0)


def test_poly_pow_coeff_out_of_range_is_zero():
    f = FpPolynomial(F7, [1, 1])
    assert poly_pow_coeff(f, 2, (50, -1, 2)) == (0, 0, 1)
    assert poly_pow_coeff(f, 0, (0, 1, -1)) == (1, 0, 0)
    zero = FpPolynomial.zero(F7)
    assert poly_pow_coeff(zero, 0, (0, 1)) == (1, 0)
    assert poly_pow_coeff(zero, 3, (0, 1)) == (0, 0)
    assert poly_pow_coeff(f, 2, ()) == ()
    with pytest.raises(ValueError):
        poly_pow_coeff(f, -1, (0,))


def test_poly_pow_coeff_multiplicativity():
    # (fg)^e agrees with f^e * g^e, expanded fully
    rng = random.Random(20)
    for _ in range(25):
        field = PrimeField(rng.choice([5, 7, 11]))
        f = FpPolynomial(field, [rng.randrange(field.p) for _ in range(4)])
        g = FpPolynomial(field, [rng.randrange(field.p) for _ in range(4)])
        e = rng.randrange(1, 5)
        lhs = (f * g) ** e
        rhs = (f**e) * (g**e)
        assert lhs == rhs
        ks = range(lhs.degree() + 2)
        assert poly_pow_coeff(f * g, e, ks) == tuple(lhs.coeff(k) for k in ks)


def _random_poly(rng, field, degree):
    """Degree `degree`, with f(0) = 0 and inner zero coefficients often."""
    p = field.p
    coeffs = [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]
    for i in range(degree):
        if rng.random() < 0.25:
            coeffs[i] = 0
    return FpPolynomial(field, coeffs)


def test_poly_pow_coeff_matches_the_full_power():
    rng = random.Random(13)
    for p in (5, 7, 11, 13, 101, 211, 1009, 2203):
        field = PrimeField(p)
        for degree in range(9):
            f = _random_poly(rng, field, degree)
            for e in (0, 1, 2, (p - 1) // 2, rng.randrange(3 * p)):
                full = f**e
                top = full.degree()
                edges = {-p, -1, 0, 1, top, top + 1, top + p}
                for m in (p, 2 * p, p * p):
                    edges.update((m - 1, m, m + 1, top - m))
                ks = sorted(edges | {rng.randrange(top + 1) for _ in range(20)})
                got = poly_pow_coeff(f, e, ks)
                assert got == tuple(full.coeff(k) for k in ks), (p, f.coeffs, e)


def test_poly_pow_coeff_reads_every_cartier_entry():
    rng = random.Random(17)
    for p in (5, 7, 11, 101, 293, 641, 1009, 2203):
        field = PrimeField(p)
        e = (p - 1) // 2
        for degree in range(3, 9):
            g = (degree - 1) // 2
            f = _random_poly(rng, field, degree)
            ks = [p * i - j for i in range(1, g + 1) for j in range(1, g + 1)]
            full = f**e
            assert poly_pow_coeff(f, e, ks) == tuple(full.coeff(k) for k in ks), (p, f.coeffs)


def test_recurrence_work_counts_steps_times_digits():
    f = (1, 1)  # (1 + x)^20 has degree 20
    assert recurrence_work_mod(f, 7, 20, (3,)) == 3  # three steps from the low end, one digit
    assert recurrence_work_mod(f, 7, 20, (10,)) == 10 * 2  # ten steps pass p = 7: two digits
    assert recurrence_work_mod(f, 7, 20, (3, 17)) == 3 + 3  # one run from each end
    assert recurrence_work_mod(f, 7, 20, (0, 50, -1)) == 0  # g_0 alone, and out of range
    assert recurrence_work_mod((), 7, 3, (1,)) == 0
    # the Hasse invariant: (p - 1)/2 steps down from the top of (x^3 + x + 1)^((p-1)/2)
    assert recurrence_work_mod((1, 1, 0, 1), 101, 50, (100,)) == 50
    with pytest.raises(ValueError):
        recurrence_work_mod(f, 7, -1, (0,))


def test_recurrence_work_counts_the_runs_poly_pow_coeff_makes(monkeypatch):
    rng = random.Random(19)
    runs = []
    real_head = ffpoly._power_series_head

    def recording_head(h, e, n, p):
        runs.append(n * ffpoly._padic_digits(n, p))
        return real_head(h, e, n, p)

    monkeypatch.setattr(ffpoly, "_power_series_head", recording_head)
    for p in (5, 7, 101, 2203):
        for degree in range(9):
            f = _random_poly(rng, PrimeField(p), degree)
            e = (p - 1) // 2
            ks = [rng.randrange(-5, degree * e + 5) for _ in range(6)]
            runs.clear()
            poly_pow_coeff(f, e, ks)
            assert recurrence_work_mod(f.coeffs, p, e, ks) == sum(runs), (p, f.coeffs, ks)


# integer polynomials: h(0) not +-1, non-monic, sparse, a unit h(0), h(0) = 4
# (a square, so h(0)^e = 1 mod p) and h(0) = -4 (not one); then h = H(x^d)
# for d = 2, 3, 4, which the engine runs as H
WINDOW_POLYS = (
    (3, 1, -2, 5, 7, -1, 4),
    (-2, 0, 5, 1, 0, -3, 2, 0, 5),
    (35, 0, 0, 0, 0, 0, 0, -1, 2),
    (1, 0, 17, -23),
    (6, 1),
    (4, -3, 0, 2, 1),
    (-4, 5, 2, 0, -1, 3),
    (-3, 0, 2, 0, 0, 0, 5),
    (35, 0, 0, -4, 0, 0, 1),
    (-2, 0, 0, 0, 7, 0, 0, 0, 3),
)


def _kernel_window(h, p, n, width=None):
    """(g_n, ..., g_(n-width+1)) of h^((p-1)/2) mod p from poly_pow_coeff; width m by default."""
    ks = [n - t for t in range(len(h) - 1 if width is None else width)]
    return poly_pow_coeff(FpPolynomial(PrimeField(p), h), (p - 1) // 2, ks)


@pytest.mark.parametrize("h", WINDOW_POLYS)
def test_half_power_windows_match_the_kernel_at_depth_one_and_two(h):
    # every prime below 600 reads at depth one (n < p), in any order and with
    # more than one read per prime; a read whose run index (n, or n // d for
    # h = H(x^d)) is p or more is refused
    rng = random.Random(len(h))
    m = len(h) - 1
    d = math.gcd(*(k for k, c in enumerate(h) if k and c))
    reads = []
    for p in (q for q in range(5, 600) if _is_prime(q) and h[0] % q):
        ns = {-1, 0, 1, m - 2, (p - 1) // 2, (p + 1) // 2, p - 1, rng.randrange(p)}
        reads += [(p, n) for n in sorted(ns) if -1 <= n < p]
    rng.shuffle(reads)  # the reads may come in any order
    assert any(n < 0 for p, n in reads) and any(n == p - 1 for p, n in reads)
    expected = [_kernel_window(h, p, n) for p, n in reads]
    for width in range(m + 1):
        got = ffpoly.half_power_windows(h, reads, width)
        for (p, n), window, full in zip(reads, got, expected):
            assert window == full[:width], (h, width, p, n)
    for p in (11, 13, 599):  # none divides h(0)
        for n in (d * p, d * p + 1, 2 * d * p - 1):
            with pytest.raises(ValueError, match=f"run index below p, got read \\({p}, {n}\\)"):
                ffpoly.half_power_windows(h, reads[:3] + [(p, n)], m)


@pytest.mark.parametrize("h", WINDOW_POLYS)
def test_half_power_windows_read_only_at_p_minus_one(h):
    # with every read at n = p - 1 a run of h keeps no S_n: each read takes
    # h_0^e / S_(p-1) = -h_0^e mod p (Fermat and Wilson); h = H(x^d) runs H
    # at (p - 1) // d, below p - 1, and tracks it
    reads = [(p, p - 1) for p in range(5, 600) if _is_prime(p) and h[0] % p]
    expected = [_kernel_window(h, p, n) for p, n in reads]
    for width in range(len(h)):
        got = ffpoly.half_power_windows(h, reads, width)
        assert got == [full[:width] for full in expected], (h, width)


def test_half_power_windows_read_zeros_below_the_start():
    h = (2, 3, 1)
    assert ffpoly.half_power_windows(h, [(7, -1), (7, 0), (5, -4)], 2) == [
        (0, 0), (pow(2, 3, 7), 0), (0, 0)
    ]
    assert ffpoly.half_power_windows(h, [(7, 0)], 0) == [()]
    assert ffpoly.half_power_windows(h, [], 2) == []


def test_half_power_windows_of_h_of_x_to_the_d_read_the_run_of_h():
    # h = H(x^d): a window holding no multiple of d reads zeros, and its prime
    # enters no run; the others agree with the kernel wherever the run of H
    # reads below p, that is up to n = dp - 1
    for d in (2, 3, 4):
        H = (3, -2, 5)
        h = tuple(H[i // d] if i % d == 0 else 0 for i in range(2 * d + 1))
        for width in range(len(h)):
            reads = [(p, n) for p in (11, 13, 101) for n in (-1, 0, 1, d - 1, d + 1, p - 1, p + 1,
                                                         2 * p - 2, 2 * p - 1, d * p - 1)]
            for (p, n), window in zip(reads, ffpoly.half_power_windows(h, reads, width)):
                assert window == _kernel_window(h, p, n, width), (d, width, p, n)
                if width and n >= 0 and n // d * d <= n - width:  # in the zero band
                    assert window == (0,) * width


def test_half_power_windows_refuse_bad_reads():
    for h, read in (
        ((2, 3, 1), (4, 1)),  # even
        ((10, 3, 1), (5, 1)),  # p divides h(0)
        ((2, 3, 1), (7, 7)),  # n >= p
        ((2, 3, 1), (7, 14)),
        ((2, 3, 1), (2, 1)),
        ((2, 0, 1), (4, 1)),  # even, in the zero band of h = H(x^2): refused all the same
        ((2, 0, 1), (7, 14)),  # n // 2 >= p for h = H(x^2)
        ((2, 0, 1), (7, 15)),  # the same in the zero band
    ):
        with pytest.raises(ValueError, match="odd prime p not dividing h.* run index below p"):
            ffpoly.half_power_windows(h, [(11, 3), read], 1)
    for h in ((5,), (0, 1, 1), (), (5, 0, 0)):
        with pytest.raises(ValueError, match="nonconstant"):
            ffpoly.half_power_windows(h, [(11, 3)], 1)
    for width in (-1, 3):
        with pytest.raises(ValueError, match="window width from 0 to deg h = 2"):
            ffpoly.half_power_windows((2, 3, 1), [(11, 3)], width)


def test_integer_resultant_is_the_product_over_the_roots():
    # f = lc * prod (x - r): Res(f, g) = lc^deg g * prod g(r)
    rng = random.Random(23)
    for _ in range(200):
        roots = [rng.randrange(-6, 7) for _ in range(rng.randrange(1, 6))]
        lc = rng.choice((1, -1, 2, 3, -5))
        f = [lc]
        for r in roots:  # multiply by (x - r), lowest degree first
            f = [(f[i - 1] if i else 0) - r * (f[i] if i < len(f) else 0) for i in range(len(f) + 1)]
        g = [rng.randrange(-9, 10) for _ in range(rng.randrange(0, 5))] + [rng.choice((1, -2, 3))]
        value = lc ** (len(g) - 1)
        for r in roots:
            value *= sum(c * r**i for i, c in enumerate(g))
        assert ffpoly.integer_resultant(f, g) == value, (f, g)
    assert ffpoly.integer_resultant([3, 1], [7]) == 7
    assert ffpoly.integer_resultant([0, 0, 1], [0, 2]) == 0  # x^2 and 2x share a root


def test_integer_resultant_matches_the_sylvester_determinant():
    # Res(f, f') and Res(f, g) with a content, a degree drop of 2 or more in
    # the remainder sequence, and a common factor
    rng = random.Random(400)
    for trial in range(400):
        f = [rng.randrange(-9, 10) for _ in range(rng.randrange(1, 15))] + [rng.choice((1, -2, 3, 7))]
        g = [i * c for i, c in enumerate(f)][1:]
        if trial % 4 == 1:
            g = [rng.randrange(-9, 10) for _ in range(rng.randrange(0, 15))] + [rng.choice((1, -1, 5))]
        elif trial % 4 == 2:  # 6 F(x^2) and G(x^2): every remainder drops by 2 or more
            f = [6 * f[i // 2] if i % 2 == 0 else 0 for i in range(2 * len(f) - 1)]
            g = [rng.randrange(-9, 10) if i % 2 == 0 else 0 for i in range(rng.randrange(0, 9) * 2)]
            g.append(rng.choice((1, -1, 5)))
        elif trial % 4 == 3:  # times (x + r)
            r = rng.randrange(-3, 4)
            f, g = ([r * (u[i] if i < len(u) else 0) + (u[i - 1] if i else 0) for i in range(len(u) + 1)]
                    for u in (f, g))
        assert ffpoly.integer_resultant(f, g) == bareiss_resultant(f, g), (f, g)
        assert ffpoly.integer_resultant(g, f) == bareiss_resultant(g, f), (f, g)


def test_poly_pow_matches_repeated_product():
    f = FpPolynomial(F5, [2, 3, 0, 1])
    acc = FpPolynomial(F5, [1])
    for e in range(6):
        assert f**e == acc
        acc = acc * f


def _schoolbook(p, a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return out


def test_kronecker_product_matches_schoolbook():
    rng = random.Random(7)
    for p in (5, 101, 2**61 - 1):
        field = PrimeField(p)
        for n in range(1, 13):
            for m in range(1, 13):
                a = [rng.randrange(p) for _ in range(n - 1)] + [p - 1]
                b = [rng.randrange(p) for _ in range(m - 1)] + [p - 1]
                prod = FpPolynomial(field, a) * FpPolynomial(field, b)
                assert prod == FpPolynomial(field, _schoolbook(p, a, b)), (p, n, m)
        full = [p - 1] * 12  # the fullest slots the packed width must hold
        assert (FpPolynomial(field, full) ** 2).coeffs == tuple(_schoolbook(p, full, full))
    field = PrimeField(101)
    a = [rng.randrange(101) for _ in range(90)]
    b = [rng.randrange(101) for _ in range(85)]
    assert FpPolynomial(field, a) * FpPolynomial(field, b) == FpPolynomial(
        field, _schoolbook(101, a, b)
    )


def test_poly_pow_multiplies_only_up_to_the_top_bit(monkeypatch):
    products = []
    real_mul = ffpoly._mul_coeffs

    def recording_mul(p, a, b):
        out = real_mul(p, a, b)
        products.append(len(out))
        return out

    monkeypatch.setattr(ffpoly, "_mul_coeffs", recording_mul)
    f = FpPolynomial(PrimeField(101), [3, 1, 0, 1])
    for e in (1, 2, 3, 4, 5, 8, 13, 50, 64, 99):
        products.clear()
        powered = f**e
        assert powered.degree() == 3 * e
        assert max(products) <= 3 * e + 1, e
        assert len(products) <= bin(e).count("1") + e.bit_length() - 1, e


def test_is_squarefree_small_cases():
    f = FpPolynomial(F7, [1, 0, 0, 1])  # x^3 + 1 = (x+1)(x^2-x+1)
    g = FpPolynomial(F7, [1, 1])
    assert f.is_squarefree()
    assert g.is_squarefree()
    assert not (g * g).is_squarefree()
    assert not (f * g).is_squarefree()  # (x+1)^2 (x^2-x+1)
    assert FpPolynomial(F7, [3]).is_squarefree()  # a nonzero constant
    assert not FpPolynomial.zero(F7).is_squarefree()
    assert not FpPolynomial(F7, [1] + [0] * 6 + [1]).is_squarefree()  # x^7 + 1 = (x+1)^7


def _sylvester(f: FpPolynomial, g: FpPolynomial) -> FpMatrix:
    """Sylvester matrix of f and g at their actual degrees."""
    m, n = f.degree(), g.degree()
    rows = [[0] * i + list(reversed(f.coeffs)) + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + list(reversed(g.coeffs)) + [0] * (m - 1 - i) for i in range(m)]
    return FpMatrix(f.field, rows)


def _squarefree_by_resultant(f: FpPolynomial) -> bool:
    """For deg f >= 1: f' != 0 and Res(f, f') = det Syl(f, f') != 0."""
    derivative = FpPolynomial(f.field, [i * c for i, c in enumerate(f.coeffs)][1:])
    return derivative.degree() >= 0 and matrix_rank_det(_sylvester(f, derivative))[1] != 0


def test_is_squarefree_matches_the_resultant():
    rng = random.Random(14)
    for p in (5, 7, 11, 13, 101, 2203):
        field = PrimeField(p)
        for _ in range(150):  # degree 0-12
            f = FpPolynomial(field, [rng.randrange(p) for _ in range(rng.randrange(1, 14))])
            if f.degree() >= 1:
                assert f.is_squarefree() == _squarefree_by_resultant(f), (p, f)
        for _ in range(60):  # forced square factors: never squarefree
            g = FpPolynomial(field, [rng.randrange(p) for _ in range(rng.randrange(2, 5))])
            h = FpPolynomial(field, [rng.randrange(1, p) for _ in range(rng.randrange(1, 6))])
            f = g * g * h
            if g.degree() >= 1:
                assert not f.is_squarefree(), (p, f)
                assert not _squarefree_by_resultant(f), (p, f)
        if p <= 13:  # f = g(x^p) has f' = 0
            g = FpPolynomial(field, [rng.randrange(p) for _ in range(3)] + [1])
            f = FpPolynomial(field, [g.coeff(i // p) if i % p == 0 else 0 for i in range(3 * p + 1)])
            assert f.degree() == 3 * p
            assert not f.is_squarefree() and not _squarefree_by_resultant(f)
        assert FpPolynomial(field, [rng.randrange(1, p)]).is_squarefree()
        assert not FpPolynomial.zero(field).is_squarefree()


def test_matrix_rank_det_identity_and_zero():
    assert matrix_rank_det(FpMatrix(F5, [[1, 0], [0, 1]])) == (2, 1)
    assert matrix_rank_det(FpMatrix(F5, [[0, 0], [0, 0]])) == (0, 0)
    assert rank_det_mod([[1, 0], [0, 1]], 2, 5) == (2, 1)
    assert rank_det_mod([[0, 0], [0, 0]], 2, 5) == (0, 0)


def test_matrix_rank_det_dependent_rows():
    m = FpMatrix(F5, [[1, 2], [2, 4]])
    assert matrix_rank_det(m) == (1, 0)


def test_matrix_rank_det_rectangular_and_empty():
    m = FpMatrix(F5, [[1, 2, 3], [0, 1, 4]])
    assert matrix_rank_det(m) == (2, None)
    empty = FpMatrix(F5, [])
    assert matrix_rank_det(empty) == (0, 1)


def _random_matrix(rng, nrows, ncols, k, p):
    """A random nrows x ncols matrix mod p of rank at most k, as a product of
    nrows x k and k x ncols factors."""
    left = [[rng.randrange(p) for _ in range(k)] for _ in range(nrows)]
    right = [[rng.randrange(p) for _ in range(ncols)] for _ in range(k)]
    return [[sum(row[i] * right[i][j] for i in range(k)) % p for j in range(ncols)]
            for row in left]


def _cofactor_det(rows, p):
    if not rows:
        return 1
    return sum((-1) ** j * c * _cofactor_det([row[:j] + row[j + 1 :] for row in rows[1:]], p)
               for j, c in enumerate(rows[0])) % p


def test_matrix_det_against_permanent_expansion():
    assert matrix_rank_det(FpMatrix(F5, [[0, 1], [1, 0]])) == (2, 4)  # one swap: det -1
    rng = random.Random(3)
    for n in range(5):
        for _ in range(30):
            k = n if rng.randrange(2) else rng.randrange(n + 1)  # half of full rank k = n
            rows = _random_matrix(rng, n, n, k, 5)
            rank, det = matrix_rank_det(FpMatrix(F5, rows))
            assert det == _cofactor_det(rows, 5), rows
            assert (rank == n) == (det != 0), rows


def _row_space_size(rows, ncols, p):
    span = {(0,) * ncols}
    for row in rows:
        if tuple(c % p for c in row) not in span:
            span = {tuple((x + c * r) % p for x, r in zip(v, row)) for v in span for c in range(p)}
    return len(span)


def test_matrix_rank_against_row_space_enumeration():
    rng = random.Random(11)
    for nrows in range(7):
        for ncols in range(7):
            for k in range(min(nrows, ncols) + 1):
                rows = _random_matrix(rng, nrows, ncols, k, 5)
                rank, det = rank_det_mod(rows, ncols, 5)
                assert 5**rank == _row_space_size(rows, ncols, 5), rows
                assert (det != 0) == (rank == nrows), rows
                if nrows:  # an FpMatrix without rows is 0 x 0
                    square = nrows == ncols
                    assert matrix_rank_det(FpMatrix(F5, rows)) == (rank, det if square else None)


def test_matrix_power():
    m = [[0, 3], [0, 0]]
    assert matrix_power_by_products(m, 1, 7) == m
    assert matrix_power_by_products(m, 2, 7) == [[0, 0], [0, 0]]
    assert matrix_mul_mod([[1, 2], [3, 4]], [[5, 6], [7, 8]], 7) == [[5, 1], [1, 1]]  # 19, 22; 43, 50
    m = [[1, 2, 3], [4, 5, 6], [0, 1, 2]]
    assert matrix_mul_mod(m, matrix_mul_mod(m, m, 7), 7) == matrix_power_by_products(m, 3, 7)
