"""Invariants of explicit curves over GF(p), with independent counting oracles.

Two routes to every ordinarity fact:

* the closed form: the Cartier operator matrix on regular one-forms, a few
  coefficients of f^((p-1)/2) that ``poly_pow_coeff`` computes without
  building the power (``_cartier_matrix``); E, a genus-1 double cover of the
  line, has its Hasse invariant as the 1 x 1 case;
* the oracle: exhaustive point counts over GF(p) (and GF(p^2) for genus 2,
  on integer pairs a + b*w whose squares are told by their norm to GF(p)),
  turned into the numerator of the zeta function, whose reduction mod p has
  degree equal to the p-rank; E's count is the genus-1 case.  It shares no
  code with the kernel.

A scan asks for these facts at every prime up to a bound, and
``ffpoly.half_power_windows`` answers each of them for all primes from one run
modulo the product of the primes still to be read, every read below p.
``ordinary_primes`` reads E's Hasse invariant from one run.
``hyperelliptic_p_ranks`` reads the Cartier-Manin rows 1 and g from one run of
h = f/x^v and one of rev(h), and the middle rows from the same two runs where
h = H(x^s) with 2s >= g, else from one run of each of g - 2 translates
f(x + c) (``_cartier_rows``); finitely many primes take the matrix from
``_cartier_matrix`` alone, and squarefreeness comes from Res(f, f').  Both
p-rank routes take rank(M^g) from one helper: det M, and only where it is 0
the rank of M squared ceil(log2 g) times.  A run takes O(p_max) steps, each
about deg h products of a small integer by a number of about 1.44 p_max bits
(the product of the primes still to be read), so a scan costs about
deg f * p_max^2 bit operations per run: one run for E, and at most g for D'.
README.md gives measured times.

The oracles enumerate and therefore refuse a prime beyond ``COUNT_MAX_P`` of
its genus, and any genus beyond 2.  The closed forms and the command line
refuse an f of degree beyond ``BRANCH_MAX_DEGREE`` by the one
``check_branch_degree``; the closed forms also refuse coefficients whose
recurrence takes more than ``RECURRENCE_MAX_WORK`` steps times p-adic digits,
and ``check_closed_form_bound`` bounds the degree of a full power f^((p-1)/2)
by ``CLOSED_FORM_MAX_DEGREE`` for the one caller that builds it.
Exceeding a bound raises ``OracleBoundError`` rather than silently truncating.
"""

from __future__ import annotations

import math
from operator import index, mul

from .ffpoly import (
    FpMatrix,
    FpPolynomial,
    Frozen,
    PrimeField,
    half_power_windows,
    integer_resultant,
    matrix_mul_mod,
    poly_pow_coeff,
    rank_det_mod,
    recurrence_work_mod,
)

COUNT_MAX_P = {1: 10_000, 2: 101}  # largest p whose points each genus enumerates
CLOSED_FORM_MAX_DEGREE = 150_000  # largest deg f^((p-1)/2) built as a whole power
BRANCH_MAX_DEGREE = 100  # largest deg f the closed forms take: the Cartier route costs about g^3
RECURRENCE_MAX_WORK = 1_000_000  # largest steps x p-adic digits of a coefficient recurrence


class OracleBoundError(Exception):
    """An oracle or a closed form was asked to run outside its safe input bounds."""


class EllipticCurveW(Frozen):
    """Short Weierstrass curve y^2 = x^3 + a*x + b over GF(p), p > 3."""

    _fields = ("field", "a", "b")

    def __init__(self, field: PrimeField, a: int, b: int):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "a", index(a) % field.p)
        object.__setattr__(self, "b", index(b) % field.p)
        if self.discriminant_factor() == 0:
            raise ValueError(
                f"singular model: 4a^3 + 27b^2 = 0 mod {field.p} for a={self.a}, b={self.b}"
            )

    def discriminant_factor(self) -> int:
        return (4 * self.a**3 + 27 * self.b**2) % self.field.p

    def rhs_poly(self) -> FpPolynomial:
        return FpPolynomial(self.field, [self.b, self.a, 0, 1])


class HyperellipticModel(Frozen):
    """Smooth double cover y^2 = f(x) with f squarefree of degree >= 3."""

    _fields = ("f",)

    def __init__(self, f: FpPolynomial):
        object.__setattr__(self, "f", f)
        if self.f.degree() < 3:
            raise ValueError(f"deg f = {self.f.degree()} < 3")
        if not self.f.is_squarefree():
            raise ValueError("f is not squarefree: gcd(f, f') is non-constant")

    @property
    def field(self) -> PrimeField:
        return self.f.field

    @property
    def genus(self) -> int:
        return (self.f.degree() - 1) // 2


def j_invariant_and_aut(curve: EllipticCurveW) -> tuple[int, int]:
    """j-invariant and the order of the automorphism group fixing the origin.

    j = 1728 * 4a^3 / (4a^3 + 27b^2); the group is Z/6 at j = 0, Z/4 at
    j = 1728 and Z/2 otherwise (char > 3, so 0 and 1728 are distinct).
    """
    p = curve.field.p
    j = 1728 * 4 * curve.a**3 * pow(curve.discriminant_factor(), -1, p) % p
    if j == 0:
        return j, 6
    if j == 1728 % p:
        return j, 4
    return j, 2


def check_branch_degree(degree: int) -> None:
    """Refuse (OracleBoundError) a branch of degree beyond BRANCH_MAX_DEGREE."""
    if degree > BRANCH_MAX_DEGREE:
        raise OracleBoundError(f"branch refused: degree {degree} exceeds bound {BRANCH_MAX_DEGREE}")


def check_closed_form_bound(f: FpPolynomial) -> None:
    """Refuse (OracleBoundError) an f beyond BRANCH_MAX_DEGREE or a whole power
    f^((p-1)/2) beyond CLOSED_FORM_MAX_DEGREE."""
    check_branch_degree(f.degree())
    degree = f.degree() * (f.field.p - 1) // 2
    if degree > CLOSED_FORM_MAX_DEGREE:
        raise OracleBoundError(
            f"closed form refused: f^((p-1)/2) has degree {degree}, "
            f"exceeding bound {CLOSED_FORM_MAX_DEGREE}"
        )


def check_recurrence_bound(f: FpPolynomial, e: int, ks) -> None:
    """Refuse (OracleBoundError) an f beyond BRANCH_MAX_DEGREE, or coefficients
    ks of f^e whose recurrence takes more than RECURRENCE_MAX_WORK steps
    times p-adic digits; for the Hasse invariant that is p > 2 * 10^6 + 1."""
    check_branch_degree(f.degree())
    _check_work(recurrence_work_mod(f.coeffs, f.field.p, e, ks))


def _check_work(work: int) -> None:
    if work > RECURRENCE_MAX_WORK:
        raise OracleBoundError(
            f"closed form refused: the recurrence takes {work} steps x p-adic digits, "
            f"exceeding bound {RECURRENCE_MAX_WORK}"
        )


def _cartier_matrix(f: FpPolynomial) -> list[list[int]]:
    """The g x g Cartier-Manin matrix of y^2 = f(x) as rows: with f^((p-1)/2)
    = sum c_k x^k, the (i, j) entry is c_(p*i - j) for 1 <= i, j <= g, under
    ``check_recurrence_bound``."""
    p, g = f.field.p, (f.degree() - 1) // 2
    e, ks = (p - 1) // 2, [p * i - j for i in range(1, g + 1) for j in range(1, g + 1)]
    check_recurrence_bound(f, e, ks)
    entries = poly_pow_coeff(f, e, ks)
    return [list(entries[k : k + g]) for k in range(0, g * g, g)]


def hasse_invariant(curve: EllipticCurveW) -> int:
    """Coefficient of x^(p-1) in (x^3 + ax + b)^((p-1)/2), the 1 x 1
    Cartier-Manin matrix of E; zero iff supersingular."""
    return _cartier_matrix(curve.rhs_poly())[0][0]


def ordinary_primes(a: int, b: int, primes) -> list[bool]:
    """Whether y^2 = x^3 + ax + b, for integers a and b, is ordinary mod each of
    the increasing primes p > 3 of good reduction, all from one run of
    ``half_power_windows``.

    With m = (p-1)/2 and r = 1 + ax^2 + bx^3 the reversal of x^3 + ax + b,
    the Hasse invariant c_(p-1)((x^3+ax+b)^m) is c_m(r^m), and r(0) = 1, so
    every prime reads the window of r^m at n = m.  A prime dividing
    4a^3 + 27b^2 (so every prime of a singular model) or out of order raises
    ValueError.
    """
    reads, before, discriminant = [], 3, 4 * index(a) ** 3 + 27 * index(b) ** 2
    for p in primes:
        if p <= before or discriminant % p == 0:
            raise ValueError(
                f"need increasing primes > 3 of good reduction, got {p} after {before}"
            )
        reads.append((p, (p - 1) // 2))
        before = p
    windows = half_power_windows((1, 0, a, b), reads, 1)
    return [window[0] != 0 for window in windows]


def hyperelliptic_p_ranks(f, primes) -> list[int | None]:
    """The p-rank of y^2 = f(x) at each of the increasing primes p > 3, or
    None where f mod p is not squarefree.  No model is built, and a field
    only at a prime that reads its matrix alone (see ``_cartier_rows``).

    f is an integer polynomial, lowest degree first, of degree 1 to
    BRANCH_MAX_DEGREE, and no prime may divide its leading coefficient.
    Squarefreeness comes from Res(f, f'): for p not dividing lc(f), f mod p
    is squarefree iff p does not divide it.  First every prime where f is
    squarefree is held to RECURRENCE_MAX_WORK for the Cartier-Manin entries
    ``cartier_manin`` reads, in order, so a scan beyond the bound is refused
    before any run (an over-bound prime asks Euclid on f mod p alone, as the
    resultant of a large f over all the primes can take minutes).  The
    entries then come from ``_cartier_rows``, and each rank from
    ``_cartier_p_rank``.
    """
    f = tuple(f)
    degree = len(f) - 1
    check_branch_degree(degree)
    primes = list(primes)
    for before, p in zip([3] + primes, primes):
        if p <= before or f[-1] % p == 0:
            raise ValueError(
                f"need increasing primes > 3 not dividing lc(f), got {p} after {before}"
            )
    g = (degree - 1) // 2
    for p in primes if g else ():  # genus 0 reads no entry
        e = (p - 1) // 2
        # at most deg f^e steps, each of at most this many p-adic digits
        if degree * e * (1 + degree * e // (p - 1)) > RECURRENCE_MAX_WORK:
            ks = [p * i - j for i in range(1, g + 1) for j in range(1, g + 1)]
            work = recurrence_work_mod(tuple(c % p for c in f), p, e, ks)
            if work > RECURRENCE_MAX_WORK and FpPolynomial(PrimeField(p), f).is_squarefree():
                _check_work(work)
    discriminant = _discriminant(f, primes)
    good = [p for p in primes if discriminant % p]
    ranks = dict.fromkeys(good, 0)
    if g:
        for p, rows in zip(good, _cartier_rows(f, good)):
            ranks[p] = _cartier_p_rank(rows, p)
    return [ranks.get(p) for p in primes]


def _discriminant(f: tuple[int, ...], primes) -> int:
    """Res(f, f') mod each of the primes, up to a unit power of lc(f), from f
    reduced mod their product, which keeps its entries near the product's
    size (f' loses its top where all the primes divide deg f); 0 without primes."""
    product = math.prod(primes)
    reduced = [(c + product // 2) % product - product // 2 for c in f]
    derivative = [i * c for i, c in enumerate(reduced)][1:]
    return integer_resultant(reduced, derivative) if primes and derivative else 0


def _cartier_p_rank(rows, p: int) -> int:
    """rank(M^g) mod p for the g x g Cartier-Manin matrix M given as rows: g
    exactly where det M is a unit, and otherwise the rank of M squared until
    its power reaches g, as rank(M^k) no longer changes from k = g on
    (Fitting's lemma)."""
    g = len(rows)
    if rank_det_mod(rows, g, p)[1]:
        return g
    for _ in range((g - 1).bit_length()):  # the least 2^s >= g
        rows = matrix_mul_mod(rows, rows, p)
    return rank_det_mod(rows, g, p)[0]


def _cartier_rows(f: tuple[int, ...], primes) -> list[list[list[int]]]:
    """The Cartier-Manin matrix of y^2 = f(x) mod each prime, as rows.

    With f = x^v h, d = deg f and e = (p-1)/2, row i holds c_(pi-j)(f^e) for
    j = 1..g: the window of h^e at n = pi - 1 - ve, or the reversed window of
    rev(h)^e at n = de - pi + g, readable where the run index (n, or n // s
    for h = H(x^s)) is below p.  At every p >= 5 and v <= 1 (README.md) the
    low end is readable iff i <= s and p does not divide h(0), the top end iff
    i > g - s, and where both are, the low end is the nearer iff 4i <= d + v;
    so each prime's plan follows from s, g and whether p divides h(0).

    Where 2s < g the middle rows come from translates: by Lucas' theorem and
    Fermat (README.md), row 1 of the matrix of f(x + c) has the Pascal
    transform sum_(j'<=j) C(j-1, j'-1) c^(j-j') c_(p-j')(f(x + c)^e) =
    sum_i c^(i-1) M_ij, and its values at the first g - 2 positive c with
    f(c) != 0 give the middle rows by Lagrange interpolation; each translate
    is read at n = p - 1.  A prime that divides h(0) while s < g takes the
    whole matrix from ``_cartier_matrix`` alone, and so, where 2s < g, does one
    that divides some f(c) or does not exceed the largest c.  The rest share
    one ``half_power_windows`` run per end of h and per translate.
    """
    d = len(f) - 1
    g = (d - 1) // 2
    v = next(i for i, c in enumerate(f) if c)
    h = f[v:]
    step = math.gcd(*(k for k, c in enumerate(h) if k and c))  # h = H(x^step) runs as H
    # (row, run) of each read at an end of h where p does not divide h(0): every row
    # where 2 step >= g, else rows 1 and g beside the translates
    ends = [(i, int(i > step or i > g - step and 4 * i > d + v)) for i in range(1, g + 1)]
    polys, shifts = [h, h[::-1]], []
    if 2 * step < g:
        ends = [(1, 0), (g, 1)]
        # the first g - 2 c > 0 with f(c) != 0 (f has at most d roots), and the runs f(x + c)
        nonroots = (c for c in range(1, d + g) if sum(a * c**n for n, a in enumerate(f)))
        shifts = [c for _, c in zip(range(g - 2), nonroots)]
        polys += [[sum(a * math.comb(n, k) * c ** (n - k) for n, a in enumerate(f[k:], k))
                   for k in range(d + 1)] for c in shifts]
    reads = [[] for _ in polys]  # per run: (p, n, matrix, row)
    matrices = [[None] * g for _ in primes]
    for at, p in enumerate(primes):
        e = (p - 1) // 2
        if h[0] % p == 0:  # no low read: every row at the top where step >= g
            rows, fallback = [(i, 1) for i in range(1, g + 1)], step < g
        else:
            rows = ends
            fallback = shifts and (p <= shifts[-1] or any(q[0] % p == 0 for q in polys[2:]))
        if fallback:
            matrices[at] = _cartier_matrix(FpPolynomial(PrimeField(p), f))
            continue
        for run in range(2, len(polys)):
            reads[run].append((p, p - 1, at, None))
        for i, run in rows:
            reads[run].append((p, d * e - p * i + g if run else p * i - 1 - v * e, at, i))
    firsts = {}  # matrix: row 1 of each translate
    for run, poly in enumerate(polys):
        windows = half_power_windows(poly, [read[:2] for read in reads[run]], g)
        for (_, _, at, i), window in zip(reads[run], windows):
            if i is None:
                firsts.setdefault(at, []).append(window)
            else:
                matrices[at][i - 1] = list(window[::-1] if run else window)
    # M_ij, 1 < i < g, is the sum over c of (sum_k c^(k-1) M_kj - M_1j - c^(g-1) M_gj)
    # times [x^(i-2)] prod_(b != c)(x - b) / (c prod_(b != c)(c - b))
    numerators, scales = [], []
    for c in shifts:
        numerator = [1]
        for b in set(shifts) - {c}:
            numerator = [y - b * x for x, y in zip(numerator + [0], [0] + numerator)]
        numerators.append(numerator)
        pascal = [[math.comb(j, k) * c ** (j - k) for k in range(j + 1)] for j in range(g)]
        scales.append((pascal, c ** (g - 1), c * math.prod(c - b for b in shifts if b != c)))
    for at, rows in firsts.items():
        p, m = primes[at], matrices[at]
        values = []
        for (pascal, power, denominator), row in zip(scales, rows):
            scale = pow(denominator, -1, p)
            values.append([(sum(map(mul, weights, row)) - a - power * b) * scale % p
                           for weights, a, b in zip(pascal, m[0], m[-1])])
        m[1:-1] = matrix_mul_mod(list(zip(*numerators)), values, p)
    return matrices


def point_count_oracle(curve: EllipticCurveW) -> tuple[int, int]:
    """(#points over GF(p) including infinity, trace a_p) by full enumeration:
    the genus-1 case of ``_point_count``."""
    count = _point_count(curve.rhs_poly())
    return count, curve.field.p + 1 - count


def cartier_manin(model: HyperellipticModel) -> FpMatrix:
    """The g x g matrix of the Cartier operator for y^2 = f(x).

    The rows of ``_cartier_matrix``; for genus 1 the single entry is the
    Hasse invariant of the corresponding elliptic model.
    """
    return FpMatrix(model.field, _cartier_matrix(model.f))


def p_rank_hyperelliptic(model: HyperellipticModel) -> int:
    """p-rank of the Jacobian over the prime field: rank of M^g for the Cartier
    matrix M, by ``_cartier_p_rank``."""
    return _cartier_p_rank(cartier_manin(model).entries, model.field.p)


def _point_count(f: FpPolynomial) -> int:
    """Points of the smooth model of y^2 = f(x) over GF(p), by Euler's
    criterion at each x, plus one point at infinity for odd deg f, else two or
    none as lc(f) is a square or not.  Refused beyond the genus's COUNT_MAX_P."""
    field, g = f.field, (f.degree() - 1) // 2
    if field.p > COUNT_MAX_P.get(g, 0):
        raise OracleBoundError(f"point count refused: genus {g}, p={field.p} beyond {COUNT_MAX_P}")
    count = 1 if f.degree() % 2 else 2 * field.is_square(f.coeffs[-1])
    for x in range(field.p):
        v = f.evaluate(x)
        if v == 0:
            count += 1
        elif field.is_square(v):
            count += 2
    return count


def _count_over_ext(model: HyperellipticModel) -> int:
    """Points of the smooth model over GF(p^2), infinity included.

    GF(p^2) is GF(p)[w]/(w^2 - n) for the smallest non-residue n, and f is
    evaluated by Horner's rule at each x = a + b*w, as the pair (u, v) of
    f(x) = u + v*w.  A nonzero f(x) is a square in GF(p^2) exactly when its
    norm u^2 - n*v^2 is a square in GF(p), since x^((p^2-1)/2) =
    N(x)^((p-1)/2); the norm vanishes only at f(x) = 0.
    """
    field = model.field
    p, n = field.p, field.smallest_non_residue()
    coeffs = model.f.coeffs[::-1]
    # infinity: one point for odd degree, else two, as every element of
    # GF(p)* (the leading coefficient among them) is a square in GF(p^2)
    count = 1 if model.f.degree() % 2 else 2
    for a in range(p):
        for b in range(p):
            u = v = 0
            for c in coeffs:
                u, v = (u * a + n * v * b + c) % p, (u * b + v * a) % p
            norm = (u * u - n * v * v) % p
            if not norm:
                count += 1
            elif field.is_square(norm):
                count += 2
    return count


def zeta_prank_oracle(model: HyperellipticModel) -> int:
    """p-rank from point counts: the degree of the zeta numerator mod p.

    Writes L(T) = prod (1 - alpha_i T) over the 2g Weil numbers.  The
    functional equation kills the coefficients above T^g modulo p, and each
    unit root contributes one unit coefficient, so deg(L mod p) counts the
    slope-zero part, which is the p-rank.
    """
    p = model.field.p
    s1 = p + 1 - _point_count(model.f)  # sum of the Weil numbers
    if model.genus == 1:
        return 0 if s1 % p == 0 else 1
    n2 = _count_over_ext(model)
    s2 = p * p + 1 - n2  # sum of their squares
    # Newton's identities: e1 = s1, e2 = (s1^2 - s2)/2
    assert (s1 * s1 - s2) % 2 == 0
    e2 = (s1 * s1 - s2) // 2
    # L(T) = 1 - e1 T + e2 T^2 - p e1 T^3 + p^2 T^4; mod p only 1 - e1 T + e2 T^2 survives
    if e2 % p != 0:
        return 2
    if s1 % p != 0:
        return 1
    return 0
