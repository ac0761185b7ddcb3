"""Invariants of explicit curves over GF(p), with independent counting oracles.

Two routes to every ordinarity fact:

* the closed form: Hasse invariant (elliptic) and the Cartier operator matrix
  on regular one-forms (hyperelliptic), both a few coefficients of
  f^((p-1)/2) that ``poly_pow_coeff`` computes without building the power;
* the oracle: exhaustive point counts over GF(p) (and GF(p^2) for genus 2),
  turned into the numerator of the zeta function, whose reduction mod p has
  degree equal to the p-rank.

A scan asks for the Hasse invariant of one integral model at every prime up
to a bound.  ``ordinary_primes`` answers all of them from one accumulating
remainder tree (Harvey, Ann. Math. 2014; Harvey-Sutherland, ANTS 2014): a
product tree of 3x3 integer matrices goes up, one vector per node comes
down, and no prime runs a recurrence of its own.  The matrices' entries stay
below the product L of the primes, about 1.44 p_max bits, so the tree costs
a few dozen products of numbers of at most that size per prime: about
40 ms to p_max = 10^4 for coefficients of a few digits, and about 8 s for
coefficients of 13000 bits, which are reduced modulo L.  The scan's
own bound on p_max bounds it.

The oracles enumerate and therefore carry hard input bounds.  The closed
forms refuse an f of degree beyond ``BRANCH_MAX_DEGREE`` and coefficients
whose recurrence takes more than ``RECURRENCE_MAX_WORK`` steps times p-adic
digits; ``check_closed_form_bound`` bounds the degree of a full power
f^((p-1)/2) by ``CLOSED_FORM_MAX_DEGREE`` for the one caller that builds it.
Exceeding a bound raises ``OracleBoundError`` rather than silently truncating.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .ffpoly import (
    ExtField,
    FpMatrix,
    FpPolynomial,
    PrimeField,
    matrix_rank_det,
    poly_pow_coeff,
    recurrence_work,
)

POINT_COUNT_MAX_P = 10_000
ZETA_MAX_P = 13
ZETA_MAX_GENUS = 2
CLOSED_FORM_MAX_DEGREE = 150_000  # largest deg f^((p-1)/2) built as a whole power
BRANCH_MAX_DEGREE = 100  # largest deg f the closed forms take: the Cartier route costs about g^3
RECURRENCE_MAX_WORK = 1_000_000  # largest steps x p-adic digits of a coefficient recurrence


class OracleBoundError(Exception):
    """An oracle or a closed form was asked to run outside its safe input bounds."""


@dataclass(frozen=True)
class EllipticCurveW:
    """Short Weierstrass curve y^2 = x^3 + a*x + b over GF(p), p > 3."""

    field: PrimeField
    a: int
    b: int

    def __init__(self, field: PrimeField, a: int, b: int):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "a", a % field.p)
        object.__setattr__(self, "b", b % field.p)
        if self.discriminant_factor() == 0:
            raise ValueError(
                f"singular model: 4a^3 + 27b^2 = 0 mod {field.p} for a={self.a}, b={self.b}"
            )

    def discriminant_factor(self) -> int:
        f = self.field
        return f.add(f.mul(4, f.pow_(self.a, 3)), f.mul(27, f.mul(self.b, self.b)))

    def rhs_poly(self) -> FpPolynomial:
        return FpPolynomial(self.field, [self.b, self.a, 0, 1])


@dataclass(frozen=True)
class EllipticCurveQ:
    """Integral model y^2 = x^3 + a*x + b, reduced prime by prime in scans."""

    a: int
    b: int
    discriminant: int = dataclasses.field(init=False, compare=False, repr=False)  # 4a^3 + 27b^2

    def __post_init__(self):
        object.__setattr__(self, "discriminant", 4 * self.a**3 + 27 * self.b**2)
        if self.discriminant == 0:
            raise ValueError("singular integral model: 4a^3 + 27b^2 = 0")

    def has_good_reduction(self, p: int) -> bool:
        return p > 3 and self.discriminant % p != 0

    def reduce(self, field: PrimeField) -> EllipticCurveW:
        if not self.has_good_reduction(field.p):
            raise ValueError(f"bad reduction at p={field.p}")
        return EllipticCurveW(field, self.a % field.p, self.b % field.p)


@dataclass(frozen=True)
class HyperellipticModel:
    """Smooth double cover y^2 = f(x) with f squarefree of degree >= 3."""

    f: FpPolynomial

    def __post_init__(self):
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
    f = curve.field
    num = f.mul(f.reduce(1728), f.mul(4, f.pow_(curve.a, 3)))
    j = f.div(num, curve.discriminant_factor())
    if j == 0:
        return j, 6
    if j == f.reduce(1728):
        return j, 4
    return j, 2


def _check_branch_degree(f: FpPolynomial) -> None:
    if f.degree() > BRANCH_MAX_DEGREE:
        raise OracleBoundError(
            f"closed form refused: f has degree {f.degree()}, exceeding bound {BRANCH_MAX_DEGREE}"
        )


def check_closed_form_bound(f: FpPolynomial) -> None:
    """Refuse (OracleBoundError) an f beyond BRANCH_MAX_DEGREE or a whole power
    f^((p-1)/2) beyond CLOSED_FORM_MAX_DEGREE."""
    _check_branch_degree(f)
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
    _check_branch_degree(f)
    work = recurrence_work(f, e, ks)
    if work > RECURRENCE_MAX_WORK:
        raise OracleBoundError(
            f"closed form refused: the recurrence takes {work} steps x p-adic digits, "
            f"exceeding bound {RECURRENCE_MAX_WORK}"
        )


def hasse_invariant(curve: EllipticCurveW) -> int:
    """Coefficient of x^(p-1) in (x^3 + ax + b)^((p-1)/2); zero iff supersingular."""
    p = curve.field.p
    f = curve.rhs_poly()
    e, ks = (p - 1) // 2, (p - 1,)
    check_recurrence_bound(f, e, ks)
    return poly_pow_coeff(f, e, ks)[0]


def _companion_run(a4: int, b4: int, lo: int, hi: int) -> tuple[int, ...]:
    """M(hi) ... M(lo + 1) of ``ordinary_primes``, row-major; a4 = -4a, b4 = -4b.

    M(n) shifts the rows down and writes x_n row_1 + y_n row_2 on top.
    """
    r0, r1, r2 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    for n in range(lo + 1, hi + 1):
        x = a4 * (n - 1) ** 2
        y = b4 * (n - 1) * (n - 2) * (2 * n - 3)
        r0, r1, r2 = (x * r1[0] + y * r2[0], x * r1[1] + y * r2[1], x * r1[2] + y * r2[2]), r0, r1
    return r0 + r1 + r2


def _mat_mul(s: tuple[int, ...], t: tuple[int, ...]) -> tuple[int, ...]:
    """The product s t of row-major 3x3 integer matrices."""
    s0, s1, s2, s3, s4, s5, s6, s7, s8 = s
    t0, t1, t2, t3, t4, t5, t6, t7, t8 = t
    return (
        s0 * t0 + s1 * t3 + s2 * t6, s0 * t1 + s1 * t4 + s2 * t7, s0 * t2 + s1 * t5 + s2 * t8,
        s3 * t0 + s4 * t3 + s5 * t6, s3 * t1 + s4 * t4 + s5 * t7, s3 * t2 + s4 * t5 + s5 * t8,
        s6 * t0 + s7 * t3 + s8 * t6, s6 * t1 + s7 * t4 + s8 * t7, s6 * t2 + s7 * t5 + s8 * t8,
    )


def _shrink(m: tuple[int, ...], modulus: int) -> tuple[int, ...]:
    """m modulo modulus once an entry has outgrown it, else m itself."""
    if max(abs(c) for c in m).bit_length() > modulus.bit_length():
        return tuple(c % modulus for c in m)
    return m


def ordinary_primes(curve: EllipticCurveQ, primes) -> list[bool]:
    """Whether E mod p is ordinary, for each of the increasing primes p > 3 of
    good reduction, all from one accumulating remainder tree.

    With m = (p-1)/2 and r = 1 + ax^2 + bx^3 the reversal of x^3 + ax + b,
    the Hasse invariant c_(p-1)((x^3+ax+b)^m) is c_m(r^m), and r(0) = 1.
    Since m = -1/2 mod p, g = r^m obeys 2n g_n = (2-2n) a g_(n-2) +
    (3-2n) b g_(n-3) mod p for n < p, the same recurrence for every p.  With
    D_n = 2^n n!, the vectors w_n = (D_n g_n, D_(n-1) g_(n-1), D_(n-2) g_(n-2))
    step by the integer companion matrices M(n) = [[0, x_n, y_n], [1, 0, 0],
    [0, 1, 0]], x_n = -4(n-1)^2 a, y_n = -4(n-1)(n-2)(2n-3) b, from
    w_0 = (1, 0, 0).  D_m is a unit mod p, so p is ordinary iff
    [M(m) ... M(1) w_0]_0 is nonzero mod p: no prime needs a division, and
    p | b or b = 0 takes no route of its own.

    Leaf i is the product of the M(n) between the stops m of primes i - 1 and
    i.  The product tree over the leaves goes up; the vectors come down it,
    each reduced modulo the product of the primes under its node, and leaf i
    reads its prime's entry.  a and b enter as least-absolute residues mod the
    product L of the primes, and a node is reduced modulo the product of the
    primes that still read it once an entry outgrows that.  A prime of bad
    reduction or out of order raises ValueError.
    """
    primes = list(primes)
    for before, p in zip([3] + primes, primes):
        if p <= before or curve.discriminant % p == 0:
            raise ValueError(
                f"need increasing primes > 3 of good reduction, got {p} after {before}"
            )
    k = len(primes)
    if not k:
        return []
    suffix = [1] * (k + 1)  # suffix[i]: the product of primes[i:], the primes that read leaf i
    for i in range(k - 1, -1, -1):
        suffix[i] = primes[i] * suffix[i + 1]
    half = suffix[0] // 2
    a4, b4 = (-4 * ((c + half) % suffix[0] - half) for c in (curve.a, curve.b))
    stops = [0] + [(p - 1) // 2 for p in primes]
    # node i of level j covers leaves [i 2^j, (i+1) 2^j) and reads the product of their primes
    levels = [
        [_shrink(_companion_run(a4, b4, stops[i], stops[i + 1]), suffix[i]) for i in range(k)]
    ]
    moduli = [primes]
    while len(levels[-1]) > 1:
        below, below_moduli = levels[-1], moduli[-1]
        width = 2 ** len(levels)
        level, level_moduli = [], []
        for i in range(0, len(below) - 1, 2):
            end = (i // 2 + 1) * width
            if end >= k:  # no prime after the node: nothing reads its product
                level.append(None)
            else:  # the primes from leaf `end` on read it whole
                level.append(_shrink(_mat_mul(below[i + 1], below[i]), suffix[end]))
            level_moduli.append(below_moduli[i] * below_moduli[i + 1])
        if len(below) % 2:
            level.append(below[-1])
            level_moduli.append(below_moduli[-1])
        levels.append(level)
        moduli.append(level_moduli)
    vectors = [(1, 0, 0)]
    for level, level_moduli in zip(levels[-2::-1], moduli[-2::-1]):
        below = []
        for i, (v0, v1, v2) in enumerate(vectors):
            q = level_moduli[2 * i]
            below.append((v0 % q, v1 % q, v2 % q))
            if 2 * i + 1 < len(level):
                s, q = level[2 * i], level_moduli[2 * i + 1]
                below.append(
                    (
                        (s[0] * v0 + s[1] * v1 + s[2] * v2) % q,
                        (s[3] * v0 + s[4] * v1 + s[5] * v2) % q,
                        (s[6] * v0 + s[7] * v1 + s[8] * v2) % q,
                    )
                )
        vectors = below
    return [
        (s[0] * v0 + s[1] * v1 + s[2] * v2) % p != 0
        for s, (v0, v1, v2), p in zip(levels[0], vectors, primes)
    ]


def point_count_oracle(curve: EllipticCurveW) -> tuple[int, int]:
    """(#points over GF(p) including infinity, trace a_p) by full enumeration."""
    p = curve.field.p
    if p > POINT_COUNT_MAX_P:
        raise OracleBoundError(
            f"point enumeration refused: p={p} exceeds bound {POINT_COUNT_MAX_P}"
        )
    count = 1 + _affine_count_prime(curve.rhs_poly())  # the point at infinity
    return count, p + 1 - count


def cartier_manin(model: HyperellipticModel) -> FpMatrix:
    """The g x g matrix of the Cartier operator for y^2 = f(x).

    With f^((p-1)/2) = sum c_k x^k, the (i, j) entry is c_(p*i - j) for
    1 <= i, j <= g.  For genus 1 the single entry is the Hasse invariant of
    the corresponding elliptic model.
    """
    g = model.genus
    p = model.field.p
    e, ks = (p - 1) // 2, [p * i - j for i in range(1, g + 1) for j in range(1, g + 1)]
    check_recurrence_bound(model.f, e, ks)
    coeffs = poly_pow_coeff(model.f, e, ks)
    return FpMatrix(model.field, [coeffs[row : row + g] for row in range(0, g * g, g)])


def p_rank_hyperelliptic(model: HyperellipticModel) -> int:
    """p-rank of the Jacobian over the prime field: rank of M^g for the Cartier matrix M."""
    g = model.genus
    m = cartier_manin(model)
    rank, _ = matrix_rank_det(m**g)
    return rank


def _affine_count_prime(f: FpPolynomial) -> int:
    """Affine points of y^2 = f(x) over GF(p), by Euler's criterion at each x."""
    field = f.field
    count = 0
    for x in range(field.p):
        v = f.evaluate(x)
        if v == 0:
            count += 1
        elif field.is_square(v):
            count += 2
    return count


def _points_at_infinity_prime(model: HyperellipticModel) -> int:
    if model.f.degree() % 2 == 1:
        return 1
    return 2 if model.field.is_square(model.f.leading_coeff()) else 0


def _count_over_ext(model: HyperellipticModel) -> int:
    """Points of the smooth model over GF(p^2), infinity included."""
    ext = ExtField(model.field)
    coeffs = [ext.embed(c) for c in model.f.coeffs]
    count = 0
    for x in ext.elements():
        acc = ext.zero()
        for c in reversed(coeffs):
            acc = ext.add(ext.mul(acc, x), c)
        if acc == ext.zero():
            count += 1
        elif ext.is_square(acc):
            count += 2
    if model.f.degree() % 2 == 1:
        count += 1
    else:
        # every element of GF(p)* is a square in GF(p^2), but test honestly
        count += 2 if ext.is_square(ext.embed(model.f.leading_coeff())) else 0
    return count


def zeta_prank_oracle(model: HyperellipticModel) -> int:
    """p-rank from point counts: the degree of the zeta numerator mod p.

    Writes L(T) = prod (1 - alpha_i T) over the 2g Weil numbers.  The
    functional equation kills the coefficients above T^g modulo p, and each
    unit root contributes one unit coefficient, so deg(L mod p) counts the
    slope-zero part, which is the p-rank.
    """
    g = model.genus
    p = model.field.p
    if g > ZETA_MAX_GENUS:
        raise OracleBoundError(f"zeta oracle refused: genus {g} exceeds bound {ZETA_MAX_GENUS}")
    if p > ZETA_MAX_P:
        raise OracleBoundError(f"zeta oracle refused: p={p} exceeds bound {ZETA_MAX_P}")
    n1 = _affine_count_prime(model.f) + _points_at_infinity_prime(model)
    s1 = p + 1 - n1  # sum of the Weil numbers
    if g == 1:
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
