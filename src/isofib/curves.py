"""Invariants of explicit curves over GF(p), with independent counting oracles.

Two routes to every ordinarity fact:

* the closed form: Hasse invariant (elliptic) and the Cartier operator matrix
  on regular one-forms (hyperelliptic), both a few coefficients of
  f^((p-1)/2) that ``poly_pow_coeff`` computes without building the power;
* the oracle: exhaustive point counts over GF(p) (and GF(p^2) for genus 2),
  turned into the numerator of the zeta function, whose reduction mod p has
  degree equal to the p-rank.

The oracles enumerate and therefore carry hard input bounds; the closed forms
refuse an f of degree beyond ``BRANCH_MAX_DEGREE`` and a power f^((p-1)/2) of
degree beyond ``CLOSED_FORM_MAX_DEGREE``.
Exceeding a bound raises ``OracleBoundError`` rather than silently truncating.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ffpoly import (
    ExtField,
    FpMatrix,
    FpPolynomial,
    PrimeField,
    matrix_rank_det,
    poly_pow_coeff,
)

POINT_COUNT_MAX_P = 10_000
ZETA_MAX_P = 13
ZETA_MAX_GENUS = 2
CLOSED_FORM_MAX_DEGREE = 150_000  # largest deg f^((p-1)/2) the closed forms take
BRANCH_MAX_DEGREE = 100  # largest deg f they take: the Cartier route costs about g^3


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

    def __post_init__(self):
        if 4 * self.a**3 + 27 * self.b**2 == 0:
            raise ValueError("singular integral model: 4a^3 + 27b^2 = 0")

    def has_good_reduction(self, p: int) -> bool:
        return p > 3 and (4 * self.a**3 + 27 * self.b**2) % p != 0

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


def check_closed_form_bound(f: FpPolynomial) -> None:
    """Refuse (OracleBoundError) an f beyond BRANCH_MAX_DEGREE or a power
    f^((p-1)/2) beyond CLOSED_FORM_MAX_DEGREE."""
    if f.degree() > BRANCH_MAX_DEGREE:
        raise OracleBoundError(
            f"closed form refused: f has degree {f.degree()}, exceeding bound {BRANCH_MAX_DEGREE}"
        )
    degree = f.degree() * (f.field.p - 1) // 2
    if degree > CLOSED_FORM_MAX_DEGREE:
        raise OracleBoundError(
            f"closed form refused: f^((p-1)/2) has degree {degree}, "
            f"exceeding bound {CLOSED_FORM_MAX_DEGREE}"
        )


def hasse_invariant(curve: EllipticCurveW) -> int:
    """Coefficient of x^(p-1) in (x^3 + ax + b)^((p-1)/2); zero iff supersingular."""
    p = curve.field.p
    f = curve.rhs_poly()
    check_closed_form_bound(f)
    return poly_pow_coeff(f, (p - 1) // 2, (p - 1,))[0]


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
    check_closed_form_bound(model.f)
    ks = [p * i - j for i in range(1, g + 1) for j in range(1, g + 1)]
    coeffs = poly_pow_coeff(model.f, (p - 1) // 2, ks)
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
