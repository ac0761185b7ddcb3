"""Combinatorial model of an isotrivial elliptic fibration X -> C.

The surface is the minimal resolution of (E x D)/G with G = T x| R, where T
is a translation group of the common fiber E and R is a cyclic rotation group
of order 1, 2, 3, 4 or 6 acting through the automorphisms of E.  Everything
this module computes is driven by the quotient data alone:

* the base genus g_C;
* the branch counts of the intermediate cover D' = D/T over C, split by
  ramification index and by the character with which the stabilizer acts on
  the local coordinate (the +/- sign);
* the characteristic p, which must not divide |G|.

No schemes are built.  Singular fibers are classified into their Kodaira
types with Euler numbers, quotient-singularity lists and pre-blow-down
intersection matrices; the direct image of the structure sheaf along the
cyclic cover decomposes into character line bundles L_1 ... L_(n-1) whose
degrees determine chi(O_X), the Euler number and the cohomology dimensions.
One character rule, tabulated at import, gives every degree and its formula
text; summed over the characters trivial on a subgroup H, the same degrees
give the genus of each cover D'/H in the tower.
"""

from __future__ import annotations

import enum
import functools
from itertools import compress
from math import gcd
from operator import attrgetter, index, mul

from .curves import EllipticCurveW, HyperellipticModel, j_invariant_and_aut
from .ffpoly import FpPolynomial, Frozen, PrimeField


class ValidationError(Exception):
    """A fibration specification violates a structural rule."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class FrozenEnum(enum.Enum):
    """An enum whose members refuse attribute changes once registered."""

    def __setattr__(self, name: str, value) -> None:
        if type(self)._member_map_.get(getattr(self, "_name_", None)) is self:
            raise AttributeError(f"{self!r} is immutable: cannot set {name!r}")
        super().__setattr__(name, value)

    def __delattr__(self, name: str) -> None:
        if type(self)._member_map_.get(getattr(self, "_name_", None)) is self:
            raise AttributeError(f"{self!r} is immutable: cannot delete {name!r}")
        super().__delattr__(name)


class Rotation(FrozenEnum):
    """The cyclic rotation group R, one of the five subgroups of Aut E."""

    TRIVIAL = 1
    C2 = 2
    C3 = 3
    C4 = 4
    C6 = 6

    @property
    def order(self) -> int:
        return self.value


class TranslationClass(Frozen):
    """T = Z/n1 + Z/n2 with n2 | n1; (1, 1) is the trivial group."""

    _fields = ("n1", "n2")

    def __init__(self, n1: int, n2: int):
        object.__setattr__(self, "n1", n1)
        object.__setattr__(self, "n2", n2)
        if index(self.n2) < 1 or index(self.n1) < 1:
            raise ValueError("translation orders must be positive")
        if self.n1 % self.n2 != 0:
            raise ValueError(f"n2={self.n2} must divide n1={self.n1}")

    @property
    def order(self) -> int:
        return self.n1 * self.n2


RAM_KEYS = ("a2", "a3p", "a3m", "a4p", "a4m", "a6p", "a6m")


class RamificationData(Frozen):
    """Branch-point counts of D'/C by ramification index and character sign."""

    _fields = RAM_KEYS

    def __init__(self, a2: int = 0, a3p: int = 0, a3m: int = 0, a4p: int = 0, a4m: int = 0,
                 a6p: int = 0, a6m: int = 0):
        object.__setattr__(self, "a2", a2)
        object.__setattr__(self, "a3p", a3p)
        object.__setattr__(self, "a3m", a3m)
        object.__setattr__(self, "a4p", a4p)
        object.__setattr__(self, "a4m", a4m)
        object.__setattr__(self, "a6p", a6p)
        object.__setattr__(self, "a6m", a6m)
        for name in RAM_KEYS:
            if index(getattr(self, name)) < 0:
                raise ValueError(f"{name} must be nonnegative")

    def flipped(self) -> "RamificationData":
        """Swap every +/- pair (the involution exchanging X and X')."""
        return RamificationData(
            a2=self.a2,
            a3p=self.a3m,
            a3m=self.a3p,
            a4p=self.a4m,
            a4m=self.a4p,
            a6p=self.a6m,
            a6m=self.a6p,
        )


# the j-invariant of E that a rotation of order 3, 4 or 6 forces
FORCED_J = {Rotation.C3: 0, Rotation.C4: 1728, Rotation.C6: 0}


class FibrationSpec(Frozen):
    """Quotient data of an isotrivial elliptic fibration over GF(p).

    Construction runs ``validate_spec`` and raises ``ValidationError`` with
    every violation, so a spec that exists is valid.  A valid spec then
    derives its ``invariants`` (tower and fibers included) once; every
    consumer reads them from there.
    """

    _fields = ("rotation", "translation", "genus_base", "ram", "field", "e_model", "branch_poly")

    def __init__(self, rotation: Rotation, translation: TranslationClass, genus_base: int,
                 ram: RamificationData, field: PrimeField, e_model: EllipticCurveW | None = None,
                 branch_poly: FpPolynomial | None = None):
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "translation", translation)
        object.__setattr__(self, "genus_base", genus_base)
        object.__setattr__(self, "ram", ram)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "e_model", e_model)
        object.__setattr__(self, "branch_poly", branch_poly)
        if index(self.genus_base) < 0:
            raise ValueError("base genus must be nonnegative")
        # validation, the line-bundle degrees and the cover tower all read these
        object.__setattr__(self, "_fractions", _degree_fractions(rotation, ram))
        violations = validate_spec(self)
        if violations:
            raise ValidationError(violations)
        object.__setattr__(self, "invariants", surface_invariants(self))

    @property
    def group_order(self) -> int:
        return self.translation.order * self.rotation.order

    @functools.cached_property
    def double_cover(self) -> HyperellipticModel:
        """D' as the curve y^2 = branch_poly, for a branch of degree 3 or more.

        Built once: its construction is validation's squarefree check, and
        the report reads the same model.
        """
        return HyperellipticModel(self.branch_poly)


class KodairaType(FrozenEnum):
    I0STAR = "I0*"
    II = "II"
    IISTAR = "II*"
    III = "III"
    IIISTAR = "III*"
    IV = "IV"
    IVSTAR = "IV*"


class FiberClass(Frozen):
    """A singular-fiber type: Euler number, quotient singularities, resolution data."""

    _fields = ("kodaira_type", "euler", "singularities", "pre_blowdown_matrix", "blowdowns")

    def __init__(self, kodaira_type: KodairaType, euler: int, singularities: tuple[str, ...],
                 pre_blowdown_matrix: tuple[tuple[int, ...], ...] | None, blowdowns: int):
        object.__setattr__(self, "kodaira_type", kodaira_type)
        object.__setattr__(self, "euler", euler)
        object.__setattr__(self, "singularities", singularities)
        object.__setattr__(self, "pre_blowdown_matrix", pre_blowdown_matrix)
        object.__setattr__(self, "blowdowns", blowdowns)


# the fiber over a branch point of each kind: a key's digit is the ramification
# index e and, for e > 2, p/m the sign of the character the stabilizer acts by
# (a fixed primitive e-th root of unity or its inverse); resolving the quotient
# singularities and contracting ``blowdowns`` (-1)-curves gives the Kodaira type
FIBER_CLASSES = {
    "a2": FiberClass(KodairaType.I0STAR, 6, ("A1", "A1", "A1", "A1"), None, 0),
    "a3p": FiberClass(
        KodairaType.IV,
        4,
        ("A3,1", "A3,1", "A3,1"),
        ((-1, 1, 1, 1), (1, -3, 0, 0), (1, 0, -3, 0), (1, 0, 0, -3)),
        1,
    ),
    "a3m": FiberClass(KodairaType.IVSTAR, 8, ("A2", "A2", "A2"), None, 0),
    "a4p": FiberClass(
        KodairaType.III,
        3,
        ("A4,1", "A4,1", "A1"),
        ((-1, 1, 1, 1), (1, -4, 0, 0), (1, 0, -4, 0), (1, 0, 0, -2)),
        2,
    ),
    "a4m": FiberClass(KodairaType.IIISTAR, 9, ("A1", "A3", "A3"), None, 0),
    "a6p": FiberClass(
        KodairaType.II,
        2,
        ("A6,1", "A3,1", "A1"),
        ((-1, 1, 1, 1), (1, -6, 0, 0), (1, 0, -3, 0), (1, 0, 0, -2)),
        3,
    ),
    "a6m": FiberClass(KodairaType.IISTAR, 10, ("A5", "A2", "A1"), None, 0),
}


def singular_fibers(spec: FibrationSpec) -> tuple[tuple[FiberClass, int], ...]:
    """(FiberClass, count) for each branch-point kind that occurs, in RAM_KEYS order."""
    return tuple(
        (FIBER_CLASSES[name], count) for name in RAM_KEYS if (count := getattr(spec.ram, name))
    )


# the order a degree formula names the branch keys in: larger index first, p before m
_TERM_ORDER = ("a6p", "a6m", "a4p", "a4m", "a3p", "a3m", "a2")


def _character_bundles(rotation: Rotation) -> tuple[tuple[int, tuple[int, ...], int, str], ...]:
    """(exponent i, weights, denominator, formula text) of each character line
    bundle L(chi^i) of D' -> C, listed as L_k = chi^k except that order 6 lists
    chi, chi^4, chi^3, chi^2, chi^5.  -deg L(chi^i) = sum over the branch keys of
    count * <i*c/n> (Pardini 1991), where n is the rotation order, <.> the
    fractional part, e the key's index and c = (n/e)(e-1) for a p key, n/e for an
    m key or a2; ``weights`` are the numerators over n/gcd(n, i), by RAM_KEYS."""
    n = rotation.order
    exponents = (1, 4, 3, 2, 5) if rotation is Rotation.C6 else range(1, n)
    rows = []
    for k, i in enumerate(exponents, 1):
        den = n // gcd(n, i)
        weights = {}
        for name in RAM_KEYS:
            e = int(name[1])
            c = n // e * (1 if name.endswith("m") else e - 1)
            weights[name] = i * c % n * den // n if n % e == 0 else 0
        terms = [f"{w}*{name}" if w > 1 else name for name in _TERM_ORDER if (w := weights[name])]
        sum_text = terms[0] if len(terms) == 1 else f"({' + '.join(terms)})"
        rows.append((i, tuple(weights.values()), den, f"deg L{k} = -{sum_text}/{den}"))
    return tuple(rows)


_BUNDLES = {rotation: _character_bundles(rotation) for rotation in Rotation}

# (R, h) -> which rows of _BUNDLES[R] have chi^i trivial on the subgroup of order h: h | i
_TRIVIAL_ON = {
    (rotation, h): tuple(i % h == 0 for i, *_ in _BUNDLES[rotation])
    for rotation in Rotation for h in range(1, rotation.order + 1) if rotation.order % h == 0
}

_ram_counts = attrgetter(*RAM_KEYS)


def _degree_fractions(rotation: Rotation, r: RamificationData) -> list[tuple[int, int, str]]:
    """(numerator, denominator, formula text) for -deg L_i, i = 1..n-1."""
    counts = _ram_counts(r)
    return [(sum(map(mul, w, counts)), den, text) for _, w, den, text in _BUNDLES[rotation]]


def _cover_genus(spec: FibrationSpec, deg_l: tuple[int, ...] | list[int], h: int) -> int:
    """Genus of D'/H for the subgroup H of order h of the rotation group, from the
    degrees of L_1 ... L_(n-1).  D'/H pushes its structure sheaf forward to the
    L(chi^i) with h | i, so its genus is 1 + (n/h)(g_C - 1) minus their degrees."""
    trivial_on_h = compress(deg_l, _TRIVIAL_ON[spec.rotation, h])
    return 1 + spec.rotation.order // h * (spec.genus_base - 1) - sum(trivial_on_h)


# (h, name, tower slot or None) of the intermediate covers D'/H whose genus must be nonnegative
_INTERMEDIATE_COVERS = {
    Rotation.C4: ((2, "double", "Dpp"),),
    Rotation.C6: ((2, "triple", "Dppp"), (3, "double", None)),
}


def validate_spec(spec: FibrationSpec) -> list[str]:
    """All structural violations of the quotient data; empty means valid.

    Checks, in order: the characteristic is coprime to |G|; the branch-count
    shape is legal for R; every character line bundle has integral degree
    (the cyclic-cover existence condition); the cover tower has nonnegative
    genera; explicit models, when present, are compatible (forced j-invariant,
    squarefree branch locus over the projective line whose point count
    matches a2).
    """
    violations: list[str] = []
    r = spec.ram
    n = spec.rotation.order

    if spec.group_order % spec.field.p == 0:
        violations.append(
            f"characteristic p={spec.field.p} divides the group order {spec.group_order}"
        )

    for name in RAM_KEYS:
        index = int(name[1])  # the stabilizer's order, so it must divide |R|
        if getattr(r, name) and n % index != 0:
            violations.append(
                f"{name} = {getattr(r, name)}: index-{index} branch points need a "
                f"stabilizer of order {index} inside a rotation group of order {n}"
            )

    fractions = spec._fractions
    for num, den, formula in fractions:
        if num % den != 0:
            violations.append(f"{formula} = -{num}/{den} is not an integer")

    if not violations:
        deg_l = [-(num // den) for num, den, _ in fractions]
        g_prime = _cover_genus(spec, deg_l, 1)
        if g_prime < 0:
            violations.append(
                f"Riemann-Hurwitz gives genus {g_prime} < 0 for D': no such cover exists"
            )
        else:
            for h, name, _ in _INTERMEDIATE_COVERS.get(spec.rotation, ()):
                if _cover_genus(spec, deg_l, h) < 0:
                    violations.append(f"intermediate {name} cover would have negative genus")

    if spec.e_model is not None:
        if spec.e_model.field != spec.field:
            violations.append("fiber model lives over a different prime field")
        elif spec.rotation in FORCED_J:
            forced = FORCED_J[spec.rotation]
            j, _ = j_invariant_and_aut(spec.e_model)
            if j != forced % spec.field.p:
                violations.append(
                    f"rotation of order {n} needs j(E) = {forced}, model has j = {j}"
                )

    if spec.branch_poly is not None:
        if spec.rotation is not Rotation.C2:
            violations.append("an explicit branch polynomial only describes the order-2 chain")
        elif spec.genus_base != 0:
            violations.append(
                "an explicit branch polynomial describes a double cover of the projective "
                "line: genus_base must be 0"
            )
        elif spec.branch_poly.field != spec.field:
            violations.append("branch polynomial lives over a different prime field")
        elif spec.branch_poly.degree() < 1:
            violations.append("branch polynomial must be nonconstant")
        elif not _branch_is_squarefree(spec):
            violations.append("branch polynomial is not squarefree")
        else:
            deg = spec.branch_poly.degree()
            points = deg + (1 if deg % 2 == 1 else 0)
            if points != r.a2:
                violations.append(
                    f"branch polynomial marks {points} branch points "
                    f"(degree {deg}{', plus infinity' if deg % 2 else ''}) but a2 = {r.a2}"
                )
    return violations


def _branch_is_squarefree(spec: FibrationSpec) -> bool:
    """Whether the branch polynomial is squarefree.  From degree 3 on the test
    is the construction of ``spec.double_cover``, which the report reads."""
    if spec.branch_poly.degree() < 3:
        return spec.branch_poly.is_squarefree()
    try:
        spec.double_cover
    except ValueError:  # the model's own squarefree check failed
        return False
    return True


def genus_cover_tower(spec: FibrationSpec) -> tuple[int, int | None, int | None]:
    """Genera (g_D', g_D'', g_D''') of the cover tower over C.

    D' is the degree-n cyclic cover; the middle entry is the intermediate
    double cover (rotation order 4), the last the intermediate triple cover
    (rotation order 6); absent entries are None.
    """
    deg_l = line_bundle_degrees(spec)
    genera = {slot: _cover_genus(spec, deg_l, h)
              for h, _, slot in _INTERMEDIATE_COVERS.get(spec.rotation, ()) if slot}
    return _cover_genus(spec, deg_l, 1), genera.get("Dpp"), genera.get("Dppp")


def line_bundle_degrees(spec: FibrationSpec) -> tuple[int, ...]:
    """Degrees of the character line bundles L_1 ... L_(n-1); empty if R is trivial.

    L_i is the chi^i eigensheaf for orders 2, 3 and 4; order 6 lists the chi,
    chi^4, chi^3, chi^2 and chi^5 eigensheaves, in that order.
    """
    return tuple(-(num // den) for num, den, _ in spec._fractions)


class SurfaceInvariants(Frozen):
    """Numerical invariants of the minimal model X, with the cover tower and
    the counted singular fibers they are derived from: ``deg_l``, ``tower`` and
    ``fibers`` as ``line_bundle_degrees``, ``genus_cover_tower`` and
    ``singular_fibers`` return them, and d = -deg R^1 pi_* O_X."""

    _fields = ("deg_l", "chi", "euler_total", "h1", "h2", "d", "rational", "k3_candidate",
               "tower", "fibers")

    def __init__(self, deg_l: tuple[int, ...], chi: int, euler_total: int, h1: int, h2: int,
                 d: int, rational: bool, k3_candidate: bool,
                 tower: tuple[int, int | None, int | None],
                 fibers: tuple[tuple[FiberClass, int], ...]):
        object.__setattr__(self, "deg_l", deg_l)
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "euler_total", euler_total)
        object.__setattr__(self, "h1", h1)
        object.__setattr__(self, "h2", h2)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "rational", rational)
        object.__setattr__(self, "k3_candidate", k3_candidate)
        object.__setattr__(self, "tower", tower)
        object.__setattr__(self, "fibers", fibers)


def surface_invariants(spec: FibrationSpec) -> SurfaceInvariants:
    """chi, Euler number, cohomology dimensions, classification flags, cover
    tower and singular fibers.

    The Euler number is the sum over the classified singular fibers, and
    twelve times chi, read from the line-bundle degrees, must equal it
    (Noether, since K^2 = 0 on the relatively minimal model).
    """
    deg_l = line_bundle_degrees(spec)
    fibers = singular_fibers(spec)
    trivial = spec.rotation is Rotation.TRIVIAL
    g2 = spec.genus_base

    euler = sum(count * fc.euler for fc, count in fibers)

    if trivial:
        chi = 0
        d = 0
        h2 = g2
    else:
        top = deg_l[-1]
        chi = -top
        d = -top
        h2 = g2 - 1 - top if top < 0 else g2 - 1  # top = 0 means an etale cover
    h1 = g2 + (1 if trivial else 0)

    if 12 * chi != euler:
        raise AssertionError(f"Noether identity fails: 12*{chi} != {euler}")

    return SurfaceInvariants(
        deg_l=deg_l,
        chi=chi,
        euler_total=euler,
        h1=h1,
        h2=h2,
        d=d,
        rational=(g2 == 0 and d == 1),
        k3_candidate=(g2 == 0 and d == 2),
        tower=genus_cover_tower(spec),
        fibers=fibers,
    )
