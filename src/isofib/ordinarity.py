"""Ordinarity decisions for isotrivial elliptic surfaces.

The surface X is ordinary exactly when Frobenius is bijective on H^1(O_X)
and H^2(O_X).  Both spaces are controlled by the quotient data: H^1 comes
from the base (plus the fiber when the rotation is trivial), H^2 from the
fiber tensored with the top character line bundle.  This reduces the verdict
to ordinarity facts about the common fiber E, the base C and the cover tower
D', D'', D''' -- which is what ``decide`` evaluates, clause by clause:

* trivial rotation: E and C ordinary;
* rotation order 2: E ordinary, then D' ordinary, unless X is rational (then
  h^1 = h^2 = 0 and Frobenius is bijective on zero spaces, whatever E does);
* rotation order 3: the verdict is joint for the pair (X, X'): E ordinary,
  then D' ordinary (unless both surfaces are rational);
* rotation order 4: joint verdict again; E and C ordinary, then the genus
  drop from D' to D'' equal to the p-rank drop;
* rotation order 6: as order 4, with the drop from D' to D'''.

When the fibration is generically ordinary (E ordinary), the cokernel of the
relative Frobenius is a divisor on the base supported under the singular
fibers; its multiplicity at a fiber is (p-1)/12 times the fiber's Euler
number, and its total degree is d(p-1) with d = -deg R^1 pi_* O_X.  For the
order-2 chain over the projective line this divisor is an explicit binary
form, and the matrix of Frobenius on H^1(O(-d)) extracted from it coincides
(up to reindexing and a unit) with the Cartier matrix of the double cover D'.
"""

from __future__ import annotations

from operator import index

from .curves import (
    EllipticCurveW,
    HyperellipticModel,
    check_closed_form_bound,
    hasse_invariant,
    p_rank_hyperelliptic,
)
from .ffpoly import FpMatrix, FpPolynomial, Frozen
from .fibration import FORCED_J, FiberClass, FibrationSpec, Rotation

SCOPE_SINGLE = "single_X"
SCOPE_PAIR = "pair_X_Xprime"

CLAUSE_TRIVIAL = "rotation-trivial"
CLAUSE_ORDER_2 = "rotation-2"
CLAUSE_ORDER_3 = "rotation-3"
CLAUSE_ORDER_4 = "rotation-4"
CLAUSE_ORDER_6 = "rotation-6"
CLAUSE_RATIONAL = "rational-exception"
CLAUSE_H_VANISHING = "h-vanishing"

COMPUTED = "computed-from-model"
SUPPLIED = "supplied"

CURVE_NAMES = ("E", "C", "Dp", "Dpp", "Dppp")


class MissingReportDataError(Exception):
    """The active clause needs ordinarity data that the report does not carry."""

    def __init__(self, missing: list[str]):
        self.missing = list(missing)
        super().__init__(f"missing report data for: {', '.join(self.missing)}")


class NotGenericallyOrdinaryError(Exception):
    """Raised when a Hasse divisor is requested for a supersingular common fiber."""


class CurveReportEntry(Frozen):
    """Genus plus what is known about the p-rank of one curve in the tower."""

    _fields = ("genus", "p_rank", "ordinary", "provenance")

    def __init__(self, genus: int, p_rank: int | None, ordinary: bool | None, provenance: str):
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "p_rank", p_rank)
        object.__setattr__(self, "ordinary", ordinary)
        object.__setattr__(self, "provenance", provenance)
        index(self.genus)  # integers only: anything else raises TypeError
        if self.p_rank is not None:
            if not 0 <= index(self.p_rank) <= self.genus:
                raise ValueError(f"p-rank {self.p_rank} outside [0, {self.genus}]")
            expected = self.p_rank == self.genus
            if self.ordinary is None:
                object.__setattr__(self, "ordinary", expected)
            elif self.ordinary != expected:
                raise ValueError(
                    f"ordinary={self.ordinary} contradicts p-rank {self.p_rank} "
                    f"of a genus-{self.genus} curve"
                )


class CurveOrdinarityReport(Frozen):
    """Ordinarity data for E, C and the cover tower D', D'', D''', one field per
    name in CURVE_NAMES."""

    _fields = CURVE_NAMES

    def __init__(self, E: CurveReportEntry | None = None, C: CurveReportEntry | None = None,
                 Dp: CurveReportEntry | None = None, Dpp: CurveReportEntry | None = None,
                 Dppp: CurveReportEntry | None = None):
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "Dp", Dp)
        object.__setattr__(self, "Dpp", Dpp)
        object.__setattr__(self, "Dppp", Dppp)


class OrdinarityVerdict(Frozen):
    _fields = ("scope", "ordinary", "clause", "reasons")

    def __init__(self, scope: str, ordinary: bool, clause: str, reasons: tuple[str, ...]):
        object.__setattr__(self, "scope", scope)
        object.__setattr__(self, "ordinary", ordinary)
        object.__setattr__(self, "clause", clause)
        object.__setattr__(self, "reasons", reasons)


class HasseDivisor(Frozen):
    """Frobenius-cokernel multiplicities as (FiberClass, multiplicity, count)
    for each singular-fiber class that occurs, in RAM_KEYS order."""

    _fields = ("entries", "total_degree")

    def __init__(self, entries: tuple[tuple[FiberClass, int, int], ...], total_degree: int):
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "total_degree", total_degree)


def _parse_override(value) -> tuple[int | None, bool | None]:
    """Normalize an override to (p_rank, ordinary)."""
    if isinstance(value, bool):
        return None, value
    if isinstance(value, int):
        return value, None
    text = str(value).strip().lower()
    if text == "ordinary":
        return None, True
    if text in ("nonordinary", "non-ordinary", "supersingular"):
        return None, False
    try:
        return int(text), None
    except ValueError:
        raise ValueError(
            f"cannot interpret override {value!r}: use 'ordinary', 'nonordinary' or a p-rank"
        ) from None


def build_report(spec: FibrationSpec, overrides: dict | None = None) -> CurveOrdinarityReport:
    """Assemble the ordinarity report, computing whatever the models allow.

    Genera always come from the cover tower.  p-ranks are computed from the
    explicit models when present (the fiber model via its Hasse invariant,
    the order-2 double cover via its Cartier matrix); a curve of genus 0 is
    ordinary.  Under the trivial rotation D' is C itself, listed only when
    supplied.  Caller-supplied overrides fill the gaps, but a supplied value
    that contradicts a computed one is a hard error, and so is an ordinary E
    that Deuring's congruence rules out for the rotation.
    """
    overrides = dict(overrides or {})
    genera = dict(zip(CURVE_NAMES, (1, spec.genus_base, *spec.invariants.tower)))
    entries = {name: CurveReportEntry(0, 0, None, COMPUTED) if genus == 0 else None
               for name, genus in genera.items()}
    if spec.rotation is Rotation.TRIVIAL:
        entries["Dp"] = None

    if spec.e_model is not None:
        rank = 1 if hasse_invariant(spec.e_model) != 0 else 0
        entries["E"] = CurveReportEntry(1, rank, None, COMPUTED)

    if entries["Dp"] is None and spec.branch_poly is not None:  # the order-2 chain
        model = HyperellipticModel(spec.branch_poly)
        if model.genus != genera["Dp"]:
            raise AssertionError(
                f"branch polynomial genus {model.genus} != tower genus {genera['Dp']}"
            )
        entries["Dp"] = CurveReportEntry(model.genus, p_rank_hyperelliptic(model), None, COMPUTED)

    for name, value in overrides.items():
        if name not in CURVE_NAMES:
            raise ValueError(f"unknown curve name {name!r}; expected one of {CURVE_NAMES}")
        genus = genera[name]
        if genus is None:
            raise ValueError(f"curve {name} does not occur in this cover tower")
        p_rank, flag = _parse_override(value)
        supplied = CurveReportEntry(genus, p_rank, flag, SUPPLIED)
        computed = entries[name]
        if name == "E" and computed is None and supplied.ordinary and spec.rotation in FORCED_J:
            j = FORCED_J[spec.rotation]
            modulus = 3 if j == 0 else 4  # Deuring: j = 0 (1728) is ordinary iff p = 1 mod 3 (4)
            if spec.field.p % modulus != 1:
                raise ValueError(
                    f"supplied E=ordinary contradicts Deuring's congruence: rotation of "
                    f"order {spec.rotation.order} forces j(E) = {j}, "
                    f"which is ordinary only for p = 1 mod {modulus}, not p = {spec.field.p}"
                )
        if computed is not None:
            if supplied.p_rank is not None and supplied.p_rank != computed.p_rank:
                raise ValueError(
                    f"supplied p-rank {supplied.p_rank} for {name} contradicts the "
                    f"computed value {computed.p_rank}"
                )
            if supplied.ordinary is not None and supplied.ordinary != computed.ordinary:
                raise ValueError(
                    f"supplied flag for {name} contradicts the computed value "
                    f"(computed: ordinary={computed.ordinary})"
                )
            continue  # computed wins
        entries[name] = supplied

    return CurveOrdinarityReport(**entries)


def _require(report: CurveOrdinarityReport, names: tuple[str, ...], want_rank: bool = False):
    missing = []
    for name in names:
        entry = getattr(report, name)
        if entry is None or entry.ordinary is None:
            missing.append(name)
        elif want_rank and entry.p_rank is None:
            missing.append(f"{name} (needs an exact p-rank)")
    if missing:
        raise MissingReportDataError(missing)


# rotation -> (scope, clause, the curves that must be ordinary first, the tower
# curves the verdict reads next: one that must be ordinary, or two whose genus
# drop must equal their p-rank drop)
_CLAUSES = {
    Rotation.TRIVIAL: (SCOPE_SINGLE, CLAUSE_TRIVIAL, ("E", "C"), ()),
    Rotation.C2: (SCOPE_SINGLE, CLAUSE_ORDER_2, ("E",), ("Dp",)),
    Rotation.C3: (SCOPE_PAIR, CLAUSE_ORDER_3, ("E",), ("Dp",)),
    Rotation.C4: (SCOPE_PAIR, CLAUSE_ORDER_4, ("E", "C"), ("Dp", "Dpp")),
    Rotation.C6: (SCOPE_PAIR, CLAUSE_ORDER_6, ("E", "C"), ("Dp", "Dppp")),
}


def decide(spec: FibrationSpec, report: CurveOrdinarityReport) -> OrdinarityVerdict:
    """Evaluate the ordinarity criterion for the spec's rotation class.

    The clause is the rotation's row of ``_CLAUSES``.  For rotation orders 3,
    4 and 6 the verdict is joint for the pair of surfaces attached to the two
    conjugate actions on the cover (scope ``pair_X_Xprime``).  Requirements
    are evaluated lazily: a clause that already fails on its E or C conjunct
    does not demand tower p-ranks.  A rational X (order 2), or a rational pair
    (orders 3, 4 and 6), is ordinary before any curve is read.
    """
    inv = spec.invariants
    scope, clause, gate, tower = _CLAUSES[spec.rotation]
    if inv.rational and scope == SCOPE_SINGLE:
        return OrdinarityVerdict(scope, True, CLAUSE_RATIONAL, (
            "X is rational (base genus 0, d = 1): h^1 = h^2 = 0, so Frobenius "
            "is bijective on both cohomology spaces regardless of E",
        ))
    if inv.rational and scope == SCOPE_PAIR and -inv.deg_l[0] == 1:  # d' = 1 too
        return OrdinarityVerdict(scope, True, CLAUSE_H_VANISHING, (
            "both X and the conjugate surface X' are rational (base genus 0, "
            "d = d' = 1): all four cohomology spaces vanish",
        ))

    def entry_reason(name: str) -> str:
        entry = getattr(report, name)
        rank = f", p-rank {entry.p_rank}" if entry.p_rank is not None else ""
        return f"{name}: genus {entry.genus}{rank}, ordinary={entry.ordinary}"

    _require(report, gate)
    reasons = [entry_reason(name) for name in gate]
    ordinary = all([getattr(report, name).ordinary for name in gate])
    if not ordinary and spec.rotation is Rotation.C2 and inv.h2 > 0:
        reasons.append(
            f"h^2 = {inv.h2} > 0 with a supersingular fiber: the relative "
            "Frobenius kills the top cohomology"
        )
    if not ordinary or not tower:
        return OrdinarityVerdict(scope, ordinary, clause, tuple(reasons))
    _require(report, tower, want_rank=len(tower) == 2)
    reasons += [entry_reason(name) for name in tower]
    if len(tower) == 1:
        ordinary = bool(getattr(report, tower[0]).ordinary)
    else:
        top, deep = (getattr(report, name) for name in tower)
        genus_drop = top.genus - deep.genus
        rank_drop = top.p_rank - deep.p_rank
        ordinary = genus_drop == rank_drop
        reasons.append(
            f"genus drop g({tower[0]}) - g({tower[1]}) = {genus_drop}, "
            f"p-rank drop = {rank_drop}: {'equal' if ordinary else 'different'}"
        )
    return OrdinarityVerdict(scope, ordinary, clause, tuple(reasons))


def check_supersingular_corollary(
    spec: FibrationSpec, verdict: OrdinarityVerdict, report: CurveOrdinarityReport
) -> str | None:
    """Consistency check: a supersingular fiber on an ordinary surface forces
    a rational X over the projective line.  Returns a violation message or None."""
    entry = report.E
    if entry is None or entry.ordinary is None or entry.ordinary:
        return None
    if not verdict.ordinary:
        return None
    inv = spec.invariants
    if inv.rational:
        return None
    return (
        f"supersingular fiber with an ordinary verdict, but base genus is "
        f"{spec.genus_base} and d = {inv.d} (expected genus 0 and d = 1)"
    )


def hasse_divisor(spec: FibrationSpec, report: CurveOrdinarityReport) -> HasseDivisor:
    """Multiplicities of the relative-Frobenius cokernel at the singular fibers.

    Requires a generically ordinary fibration, i.e. an ordinary common fiber;
    each non-multiple singular fiber contributes (p-1)/12 times its Euler
    number, and the total degree is d(p-1).  The per-fiber multiplicity is an
    integer precisely because the fiber ordinarity forces the congruence on p
    (1 mod 4 for rotation order 4, 1 mod 3 for orders 3 and 6).
    """
    entry = report.E
    if entry is None or entry.ordinary is None:
        raise MissingReportDataError(["E"])
    if not entry.ordinary:
        raise NotGenericallyOrdinaryError(
            "the common fiber is supersingular, so the relative Frobenius acts as "
            "zero on the pushforward and the cokernel is not a divisor"
        )
    p = spec.field.p
    inv = spec.invariants
    entries = []
    for fc, count in inv.fibers:
        raw = (p - 1) * fc.euler
        if raw % 12 != 0:
            raise ValueError(
                f"non-integral multiplicity {raw}/12 for a {fc.kodaira_type.value} fiber: "
                f"no ordinary fiber model exists at p = {p} for this rotation class"
            )
        entries.append((fc, raw // 12, count))
    total = sum(mult * count for _, mult, count in entries)
    if total != inv.d * (p - 1):
        raise AssertionError(
            f"Hasse divisor degree {total} != d(p-1) = {inv.d * (p - 1)}"
        )
    return HasseDivisor(entries=tuple(entries), total_degree=total)


def hasse_poly_z2(curve: EllipticCurveW, branch: FpPolynomial) -> FpPolynomial:
    """Dehomogenized Hasse-divisor polynomial of the order-2 chain.

    For the double-cover fibration with branch locus f this is
    H(E) * f^((p-1)/2): the quadratic-twist Hasse invariant as a function of
    the base point.  A supersingular E returns the zero polynomial, which is
    exactly the signal that the relative Frobenius vanishes on the
    pushforward; root multiplicities at finite branch points otherwise
    reproduce the divisor multiplicities.  A power beyond the closed-form
    degree bound raises ``OracleBoundError`` before any other work.
    """
    check_closed_form_bound(branch)
    if curve.field != branch.field:
        raise ValueError("curve and branch polynomial over different fields")
    if not branch.is_squarefree():
        raise ValueError("branch polynomial is not squarefree")
    h = hasse_invariant(curve)
    if h == 0:
        return FpPolynomial(branch.field)
    p = curve.field.p
    return FpPolynomial(branch.field, [h * c for c in (branch ** ((p - 1) // 2)).coeffs])


def h2_frobenius_matrix(hasse: FpPolynomial, d: int) -> FpMatrix:
    """Matrix of Frobenius on H^1(O(-d)) of the projective line.

    ``hasse`` is read as a binary form of degree (p-1)d via its coefficient
    list (a polynomial of lower degree means the divisor meets infinity).  In
    the monomial basis 1/(x^(d-m) y^m), m = 1..d-1, the composite of the
    p-power pullback with multiplication by the form sends basis vector m to
    the column with row-n entry a_(p(d-m) - (d-n)).  The matrix is invertible
    iff Frobenius is bijective on the top cohomology of the fibration.
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    p = hasse.field.p
    if hasse.degree() > (p - 1) * d:
        raise ValueError(
            f"degree mismatch: form of degree {hasse.degree()} cannot be homogeneous "
            f"of degree {(p - 1) * d}"
        )
    entries = [
        [hasse.coeff(p * (d - m) - (d - n)) for m in range(1, d)] for n in range(1, d)
    ]
    return FpMatrix(hasse.field, entries)
