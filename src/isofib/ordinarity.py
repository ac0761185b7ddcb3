"""Ordinarity decisions for isotrivial elliptic surfaces.

The surface X is ordinary exactly when Frobenius is bijective on H^1(O_X)
and H^2(O_X).  Both spaces are controlled by the quotient data: H^1 comes
from the base (plus the fiber when the rotation is trivial), H^2 from the
fiber tensored with the top character line bundle.  This reduces the verdict
to ordinarity facts about the common fiber E, the base C and the cover tower
D', D'', D''' -- which is what ``decide`` evaluates, clause by clause:

* trivial rotation: E and C ordinary;
* rotation order 2: E and D' ordinary, unless X is rational (then h^1 =
  h^2 = 0 and Frobenius is bijective on zero spaces, whatever E does);
* rotation order 3: the verdict is joint for the pair (X, X'): both are
  ordinary iff E and D' are (unless both surfaces are rational);
* rotation orders 4 and 6: joint verdict again; E and C ordinary plus the
  genus drop to the intermediate cover matching the p-rank drop.

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
    the order-2 double cover via its Cartier matrix); genus-0 curves in the
    tower are trivially ordinary.  Caller-supplied overrides fill the gaps,
    but a supplied value that contradicts a computed one is a hard error, and
    so is an ordinary E that Deuring's congruence rules out for the rotation.
    """
    overrides = dict(overrides or {})
    g_prime, g_double, g_triple = spec.invariants.tower
    entries: dict[str, CurveReportEntry | None] = {n: None for n in CURVE_NAMES}

    if spec.e_model is not None:
        rank = 1 if hasse_invariant(spec.e_model) != 0 else 0
        entries["E"] = CurveReportEntry(1, rank, None, COMPUTED)

    if spec.genus_base == 0:
        entries["C"] = CurveReportEntry(0, 0, None, COMPUTED)

    if spec.rotation is not Rotation.TRIVIAL:
        if g_prime == 0:
            entries["Dp"] = CurveReportEntry(0, 0, None, COMPUTED)
        elif spec.rotation is Rotation.C2 and spec.branch_poly is not None:
            model = spec.double_cover
            if model.genus != g_prime:
                raise AssertionError(
                    f"branch polynomial genus {model.genus} != tower genus {g_prime}"
                )
            entries["Dp"] = CurveReportEntry(
                g_prime, p_rank_hyperelliptic(model), None, COMPUTED
            )

    if g_double == 0:
        entries["Dpp"] = CurveReportEntry(0, 0, None, COMPUTED)
    if g_triple == 0:
        entries["Dppp"] = CurveReportEntry(0, 0, None, COMPUTED)

    genera = {
        "E": 1,
        "C": spec.genus_base,
        "Dp": g_prime,
        "Dpp": g_double,
        "Dppp": g_triple,
    }
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


def _require(report: CurveOrdinarityReport, names: list[str], want_rank: bool = False):
    missing = []
    for name in names:
        entry = getattr(report, name)
        if entry is None or entry.ordinary is None:
            missing.append(name)
        elif want_rank and entry.p_rank is None:
            missing.append(f"{name} (needs an exact p-rank)")
    if missing:
        raise MissingReportDataError(missing)


def decide(spec: FibrationSpec, report: CurveOrdinarityReport) -> OrdinarityVerdict:
    """Evaluate the ordinarity criterion for the spec's rotation class.

    For rotation orders 3, 4 and 6 the verdict is joint for the pair of
    surfaces attached to the two conjugate actions on the cover (scope
    ``pair_X_Xprime``); for order 6 it also asserts ordinarity of the
    intermediate double cover.  Requirements are evaluated lazily: a clause
    that already fails on its E or C conjunct does not demand tower p-ranks.
    """
    inv = spec.invariants
    rot = spec.rotation
    reasons: list[str] = []

    def entry_reason(name: str) -> str:
        entry = getattr(report, name)
        rank = f", p-rank {entry.p_rank}" if entry.p_rank is not None else ""
        return f"{name}: genus {entry.genus}{rank}, ordinary={entry.ordinary}"

    if rot is Rotation.TRIVIAL:
        _require(report, ["E", "C"])
        ordinary = bool(report.E.ordinary and report.C.ordinary)
        reasons += [entry_reason("E"), entry_reason("C")]
        return OrdinarityVerdict(SCOPE_SINGLE, ordinary, CLAUSE_TRIVIAL, tuple(reasons))

    if rot is Rotation.C2:
        if inv.rational:
            reasons.append(
                "X is rational (base genus 0, d = 1): h^1 = h^2 = 0, so Frobenius "
                "is bijective on both cohomology spaces regardless of E"
            )
            return OrdinarityVerdict(SCOPE_SINGLE, True, CLAUSE_RATIONAL, tuple(reasons))
        _require(report, ["E"])
        if not report.E.ordinary:
            reasons.append(entry_reason("E"))
            if inv.h2 > 0:
                reasons.append(
                    f"h^2 = {inv.h2} > 0 with a supersingular fiber: the relative "
                    "Frobenius kills the top cohomology"
                )
            return OrdinarityVerdict(SCOPE_SINGLE, False, CLAUSE_ORDER_2, tuple(reasons))
        _require(report, ["Dp"])
        reasons += [entry_reason("E"), entry_reason("Dp")]
        return OrdinarityVerdict(
            SCOPE_SINGLE, bool(report.Dp.ordinary), CLAUSE_ORDER_2, tuple(reasons)
        )

    # pair clauses: X together with the conjugate surface X'
    d_conjugate = -inv.deg_l[0]
    if inv.rational and d_conjugate == 1:
        reasons.append(
            "both X and the conjugate surface X' are rational (base genus 0, "
            "d = d' = 1): all four cohomology spaces vanish"
        )
        return OrdinarityVerdict(SCOPE_PAIR, True, CLAUSE_H_VANISHING, tuple(reasons))

    if rot is Rotation.C3:
        _require(report, ["E"])
        if not report.E.ordinary:
            reasons.append(entry_reason("E"))
            return OrdinarityVerdict(SCOPE_PAIR, False, CLAUSE_ORDER_3, tuple(reasons))
        _require(report, ["Dp"])
        reasons += [entry_reason("E"), entry_reason("Dp")]
        return OrdinarityVerdict(
            SCOPE_PAIR, bool(report.Dp.ordinary), CLAUSE_ORDER_3, tuple(reasons)
        )

    clause = CLAUSE_ORDER_4 if rot is Rotation.C4 else CLAUSE_ORDER_6
    deep_name = "Dpp" if rot is Rotation.C4 else "Dppp"
    _require(report, ["E", "C"])
    reasons += [entry_reason("E"), entry_reason("C")]
    if not (report.E.ordinary and report.C.ordinary):
        return OrdinarityVerdict(SCOPE_PAIR, False, clause, tuple(reasons))
    _require(report, ["Dp", deep_name], want_rank=True)
    deep = getattr(report, deep_name)
    genus_drop = report.Dp.genus - deep.genus
    rank_drop = report.Dp.p_rank - deep.p_rank
    reasons.append(entry_reason("Dp"))
    reasons.append(entry_reason(deep_name))
    reasons.append(
        f"genus drop g(Dp) - g({deep_name}) = {genus_drop}, "
        f"p-rank drop = {rank_drop}: {'equal' if genus_drop == rank_drop else 'different'}"
    )
    return OrdinarityVerdict(SCOPE_PAIR, genus_drop == rank_drop, clause, tuple(reasons))


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
        return FpPolynomial.zero(branch.field)
    p = curve.field.p
    return (branch ** ((p - 1) // 2)).scale(h)


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
