"""Ordinarity verdicts, the Hasse divisor, and the top-cohomology Frobenius matrix."""

import random
from time import perf_counter

import pytest

from isofib.curves import (
    EllipticCurveW,
    HyperellipticModel,
    OracleBoundError,
    cartier_manin,
    hasse_invariant,
    point_count_oracle,
)
from isofib.ffpoly import FpPolynomial, PrimeField, matrix_rank_det
from isofib.fibration import KodairaType, Rotation, singular_fibers, surface_invariants
from isofib.ordinarity import (
    CLAUSE_H_VANISHING,
    CLAUSE_ORDER_2,
    CLAUSE_ORDER_4,
    CLAUSE_RATIONAL,
    CLAUSE_TRIVIAL,
    SCOPE_PAIR,
    SCOPE_SINGLE,
    CurveOrdinarityReport,
    CurveReportEntry,
    MissingReportDataError,
    NotGenericallyOrdinaryError,
    build_report,
    check_supersingular_corollary,
    decide,
    h2_frobenius_matrix,
    hasse_divisor,
    hasse_poly_z2,
)

from helpers import make_spec, random_ordinary_curve, random_squarefree_poly, random_valid_spec

F5 = PrimeField(5)
F7 = PrimeField(7)


def test_report_entry_invariants():
    entry = CurveReportEntry(2, 2, None, "supplied")
    assert entry.ordinary is True
    with pytest.raises(ValueError):
        CurveReportEntry(2, 3, None, "supplied")
    with pytest.raises(ValueError):
        CurveReportEntry(2, 2, False, "supplied")


def test_build_report_from_explicit_models():
    spec = make_spec(Rotation.C2, p=5, a2=2, e_model=EllipticCurveW(F5, 0, 1), branch=[0, 1])
    report = build_report(spec)
    assert report.E.p_rank == 0 and report.E.provenance == "computed-from-model"
    assert report.C.p_rank == 0
    assert report.Dp.genus == 0 and report.Dp.ordinary


def test_build_report_override_mismatch_is_fatal():
    spec = make_spec(Rotation.C2, p=5, a2=2, e_model=EllipticCurveW(F5, 0, 1))
    with pytest.raises(ValueError, match="contradicts"):
        build_report(spec, {"E": "ordinary"})  # the model is supersingular at 5
    report = build_report(spec, {"E": "supersingular"})  # agreeing override is fine
    assert report.E.provenance == "computed-from-model"


# one spec per rotation whose every tower curve has positive genus
SPEC_PER_ROTATION = {
    Rotation.TRIVIAL: dict(p=5, genus_base=2),
    Rotation.C2: dict(p=7, a2=4),
    Rotation.C3: dict(p=7, a3p=2, a3m=2),
    Rotation.C4: dict(p=13, genus_base=1, a4p=1, a4m=1),
    Rotation.C6: dict(p=7, genus_base=1, a6p=1, a6m=1),
}


def test_build_report_rejects_unknown_names_and_values():
    spec = make_spec(Rotation.C2, p=5, a2=2)
    with pytest.raises(ValueError, match="unknown curve"):
        build_report(spec, {"Q": "ordinary"})
    with pytest.raises(ValueError, match="cannot interpret"):
        build_report(spec, {"E": "maybe"})
    # D' occurs under every rotation (under the trivial one it is C itself), D''
    # under C4 only and D''' under C6 only; any other tower name does not occur
    for rotation, counts in SPEC_PER_ROTATION.items():
        spec = make_spec(rotation, **counts)
        g_prime, g_double, g_triple = spec.invariants.tower
        accepted = {"Dp": g_prime}
        if rotation is Rotation.TRIVIAL:
            assert g_prime == spec.genus_base
        if rotation is Rotation.C4:
            accepted["Dpp"] = g_double
        if rotation is Rotation.C6:
            accepted["Dppp"] = g_triple
        for name in ("Dp", "Dpp", "Dppp"):
            if name in accepted:
                entry = getattr(build_report(spec, {name: "ordinary"}), name)
                assert entry.genus == accepted[name] > 0, (rotation, name)
                assert entry.ordinary and entry.provenance == "supplied"
            else:
                with pytest.raises(ValueError, match=f"curve {name} does not occur"):
                    build_report(spec, {name: "ordinary"})
    # the trivial rotation lists D' only when it is supplied, even at g_C = 0
    spec = make_spec(Rotation.TRIVIAL, p=5)
    report = build_report(spec)
    assert report.C.ordinary and report.Dp is None
    assert build_report(spec, {"Dp": "ordinary"}).Dp.genus == 0


def test_decide_trivial_rotation_product_rule():
    spec = make_spec(Rotation.TRIVIAL, p=5, genus_base=2, translation=(2, 1))
    report = build_report(spec, {"E": "ordinary", "C": "ordinary"})
    verdict = decide(spec, report)
    assert verdict.ordinary and verdict.clause == CLAUSE_TRIVIAL
    assert verdict.scope == SCOPE_SINGLE
    report2 = build_report(spec, {"E": "ordinary", "C": "nonordinary"})
    assert not decide(spec, report2).ordinary


def test_decide_rational_exception_with_supersingular_fiber():
    # two branch points over the line: X is rational and ordinary even though
    # its fiber y^2 = x^3 + 1 is supersingular at 5
    e = EllipticCurveW(F5, 0, 1)
    spec = make_spec(Rotation.C2, p=5, a2=2, e_model=e, branch=[0, 1])
    assert point_count_oracle(e)[1] == 0  # trace 0: supersingular, confirmed by counting
    verdict = decide(spec, build_report(spec))
    assert verdict.ordinary
    assert verdict.clause == CLAUSE_RATIONAL
    assert check_supersingular_corollary(spec, verdict, build_report(spec)) is None


def _supersingular_quartic(field):
    """Monic squarefree quartic whose genus-1 double cover is supersingular."""
    p = field.p
    for mask in range(p**4):
        c = [mask % p, (mask // p) % p, (mask // p**2) % p, (mask // p**3) % p, 1]
        f = FpPolynomial(field, c)
        if not f.is_squarefree():
            continue
        m = cartier_manin(HyperellipticModel(f))
        if m.entries[0][0] == 0:
            return f
    raise AssertionError("no supersingular quartic found")


def test_decide_kummer_style_non_ordinary():
    # four branch points: a K3-type surface; ordinary fiber, supersingular D'
    field = F7
    e = EllipticCurveW(field, 0, 1)  # ordinary at 7
    assert hasse_invariant(e) != 0
    f = _supersingular_quartic(field)
    spec = make_spec(Rotation.C2, p=7, a2=4, e_model=e, branch=list(f.coeffs))
    inv = surface_invariants(spec)
    assert inv.k3_candidate and inv.h2 == 1
    report = build_report(spec)
    assert report.Dp.genus == 1 and report.Dp.p_rank == 0
    verdict = decide(spec, report)
    assert not verdict.ordinary
    assert verdict.clause == CLAUSE_ORDER_2


def test_decide_missing_data_listed_by_name():
    # first the gate (E, and C unless the clause skips it), then the tower: the
    # drop clauses of C4 and C6 need exact p-ranks, so a flag alone is missing
    for rotation, counts in SPEC_PER_ROTATION.items():
        spec = make_spec(rotation, **counts)
        gate = ["E"] if rotation in (Rotation.C2, Rotation.C3) else ["E", "C"]
        with pytest.raises(MissingReportDataError) as err:
            decide(spec, build_report(spec))
        assert err.value.missing == gate, rotation
        ordinary = dict.fromkeys(gate, "ordinary")
        # a gate that fails decides without the tower
        assert not decide(spec, build_report(spec, {**ordinary, "E": "nonordinary"})).ordinary
        if rotation is Rotation.TRIVIAL:
            assert decide(spec, build_report(spec, ordinary)).ordinary
            continue
        deep = {Rotation.C4: ["Dpp"], Rotation.C6: ["Dppp"]}.get(rotation, [])
        with pytest.raises(MissingReportDataError) as err:
            decide(spec, build_report(spec, ordinary))
        assert err.value.missing == ["Dp", *deep], rotation
        if deep:
            with pytest.raises(MissingReportDataError) as err:
                decide(spec, build_report(spec, {**ordinary, "Dp": "ordinary", deep[0]: 1}))
            assert err.value.missing == ["Dp (needs an exact p-rank)"], rotation


def test_decide_pair_h_vanishing():
    spec = make_spec(Rotation.C3, p=7, a3p=1, a3m=1)
    verdict = decide(spec, build_report(spec))
    assert verdict.ordinary and verdict.clause == CLAUSE_H_VANISHING
    assert verdict.scope == SCOPE_PAIR


def test_decide_order_four_genus_rank_drop():
    spec = make_spec(Rotation.C4, p=13, a4p=2, a4m=0, a2=1)
    # tower: g(D') = 1, g(D'') = 0; drop = 1
    base = {"E": "ordinary"}
    verdict = decide(spec, build_report(spec, {**base, "Dp": 1}))
    assert verdict.ordinary and verdict.clause == CLAUSE_ORDER_4
    verdict = decide(spec, build_report(spec, {**base, "Dp": 0}))
    assert not verdict.ordinary  # genus drop 1, p-rank drop 0 - 0 = 0
    verdict = decide(spec, build_report(spec, {"E": "nonordinary"}))
    assert not verdict.ordinary  # decided without tower ranks


def test_decide_order_six_uses_triple_cover():
    spec = make_spec(Rotation.C6, p=7, a6p=1, a6m=1, a2=2)
    # tower: g(D') = 3, g(D''') = 0: need p-rank of D' equal to 3
    verdict = decide(spec, build_report(spec, {"E": "ordinary", "Dp": 3}))
    assert verdict.ordinary
    verdict = decide(spec, build_report(spec, {"E": "ordinary", "Dp": 2}))
    assert not verdict.ordinary


def test_supersingular_corollary_flags_fake_verdicts():
    spec = make_spec(Rotation.C2, p=7, a2=4)
    report = build_report(spec, {"E": "nonordinary", "Dp": 1})
    verdict = decide(spec, report)
    assert not verdict.ordinary
    assert check_supersingular_corollary(spec, verdict, report) is None
    from isofib.ordinarity import OrdinarityVerdict

    forged = OrdinarityVerdict(SCOPE_SINGLE, True, CLAUSE_ORDER_2, ())
    message = check_supersingular_corollary(spec, forged, report)
    assert message is not None and "d = 2" in message


def test_supersingular_corollary_vacuous_cases():
    spec = make_spec(Rotation.C2, p=7, a2=4)
    report = build_report(spec, {"E": "ordinary", "Dp": 1})
    verdict = decide(spec, report)
    assert check_supersingular_corollary(spec, verdict, report) is None


def test_supersingular_fiber_forces_nonordinary_randomized():
    # h^2 > 0 plus a supersingular fiber always decides non-ordinary
    rng = random.Random(271)
    found = 0
    while found < 120:
        spec = random_valid_spec(rng)
        if surface_invariants(spec).h2 <= 0:
            continue
        found += 1
        overrides = {"E": "nonordinary"}
        if spec.genus_base > 0:
            overrides["C"] = "ordinary"
        verdict = decide(spec, build_report(spec, overrides))
        assert not verdict.ordinary, spec


def test_hasse_divisor_two_fibers():
    spec = make_spec(Rotation.C2, p=5, a2=2)
    div = hasse_divisor(spec, build_report(spec, {"E": "ordinary"}))
    assert [(fc.kodaira_type, m, count) for fc, m, count in div.entries] == [
        (KodairaType.I0STAR, 2, 2)
    ]
    assert div.total_degree == 4


def test_hasse_divisor_order_four_configurations():
    spec = make_spec(Rotation.C4, p=13, a4p=2, a4m=0, a2=1)
    div = hasse_divisor(spec, build_report(spec, {"E": "ordinary"}))
    # one (class, multiplicity, count) triple per class, in RAM_KEYS order (a2 before a4p)
    assert [(fc.kodaira_type, m, count) for fc, m, count in div.entries] == [
        (KodairaType.I0STAR, 6, 1),
        (KodairaType.III, 3, 2),
    ]
    assert div.total_degree == 12  # d = 1
    star = make_spec(Rotation.C4, p=13, a4m=2, a4p=0, a2=1)
    div = hasse_divisor(star, build_report(star, {"E": "ordinary"}))
    assert [(fc.kodaira_type, m, count) for fc, m, count in div.entries] == [
        (KodairaType.I0STAR, 6, 1),
        (KodairaType.IIISTAR, 9, 2),
    ]
    assert div.total_degree == 24  # d = 2


def test_hasse_divisor_refuses_supersingular_fiber():
    spec = make_spec(Rotation.C2, p=5, a2=2)
    with pytest.raises(NotGenericallyOrdinaryError):
        hasse_divisor(spec, build_report(spec, {"E": "nonordinary"}))
    with pytest.raises(MissingReportDataError):
        hasse_divisor(spec, build_report(spec))


def test_hasse_divisor_degree_law_randomized():
    rng = random.Random(54)
    for _ in range(150):
        spec = random_valid_spec(rng)
        rot, p = spec.rotation, spec.field.p
        # only congruences compatible with an ordinary fiber admit the divisor
        if rot in (Rotation.C3, Rotation.C6) and p % 3 != 1:
            continue
        if rot is Rotation.C4 and p % 4 != 1:
            continue
        report = build_report(spec, {"E": "ordinary"})
        div = hasse_divisor(spec, report)
        inv = surface_invariants(spec)
        assert div.total_degree == inv.d * (p - 1)
        assert sum(m * count for _, m, count in div.entries) == div.total_degree
        assert [(fc, count) for fc, _, count in div.entries] == list(singular_fibers(spec))


def test_hasse_multiplicity_integrality_exhaustive():
    primes = [p for p in range(5, 101) if all(p % q for q in range(2, p))]
    euler_by_congruence = {
        1: (6,),          # any odd p
        4: (3, 9),        # needs p = 1 mod 4
        3: (2, 10, 4, 8), # needs p = 1 mod 3
    }
    for p in primes:
        for modulus, eulers in euler_by_congruence.items():
            if modulus != 1 and p % modulus != 1:
                continue
            for euler in eulers:
                assert (p - 1) * euler % 12 == 0, (p, euler)


def test_build_report_rejects_impossible_congruence():
    spec = make_spec(Rotation.C4, p=7, a4p=2, a4m=0, a2=1)  # 7 = 3 mod 4
    for value in ("ordinary", "1"):
        with pytest.raises(ValueError, match="Deuring's congruence"):
            build_report(spec, {"E": value})
    for rotation, counts in ((Rotation.C3, {"a3p": 1, "a3m": 1}),
                             (Rotation.C6, {"a6p": 1, "a6m": 1, "a2": 2})):
        with pytest.raises(ValueError, match="p = 1 mod 3"):
            build_report(make_spec(rotation, p=5, **counts), {"E": "ordinary"})
    # one-sided: a supersingular E is never rejected, whatever p is
    assert build_report(spec, {"E": "nonordinary"}).E.ordinary is False
    assert build_report(make_spec(Rotation.C4, p=13, a4p=2, a2=1), {"E": "nonordinary"})
    # the divisor keeps its own integrality guard for a report built by hand
    forged = CurveOrdinarityReport(E=CurveReportEntry(1, 1, None, "supplied"))
    with pytest.raises(ValueError, match="non-integral"):
        hasse_divisor(spec, forged)


def test_hasse_poly_z2_known_value():
    e = EllipticCurveW(F5, 1, 1)
    branch = FpPolynomial(F5, [0, -1, 1])  # t^2 - t
    out = hasse_poly_z2(e, branch)
    assert hasse_invariant(e) == 2
    expected = FpPolynomial(F5, [0, 0, 2, -4, 2])  # 2 (t^2 - t)^2
    assert out == expected


def test_hasse_poly_z2_supersingular_gives_zero():
    e = EllipticCurveW(F5, 0, 1)
    branch = FpPolynomial(F5, [0, -1, 1])
    assert hasse_poly_z2(e, branch) == FpPolynomial(F5)


def test_hasse_poly_z2_rejects_non_squarefree():
    e = EllipticCurveW(F5, 1, 1)
    with pytest.raises(ValueError, match="squarefree"):
        hasse_poly_z2(e, FpPolynomial(F5, [0, 0, 1]))


def test_hasse_poly_z2_refuses_beyond_closed_form_bound():
    field = PrimeField(40009)
    branch = FpPolynomial(field, [1, 2, 3, 4, 5, 6, 7, 8, 1])  # 8 * (40009 - 1) / 2 = 160032
    start = perf_counter()
    with pytest.raises(OracleBoundError, match="degree 160032"):
        hasse_poly_z2(EllipticCurveW(field, 1, 1), branch)
    assert perf_counter() - start < 1.0


def test_hasse_poly_z2_refuses_a_branch_beyond_degree_bound():
    branch = FpPolynomial(F5, [1] * 102)  # degree 101: refused before any other check
    with pytest.raises(OracleBoundError, match="branch refused: degree 101 exceeds bound 100"):
        hasse_poly_z2(EllipticCurveW(F5, 1, 1), branch)


def test_hasse_poly_degree_matches_divisor_degree():
    # homogenized degree d(p-1) with d = a2/2
    rng = random.Random(77)
    for p in (5, 7, 11):
        field = PrimeField(p)
        for _ in range(10):
            branch = random_squarefree_poly(rng, field, rng.choice([3, 4]))
            e = random_ordinary_curve(rng, field)
            out = hasse_poly_z2(e, branch)
            a2 = branch.degree() + (branch.degree() % 2)
            d = a2 // 2
            assert out.degree() == branch.degree() * (p - 1) // 2
            assert out.degree() <= d * (p - 1)


def test_h2_matrix_d_one_is_empty():
    hasse = FpPolynomial(F5, [1, 2, 3])
    m = h2_frobenius_matrix(hasse, 1)
    assert (m.rows, m.cols) == (0, 0)
    assert matrix_rank_det(m) == (0, 1)  # empty matrix counts as invertible


def test_h2_matrix_degree_mismatch_refused():
    hasse = FpPolynomial(F5, [1] * 10)  # degree 9 > (5-1)*2
    with pytest.raises(ValueError, match="degree mismatch"):
        h2_frobenius_matrix(hasse, 2)


def test_h2_matrix_single_entry_is_cartier_entry():
    rng = random.Random(15)
    field = F5
    for _ in range(20):
        f = random_squarefree_poly(rng, field, 4)
        powered = f ** 2  # (p-1)/2 = 2
        m = h2_frobenius_matrix(powered, 2)
        cm = cartier_manin(HyperellipticModel(f))
        assert m.entries == cm.entries


def test_h2_matrix_cross_check_sextic():
    rng = random.Random(16)
    field = F7
    for _ in range(50):
        f = random_squarefree_poly(rng, field, 6)
        e = random_ordinary_curve(rng, field)
        m = h2_frobenius_matrix(hasse_poly_z2(e, f), 3)
        cm = cartier_manin(HyperellipticModel(f))
        assert (matrix_rank_det(m)[1] != 0) == (matrix_rank_det(cm)[1] != 0)


def test_h2_matrix_equivalence_randomized():
    # invertibility of the top-cohomology Frobenius matrix tracks the Cartier
    # matrix of the double cover, across primes and divisor degrees
    rng = random.Random(4848)
    for p in (5, 7, 11):
        field = PrimeField(p)
        for d in (2, 3):
            for _ in range(50):
                degree = rng.choice([2 * d - 1, 2 * d])
                f = random_squarefree_poly(rng, field, degree)
                e = random_ordinary_curve(rng, field)
                m = h2_frobenius_matrix(hasse_poly_z2(e, f), d)
                cm = cartier_manin(HyperellipticModel(f))
                assert (matrix_rank_det(m)[1] != 0) == (matrix_rank_det(cm)[1] != 0)


def test_decision_consistency_explicit_chain():
    # with explicit models, the clause-based verdict and the matrix route agree
    rng = random.Random(59)
    for p in (5, 7, 11, 13):
        field = PrimeField(p)
        for _ in range(25):
            degree = rng.choice([2, 3, 4, 5, 6])
            branch = random_squarefree_poly(rng, field, degree)
            a2 = branch.degree() + (branch.degree() % 2)
            d = a2 // 2
            while True:
                a, b = rng.randrange(p), rng.randrange(p)
                if (4 * a**3 + 27 * b**2) % p != 0:
                    break
            e = EllipticCurveW(field, a, b)
            spec = make_spec(
                Rotation.C2, p=p, a2=a2, e_model=e, branch=list(branch.coeffs)
            )
            verdict = decide(spec, build_report(spec))
            m = h2_frobenius_matrix(hasse_poly_z2(e, branch), d)
            frobenius_bijective = matrix_rank_det(m)[1] != 0
            assert verdict.ordinary == frobenius_bijective, (p, branch, a, b)
