"""Acceptance suite: one test per criterion, exact arithmetic, zero tolerance.

Each test prints a single PASS line once its assertions have gone through;
a pytest failure marks the criterion red.
"""

import json
import random

from isofib.cli import main
from isofib.curves import (
    EllipticCurveW,
    HyperellipticModel,
    cartier_manin,
    hasse_invariant,
    point_count_oracle,
    p_rank_hyperelliptic,
    zeta_prank_oracle,
)
from isofib.ffpoly import FpPolynomial, PrimeField, matrix_rank_det
from isofib.fibration import (
    KodairaType,
    Rotation,
    singular_fibers,
    surface_invariants,
)
from isofib.ordinarity import (
    CLAUSE_ORDER_2,
    CLAUSE_RATIONAL,
    OrdinarityVerdict,
    SCOPE_SINGLE,
    build_report,
    check_supersingular_corollary,
    decide,
    h2_frobenius_matrix,
    hasse_divisor,
    hasse_poly_z2,
)

from helpers import make_spec, random_ordinary_curve, random_squarefree_poly, random_valid_spec


def _passed(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_acceptance_01_rational_surface_with_supersingular_fiber():
    spec = make_spec(Rotation.C2, p=5, a2=2, e_model=EllipticCurveW(PrimeField(5), 0, 1),
                     branch=[0, 1])
    inv = surface_invariants(spec)
    assert inv.chi == 1
    assert inv.euler_total == 12
    assert inv.rational
    assert point_count_oracle(spec.e_model) == (6, 0)  # a_5 = 0: supersingular
    verdict = decide(spec, build_report(spec))
    assert verdict.ordinary
    assert verdict.clause == CLAUSE_RATIONAL
    _passed(1, "a2=2 rational surface: chi=1, Euler=12, ordinary despite supersingular fiber")


def test_acceptance_02_kummer_configuration_not_ordinary():
    spec0 = make_spec(Rotation.C2, p=7, a2=4)
    inv = surface_invariants(spec0)
    assert inv.chi == 2
    assert inv.euler_total == 24
    assert inv.k3_candidate
    fibers = singular_fibers(spec0)
    assert [(fc.kodaira_type, count) for fc, count in fibers] == [(KodairaType.I0STAR, 4)]
    from isofib.fibration import genus_cover_tower

    assert genus_cover_tower(spec0)[0] == 1

    field = PrimeField(7)
    e = EllipticCurveW(field, 0, 1)
    assert hasse_invariant(e) != 0  # ordinary at 7
    found = None
    for mask in range(7**4):  # exhaustive search over monic quartics mod 7
        coeffs = [mask % 7, (mask // 7) % 7, (mask // 49) % 7, (mask // 343) % 7, 1]
        f = FpPolynomial(field, coeffs)
        if not f.is_squarefree():
            continue
        if cartier_manin(HyperellipticModel(f)).entries[0][0] == 0:
            found = f
            break
    assert found is not None, "a supersingular quartic double cover exists at p=7"
    spec = make_spec(Rotation.C2, p=7, a2=4, e_model=e, branch=list(found.coeffs))
    verdict = decide(spec, build_report(spec))
    assert not verdict.ordinary
    assert verdict.clause == CLAUSE_ORDER_2
    _passed(2, "a2=4 K3 configuration: chi=2, Euler=24, four I0*, NOT ordinary at p=7")


def test_acceptance_03_order_four_divisor_configurations():
    spec = make_spec(Rotation.C4, p=13, a4p=2, a4m=0, a2=1)
    inv = surface_invariants(spec)
    assert inv.euler_total == 12
    div = hasse_divisor(spec, build_report(spec, {"E": "ordinary"}))
    assert div.total_degree == 12  # p - 1
    assert sorted(m for _, m, count in div.entries for _ in range(count)) == [3, 3, 6]

    star = make_spec(Rotation.C4, p=13, a4m=2, a4p=0, a2=1)
    inv = surface_invariants(star)
    assert inv.euler_total == 24
    div = hasse_divisor(star, build_report(star, {"E": "ordinary"}))
    assert div.total_degree == 24  # 2(p - 1)
    star_mults = [(m, count) for fc, m, count in div.entries
                  if fc.kodaira_type is KodairaType.IIISTAR]
    assert star_mults == [(9, 2)]  # two III* fibers of multiplicity 3(p-1)/4
    _passed(3, "order-4 configs at p=13: degrees p-1 and 2(p-1), multiplicities {3,3,6} and III*=9")


def test_acceptance_04_noether_identity_500_specs():
    rng = random.Random(20240)
    rotations_seen = set()
    for _ in range(500):
        spec = random_valid_spec(rng)
        rotations_seen.add(spec.rotation)
        inv = surface_invariants(spec)
        fiber_sum = sum(count * fc.euler for fc, count in singular_fibers(spec))
        assert 12 * inv.chi == fiber_sum
    assert rotations_seen == set(Rotation)
    _passed(4, "12*chi equals the fiber Euler sum on 500 random specs across all rotations")


def test_acceptance_05_elliptic_oracle_equivalence():
    mismatches = 0
    checked = 0
    for p in (5, 7, 11):
        field = PrimeField(p)
        for a in range(p):
            for b in range(p):
                if (4 * a**3 + 27 * b**2) % p == 0:
                    continue
                e = EllipticCurveW(field, a, b)
                _, ap = point_count_oracle(e)
                checked += 1
                if (hasse_invariant(e) == 0) != (ap % p == 0):
                    mismatches += 1
    assert mismatches == 0
    assert checked > 150
    _passed(5, f"Hasse invariant vs point counting: {checked} curves, zero mismatches")


def test_acceptance_06_hyperelliptic_oracle_equivalence():
    rng = random.Random(606)
    checked = 0
    for p in (5, 7, 11):
        field = PrimeField(p)
        for _ in range(50):
            f = random_squarefree_poly(rng, field, 5)
            model = HyperellipticModel(f)
            assert p_rank_hyperelliptic(model) == zeta_prank_oracle(model)
            checked += 1
    assert checked == 150
    _passed(6, "Cartier matrix p-rank vs zeta oracle: 150 random quintics, zero mismatches")


def test_acceptance_07_frobenius_matrix_equivalence():
    rng = random.Random(707)
    checked = 0
    for p in (5, 7, 11):
        field = PrimeField(p)
        for d in (2, 3):
            for _ in range(50):
                f = random_squarefree_poly(rng, field, rng.choice([2 * d - 1, 2 * d]))
                e = random_ordinary_curve(rng, field)
                m = h2_frobenius_matrix(hasse_poly_z2(e, f), d)
                cm = cartier_manin(HyperellipticModel(f))
                assert (matrix_rank_det(m)[1] != 0) == (matrix_rank_det(cm)[1] != 0)
                checked += 1
    assert checked == 300
    _passed(7, "top-cohomology Frobenius matrix tracks the Cartier matrix: 300 cases")


def test_acceptance_08_congruence_laws():
    for p in range(5, 51):
        if any(p % q == 0 for q in range(2, p)):
            continue
        field = PrimeField(p)
        for b in range(1, p):
            ordinary = hasse_invariant(EllipticCurveW(field, 0, b)) != 0
            assert ordinary == (p % 3 == 1)
            assert (p % 3 == 1) == (p % 6 == 1)  # same criterion for odd p
        for a in range(1, p):
            ordinary = hasse_invariant(EllipticCurveW(field, a, 0)) != 0
            assert ordinary == (p % 4 == 1)
    _passed(8, "j=0 ordinary iff p=1 mod 3 (=1 mod 6), j=1728 iff p=1 mod 4, all p<=50")


def test_acceptance_09_supersingular_fiber_contrapositive():
    rng = random.Random(909)
    tested = 0
    while tested < 150:
        spec = random_valid_spec(rng)
        inv = surface_invariants(spec)
        if inv.h2 <= 0:
            continue
        tested += 1
        overrides = {"E": "nonordinary"}
        if spec.genus_base > 0:
            overrides["C"] = "ordinary"
        report = build_report(spec, overrides)
        verdict = decide(spec, report)
        assert not verdict.ordinary, spec
        assert check_supersingular_corollary(spec, verdict, report) is None

        # the checker must flag a forged ordinary verdict on any non-rational spec
        if not (spec.genus_base == 0 and inv.d == 1):
            forged = OrdinarityVerdict(SCOPE_SINGLE, True, CLAUSE_ORDER_2, ())
            assert check_supersingular_corollary(spec, forged, report) is not None
    _passed(9, "h2>0 with supersingular fiber: 150 specs, all non-ordinary, checker catches forgeries")


def test_acceptance_10_scan_sanity(tmp_path, capsys):
    j_zero = tmp_path / "j0.json"
    j_zero.write_text(json.dumps({"E": {"a": 0, "b": 1}}))
    assert main(["scan", str(j_zero), "--pmax", "100", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    goods = 0
    for row in payload["rows"]:
        if not row["good"]:
            continue
        goods += 1
        assert row["verdict"] == (row["p"] % 3 == 1), row
    assert goods > 0

    generic = tmp_path / "generic.json"
    generic.write_text(json.dumps({"E": {"a": 1, "b": 1}}))  # j is neither 0 nor 1728
    assert main(["scan", str(generic), "--pmax", "500", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    num, den = payload["ordinary_fraction"]
    assert num / den > 0.9
    _passed(10, "scan marks j=0 ordinary exactly at p=1 mod 3; generic curve fraction > 0.9")
