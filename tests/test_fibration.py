"""Singular-fiber table, cover tower, line-bundle degrees, surface invariants."""

import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from isofib import fibration
from isofib.curves import EllipticCurveW
from isofib.ffpoly import PrimeField
from isofib.fibration import (
    FIBER_CLASSES,
    RAM_KEYS,
    FiberClass,
    KodairaType,
    RamificationData,
    Rotation,
    TranslationClass,
    ValidationError,
    _BUNDLES,
    _TRIVIAL_ON,
    _cover_genus,
    _degree_fractions,
    genus_cover_tower,
    line_bundle_degrees,
    singular_fibers,
    surface_invariants,
    validate_spec,
)

from helpers import count_calls, make_spec, random_valid_spec, violations_of


def test_translation_class_divisibility():
    TranslationClass(4, 2)
    with pytest.raises(ValueError):
        TranslationClass(4, 3)
    with pytest.raises(ValueError):
        TranslationClass(0, 1)


def test_ramification_counts_nonnegative():
    with pytest.raises(ValueError):
        RamificationData(a2=-1)


# --- fiber classification -------------------------------------------------

EXPECTED_EULER = {
    KodairaType.I0STAR: 6,
    KodairaType.II: 2,
    KodairaType.IISTAR: 10,
    KodairaType.III: 3,
    KodairaType.IIISTAR: 9,
    KodairaType.IV: 4,
    KodairaType.IVSTAR: 8,
}


def test_classify_order_two():
    fc = FIBER_CLASSES["a2"]
    assert fc.kodaira_type is KodairaType.I0STAR
    assert fc.euler == 6
    assert fc.singularities == ("A1",) * 4
    assert fc.pre_blowdown_matrix is None


def test_classify_order_three():
    plus = FIBER_CLASSES["a3p"]
    assert plus.kodaira_type is KodairaType.IV
    assert plus.euler == 4
    assert plus.singularities == ("A3,1",) * 3
    assert plus.blowdowns == 1
    minus = FIBER_CLASSES["a3m"]
    assert minus.kodaira_type is KodairaType.IVSTAR
    assert minus.euler == 8
    assert minus.singularities == ("A2",) * 3
    assert minus.blowdowns == 0


def test_classify_order_four():
    plus = FIBER_CLASSES["a4p"]
    assert plus.kodaira_type is KodairaType.III
    assert plus.euler == 3
    assert plus.singularities == ("A4,1", "A4,1", "A1")
    assert plus.blowdowns == 2
    minus = FIBER_CLASSES["a4m"]
    assert minus.kodaira_type is KodairaType.IIISTAR
    assert minus.euler == 9


def test_classify_order_six():
    plus = FIBER_CLASSES["a6p"]
    assert plus.kodaira_type is KodairaType.II
    assert plus.euler == 2
    assert plus.singularities == ("A6,1", "A3,1", "A1")
    assert plus.blowdowns == 3
    minus = FIBER_CLASSES["a6m"]
    assert minus.kodaira_type is KodairaType.IISTAR
    assert minus.euler == 10
    assert minus.singularities == ("A5", "A2", "A1")


def test_classify_euler_table_complete():
    assert tuple(FIBER_CLASSES) == RAM_KEYS
    seen = set()
    for name in RAM_KEYS:
        fc = FIBER_CLASSES[name]
        assert fc.euler == EXPECTED_EULER[fc.kodaira_type]
        seen.add(fc.euler)
    assert seen == {6, 4, 8, 3, 9, 2, 10}


def test_pre_blowdown_matrices_follow_the_singularity_list():
    """Row 0 is the (-1)-curve meeting each exceptional curve once; entry i on
    the diagonal is -k for an A_(k,1) singularity (one (-k)-curve), -2 for A1."""
    for fc in FIBER_CLASSES.values():
        if fc.pre_blowdown_matrix is None:
            continue
        matrix = fc.pre_blowdown_matrix
        assert matrix[0] == (-1,) + (1,) * len(fc.singularities), fc
        for i, name in enumerate(fc.singularities, start=1):
            k = 2 if name == "A1" else int(name[1:].split(",")[0])
            assert name in ("A1", f"A{k},1"), name
            assert matrix[i][i] == -k, (fc, name)


# --- the fiber table, derived from the quotient (BHPV III.5; Serrano 1996) ---


def _isotropy_orbits(e):
    """Stabilizer orders of the points of E with a nontrivial stabilizer under
    the rotation group of order e, one entry per orbit, largest first."""
    exact = {}  # stabilizer order k -> number of points with exactly that stabilizer
    for k in sorted((k for k in range(2, e + 1) if e % k == 0), reverse=True):
        # a rotation of order k fixes deg(1 - zeta_k) = 2 - trace points (Lefschetz)
        fixed = 2 - round(2 * math.cos(2 * math.pi / k))
        exact[k] = fixed - sum(n for big, n in exact.items() if big % k == 0)
    return tuple(k for k, n in exact.items() for _ in range(n // (e // k)))


def _hirzebruch_jung(k, q):
    """Self-intersections -b of the resolution chain of 1/k(1, q): k/q = [b1, b2, ...]."""
    chain = []
    while q:
        b = -(-k // q)
        chain.append(b)
        k, q = q, b * q - k
    return chain


def _solve(matrix, rhs):
    """The exact solution x of matrix . x = rhs (Gauss-Jordan over the rationals)."""
    n = len(rhs)
    rows = [[Fraction(v) for v in row] + [Fraction(r)] for row, r in zip(matrix, rhs)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if rows[i][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for i in range(n):
            if i != col and rows[i][col]:
                factor = rows[i][col] / rows[col][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[col])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def _resolve(e, sign, listed):
    """Resolve the fiber over a branch point of index e and character sign.

    Returns (singularities, intersection matrix before any blow-down,
    blow-downs, Euler number).  Component 0 is the strict transform F0 of
    E/(Z/e), of multiplicity e; each isotropy orbit of stabilizer order k gives
    a singularity 1/k(1, q), q = 1 for sign + and k - 1 for sign -, whose
    Hirzebruch-Jung chain meets F0 at its first curve.  The singularities
    follow their order in ``listed`` (one not listed goes last); multiplicities
    come from F.C = 0 on every exceptional curve, and F.F0 = 0 then fixes F0^2.
    """
    chains = []
    for k in _isotropy_orbits(e):
        chain = _hirzebruch_jung(k, 1 if sign > 0 else k - 1)
        name = f"A{len(chain)}" if set(chain) == {2} else f"A{chain[0]},1"
        chains.append((name, chain))
    chains.sort(key=lambda item: listed.index(item[0]) if item[0] in listed else len(listed))
    size = 1 + sum(len(chain) for _, chain in chains)
    matrix = [[0] * size for _ in range(size)]
    at = 1
    for _, chain in chains:
        matrix[0][at] = matrix[at][0] = 1
        for j, b in enumerate(chain):
            matrix[at + j][at + j] = -b
            if j:
                matrix[at + j - 1][at + j] = matrix[at + j][at + j - 1] = 1
        at += len(chain)

    exceptional = [row[1:] for row in matrix[1:]]
    mult = [Fraction(e)] + _solve(exceptional, [-e * matrix[0][i] for i in range(1, size)])
    assert all(m.denominator == 1 and m > 0 for m in mult), mult
    f0_squared = -sum(m * matrix[0][i] for i, m in enumerate(mult) if i) / e
    assert f0_squared.denominator == 1
    matrix[0][0] = int(f0_squared)

    # contract (-1)-curves: A.B += (A.C)(B.C); the fiber class F keeps F.C = 0
    kept, blowdowns = list(range(size)), 0
    work = [row[:] for row in matrix]
    while minus_one := [c for c in kept if work[c][c] == -1]:
        c = minus_one[0]
        kept.remove(c)
        for a in kept:
            for b in kept:
                work[a][b] += work[a][c] * work[b][c]
        blowdowns += 1
    for c in kept:
        assert sum(mult[a] * work[a][c] for a in kept) == 0, (e, sign, c)
    singularities = tuple(name for name, _ in chains)
    return singularities, tuple(map(tuple, matrix)), blowdowns, size + 1 - blowdowns


def test_fiber_classes_match_their_resolution():
    assert _isotropy_orbits(2) == (2, 2, 2, 2)
    assert _isotropy_orbits(3) == (3, 3, 3)
    assert _isotropy_orbits(4) == (4, 4, 2)
    assert _isotropy_orbits(6) == (6, 3, 2)
    plus_matrices = {
        "a3p": ((-1, 1, 1, 1), (1, -3, 0, 0), (1, 0, -3, 0), (1, 0, 0, -3)),
        "a4p": ((-1, 1, 1, 1), (1, -4, 0, 0), (1, 0, -4, 0), (1, 0, 0, -2)),
        "a6p": ((-1, 1, 1, 1), (1, -6, 0, 0), (1, 0, -3, 0), (1, 0, 0, -2)),
    }
    for name in RAM_KEYS:
        fc = FIBER_CLASSES[name]
        e, sign = int(name[1]), -1 if name.endswith("m") else 1
        singularities, matrix, blowdowns, euler = _resolve(e, sign, fc.singularities)
        assert sorted(singularities) == sorted(fc.singularities), name
        assert (blowdowns, euler) == (fc.blowdowns, fc.euler), name
        if blowdowns:
            assert matrix == fc.pre_blowdown_matrix == plus_matrices[name], name
        else:
            assert fc.pre_blowdown_matrix is None and name not in plus_matrices, name
    # the order-2 kind does not depend on the sign of its character
    singularities, _, blowdowns, euler = _resolve(2, -1, FIBER_CLASSES["a2"].singularities)
    assert (singularities, blowdowns, euler) == (("A1",) * 4, 0, 6)


# --- validation -------------------------------------------------------------


def test_validate_odd_a2_fails_integrality():
    violations = violations_of(Rotation.C2, a2=3)
    assert any("deg L1" in v and "3/2" in v for v in violations)


def test_character_sum_genera_match_riemann_hurwitz_over_the_branch_points():
    # the genus of D'/H, H of order h, is read off the characters trivial on H.
    # Counted over the branch points instead, D'/H has degree m = n/h over C and
    # m/e_h points of index e_h = e/gcd(e, h) over a branch point of index e
    integral = 0
    for rotation in Rotation:
        n = rotation.order
        subgroups = [h for h in range(1, n + 1) if n % h == 0]
        assert [h for r, h in _TRIVIAL_ON if r is rotation] == subgroups
        keys = [name for name in RAM_KEYS if n % int(name[1]) == 0]
        for counts in itertools.product(range(7), repeat=len(keys)):
            fractions = _degree_fractions(rotation, RamificationData(**dict(zip(keys, counts))))
            if any(num % den for num, den, _ in fractions):
                continue
            deg_l = [-(num // den) for num, den, _ in fractions]
            for genus_base in range(3):
                integral += 1
                spec = SimpleNamespace(rotation=rotation, genus_base=genus_base)
                for h in subgroups:  # h = 1 gives D' itself, h = n the base C
                    genus = _cover_genus(spec, deg_l, h)
                    m = n // h
                    twice = m * (2 * genus_base - 2)
                    for name, count in zip(keys, counts):
                        e = int(name[1])
                        e_h = e // math.gcd(e, h)
                        twice += count * (m // e_h) * (e_h - 1)
                    assert 2 * genus - 2 == twice, (rotation, counts, genus_base, h)
    assert integral == 8766


def test_validate_balanced_c3_passes():
    spec = make_spec(Rotation.C3, a3p=1, a3m=1)
    assert validate_spec(spec) == []
    assert line_bundle_degrees(spec) == (-1, -1)


def test_validate_c3_with_a2_fails_shape():
    violations = violations_of(Rotation.C3, a2=1, a3p=1, a3m=1)
    assert any("a2" in v and "order 3" in v for v in violations)


# the branch kinds each rotation group allowed when the table was written out
ALLOWED_BRANCH_KINDS = {
    Rotation.TRIVIAL: frozenset(),
    Rotation.C2: frozenset({"a2"}),
    Rotation.C3: frozenset({"a3p", "a3m"}),
    Rotation.C4: frozenset({"a4p", "a4m", "a2"}),
    Rotation.C6: frozenset({"a6p", "a6m", "a3p", "a3m", "a2"}),
}


def test_branch_kind_is_legal_where_its_index_divides_the_rotation_order():
    for rotation, allowed in ALLOWED_BRANCH_KINDS.items():
        n = rotation.order
        for name in RAM_KEYS:
            index = int(name[1])
            shape = (
                f"{name} = 2: index-{index} branch points need a "
                f"stabilizer of order {index} inside a rotation group of order {n}"
            )
            violations = violations_of(rotation, p=7, **{name: 2})
            assert (shape in violations) == (name not in allowed), (rotation, name)
            assert sum("branch points need a stabilizer" in v for v in violations) == (
                name not in allowed
            )


def test_validate_characteristic_divides_group():
    violations = violations_of(Rotation.C2, p=5, a2=2, translation=(5, 1))
    assert any("divides the group order" in v for v in violations)


def test_validate_no_cover_of_p1_without_branching():
    assert any("genus" in v for v in violations_of(Rotation.C2, a2=0, genus_base=0))
    assert violations_of(Rotation.C2, a2=0, genus_base=1) == []


def test_validate_branch_poly_rules():
    assert violations_of(Rotation.C2, a2=2, branch=[0, 1]) == []  # t: root 0 plus infinity
    wrong_count = violations_of(Rotation.C2, a2=4, branch=[0, 1])
    assert any("a2 = 4" in v for v in wrong_count)
    not_squarefree = violations_of(Rotation.C2, a2=2, branch=[0, 0, 1])
    assert any("squarefree" in v for v in not_squarefree)
    wrong_rotation = violations_of(Rotation.C3, a3p=1, a3m=1, branch=[0, 1])
    assert any("order-2 chain" in v for v in wrong_rotation)


def test_validate_branch_poly_needs_a_rational_base():
    # the quartic marks the four branch points of a double cover of P^1, not of a genus-1 C
    assert violations_of(Rotation.C2, p=7, genus_base=1, a2=4, branch=[1, 0, 0, 0, 1]) == [
        "an explicit branch polynomial describes a double cover of the projective line: "
        "genus_base must be 0"
    ]
    assert violations_of(Rotation.C2, p=7, genus_base=0, a2=4, branch=[1, 0, 0, 0, 1]) == []


def test_validate_intermediate_covers_need_nonnegative_genus():
    # each D' below has genus >= 0, but its quotient by a subgroup of R would not
    assert violations_of(Rotation.C4, a2=4) == [
        "intermediate double cover would have negative genus"
    ]
    assert violations_of(Rotation.C6, p=7, a2=6) == [
        "intermediate triple cover would have negative genus"
    ]
    assert violations_of(Rotation.C6, p=7, a3p=2, a3m=2) == [
        "intermediate double cover would have negative genus"
    ]


def test_validate_j_invariant_compatibility():
    f13 = PrimeField(13)
    j0 = EllipticCurveW(f13, 0, 1)
    j1728 = EllipticCurveW(f13, 1, 0)
    assert violations_of(Rotation.C3, p=13, a3p=1, a3m=1, e_model=j0) == []
    bad = violations_of(Rotation.C3, p=13, a3p=1, a3m=1, e_model=j1728)
    assert any("j(E) = 0" in v for v in bad)
    assert violations_of(Rotation.C4, p=13, a4p=2, a4m=0, a2=1, e_model=j1728) == []
    bad4 = violations_of(Rotation.C4, p=13, a4p=2, a4m=0, a2=1, e_model=j0)
    assert any("1728" in v for v in bad4)


def test_construction_raises_with_all_violations():
    # p = 5 divides |G| = 10 and a2 = 3 makes deg L1 non-integral: both are reported
    with pytest.raises(ValidationError) as err:
        make_spec(Rotation.C2, p=5, a2=3, translation=(5, 1))
    assert len(err.value.violations) == 2
    assert any("divides the group order" in v for v in err.value.violations)
    assert any("deg L1" in v for v in err.value.violations)


# --- cover tower ------------------------------------------------------------


def test_tower_double_cover_of_line():
    assert genus_cover_tower(make_spec(Rotation.C2, a2=4)) == (1, None, None)
    assert genus_cover_tower(make_spec(Rotation.C2, a2=2)) == (0, None, None)
    assert genus_cover_tower(make_spec(Rotation.C2, a2=6)) == (2, None, None)


def test_tower_order_four():
    spec = make_spec(Rotation.C4, a4p=2, a4m=0, a2=1)
    assert genus_cover_tower(spec) == (1, 0, None)


def test_tower_order_six():
    spec = make_spec(Rotation.C6, a6p=1, a6m=1, a2=2)
    g_prime, g_double, g_triple = genus_cover_tower(spec)
    # RH: 2g'-2 = 6(-2) + 2*5 + 2*3 = 4
    assert g_prime == 3
    assert g_double is None
    # triple cover branched at a6p + a6m = 2 points: 2g-2 = 3(-2) + 2*2
    assert g_triple == 0


def test_tower_trivial_rotation():
    spec = make_spec(Rotation.TRIVIAL, genus_base=2)
    assert genus_cover_tower(spec) == (2, None, None)


def test_tower_matches_riemann_hurwitz_written_out_per_cover():
    rng = random.Random(2718)
    for _ in range(400):
        spec = random_valid_spec(rng)
        r, n, base = spec.ram, spec.rotation.order, 2 * spec.genus_base - 2
        a3, a4, a6 = r.a3p + r.a3m, r.a4p + r.a4m, r.a6p + r.a6m
        twice = n * base + r.a2 * (n // 2) + a3 * (n // 3) * 2 + a4 * (n // 4) * 3 + a6 * 5
        expected = [twice // 2 + 1, None, None]
        if spec.rotation is Rotation.C4:
            expected[1] = (2 * base + a4) // 2 + 1
        if spec.rotation is Rotation.C6:
            expected[2] = (3 * base + 2 * (a6 + a3)) // 2 + 1
        assert genus_cover_tower(spec) == tuple(expected), spec


# --- line bundle degrees ----------------------------------------------------


def test_degrees_order_two():
    assert line_bundle_degrees(make_spec(Rotation.C2, a2=2)) == (-1,)
    assert line_bundle_degrees(make_spec(Rotation.C2, a2=4)) == (-2,)


def test_degrees_order_four():
    spec = make_spec(Rotation.C4, a4p=2, a4m=0, a2=1)
    assert line_bundle_degrees(spec) == (-2, -1, -1)


def test_degrees_order_six():
    spec = make_spec(Rotation.C6, a6p=1, a6m=1, a2=2)
    assert line_bundle_degrees(spec) == (-2, -1, -2, -1, -2)


def test_degrees_trivial_rotation_empty():
    assert line_bundle_degrees(make_spec(Rotation.TRIVIAL, genus_base=1)) == ()


# L_i is the chi^c eigensheaf for the i-th exponent c; order 6 numbers its L2 and
# L4 as chi^4 and chi^2, and the deg_L output follows that numbering
CHARACTER_EXPONENTS = {
    Rotation.TRIVIAL: (),
    Rotation.C2: (1,),
    Rotation.C3: (1, 2),
    Rotation.C4: (1, 2, 3),
    Rotation.C6: (1, 4, 3, 2, 5),
}


# the paper's degree formulas, -deg L_k = (sum of weight * count)/den, in listing order
PAPER_DEGREE_FORMULAS = {
    Rotation.TRIVIAL: (),
    Rotation.C2: (({"a2": 1}, 2, "deg L1 = -a2/2"),),
    Rotation.C3: (
        ({"a3p": 2, "a3m": 1}, 3, "deg L1 = -(2*a3p + a3m)/3"),
        ({"a3p": 1, "a3m": 2}, 3, "deg L2 = -(a3p + 2*a3m)/3"),
    ),
    Rotation.C4: (
        ({"a4p": 3, "a4m": 1, "a2": 2}, 4, "deg L1 = -(3*a4p + a4m + 2*a2)/4"),
        ({"a4p": 1, "a4m": 1}, 2, "deg L2 = -(a4p + a4m)/2"),
        ({"a4p": 1, "a4m": 3, "a2": 2}, 4, "deg L3 = -(a4p + 3*a4m + 2*a2)/4"),
    ),
    Rotation.C6: (
        (
            {"a6p": 5, "a6m": 1, "a3p": 4, "a3m": 2, "a2": 3},
            6,
            "deg L1 = -(5*a6p + a6m + 4*a3p + 2*a3m + 3*a2)/6",
        ),
        (
            {"a6p": 1, "a6m": 2, "a3p": 2, "a3m": 1},
            3,
            "deg L2 = -(a6p + 2*a6m + 2*a3p + a3m)/3",
        ),
        ({"a6p": 1, "a6m": 1, "a2": 1}, 2, "deg L3 = -(a6p + a6m + a2)/2"),
        (
            {"a6p": 2, "a6m": 1, "a3p": 1, "a3m": 2},
            3,
            "deg L4 = -(2*a6p + a6m + a3p + 2*a3m)/3",
        ),
        (
            {"a6p": 1, "a6m": 5, "a3p": 2, "a3m": 4, "a2": 3},
            6,
            "deg L5 = -(a6p + 5*a6m + 2*a3p + 4*a3m + 3*a2)/6",
        ),
    ),
}


def test_bundle_table_reproduces_the_papers_degree_formulas():
    for rotation, formulas in PAPER_DEGREE_FORMULAS.items():
        expected = [
            (tuple(weights.get(name, 0) for name in RAM_KEYS), den, text)
            for weights, den, text in formulas
        ]
        assert [row[1:] for row in _BUNDLES[rotation]] == expected, rotation
        assert tuple(row[0] for row in _BUNDLES[rotation]) == CHARACTER_EXPONENTS[rotation]


def test_spec_construction_reads_the_bundle_table_without_deriving_it(monkeypatch):
    derived = count_calls(monkeypatch, "fibration", "_character_bundles")
    rng = random.Random(6)
    for rotation in Rotation:
        random_valid_spec(rng, rotation)
    law_breaking = [
        violations_of(Rotation.TRIVIAL, a2=1),
        violations_of(Rotation.C2, a2=3),
        violations_of(Rotation.C3, a3p=1),
        violations_of(Rotation.C4, a4p=1),
        violations_of(Rotation.C6, a2=1),
    ]
    assert all(law_breaking)
    assert sum(derived.values()) == 0
    # the counter sees a derivation through the module
    fibration._character_bundles(Rotation.C2)
    assert sum(derived.values()) == 1


def test_a_valid_construction_runs_the_degree_formulas_once(monkeypatch):
    runs = count_calls(monkeypatch, "fibration", "_degree_fractions")
    specs = [
        make_spec(Rotation.TRIVIAL, genus_base=2),
        make_spec(Rotation.C2, a2=4),
        make_spec(Rotation.C3, p=7, a3p=1, a3m=1),
        make_spec(Rotation.C4, p=13, a4p=2, a2=1),
        make_spec(Rotation.C6, p=7, a6p=1, a6m=1, a2=2),
    ]
    assert runs[None] == len(specs)
    # the degrees, the tower and validation read the spec's own fractions again
    for spec in specs:
        assert line_bundle_degrees(spec) == spec.invariants.deg_l
        assert genus_cover_tower(spec) == spec.invariants.tower
        assert validate_spec(spec) == []
    assert runs[None] == len(specs)


def test_degree_fractions_follow_the_eigensheaf_formula():
    # a key's digit is its index e; its sign s is -1 for the m keys (the stabilizer
    # acts by the inverse root of unity) and +1 for a2 and the p keys.  A branch
    # point adds ((-s c) mod e)/e to -deg of the chi^c eigensheaf, whose
    # denominator is the order n / gcd(n, c) of chi^c
    for rotation, exponents in CHARACTER_EXPONENTS.items():
        n = rotation.order
        rows = []
        for c in exponents:
            den = n // math.gcd(n, c)
            weights = []
            for name in RAM_KEYS:
                e, sign = int(name[1]), -1 if name.endswith("m") else 1
                weight = Fraction((-sign * c) % e, e) * den if n % e == 0 else Fraction(0)
                assert weight.denominator == 1, (rotation, c, name)
                weights.append(int(weight))
            rows.append((weights, den))
        for counts in itertools.product(range(4), repeat=len(RAM_KEYS)):
            table = _degree_fractions(rotation, RamificationData(*counts))
            expected = [(sum(w * a for w, a in zip(weights, counts)), den) for weights, den in rows]
            assert [(num, den) for num, den, _ in table] == expected, (rotation, counts)


# --- surface invariants -----------------------------------------------------


def test_invariants_two_branch_points():
    inv = surface_invariants(make_spec(Rotation.C2, a2=2))
    assert (inv.chi, inv.euler_total, inv.h1, inv.h2, inv.d) == (1, 12, 0, 0, 1)
    assert inv.rational and not inv.k3_candidate


def test_invariants_four_branch_points():
    inv = surface_invariants(make_spec(Rotation.C2, a2=4))
    assert (inv.chi, inv.euler_total, inv.h1, inv.h2, inv.d) == (2, 24, 0, 1, 2)
    assert inv.k3_candidate and not inv.rational
    fibers = singular_fibers(make_spec(Rotation.C2, a2=4))
    assert [(fc.kodaira_type, count) for fc, count in fibers] == [(KodairaType.I0STAR, 4)]


def test_invariants_order_four_star_configuration():
    inv = surface_invariants(make_spec(Rotation.C4, a4m=2, a4p=0, a2=1))
    assert inv.euler_total == 24
    assert inv.chi == 2
    inv2 = surface_invariants(make_spec(Rotation.C4, a4p=2, a4m=0, a2=1))
    assert inv2.euler_total == 12
    assert inv2.chi == 1
    assert inv2.rational


def test_invariants_trivial_rotation():
    inv = surface_invariants(make_spec(Rotation.TRIVIAL, genus_base=2))
    assert (inv.chi, inv.euler_total, inv.h1, inv.h2, inv.d) == (0, 0, 3, 2, 0)
    assert not inv.rational and not inv.k3_candidate


def test_invariants_etale_double_cover():
    inv = surface_invariants(make_spec(Rotation.C2, a2=0, genus_base=1))
    assert (inv.chi, inv.euler_total, inv.h1, inv.h2, inv.d) == (0, 0, 1, 0, 0)


def test_spec_carries_its_derived_invariants():
    rng = random.Random(23)
    for _ in range(300):
        spec = random_valid_spec(rng)
        assert spec.invariants == surface_invariants(spec)
        assert spec.invariants.tower == genus_cover_tower(spec)
        assert spec.invariants.fibers == singular_fibers(spec)


def test_noether_identity_randomized():
    rng = random.Random(99)
    for _ in range(500):
        spec = random_valid_spec(rng)
        inv = surface_invariants(spec)
        assert 12 * inv.chi == sum(count * fc.euler for fc, count in singular_fibers(spec))


def test_cover_tower_chi_consistency():
    # chi(O_D') summed over character pieces equals 1 - g(D') from the tower
    rng = random.Random(123)
    for _ in range(200):
        spec = random_valid_spec(rng)
        degrees = (0,) + line_bundle_degrees(spec)
        chi_sum = sum(1 - spec.genus_base + d for d in degrees)
        g_prime = genus_cover_tower(spec)[0]
        assert chi_sum == 1 - g_prime, spec


def test_sign_flip_duality():
    rng = random.Random(7)
    swap = {
        KodairaType.IV: KodairaType.IVSTAR,
        KodairaType.IVSTAR: KodairaType.IV,
        KodairaType.III: KodairaType.IIISTAR,
        KodairaType.IIISTAR: KodairaType.III,
        KodairaType.II: KodairaType.IISTAR,
        KodairaType.IISTAR: KodairaType.II,
        KodairaType.I0STAR: KodairaType.I0STAR,
    }
    for _ in range(200):
        spec = random_valid_spec(rng)
        flipped = make_spec(
            spec.rotation,
            p=spec.field.p,
            genus_base=spec.genus_base,
            translation=(spec.translation.n1, spec.translation.n2),
            **{
                k: getattr(spec.ram.flipped(), k)
                for k in ("a2", "a3p", "a3m", "a4p", "a4m", "a6p", "a6m")
            },
        )
        assert validate_spec(flipped) == []
        degrees = line_bundle_degrees(spec)
        assert line_bundle_degrees(flipped) == tuple(reversed(degrees))
        orig = sorted((fc.kodaira_type.value, n) for fc, n in singular_fibers(spec))
        dual = sorted((swap[fc.kodaira_type].value, n) for fc, n in singular_fibers(flipped))
        assert orig == dual


def test_singular_fibers_are_counted_not_listed():
    spec = make_spec(Rotation.C2, a2=2 * 10**6)
    fibers = singular_fibers(spec)
    assert len(fibers) == 1
    assert fibers[0] == (FIBER_CLASSES["a2"], 2 * 10**6)
    assert surface_invariants(spec).euler_total == 12 * 10**6


def test_singular_fibers_order_and_zero_counts():
    spec = make_spec(Rotation.C6, a6p=1, a6m=1, a3m=3, a2=2)
    labels = [(fc.kodaira_type.value, n) for fc, n in singular_fibers(spec)]
    assert labels == [("I0*", 2), ("IV*", 3), ("II", 1), ("II*", 1)]


def test_fiber_class_is_immutable():
    fc = FIBER_CLASSES["a3p"]
    with pytest.raises(AttributeError):
        fc.euler = 5
    assert isinstance(fc, FiberClass)
