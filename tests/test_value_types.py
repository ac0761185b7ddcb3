"""Every value type in the public API is immutable, compares by value and
takes exact integers only; enum members are immutable singletons."""

import copy
import enum
import pickle

import pytest

import isofib
from isofib import (
    CurveOrdinarityReport,
    CurveReportEntry,
    EllipticCurveQ,
    EllipticCurveW,
    FiberClass,
    FibrationSpec,
    FpMatrix,
    FpPolynomial,
    HasseDivisor,
    HyperellipticModel,
    KodairaType,
    OrdinarityVerdict,
    PrimeField,
    RamificationData,
    Rotation,
    SurfaceInvariants,
    TranslationClass,
    surface_invariants,
)

F5 = PrimeField(5)


def _trivial_spec(genus_base):
    return FibrationSpec(Rotation.TRIVIAL, TranslationClass(1, 1), genus_base,
                         RamificationData(), F5)


# class: (build, inputs, one input changed, a non-integer coefficient or None).
# None marks the result types that only the library builds, from integers it
# has already checked.
CASES = {
    PrimeField: (PrimeField, (7,), (11,), (7.0,)),
    FpPolynomial: (FpPolynomial, (F5, [2, 1]), (F5, [3, 1]), (F5, [2.5, 1])),
    FpMatrix: (FpMatrix, (F5, [[1, 2]]), (F5, [[1, 3]]), (F5, [[2.7]])),
    EllipticCurveW: (EllipticCurveW, (F5, 1, 1), (F5, 1, 2), (F5, 1.5, 1)),
    EllipticCurveQ: (EllipticCurveQ, (1, 1), (1, 2), (1.5, 1)),
    HyperellipticModel: (lambda *f: HyperellipticModel(FpPolynomial(F5, f)),
                         (1, 1, 0, 0, 0, 1), (2, 1, 0, 0, 0, 1), (1.0, 1, 0, 0, 0, 1)),
    TranslationClass: (TranslationClass, (2, 1), (2, 2), (2.0, 1)),
    RamificationData: (lambda a2: RamificationData(a2=a2), (4,), (6,), (4.0,)),
    FibrationSpec: (_trivial_spec, (1,), (2,), (1.0,)),
    SurfaceInvariants: (lambda g: surface_invariants(_trivial_spec(g)), (1,), (2,), None),
    FiberClass: (FiberClass, (KodairaType.II, 2, ("A1",), None, 3),
                 (KodairaType.II, 2, ("A1",), None, 2), None),
    CurveReportEntry: (CurveReportEntry, (2, 1, None, "supplied"), (2, 2, None, "supplied"),
                       (2, 1.0, None, "supplied")),
    CurveOrdinarityReport: (lambda rank: CurveOrdinarityReport(
        E=CurveReportEntry(1, rank, None, "supplied")), (0,), (1,), (0.0,)),
    HasseDivisor: (HasseDivisor, ((), 0), ((), 1), None),
    OrdinarityVerdict: (OrdinarityVerdict, ("single_X", True, "rotation-2", ()),
                        ("single_X", False, "rotation-2", ()), None),
}


def test_every_public_value_type_is_pinned():
    # exceptions are not values, and enum members are singletons compared by identity
    public = [getattr(isofib, name) for name in isofib.__all__]
    value_types = {obj for obj in public if isinstance(obj, type)
                   and not issubclass(obj, (Exception, enum.Enum))}
    assert value_types == set(CASES)


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_value_types_are_immutable_exact_and_compare_by_value(cls):
    build, inputs, changed, non_integer = CASES[cls]
    value = build(*inputs)
    assert type(value) is cls
    first = cls._fields[0]
    for name in (first, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 11)
        with pytest.raises(AttributeError):
            delattr(value, name)
    same = build(*inputs)
    assert same == value and hash(same) == hash(value)
    assert {value: "found"}[same] == "found"
    assert build(*changed) != value
    # a value never equals the tuple of its fields, e.g. FpPolynomial(F5, [2, 1]) != (F5, (2, 1))
    assert (value == tuple(getattr(value, name) for name in cls._fields)) is False
    if non_integer is not None:
        with pytest.raises(TypeError):
            build(*non_integer)


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_value_types_survive_copy_and_pickle(cls):
    build, inputs, _, _ = CASES[cls]
    value = build(*inputs)
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls and twin == value and hash(twin) == hash(value)


def test_value_type_reprs_name_the_compared_fields_only():
    assert repr(TranslationClass(2, 1)) == "TranslationClass(n1=2, n2=1)"
    assert repr(EllipticCurveQ(1, 1)) == "EllipticCurveQ(a=1, b=1)"
    assert repr(_trivial_spec(1)) == (
        "FibrationSpec(rotation=<Rotation.TRIVIAL: 1>, translation=TranslationClass(n1=1, n2=1), "
        "genus_base=1, ram=RamificationData(a2=0, a3p=0, a3m=0, a4p=0, a4m=0, a6p=0, a6m=0), "
        "field=PrimeField(p=5), e_model=None, branch_poly=None)"
    )


@pytest.mark.parametrize("member", [*Rotation, *KodairaType], ids=repr)
def test_enum_members_are_immutable_singletons(member):
    for name in ("value", "_value_", "note"):
        with pytest.raises(AttributeError):
            setattr(member, name, 99)
        with pytest.raises(AttributeError):
            delattr(member, name)
    enum_type = type(member)
    assert enum_type(member.value) is member and enum_type[member.name] is member
    assert copy.deepcopy(member) is member and pickle.loads(pickle.dumps(member)) is member
