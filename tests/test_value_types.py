"""Every value type in the public API is immutable, compares by value and
takes exact integers only."""

import dataclasses
import enum

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
    first = dataclasses.fields(value)[0].name if dataclasses.is_dataclass(value) else "p"
    for name in (first, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 11)
        with pytest.raises(AttributeError):
            delattr(value, name)
    same = build(*inputs)
    assert same == value and hash(same) == hash(value)
    assert {value: "found"}[same] == "found"
    assert build(*changed) != value
    if non_integer is not None:
        with pytest.raises(TypeError):
            build(*non_integer)
