"""Shared builders for randomized fibration specs and curve models, plus a call counter."""

import functools
import importlib
import random
import sys
from collections import Counter

from isofib.curves import EllipticCurveW
from isofib.ffpoly import FpPolynomial, PrimeField
from isofib.fibration import (
    FibrationSpec,
    RamificationData,
    Rotation,
    TranslationClass,
    ValidationError,
)

SMALL_PRIMES = (5, 7, 11, 13, 17, 19, 23)


def make_spec(rotation, p=5, genus_base=0, translation=(1, 1), e_model=None, branch=None, **counts):
    field = PrimeField(p)
    branch_poly = FpPolynomial(field, branch) if branch is not None else None
    return FibrationSpec(
        rotation=rotation,
        translation=TranslationClass(*translation),
        genus_base=genus_base,
        ram=RamificationData(**counts),
        field=field,
        e_model=e_model,
        branch_poly=branch_poly,
    )


def violations_of(rotation, **kwargs) -> list[str]:
    """The violations make_spec(rotation, **kwargs) raises; empty when the spec is valid."""
    try:
        make_spec(rotation, **kwargs)
    except ValidationError as exc:
        return exc.violations
    return []


def random_valid_spec(rng: random.Random, rotation=None) -> FibrationSpec:
    """Rejection-sample a spec that passes every validation rule."""
    while True:
        rot = rotation or rng.choice(list(Rotation))
        counts = {}
        if rot is Rotation.C2:
            counts["a2"] = 2 * rng.randrange(0, 4)
        elif rot is Rotation.C3:
            counts["a3p"] = rng.randrange(0, 5)
            counts["a3m"] = rng.randrange(0, 5)
        elif rot is Rotation.C4:
            counts["a4p"] = rng.randrange(0, 4)
            counts["a4m"] = rng.randrange(0, 4)
            counts["a2"] = rng.randrange(0, 4)
        elif rot is Rotation.C6:
            counts["a6p"] = rng.randrange(0, 3)
            counts["a6m"] = rng.randrange(0, 3)
            counts["a3p"] = rng.randrange(0, 3)
            counts["a3m"] = rng.randrange(0, 3)
            counts["a2"] = rng.randrange(0, 3)
        n1 = rng.choice([1, 1, 2, 3])
        n2 = rng.choice([d for d in (1, n1) if n1 % d == 0])
        p = rng.choice(SMALL_PRIMES)
        try:
            return make_spec(
                rot,
                p=p,
                genus_base=rng.randrange(0, 3),
                translation=(n1, n2),
                **counts,
            )
        except ValidationError:
            continue


def random_squarefree_poly(rng: random.Random, field: PrimeField, degree: int) -> FpPolynomial:
    while True:
        coeffs = [rng.randrange(field.p) for _ in range(degree)]
        coeffs.append(rng.randrange(1, field.p))
        f = FpPolynomial(field, coeffs)
        if f.is_squarefree():
            return f


def random_ordinary_curve(rng: random.Random, field: PrimeField) -> EllipticCurveW:
    from isofib.curves import hasse_invariant

    while True:
        a, b = rng.randrange(field.p), rng.randrange(field.p)
        if (4 * a**3 + 27 * b**2) % field.p == 0:
            continue
        e = EllipticCurveW(field, a, b)
        if hasse_invariant(e) != 0:
            return e


def count_calls(monkeypatch, module: str, qualname: str, key=lambda *args: None) -> Counter:
    """Wrap isofib.<module>.<qualname> wherever it is bound; count calls by key(*args).

    A plain function is replaced in every isofib module that imports it, a
    method ("Class.name") on its class, so no call route escapes the count.
    """
    counts = Counter()

    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key(*args)] += 1
            return fn(*args, **kwargs)

        return wrapper

    home = importlib.import_module(f"isofib.{module}")
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        cls = getattr(home, cls_name)
        monkeypatch.setattr(cls, attr, wrap(cls.__dict__[attr]))
        return counts
    original = getattr(home, qualname)
    wrapper = wrap(original)
    for name, mod in list(sys.modules.items()):
        if name == "isofib" or name.startswith("isofib."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, wrapper)
    return counts


def bareiss_resultant(f, g) -> int:
    """Res(f, g) = det of the Sylvester matrix of integer polynomials f and g
    (lowest degree first, nonzero leading coefficients), by fraction-free
    elimination (Bareiss 1968): every entry stays an integer minor, and each
    step divides exactly by the previous pivot.  The oracle for
    ``ffpoly.integer_resultant``."""
    m, n = len(f) - 1, len(g) - 1
    size = m + n
    rows = [[0] * i + list(f[::-1]) + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + list(g[::-1]) + [0] * (m - 1 - i) for i in range(m)]
    sign, previous = 1, 1
    for k in range(size - 1):
        if not rows[k][k]:
            swap = next((r for r in range(k + 1, size) if rows[r][k]), None)
            if swap is None:
                return 0
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        pivot_row = rows[k]
        pivot = pivot_row[k]
        for row in rows[k + 1 :]:
            c = row[k]
            for j in range(k + 1, size):
                row[j] = (pivot * row[j] - c * pivot_row[j]) // previous
        previous = pivot
    return sign * rows[-1][-1] if size else 1


def matrix_power_by_products(rows, e: int, p: int) -> list[list[int]]:
    """rows^e mod p for a square integer matrix and e >= 1, by e - 1 schoolbook products."""
    n = len(rows)
    power = [[c % p for c in row] for row in rows]
    for _ in range(e - 1):
        power = [[sum(power[i][k] * rows[k][j] for k in range(n)) % p for j in range(n)]
                 for i in range(n)]
    return power
