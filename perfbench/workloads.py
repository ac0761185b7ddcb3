"""Seeded inputs for the benchmark workloads.

Each workload is a fixed list of op slots.  The slot layout (the pmax ladder,
the branch degrees, the sizes of the large spec documents, the rotation class
of each document) is the same for every seed; the seed only picks the curves,
the coefficients and the document contents.  That keeps the cost profile of a
batch independent of the seed, so runs on different seeds can be compared.

The generators use their own Riemann-Hurwitz and character-degree arithmetic
(written out below, not imported from isofib), so the tower genera they
record are an independent route for the checks.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import product
from pathlib import Path

# scan-e: forty scans up to pmax 100..880 plus two up to 1600 and 2200,
# where the superlinear cost of the elliptic Hasse kernel shows.  Forty-two
# ops put the tail (ten ops beyond it) at p76.
SCAN_E_PMAX = tuple(range(100, 881, 20)) + (1600, 2200)
# scan-c2: forty scans up to pmax 100..295 plus two up to 560 and 640.
# Degrees 5 and 7 put a branch point at infinity; 5, 6 give genus 2 and 7, 8
# genus 3 (the genus-3 part keeps the full-power Cartier route).
SCAN_C2_PMAX = tuple(range(100, 300, 5)) + (560, 640)
SCAN_C2_DEGREES = (5, 6, 7, 8) * 10 + (6, 8)

# specs: 80 documents per batch, each answered by `invariants` then `decide`.
SPECS_DOCS = 80
ROTATIONS = ("trivial", "C2", "C3", "C4", "C6")
ORDER = {"trivial": 1, "C2": 2, "C3": 3, "C4": 4, "C6": 6}
RAM_KEYS = ("a2", "a3p", "a3m", "a4p", "a4m", "a6p", "a6m")
RAM_INDEX = {"a2": 2, "a3p": 3, "a3m": 3, "a4p": 4, "a4m": 4, "a6p": 6, "a6m": 6}
ALLOWED = {
    "trivial": (),
    "C2": ("a2",),
    "C3": ("a3p", "a3m"),
    "C4": ("a4p", "a4m", "a2"),
    "C6": ("a6p", "a6m", "a3p", "a3m", "a2"),
}
FIBER_TYPE = {
    "a2": "I0*",
    "a3p": "IV",
    "a3m": "IV*",
    "a4p": "III",
    "a4m": "III*",
    "a6p": "II",
    "a6m": "II*",
}
# Twelve large documents (15%) with 10^5..10^6 branch points in total, and
# eight (10%) that break a law and must be rejected with exit code 1.
LARGE_SIZES = (100_000, 150_000, 200_000, 250_000, 300_000, 400_000,
               500_000, 600_000, 700_000, 800_000, 900_000, 1_000_000)
LARGE_ROTATIONS = ("C2", "C3", "C4", "C6")
INVALID_KINDS = ("p-divides-G", "non-integral-degree", "negative-genus", "wrong-j")
SMALL_E_MODEL_PMAX = 200


@dataclass
class Op:
    """One call of ``isofib.cli.main(argv)`` and what its checks need."""

    argv: list[str]
    expect: dict


@dataclass
class Batch:
    workload: str
    ops: list[Op]
    items: int  # prime rows for a scan, documents for specs


def primes_between(lo: int, hi: int) -> list[int]:
    return [n for n in range(max(lo, 2), hi + 1) if all(n % d for d in range(2, int(n**0.5) + 1))]


def _det_bareiss(m: list[list[int]]) -> int:
    """Exact integer determinant (fraction-free Gaussian elimination)."""
    a = [row[:] for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def discriminant_multiple(f: list[int]) -> int:
    """Res(f, f') over the integers, lowest coefficient first.

    For a prime p not dividing the leading coefficient, f mod p is squarefree
    exactly when p does not divide this resultant (the discriminant times the
    leading coefficient).
    """
    n = len(f) - 1
    df = [i * c for i, c in enumerate(f)][1:]
    size = 2 * n - 1
    rows = []
    hi_f, hi_df = f[::-1], df[::-1]
    for i in range(n - 1):
        rows.append([0] * i + hi_f + [0] * (size - i - len(hi_f)))
    for i in range(n):
        rows.append([0] * i + hi_df + [0] * (size - i - len(hi_df)))
    return _det_bareiss(rows)


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# scans


def _scan_curve(rng: random.Random, slot: int) -> tuple[int, int]:
    """Integral model; every fifth slot has j = 0 (a = 0), every fifth + 2
    has j = 1728 (b = 0, so f(0) = 0), and the others have a, b nonzero:
    the sparse models are cheaper, so their slots must not move with the
    seed."""
    while True:
        a, b = rng.choice(COEFFS), rng.choice(COEFFS)
        if slot % 5 == 1:
            a = 0
        elif slot % 5 == 3:
            b = 0
        if 4 * a**3 + 27 * b**2 != 0:
            return a, b


COEFFS = [c for c in range(-40, 41) if c]


def _branch_poly(rng: random.Random, degree: int) -> list[int]:
    while True:
        f = [rng.randint(-9, 9) for _ in range(degree)] + [rng.choice((1, 2, 3, -1, -2))]
        if discriminant_multiple(f) != 0:
            return f


def _scan_batch(workload: str, seed: int, work: Path, with_branch: bool) -> Batch:
    rng = random.Random(f"{workload}:{seed}")
    ladder = SCAN_C2_PMAX if with_branch else SCAN_E_PMAX
    ops, items = [], 0
    for slot, pmax in enumerate(ladder):
        a, b = _scan_curve(rng, slot)
        doc = {"E": {"a": a, "b": b}}
        if with_branch:
            doc["branch"] = _branch_poly(rng, SCAN_C2_DEGREES[slot])
        path = _write(work / f"scan-{slot:02d}.json", doc)
        ops.append(Op(["scan", path, "--pmax", str(pmax), "--format", "json"],
                      {"doc": doc, "pmax": pmax, "check_seed": rng.random()}))
        items += len(primes_between(5, pmax))
    return Batch(workload, ops, items)


# ---------------------------------------------------------------------------
# spec documents


def degree_fractions(rot: str, r: dict) -> list[tuple[int, int]]:
    """(numerator, denominator) of -deg L_i for the character line bundles."""
    g = {k: r.get(k, 0) for k in RAM_KEYS}
    if rot == "trivial":
        return []
    if rot == "C2":
        return [(g["a2"], 2)]
    if rot == "C3":
        return [(2 * g["a3p"] + g["a3m"], 3), (g["a3p"] + 2 * g["a3m"], 3)]
    if rot == "C4":
        return [(3 * g["a4p"] + g["a4m"] + 2 * g["a2"], 4), (g["a4p"] + g["a4m"], 2),
                (g["a4p"] + 3 * g["a4m"] + 2 * g["a2"], 4)]
    return [(5 * g["a6p"] + g["a6m"] + 4 * g["a3p"] + 2 * g["a3m"] + 3 * g["a2"], 6),
            (g["a6p"] + 2 * g["a6m"] + 2 * g["a3p"] + g["a3m"], 3),
            (g["a2"] + g["a6p"] + g["a6m"], 2),
            (2 * g["a6p"] + g["a6m"] + g["a3p"] + 2 * g["a3m"], 3),
            (g["a6p"] + 5 * g["a6m"] + 2 * g["a3p"] + 4 * g["a3m"] + 3 * g["a2"], 6)]


def cover_tower(rot: str, genus_base: int, r: dict) -> dict:
    """Genera of D', D'' (order 4) and D''' (order 6) by Riemann-Hurwitz;
    None for covers that do not occur."""
    n = ORDER[rot]
    twice = n * (2 * genus_base - 2) + sum(
        count * (n // RAM_INDEX[k]) * (RAM_INDEX[k] - 1) for k, count in r.items())
    tower = {"Dp": (twice + 2) // 2, "Dpp": None, "Dppp": None}
    if rot == "C4":
        tower["Dpp"] = (2 * (2 * genus_base - 2) + r.get("a4p", 0) + r.get("a4m", 0) + 2) // 2
    if rot == "C6":
        tower["Dppp"] = (3 * (2 * genus_base - 2)
                         + 2 * sum(r.get(k, 0) for k in ("a6p", "a6m", "a3p", "a3m")) + 2) // 2
    return tower


def _lawful(rot: str, genus_base: int, r: dict) -> bool:
    if any(num % den for num, den in degree_fractions(rot, r)):
        return False
    return all(g is None or g >= 0 for g in cover_tower(rot, genus_base, r).values())


def _small_counts(rng: random.Random, rot: str, genus_base: int) -> dict:
    while True:
        r = {k: rng.randint(0, 6 if rot in ("C2", "C3") else 4) for k in ALLOWED[rot]}
        if rot == "C2":
            r["a2"] *= 2
        r = {k: v for k, v in r.items() if v}
        if _lawful(rot, genus_base, r):
            return r


def _large_counts(rot: str, genus_base: int, total: int) -> dict:
    """Counts near an even split of ``total``.  Not seeded: the list sizes
    these documents allocate set the peak RSS, which must not move with the
    seed."""
    keys = ALLOWED[rot]
    base = [total // len(keys)] * len(keys)
    for deltas in product(range(4), repeat=len(keys)):
        r = {k: b + d for k, b, d in zip(keys, base, deltas)}
        if _lawful(rot, genus_base, r):
            return r
    raise AssertionError(f"no lawful counts near {total} for {rot}")


def _elliptic_model(rng: random.Random, rot: str, p: int) -> dict:
    """A nonsingular model mod p with the j-invariant the rotation forces."""
    while True:
        a, b = rng.randrange(p), rng.randrange(p)
        if rot in ("C3", "C6"):
            a = 0
        elif rot == "C4":
            b = 0
        if (4 * a**3 + 27 * b**2) % p:
            return {"a": a, "b": b}


def _squarefree_mod_p(rng: random.Random, p: int, degree: int) -> list[int]:
    while True:
        f = [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]
        if discriminant_multiple(f) % p:
            return f


def _congruence_allows_ordinary(rot: str, p: int) -> bool:
    """Deuring: j = 0 is ordinary only for p = 1 mod 3, j = 1728 only for p = 1 mod 4."""
    if rot in ("C3", "C6"):
        return p % 3 == 1
    if rot == "C4":
        return p % 4 == 1
    return True


def _overrides(rng: random.Random, rot: str, genus_base: int, tower: dict, doc: dict,
               large: bool) -> dict:
    """--set values decide needs to complete, drawn from the tower genera."""
    sets = {}
    if "E" not in doc:
        # Large documents keep E supersingular: an ordinary E would make decide
        # print one Hasse-divisor entry per branch point.
        ordinary = (not large and _congruence_allows_ordinary(rot, doc["p"])
                    and rng.random() < 0.7)
        sets["E"] = "ordinary" if ordinary else "nonordinary"
    if genus_base > 0:
        sets["C"] = rng.choice(("ordinary", "nonordinary", str(rng.randint(0, genus_base))))
    g_prime = tower["Dp"]
    if rot in ("C2", "C3") and g_prime > 0 and "branch" not in doc:
        sets["Dp"] = rng.choice(("ordinary", "nonordinary", str(rng.randint(0, g_prime))))
    if rot in ("C4", "C6"):
        if g_prime > 0:
            sets["Dp"] = str(rng.randint(0, g_prime))
        deep = "Dpp" if rot == "C4" else "Dppp"
        if tower[deep] > 0:
            sets[deep] = str(rng.randint(0, tower[deep]))
    return sets


def _valid_doc(rng: random.Random, slot: int, large_index: int | None) -> tuple[dict, dict]:
    large = large_index is not None
    rot = LARGE_ROTATIONS[large_index % 4] if large else ROTATIONS[slot % 5]
    genus_base = rng.choice((0, 0, 1, 2)) if rot != "trivial" else rng.choice((0, 1, 2, 3))
    with_models = not large and slot % 3 != 2
    primes = primes_between(5, SMALL_E_MODEL_PMAX if with_models else 20_000)
    p = rng.choice(primes)
    translation = rng.choice(([1, 1], [1, 1], [2, 1], [2, 2], [3, 1], [4, 2]))
    doc = {"p": p, "R": rot, "T": translation, "genus_base": genus_base}
    if rot == "C2" and with_models and genus_base == 0 and slot % 2 == 0:
        branch = _squarefree_mod_p(rng, p, rng.randint(3, 6))
        ram = {"a2": len(branch) - 1 + (len(branch) - 1) % 2}
        doc["branch"] = branch
    elif large:
        ram = _large_counts(rot, genus_base, LARGE_SIZES[large_index])
    else:
        ram = _small_counts(rng, rot, genus_base)
    doc["ram"] = ram
    if with_models:
        doc["E"] = _elliptic_model(rng, rot, p)
    tower = cover_tower(rot, genus_base, ram)
    return doc, {"tower": tower, "sets": _overrides(rng, rot, genus_base, tower, doc, large)}


def _invalid_doc(rng: random.Random, slot: int) -> dict:
    kind = INVALID_KINDS[slot % 4]
    p = rng.choice(primes_between(5, SMALL_E_MODEL_PMAX))
    if kind == "p-divides-G":
        rot = rng.choice(("C2", "C3"))
        return {"p": p, "R": rot, "T": [p, 1], "genus_base": 1,
                "ram": _small_counts(rng, rot, 1)}
    if kind == "non-integral-degree":
        if rng.random() < 0.5:
            return {"p": p, "R": "C2", "T": [1, 1], "genus_base": 1,
                    "ram": {"a2": 2 * rng.randint(0, 5) + 1}}
        return {"p": p, "R": "C3", "T": [1, 1], "genus_base": 1,
                "ram": {"a3p": 3 * rng.randint(0, 2) + 1}}
    if kind == "negative-genus":
        # order-2 cover of the line with no branch points: 2g - 2 = -4
        return {"p": p, "R": "C2", "T": [1, 1], "genus_base": 0, "ram": {}}
    rot = rng.choice(("C3", "C4", "C6"))
    while True:
        a, b = rng.randrange(1, p), rng.randrange(1, p)  # j is neither 0 nor 1728
        if (4 * a**3 + 27 * b**2) % p:
            break
    return {"p": p, "R": rot, "T": [1, 1], "genus_base": 1,
            "ram": _small_counts(rng, rot, 1), "E": {"a": a, "b": b}}


def _specs_batch(seed: int, work: Path) -> Batch:
    rng = random.Random(f"specs:{seed}")
    # fixed slot plan: every 20 documents hold 3 large and 2 invalid ones
    plan = []
    for block in range(SPECS_DOCS // 20):
        for pos in range(20):
            if pos in (4, 11, 17):
                plan.append(("large", 3 * block + (4, 11, 17).index(pos)))
            elif pos in (7, 14):
                plan.append(("invalid", None))
            else:
                plan.append(("valid", None))
    ops = []
    for slot, (kind, large_index) in enumerate(plan):
        if kind == "invalid":
            doc, extra = _invalid_doc(rng, slot), {"sets": {}}
        else:
            doc, extra = _valid_doc(rng, slot, large_index)
        path = _write(work / f"spec-{slot:02d}.json", doc)
        expect = {"doc": doc, "invalid": kind == "invalid", **extra}
        ops.append(Op(["invariants", path, "--format", "json"], expect))
        sets = [arg for name, value in extra["sets"].items() for arg in ("--set", f"{name}={value}")]
        ops.append(Op(["decide", path, *sets, "--format", "json"], expect))
    return Batch("specs", ops, len(plan))


WORKLOADS = {
    "scan-e": lambda seed, work: _scan_batch("scan-e", seed, work, with_branch=False),
    "scan-c2": lambda seed, work: _scan_batch("scan-c2", seed, work, with_branch=True),
    "specs": _specs_batch,
}


def generate(workload: str, seed: int, work: Path) -> Batch:
    """Write the workload's input files under ``work`` and return its ops."""
    work.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](seed, work)
