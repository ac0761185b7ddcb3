"""Answer checks, run after the timed region, each by a route independent of
the one the CLI took.

* scans: the prime list; good reduction from the integer discriminants;
  ``E_ord`` against ``point_count_oracle`` at every good prime; ``Dp_ord``
  against ``zeta_prank_oracle`` at genus-2 primes p <= 13 and, at a seeded
  sample of primes where E is ordinary, against the invertibility of
  ``h2_frobenius_matrix(hasse_poly_z2(E, f), d)``; the verdict as
  ``E_ord and Dp_ord``; the summary counts against the rows.
* specs: the echoed document; 12 chi = Euler = sum of count * Euler over the
  fibers; fiber counts against the generated branch counts; tower genera
  against the generator's Riemann-Hurwitz arithmetic; E ordinarity against
  the supplied value or the point-count oracle; Hasse divisor degree d(p-1);
  exit code 1 and no output for documents that break a law.

Each check returns a list of error strings; empty means the op is correct.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from isofib.curves import EllipticCurveW, HyperellipticModel, point_count_oracle, zeta_prank_oracle
from isofib.ffpoly import FpPolynomial, PrimeField, matrix_rank_det
from isofib.ordinarity import h2_frobenius_matrix, hasse_poly_z2
from workloads import FIBER_TYPE, primes_between, discriminant_multiple

ZETA_CHECK_MAX_P = 13
H2_SAMPLE = 4


def _e_ordinary_by_count(a: int, b: int, p: int) -> bool:
    _, trace = point_count_oracle(EllipticCurveW(PrimeField(p), a, b))
    return trace % p != 0


def check_scan(expect: dict, code, stdout: str) -> tuple[list[str], int]:
    """Errors for one scan op, and the number of good primes in its rows."""
    if code != 0:
        return [f"exit code {code}"], 0
    payload = json.loads(stdout)
    doc, rows = expect["doc"], payload["rows"]
    a, b = doc["E"]["a"], doc["E"]["b"]
    branch = doc.get("branch")
    if [row["p"] for row in rows] != primes_between(5, expect["pmax"]):
        return ["rows do not list the primes 5 <= p <= pmax in order"], 0
    disc_e = 4 * a**3 + 27 * b**2
    disc_f = discriminant_multiple(branch) if branch else None
    errors, good_rows = [], []
    for row in rows:
        p = row["p"]
        good = disc_e % p != 0 and (branch is None or (branch[-1] % p != 0 and disc_f % p != 0))
        if row["good"] != good:
            errors.append(f"p={p}: good={row['good']}, discriminants say {good}")
        elif not good and any(row[k] is not None for k in ("E_ord", "Dp_ord", "verdict")):
            errors.append(f"p={p}: bad prime carries ordinarity data")
        elif good:
            good_rows.append(row)

    rng = random.Random(expect["check_seed"])
    e_ordinary_primes = []
    for row in good_rows:
        p = row["p"]
        if row["E_ord"] != _e_ordinary_by_count(a, b, p):
            errors.append(f"p={p}: E_ord={row['E_ord']} disagrees with the point count")
        if branch is None:
            if row["Dp_ord"] is not None or row["verdict"] != row["E_ord"]:
                errors.append(f"p={p}: verdict {row['verdict']} is not E_ord")
            continue
        if row["verdict"] != (row["E_ord"] and row["Dp_ord"]):
            errors.append(f"p={p}: verdict {row['verdict']} is not E_ord and Dp_ord")
        if row["E_ord"]:
            e_ordinary_primes.append(p)
        if p <= ZETA_CHECK_MAX_P and len(branch) - 1 in (5, 6):
            model = HyperellipticModel(FpPolynomial(PrimeField(p), branch))
            if row["Dp_ord"] != (zeta_prank_oracle(model) == 2):
                errors.append(f"p={p}: Dp_ord={row['Dp_ord']} disagrees with the zeta oracle")

    if branch is not None:
        sample = rng.sample(e_ordinary_primes, min(H2_SAMPLE, len(e_ordinary_primes)))
        if len(branch) - 1 in (7, 8):  # no zeta oracle for genus 3
            sample += [p for p in e_ordinary_primes if p <= ZETA_CHECK_MAX_P and p not in sample]
        d = (len(branch) - 1 + (len(branch) - 1) % 2) // 2
        for p in sample:
            field = PrimeField(p)
            form = hasse_poly_z2(EllipticCurveW(field, a, b), FpPolynomial(field, branch))
            _, det = matrix_rank_det(h2_frobenius_matrix(form, d))
            row = rows[[r["p"] for r in rows].index(p)]
            if row["Dp_ord"] != (det != 0):
                errors.append(f"p={p}: Dp_ord={row['Dp_ord']} disagrees with the H^2 Frobenius matrix")

    ordinary = sum(1 for row in good_rows if row["verdict"])
    fraction = Fraction(ordinary, len(good_rows)) if good_rows else None
    summary = {
        "good_primes": len(good_rows),
        "ordinary_primes": ordinary,
        "ordinary_fraction": None if fraction is None else [fraction.numerator, fraction.denominator],
    }
    for key, value in summary.items():
        if payload[key] != value:
            errors.append(f"{key}={payload[key]}, rows give {value}")
    return errors, len(good_rows)


def check_spec_pair(expect: dict, inv: tuple, dec: tuple) -> tuple[list[str], list[str]]:
    """Errors for the ``invariants`` op and the ``decide`` op of one document.

    ``inv`` and ``dec`` are (exit code, stdout) pairs.
    """
    if expect["invalid"]:
        return tuple(
            [] if (code == 1 and out == "") else [f"law-breaking document: exit {code}, expected 1"]
            for code, out in (inv, dec))
    inv_errors, dec_errors = [], []
    doc, tower = expect["doc"], expect["tower"]
    if inv[0] != 0:
        return [f"exit code {inv[0]}"], ([f"exit code {dec[0]}"] if dec[0] != 0 else [])
    invariants = json.loads(inv[1])
    if invariants["spec"] != doc:
        inv_errors.append("echoed spec differs from the document")
    fiber_euler = sum(f["count"] * f["euler"] for f in invariants["fibers"])
    if not 12 * invariants["chi"] == invariants["euler"] == fiber_euler:
        inv_errors.append(f"12 chi = {12 * invariants['chi']}, euler = {invariants['euler']}, "
                          f"fiber sum = {fiber_euler}")
    want = {FIBER_TYPE[k]: v for k, v in doc["ram"].items() if v}
    if {f["type"]: f["count"] for f in invariants["fibers"]} != want:
        inv_errors.append("fiber counts differ from the branch counts")
    if invariants["tower"] != tower:
        inv_errors.append(f"tower {invariants['tower']} != Riemann-Hurwitz {tower}")

    if dec[0] != 0:
        return inv_errors, [f"exit code {dec[0]}"]
    decision = json.loads(dec[1])
    if decision["spec"] != doc:
        dec_errors.append("echoed spec differs from the document")
    report = decision["report"]
    for name, genus in list(tower.items()) + [("C", doc["genus_base"])]:
        if report[name] is not None and report[name]["genus"] != genus:
            dec_errors.append(f"{name}: genus {report[name]['genus']} != {genus}")
    if "E" in doc:
        e_ordinary = _e_ordinary_by_count(doc["E"]["a"], doc["E"]["b"], doc["p"])
    else:
        e_ordinary = expect["sets"]["E"] == "ordinary"
    if report["E"] is None or report["E"]["ordinary"] != e_ordinary:
        dec_errors.append(f"E ordinary should be {e_ordinary}")
    divisor = decision["hasse_divisor"]
    if (divisor is not None) != e_ordinary:
        dec_errors.append("Hasse divisor present iff E is ordinary does not hold")
    if divisor is not None:
        d, p = invariants["d"], doc["p"]
        mults = [e["multiplicity"] for e in divisor["entries"]]
        if not divisor["total_degree"] == sum(mults) == d * (p - 1):
            dec_errors.append(f"divisor degree {divisor['total_degree']} != d(p-1) = {d * (p - 1)}")
        if len(mults) != sum(want.values()):
            dec_errors.append("divisor entries differ from the fiber count")
    return inv_errors, dec_errors
