"""Command-line surface: spec files in, invariant/verdict reports out.

Spec documents are JSON with exact integers::

    {
      "p": 7,
      "R": "C2",                  // "trivial", "C2", "C3", "C4", "C6"
      "T": [1, 1],                // orders of the two translation factors
      "genus_base": 0,
      "ram": {"a2": 4},           // omitted counts default to 0
      "E": {"a": 0, "b": 1},      // optional explicit fiber model
      "branch": [1, 0, 0, 0, 1]   // optional branch locus, lowest degree first
    }

Subcommands: ``invariants``, ``decide``, ``verify-examples``, ``scan``.  Each
command builds one payload and renders it as text or as JSON (``_json_pieces``, one
flat list of pieces, faster than the indented ``json.dumps``); a scan writes each row
from one template per state.
Exit codes: 0 success, 1 validation failure, 2 unreadable or unparsable input,
3 oracle-bound refusal.
"""

from __future__ import annotations

import json
import math
import sys
from itertools import compress
from types import SimpleNamespace

from .curves import (
    EllipticCurveW,
    OracleBoundError,
    check_branch_degree,
    hyperelliptic_p_ranks,
    ordinary_primes,
)
from .ffpoly import FpPolynomial, PrimeField
from .fibration import (
    RAM_KEYS,
    FibrationSpec,
    RamificationData,
    Rotation,
    TranslationClass,
    ValidationError,
)
from .ordinarity import (
    CURVE_NAMES,
    MissingReportDataError,
    build_report,
    check_supersingular_corollary,
    decide,
    hasse_divisor,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PARSE = 2
EXIT_ORACLE_BOUND = 3

SCAN_MAX_P = 10_000
DIVISOR_LISTING_MAX = 100_000  # largest Hasse divisor decide lists fiber by fiber

_ROTATIONS = {
    "trivial": Rotation.TRIVIAL,
    "C2": Rotation.C2,
    "C3": Rotation.C3,
    "C4": Rotation.C4,
    "C6": Rotation.C6,
}
_ROTATION_NAMES = {v: k for k, v in _ROTATIONS.items()}


class SpecDocumentError(Exception):
    """Field-anchored errors raised while reading a spec document."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class _UnreadableInput(Exception):
    """The input file could not be opened or decoded."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _want_int(doc, key, errors, minimum=None, path=""):
    label = f"{path}{key}"
    value = doc.get(key)
    if not _is_int(value):
        errors.append(f"{label}: expected an integer, got {value!r}")
        return None
    if minimum is not None and value < minimum:
        errors.append(f"{label}: must be >= {minimum}, got {value}")
        return None
    return value


def _read_document(path: str):
    """The JSON value in the file at path; a syntax error becomes path:line:col: msg."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise SpecDocumentError([f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"]) from None
    except OSError as exc:  # missing, a directory, unreadable
        raise _UnreadableInput(str(exc)) from None
    except (ValueError, RecursionError) as exc:  # not UTF-8, too long an integer, too deep
        raise _UnreadableInput(f"{path}: {exc}") from None


def _want_curve(e_raw, errors) -> tuple[int, int] | None:
    """The integers (a, b) of an ``E`` object, or None after recording its errors."""
    if not isinstance(e_raw, dict) or set(e_raw) != {"a", "b"}:
        errors.append(f"E: expected an object with fields a, b, got {e_raw!r}")
        return None
    a = _want_int(e_raw, "a", errors, path="E.")
    b = _want_int(e_raw, "b", errors, path="E.")
    if a is None or b is None:
        return None
    return a, b


def _want_branch(branch, errors) -> list[int] | None:
    """The integer coefficient list of a ``branch`` field, or None after recording an error."""
    if not isinstance(branch, list) or not all(_is_int(v) for v in branch):
        errors.append(f"branch: expected a list of integers, got {branch!r}")
        return None
    return branch


def parse_spec_document(doc) -> FibrationSpec:
    """Turn a parsed JSON document into a FibrationSpec, or raise with every
    field error found."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        raise SpecDocumentError(["document: expected a JSON object"])

    known = {"p", "R", "T", "genus_base", "ram", "E", "branch"}
    for key in doc:
        if key not in known:
            errors.append(f"{key}: unknown field")

    p = _want_int(doc, "p", errors, minimum=5)
    rot_name = doc.get("R")
    rotation = _ROTATIONS.get(rot_name) if isinstance(rot_name, str) else None
    if rotation is None:
        errors.append(f"R: expected one of {sorted(_ROTATIONS)}, got {rot_name!r}")

    t_raw = doc.get("T", [1, 1])
    translation = None
    if not isinstance(t_raw, list) or len(t_raw) != 2 or not all(_is_int(v) for v in t_raw):
        errors.append(f"T: expected a pair of integers, got {t_raw!r}")
    else:
        try:
            translation = TranslationClass(t_raw[0], t_raw[1])
        except ValueError as exc:
            errors.append(f"T: {exc}")

    genus_base = _want_int(doc, "genus_base", errors, minimum=0) if "genus_base" in doc else 0

    ram_raw = doc.get("ram", {})
    ram = None
    if not isinstance(ram_raw, dict):
        errors.append(f"ram: expected an object, got {ram_raw!r}")
    else:
        counts = {}
        ram_ok = True
        for key in ram_raw:
            if key not in RAM_KEYS:
                errors.append(f"ram.{key}: unknown branch count (expected {RAM_KEYS})")
                ram_ok = False
        for key in RAM_KEYS:
            if key in ram_raw:
                value = _want_int(ram_raw, key, errors, minimum=0, path="ram.")
                if value is None:
                    ram_ok = False
                else:
                    counts[key] = value
        if ram_ok:
            ram = RamificationData(**counts)

    field = None
    if p is not None:
        try:
            field = PrimeField(p)
        except ValueError as exc:
            errors.append(f"p: {exc}")

    e_model = None
    if "E" in doc:
        curve = _want_curve(doc["E"], errors)
        if field is not None and curve is not None:
            try:
                e_model = EllipticCurveW(field, *curve)
            except ValueError as exc:
                errors.append(f"E: {exc}")

    branch_poly = None
    if "branch" in doc:
        branch = _want_branch(doc["branch"], errors)
        if field is not None and branch is not None:
            branch_poly = FpPolynomial(field, branch)

    if errors:
        raise SpecDocumentError(errors)
    if branch_poly is not None:
        check_branch_degree(branch_poly.degree())
    return FibrationSpec(
        rotation=rotation,
        translation=translation,
        genus_base=genus_base,
        ram=ram,
        field=field,
        e_model=e_model,
        branch_poly=branch_poly,
    )


def spec_to_document(spec: FibrationSpec) -> dict:
    """Normalized document; parse_spec_document inverts this exactly."""
    doc = {
        "p": spec.field.p,
        "R": _ROTATION_NAMES[spec.rotation],
        "T": [spec.translation.n1, spec.translation.n2],
        "genus_base": spec.genus_base,
        "ram": {k: getattr(spec.ram, k) for k in RAM_KEYS if getattr(spec.ram, k)},
    }
    if spec.e_model is not None:
        doc["E"] = {"a": spec.e_model.a, "b": spec.e_model.b}
    if spec.branch_poly is not None:
        doc["branch"] = list(spec.branch_poly.coeffs)
    return doc


def load_spec(path: str) -> FibrationSpec:
    return parse_spec_document(_read_document(path))


def _print_validation_failure(violations: list[str]) -> None:
    print("invalid fibration data:", file=sys.stderr)
    for v in violations:
        print(f"  - {v}", file=sys.stderr)


# the JSON text of each scalar type, by exact type
_SCALAR_TEXT = {str: json.encoder.encode_basestring_ascii, int: int.__repr__,
                bool: {False: "false", True: "true"}.__getitem__,
                type(None): {None: "null"}.__getitem__}


_JSON_CHUNK = 4096  # pieces _print_json joins per write


def _json_pieces(value, indent: str, out: list[str]) -> None:
    """Append to ``out`` the pieces of the text of ``json.dumps(value, indent=2,
    sort_keys=True)``, for dicts with str keys, lists, str, int, bool and None;
    TypeError on anything else.  ``indent`` is the newline and indentation the
    value's own lines start with.  A list's items that are containers enter as
    one piece each, written once per object the list holds."""
    scalar = _SCALAR_TEXT.get(type(value))
    if scalar is not None:
        out.append(scalar(value))
        return
    inner, get = indent + "  ", _SCALAR_TEXT.get
    if type(value) is list:
        if not value:
            out.append("[]")
            return
        seen: dict[int, str] = {}  # an object the list holds many times is written once
        pieces = [f",{inner}"] * (2 * len(value) + 1)  # separators, with the items between
        pieces[0], pieces[-1] = f"[{inner}", f"{indent}]"
        pieces[1::2] = [text(v) if (text := get(type(v))) else seen.get(id(v)) or
                        seen.setdefault(id(v), _json_text(v, inner)) for v in value]
        out += pieces
        return
    if type(value) is not dict:
        raise TypeError(f"{type(value).__name__} is not written as JSON")
    if not value:
        out.append("{}")
        return
    quote = json.encoder.encode_basestring_ascii  # raises TypeError on a key that is not str
    separator = f"{{{inner}"
    for k, v in sorted(value.items()):
        out.append(f"{separator}{quote(k)}: ")
        text = get(type(v))
        if text:
            out.append(text(v))
        else:
            _json_pieces(v, inner, out)
        separator = f",{inner}"
    out.append(f"{indent}}}")


def _json_text(value, indent: str = "\n") -> str:
    """The text of ``json.dumps(value, indent=2, sort_keys=True)``, from one
    list of pieces joined once (see ``_json_pieces``)."""
    out: list[str] = []
    _json_pieces(value, indent, out)
    return "".join(out)


def _print_json(value) -> None:
    """Write the text of ``_json_text(value)`` and a newline to stdout, joined
    a few thousand pieces at a time: no copy of a large text is made, and a
    small one is one write."""
    out: list[str] = []
    _json_pieces(value, "\n", out)
    out.append("\n")
    for start in range(0, len(out), _JSON_CHUNK):
        sys.stdout.write("".join(out[start : start + _JSON_CHUNK]))


def invariants_payload(spec: FibrationSpec) -> dict:
    """Numerical invariants, singular fibers and cover tower of a valid spec."""
    inv = spec.invariants
    return {
        "spec": spec_to_document(spec),
        "deg_L": list(inv.deg_l),
        "chi": inv.chi,
        "euler": inv.euler_total,
        "h1": inv.h1,
        "h2": inv.h2,
        "d": inv.d,
        "rational": inv.rational,
        "k3_candidate": inv.k3_candidate,
        "fibers": [
            {"type": fc.kodaira_type.value, "count": count, "euler": fc.euler}
            for fc, count in inv.fibers
        ],
        "tower": {"Dp": inv.tower[0], "Dpp": inv.tower[1], "Dppp": inv.tower[2]},
    }


def cmd_invariants(args) -> int:
    payload = invariants_payload(load_spec(args.spec_file))
    if args.format == "json":
        _print_json(payload)
        return EXIT_OK
    doc = payload["spec"]
    flags = (("rational", payload["rational"]), ("K3-candidate", payload["k3_candidate"]))
    rows = [
        ("p", str(doc["p"])),
        ("rotation", doc["R"]),
        ("translation", "Z/{} + Z/{}".format(*doc["T"])),
        ("base genus", str(doc["genus_base"])),
        ("deg L_i", ", ".join(str(v) for v in payload["deg_L"]) or "(none)"),
        ("chi(O_X)", str(payload["chi"])),
        ("Euler number", str(payload["euler"])),
        ("h1(O_X)", str(payload["h1"])),
        ("h2(O_X)", str(payload["h2"])),
        ("d", str(payload["d"])),
        ("flags", ", ".join(name for name, on in flags if on) or "(none)"),
        (
            "singular fibers",
            ", ".join(f"{f['count']} x {f['type']}" for f in payload["fibers"]) or "(none)",
        ),
        (
            "cover tower",
            ", ".join(
                f"g({name}) = {g}"
                for name, g in zip(("D'", "D''", "D'''"), payload["tower"].values())
                if g is not None
            ),
        ),
    ]
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value}")
    return EXIT_OK


def _parse_set_overrides(pairs: list[str]) -> dict:
    overrides = {}
    errors = []
    for token in pairs:
        if "=" not in token:
            errors.append(f"--set {token!r}: expected NAME=VALUE")
            continue
        name, value = (part.strip() for part in token.split("=", 1))
        if name in overrides:
            errors.append(f"--set {name!r}: given more than once")
        overrides[name] = value
    if errors:
        raise SpecDocumentError(errors)
    return overrides


def decide_payload(spec: FibrationSpec, overrides: dict) -> dict:
    """Verdict, curve report, consistency check and Hasse divisor of a valid spec.

    The divisor lists one entry per singular fiber, one object per fiber class;
    more than DIVISOR_LISTING_MAX fibers raises OracleBoundError before the listing.
    """
    report = build_report(spec, overrides)
    verdict = decide(spec, report)
    divisor = None
    e_entry = report.E
    if e_entry is not None and e_entry.ordinary:
        divisor = hasse_divisor(spec, report)
        fibers = sum(count for _, _, count in divisor.entries)
        if fibers > DIVISOR_LISTING_MAX:
            raise OracleBoundError(
                f"divisor listing refused: {fibers} singular fibers exceed bound "
                f"{DIVISOR_LISTING_MAX}"
            )
    return {
        "spec": spec_to_document(spec),
        "ordinary": verdict.ordinary,
        "scope": verdict.scope,
        "clause": verdict.clause,
        "reasons": list(verdict.reasons),
        "report": {
            name: None if getattr(report, name) is None else dict(vars(getattr(report, name)))
            for name in CURVE_NAMES
        },
        "consistency_violation": check_supersingular_corollary(spec, verdict, report),
        "hasse_divisor": None
        if divisor is None
        else {
            "total_degree": divisor.total_degree,
            "entries": [entry for fc, mult, count in divisor.entries for entry in
                        [{"type": fc.kodaira_type.value, "multiplicity": mult}] * count],
        },
    }


def cmd_decide(args) -> int:
    overrides = _parse_set_overrides(args.set or [])
    payload = decide_payload(load_spec(args.spec_file), overrides)
    if args.format == "json":
        _print_json(payload)
        return EXIT_OK
    print(f"verdict  {'ordinary' if payload['ordinary'] else 'NOT ordinary'}")
    print(f"scope    {payload['scope']}")
    print(f"clause   {payload['clause']}")
    print("reasons:")
    for reason in payload["reasons"]:
        print(f"  - {reason}")
    print("report:")
    for name, entry in payload["report"].items():
        if entry is None:
            continue
        rank = "?" if entry["p_rank"] is None else str(entry["p_rank"])
        print(
            f"  {name}: genus {entry['genus']}, p-rank {rank}, "
            f"ordinary={entry['ordinary']} [{entry['provenance']}]"
        )
    if payload["consistency_violation"] is not None:
        print(f"consistency violation: {payload['consistency_violation']}")
    if payload["hasse_divisor"] is not None:
        print(f"Hasse divisor (total degree {payload['hasse_divisor']['total_degree']}):")
        lines: dict[int, str] = {}  # a fiber class lists one entry object count times
        print("".join([lines.get(id(e)) or lines.setdefault(
            id(e), f"  {e['type']} fiber: multiplicity {e['multiplicity']}\n")
            for e in payload["hasse_divisor"]["entries"]]), end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# the golden example suite: spec documents run through the command payloads

# (name, detail, cases); a case is (spec document, --set overrides, expected top-level
# payload fields of each command it runs).  Written as JSON, the documents' own format:
# as a Python literal it cost about 0.4 MB of peak memory to parse at every start-up.
GOLDEN_SUITE = json.loads("""[
 ["fiber-euler-table", "7 rotation stabilizer classes -> Kodaira types and Euler numbers", [
  [{"p": 7, "R": "C6", "ram": {"a2": 2, "a3p": 1, "a3m": 1, "a6p": 1, "a6m": 1}}, {},
   {"invariants": {"euler": 36, "fibers": [
    {"type": "I0*", "count": 2, "euler": 6}, {"type": "IV", "count": 1, "euler": 4},
    {"type": "IV*", "count": 1, "euler": 8}, {"type": "II", "count": 1, "euler": 2},
    {"type": "II*", "count": 1, "euler": 10}]}}],
  [{"p": 5, "R": "C4", "ram": {"a4p": 1, "a4m": 1}}, {},
   {"invariants": {"euler": 12, "fibers": [
    {"type": "III", "count": 1, "euler": 3}, {"type": "III*", "count": 1, "euler": 9}]}}]]],
 ["two-branch-points-rational", "a2=2 over the line: chi=1, Euler=12, rational", [
  [{"p": 5, "R": "C2", "ram": {"a2": 2}}, {},
   {"invariants": {"chi": 1, "euler": 12, "rational": true}}]]],
 ["four-branch-points-k3", "a2=4 over the line: chi=2, Euler=24, K3 candidate, four I0*", [
  [{"p": 7, "R": "C2", "ram": {"a2": 4}}, {},
   {"invariants": {"chi": 2, "euler": 24, "k3_candidate": true,
                   "fibers": [{"type": "I0*", "count": 4, "euler": 6}],
                   "tower": {"Dp": 1, "Dpp": null, "Dppp": null}}}]]],
 ["rational-exception", "supersingular fiber on a rational surface: ordinary by h-vanishing", [
  [{"p": 5, "R": "C2", "ram": {"a2": 2}, "E": {"a": 0, "b": 1}, "branch": [0, 1]}, {},
   {"decide": {"ordinary": true, "clause": "rational-exception"}}]]],
 ["kummer-not-ordinary", "K3-type configuration with supersingular D': NOT ordinary", [
  [{"p": 7, "R": "C2", "ram": {"a2": 4}, "E": {"a": 0, "b": 1}, "branch": [1, 0, 0, 0, 1]}, {},
   {"decide": {"ordinary": false, "clause": "rotation-2"}}]]],
 ["trivial-rotation-product",
  "trivial rotation: ordinary fiber + ordinary base -> ordinary surface", [
  [{"p": 5, "R": "trivial", "genus_base": 2}, {"E": "ordinary", "C": "ordinary"},
   {"decide": {"ordinary": true, "clause": "rotation-trivial"}}]]],
 ["hasse-invariant-values",
  "x^3+1 at 7, x^3+x at 7, x^3+1 at 5: ordinary, supersingular, supersingular", [
  [{"p": 7, "R": "trivial", "E": {"a": 0, "b": 1}}, {},
   {"decide": {"ordinary": true, "clause": "rotation-trivial"}}],
  [{"p": 7, "R": "trivial", "E": {"a": 1, "b": 0}}, {},
   {"decide": {"ordinary": false, "clause": "rotation-trivial"}}],
  [{"p": 5, "R": "trivial", "E": {"a": 0, "b": 1}}, {},
   {"decide": {"ordinary": false, "clause": "rotation-trivial"}}]]],
 ["order-four-divisor", "two III fibers + one I0* at p=13: divisor degree p-1, parts {3,3,6}", [
  [{"p": 13, "R": "C4", "ram": {"a4p": 2, "a2": 1}}, {"E": "ordinary", "Dp": "1"},
   {"invariants": {"euler": 12}, "decide": {"hasse_divisor": {"total_degree": 12, "entries": [
    {"type": "I0*", "multiplicity": 6}, {"type": "III", "multiplicity": 3},
    {"type": "III", "multiplicity": 3}]}}}]]],
 ["order-four-star-divisor",
  "two III* fibers + one I0* at p=13: divisor degree 2(p-1), III* parts 9", [
  [{"p": 13, "R": "C4", "ram": {"a4m": 2, "a2": 1}}, {"E": "ordinary", "Dp": "1"},
   {"invariants": {"euler": 24}, "decide": {"hasse_divisor": {"total_degree": 24, "entries": [
    {"type": "I0*", "multiplicity": 6}, {"type": "III*", "multiplicity": 9},
    {"type": "III*", "multiplicity": 9}]}}}]]],
 ["order-six-degrees", "order-6 example: deg L = (-2, -1, -2, -1, -2)", [
  [{"p": 7, "R": "C6", "ram": {"a6p": 1, "a6m": 1, "a2": 2}}, {},
   {"invariants": {"deg_L": [-2, -1, -2, -1, -2]}}]]]
]""")


def _golden_mismatch(cases) -> str | None:
    """First payload field of the cases that differs from its expectation, or None."""
    for document, overrides, expected in cases:
        spec = parse_spec_document(document)
        for command, fields in expected.items():
            if command == "invariants":
                payload = invariants_payload(spec)
            else:
                payload = decide_payload(spec, overrides)
            for field, want in fields.items():
                if payload[field] != want:
                    return f"{command} {field} = {payload[field]!r}, expected {want!r}"
    return None


def cmd_verify_examples(args) -> int:
    failures = 0
    for name, detail, cases in GOLDEN_SUITE:
        try:
            mismatch = _golden_mismatch(cases)
        except Exception as exc:  # any failure of a golden case is reported, not raised
            mismatch = f"{type(exc).__name__}: {exc}"
        if mismatch is None:
            print(f"PASS {name}: {detail}")
        else:
            failures += 1
            print(f"FAIL {name}: {mismatch}")
    print(f"{len(GOLDEN_SUITE) - failures}/{len(GOLDEN_SUITE)} examples verified")
    return EXIT_OK if failures == 0 else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# prime scans


def _primes_up_to(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return list(compress(range(n + 1), sieve))


def load_scan_document(path: str) -> tuple[tuple[int, int], list[int] | None]:
    """E's integers (a, b) and the branch, or raise with every field error found."""
    doc = _read_document(path)
    errors: list[str] = []
    if not isinstance(doc, dict):
        raise SpecDocumentError(["document: expected a JSON object"])
    for key in doc:
        if key not in {"E", "branch"}:
            errors.append(f"{key}: unknown field")
    curve = _want_curve(doc.get("E"), errors)
    if curve is not None and 4 * curve[0] ** 3 + 27 * curve[1] ** 2 == 0:
        errors.append("E: singular integral model: 4a^3 + 27b^2 = 0")
    branch = doc.get("branch")
    if branch is not None:
        branch = _want_branch(branch, errors)
        if branch is not None:
            while branch and branch[-1] == 0:
                branch = branch[:-1]
            if len(branch) < 2:
                errors.append("branch: need a nonconstant polynomial over the integers")
    if errors:
        raise SpecDocumentError(errors)
    if branch is not None:
        check_branch_degree(len(branch) - 1)
    return curve, branch


# a scan row as the indented dump writes it: %s for Dp_ord, E_ord, good, verdict, %%d for p
_JSON_ROW = """    {
      "Dp_ord": %s,
      "E_ord": %s,
      "good": %s,
      "p": %%d,
      "verdict": %s
    }"""


# a row's state (E_ord, Dp_ord, verdict): at a bad prime, and E's alone at a good
# one, indexed by whether E is ordinary
_BAD_STATE = (None, None, None)
_E_STATES = ((False, None, False), (True, None, True))


def _branch_rows(a: int, b: int, discriminant: int, branch: list[int],
                 primes: list[int]) -> list[tuple]:
    """The state (E_ord, Dp_ord, verdict) of each prime p > 3 of a scan of the
    order-2 chain with E: y^2 = x^3 + ax + b, of discriminant factor
    4a^3 + 27b^2, and branch y^2 = branch; a bad prime has (None, None, None).

    A prime is bad where E is singular, the branch degree drops or the branch
    is not squarefree; ``hyperelliptic_p_ranks`` and ``ordinary_primes`` give
    D' and E at all the good primes at once.  The spec shape (C2 over the
    line with the branch points of the branch) does not depend on p, so it
    is built once, and ``decide`` applies its clause to the two ranks, once
    per pair of ranks that occurs.
    """
    flags = [discriminant % p and branch[-1] % p for p in primes]
    dp_ranks = hyperelliptic_p_ranks(branch, list(compress(primes, flags)))
    good = [p for p, rank in zip(compress(primes, flags), dp_ranks) if rank is not None]
    e_ranks = iter(ordinary_primes(a, b, good))
    if good:
        degree = len(branch) - 1
        shape = FibrationSpec(
            rotation=Rotation.C2,
            translation=TranslationClass(1, 1),
            genus_base=0,
            ram=RamificationData(a2=degree + degree % 2),
            field=PrimeField(good[0]),
        )
    answers = {None: _BAD_STATE}  # (E rank, D' rank) or None -> (E_ord, Dp_ord, verdict)
    states = []
    dp_ranks = iter(dp_ranks)
    for flag in flags:
        dp_rank = next(dp_ranks) if flag else None
        ranks = None if dp_rank is None else (int(next(e_ranks)), dp_rank)
        if ranks not in answers:
            # the shape carries no models: the ranks computed above stand in for them
            report = build_report(shape, {"E": ranks[0], "Dp": ranks[1]})
            answers[ranks] = (
                report.E.ordinary, bool(report.Dp.ordinary), decide(shape, report).ordinary
            )
        states.append(answers[ranks])
    return states


def cmd_scan(args) -> int:
    if args.pmax > SCAN_MAX_P:
        raise OracleBoundError(f"scan refused: pmax={args.pmax} exceeds bound {SCAN_MAX_P}")
    (a, b), branch = load_scan_document(args.scan_file)
    discriminant = 4 * a**3 + 27 * b**2
    primes = _primes_up_to(args.pmax)[2:]  # from 5 on
    if branch is None:
        # every p exceeds 3: E has good reduction where p does not divide 4a^3 + 27b^2
        flags = [discriminant % p for p in primes]
        verdicts = iter(ordinary_primes(a, b, list(compress(primes, flags))))
        states = [_E_STATES[next(verdicts)] if flag else _BAD_STATE for flag in flags]
    else:
        states = _branch_rows(a, b, discriminant, branch, primes)
    # a row's bytes depend only on p and its state: one %d template per state
    counts = {state: states.count(state) for state in set(states)}
    good = sum(n for (e_ord, _, _), n in counts.items() if e_ord is not None)
    ordinary = sum(n for (_, _, verdict), n in counts.items() if verdict)

    if args.format == "json":
        divisor = math.gcd(ordinary, good)
        fraction = [ordinary // divisor, good // divisor] if good else None
        summary = _json_text(
            {"good_primes": good, "ordinary_fraction": fraction, "ordinary_primes": ordinary})
        row = {(e, dp, v): _JSON_ROW % tuple(map(_json_text, (dp, e, e is not None, v)))
               for e, dp, v in counts}
        text = ",\n".join([row[state] % p for p, state in zip(primes, states)])
        print(f'{summary[:-2]},\n  "rows": ' + (f"[\n{text}\n  ]" if primes else "[]") + "\n}")
        return EXIT_OK

    cell = {None: "-", False: "0", True: "1"}
    row = {(e, dp, v): f"\n%d\t{cell[e is not None]}\t{cell[e]}\t{cell[dp]}\t{cell[v]}"
           for e, dp, v in counts}
    text = "".join([row[state] % p for p, state in zip(primes, states)])
    tail = (f"ordinary at {ordinary}/{good} good primes (fraction {ordinary / good:.4f})"
            if good else "no good primes in range")
    print(f"p\tgood\tE_ord\tDp_ord\tverdict{text}\n# {tail}")
    return EXIT_OK


# ---------------------------------------------------------------------------


# command -> (help line, handler name, positional dest or None, {flag: add_argument keywords}).
# The handler is looked up on the module when a call is parsed, so a handler
# replaced there (a test spy, a tracing wrapper) is the one that runs.
_COMMANDS = {
    "invariants": ("numerical invariants and fiber types", "cmd_invariants", "spec_file", {
        "--format": {"choices": ["text", "json"], "default": "text"},
    }),
    "decide": ("ordinarity verdict and Hasse divisor", "cmd_decide", "spec_file", {
        "--set": {"action": "append", "metavar": "NAME=VALUE", "help": (
            "supply ordinarity data: E/C/Dp/Dpp/Dppp = ordinary|nonordinary|<p-rank>")},
        "--format": {"choices": ["text", "json"], "default": "text"},
    }),
    "verify-examples": ("run the built-in golden example suite", "cmd_verify_examples", None, {}),
    "scan": ("ordinary-reduction scan over primes", "cmd_scan", "scan_file", {
        "--pmax": {"type": int, "required": True},
        "--format": {"choices": ["tsv", "json"], "default": "tsv"},
    }),
}


def build_parser():
    """The argparse tree of _COMMANDS: the top-level parser and one subparser per command."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="isofib",
        description="Invariants and ordinarity of isotrivial elliptic surfaces over GF(p)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, handler, positional, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_line)
        if positional is not None:
            command.add_argument(positional)
        for flag, keywords in flags.items():
            command.add_argument(flag, **keywords)
        command.set_defaults(func=globals()[handler])
    return parser


def _plain_arguments(argv: list[str]):
    """The arguments of a plain call of a command in _COMMANDS, or None.

    A plain call is an exact command name, then in any order the command's
    positional (a token not starting with "-") and exact long flags, each
    followed by a value not starting with "-" that its type converts and its
    choices allow; the positional and every required flag are present.  On
    such a line the argparse tree gives the same attributes (and ``command``).
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, handler, positional, flags = _COMMANDS[argv[0]]
    args = {flag[2:]: keywords.get("default") for flag, keywords in flags.items()}
    tokens = iter(argv[1:])
    for token in tokens:
        keywords = flags.get(token)
        if keywords is None:
            if token.startswith("-") or positional is None or positional in args:
                return None
            args[positional] = token
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        try:
            value = keywords.get("type", str)(value)
        except ValueError:
            return None
        if value not in keywords.get("choices", [value]):
            return None
        if keywords.get("action") == "append":
            value = (args[token[2:]] or []) + [value]
        args[token[2:]] = value
    # neither a value nor the positional starts with "-", so a flag in argv was given as one
    if (positional is not None and positional not in args) or any(
        keywords.get("required") and flag not in argv for flag, keywords in flags.items()
    ):
        return None
    return SimpleNamespace(**args, func=globals()[handler])


def _parse_command_line(argv: list[str]):
    """The arguments of argv: a plain call from the table, any other line from the tree."""
    return _plain_arguments(argv) or build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse_command_line(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except SpecDocumentError as exc:
        print("cannot read input:", file=sys.stderr)
        for err in exc.errors:
            print(f"  - {err}", file=sys.stderr)
        return EXIT_PARSE
    except _UnreadableInput as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OracleBoundError as exc:
        print(f"oracle bound exceeded: {exc}", file=sys.stderr)
        return EXIT_ORACLE_BOUND
    except ValidationError as exc:
        _print_validation_failure(exc.violations)
        return EXIT_VALIDATION
    except (MissingReportDataError, ValueError) as exc:
        print(f"invalid data: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
