"""End-to-end checks of the command-line surface."""

import argparse
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import pytest

from isofib import cli
from isofib.cli import (
    EXIT_OK,
    EXIT_ORACLE_BOUND,
    EXIT_PARSE,
    EXIT_VALIDATION,
    GOLDEN_SUITE,
    SCAN_MAX_P,
    SpecDocumentError,
    main,
    parse_spec_document,
    spec_to_document,
)
from isofib.curves import (
    EllipticCurveW,
    HyperellipticModel,
    hasse_invariant,
    p_rank_hyperelliptic,
    point_count_oracle,
)
from isofib.ffpoly import FpPolynomial, PrimeField, _is_prime
from isofib.fibration import Rotation

from helpers import count_calls, random_squarefree_poly


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


EXAMPLE_RATIONAL = {
    "p": 5,
    "R": "C2",
    "T": [1, 1],
    "genus_base": 0,
    "ram": {"a2": 2},
    "E": {"a": 0, "b": 1},
    "branch": [0, 1],
}

EXAMPLE_K3 = {
    "p": 7,
    "R": "C2",
    "genus_base": 0,
    "ram": {"a2": 4},
}


def test_document_roundtrip():
    spec = parse_spec_document(EXAMPLE_RATIONAL)
    assert spec.rotation is Rotation.C2
    assert parse_spec_document(spec_to_document(spec)) == spec


def test_document_roundtrip_all_rotations():
    docs = [
        {"p": 7, "R": "trivial", "genus_base": 2, "ram": {}},
        {"p": 7, "R": "C3", "ram": {"a3p": 1, "a3m": 1}},
        {"p": 13, "R": "C4", "ram": {"a4p": 2, "a2": 1}, "E": {"a": 1, "b": 0}},
        {"p": 7, "R": "C6", "ram": {"a6p": 1, "a6m": 1, "a2": 2}, "T": [2, 2]},
    ]
    for doc in docs:
        spec = parse_spec_document(doc)
        assert parse_spec_document(spec_to_document(spec)) == spec


def test_document_roundtrip_randomized():
    import random

    from helpers import random_valid_spec

    rng = random.Random(314)
    for _ in range(100):
        spec = random_valid_spec(rng)
        doc = spec_to_document(spec)
        assert parse_spec_document(json.loads(json.dumps(doc))) == spec


def test_document_errors_are_field_anchored():
    with pytest.raises(SpecDocumentError) as err:
        parse_spec_document({"p": 5, "R": "C9", "ram": {"a2": "two", "bogus": 1}})
    text = "; ".join(err.value.errors)
    assert "R:" in text
    assert "ram.a2" in text
    assert "ram.bogus" in text


def test_document_with_a_list_for_rotation_is_a_parse_error(tmp_path, capsys):
    code = main(["invariants", write_spec(tmp_path, {"p": 5, "R": [1], "ram": {}})])
    assert code == EXIT_PARSE
    assert "R: expected one of ['C2', 'C3', 'C4', 'C6', 'trivial'], got [1]" in (
        capsys.readouterr().err
    )


def test_invariants_command_text(tmp_path, capsys):
    code = main(["invariants", write_spec(tmp_path, EXAMPLE_RATIONAL)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    fields = {}
    for line in out.splitlines():
        name, _, value = line.partition("  ")
        fields[name.strip()] = value.strip()
    assert fields["chi(O_X)"] == "1"
    assert fields["Euler number"] == "12"
    assert fields["flags"] == "rational"
    assert fields["singular fibers"] == "2 x I0*"


def test_invariants_command_json(tmp_path, capsys):
    code = main(["invariants", write_spec(tmp_path, EXAMPLE_K3), "--format", "json"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["chi"] == 2
    assert payload["euler"] == 24
    assert payload["k3_candidate"] is True
    assert payload["fibers"] == [{"type": "I0*", "count": 4, "euler": 6}]
    assert payload["tower"]["Dp"] == 1
    # the embedded spec document round-trips
    assert parse_spec_document(payload["spec"]) == parse_spec_document(EXAMPLE_K3)


def test_invariants_validation_failure(tmp_path, capsys):
    doc = {"p": 5, "R": "C2", "ram": {"a2": 3}}
    code = main(["invariants", write_spec(tmp_path, doc)])
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert "deg L1" in err


def test_invariants_names_every_fractional_order_six_degree(tmp_path, capsys):
    doc = {"p": 7, "R": "C6", "ram": {"a2": 1, "a3p": 1, "a3m": 2}}
    code = main(["invariants", write_spec(tmp_path, doc)])
    out, err = capsys.readouterr()
    assert (code, out) == (EXIT_VALIDATION, "")
    assert err == (
        "invalid fibration data:\n"
        "  - deg L1 = -(5*a6p + a6m + 4*a3p + 2*a3m + 3*a2)/6 = -11/6 is not an integer\n"
        "  - deg L2 = -(a6p + 2*a6m + 2*a3p + a3m)/3 = -4/3 is not an integer\n"
        "  - deg L3 = -(a6p + a6m + a2)/2 = -1/2 is not an integer\n"
        "  - deg L4 = -(2*a6p + a6m + a3p + 2*a3m)/3 = -5/3 is not an integer\n"
        "  - deg L5 = -(a6p + 5*a6m + 2*a3p + 4*a3m + 3*a2)/6 = -13/6 is not an integer\n"
    )


def test_invariants_parse_failure_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"p": 5,')
    code = main(["invariants", str(path)])
    assert code == EXIT_PARSE
    assert "broken.json" in capsys.readouterr().err


def test_invariants_parse_failure_bad_ram(tmp_path, capsys):
    doc = {"p": 5, "R": "C2", "ram": {"a2": True}}
    code = main(["invariants", write_spec(tmp_path, doc)])
    assert code == EXIT_PARSE
    assert "ram.a2" in capsys.readouterr().err


def test_decide_command_rational_exception(tmp_path, capsys):
    code = main(["decide", write_spec(tmp_path, EXAMPLE_RATIONAL)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "verdict  ordinary" in out
    assert "rational-exception" in out


def test_decide_command_with_overrides(tmp_path, capsys):
    code = main(
        [
            "decide",
            write_spec(tmp_path, EXAMPLE_K3),
            "--set",
            "E=ordinary",
            "--set",
            "Dp=0",
        ]
    )
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "verdict  NOT ordinary" in out
    assert "Hasse divisor (total degree 12)" in out  # d=2, p=7


def test_decide_command_json(tmp_path, capsys):
    code = main(
        ["decide", write_spec(tmp_path, EXAMPLE_K3), "--set", "E=ordinary",
         "--set", "Dp=1", "--format", "json"]
    )
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["ordinary"] is True
    assert payload["report"]["Dp"]["p_rank"] == 1
    assert payload["hasse_divisor"]["total_degree"] == 12


def test_decide_missing_data_names_curves(tmp_path, capsys):
    code = main(["decide", write_spec(tmp_path, EXAMPLE_K3)])
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert "E" in err


def test_decide_validation_failure_lists_every_violation(tmp_path, capsys):
    doc = {"p": 5, "R": "C2", "T": [5, 1], "ram": {"a2": 3}}
    code = main(["decide", write_spec(tmp_path, doc), "--set", "E=ordinary"])
    captured = capsys.readouterr()
    assert code == EXIT_VALIDATION
    assert captured.out == ""
    assert captured.err == (
        "invalid fibration data:\n"
        "  - characteristic p=5 divides the group order 10\n"
        "  - deg L1 = -a2/2 = -3/2 is not an integer\n"
    )


def test_decide_reports_a_malformed_override_before_reading_the_document(tmp_path, capsys):
    law_breaking = write_spec(tmp_path, {"p": 5, "R": "C2", "T": [5, 1], "ram": {"a2": 3}})
    too_long = {"p": 7, "R": "C2", "ram": {"a2": 102}, "branch": [1] + [0] * 101 + [1]}
    for path in (law_breaking, write_spec(tmp_path, too_long, "long.json")):
        code = main(["decide", path, "--set", "noeq"])
        captured = capsys.readouterr()
        assert code == EXIT_PARSE, path
        assert captured.out == ""
        assert "--set 'noeq': expected NAME=VALUE" in captured.err


def test_decide_rejects_a_repeated_override_name_before_reading_the_document(tmp_path, capsys):
    law_breaking = write_spec(tmp_path, {"p": 5, "R": "C2", "T": [5, 1], "ram": {"a2": 3}})
    for path in (write_spec(tmp_path, EXAMPLE_K3, "k3.json"), law_breaking):
        for sets in (["E=ordinary", "E=nonordinary"], ["Dp=1", "C=1", " Dp =1"]):
            argv = ["decide", path]
            for token in sets:
                argv += ["--set", token]
            code = main(argv)
            captured = capsys.readouterr()
            assert code == EXIT_PARSE, (path, sets)
            assert captured.out == ""
            name = sets[0].split("=")[0]
            assert captured.err == f"cannot read input:\n  - --set {name!r}: given more than once\n"


def test_decide_rejects_ordinary_override_against_deuring(tmp_path, capsys):
    doc = {"p": 7, "R": "C4", "ram": {"a4p": 2, "a2": 1}}  # 7 = 3 mod 4
    code = main(["decide", write_spec(tmp_path, doc), "--set", "E=ordinary", "--set", "Dp=1"])
    captured = capsys.readouterr()
    assert code == EXIT_VALIDATION
    assert captured.out == ""  # rejected before any verdict is computed
    assert "Deuring's congruence" in captured.err
    assert "non-integral" not in captured.err


def test_branch_polynomial_over_a_positive_genus_base_is_rejected(tmp_path, capsys):
    doc = {"p": 7, "R": "C2", "genus_base": 1, "ram": {"a2": 4}, "branch": [1, 0, 0, 0, 1]}
    path = write_spec(tmp_path, doc)
    for argv in (["invariants", path], ["decide", path, "--set", "E=ordinary", "--set", "C=1"]):
        assert main(argv) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "invalid fibration data:\n"
            "  - an explicit branch polynomial describes a double cover of the projective "
            "line: genus_base must be 0\n"
        )


def test_decide_refuses_divisor_listing_beyond_bound(tmp_path, capsys):
    path = write_spec(tmp_path, {"p": 13, "R": "C2", "ram": {"a2": 1000000}})
    start = perf_counter()
    code = main(["decide", path, "--set", "E=ordinary", "--set", "Dp=ordinary"])
    assert perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert code == EXIT_ORACLE_BOUND
    assert captured.out == ""
    assert "divisor listing refused: 1000000 singular fibers exceed bound 100000" in captured.err


def test_divisor_listing_bound_is_inclusive(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "DIVISOR_LISTING_MAX", 4)
    sets = ["--set", "E=ordinary", "--set", "Dp=ordinary", "--format", "json"]
    at_bound = write_spec(tmp_path, {"p": 13, "R": "C2", "ram": {"a2": 4}}, name="four.json")
    assert main(["decide", at_bound, *sets]) == EXIT_OK
    entries = json.loads(capsys.readouterr().out)["hasse_divisor"]["entries"]
    assert entries == [{"type": "I0*", "multiplicity": 6}] * 4
    beyond = write_spec(tmp_path, {"p": 13, "R": "C2", "ram": {"a2": 6}}, name="six.json")
    assert main(["decide", beyond, *sets]) == EXIT_ORACLE_BOUND


def test_invariants_accepts_large_prime(tmp_path, capsys):
    doc = {"p": 2**61 - 1, "R": "C2", "ram": {"a2": 2}}
    code = main(["invariants", write_spec(tmp_path, doc), "--format", "json"])
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out)["spec"]["p"] == 2**61 - 1


def test_each_command_validates_the_spec_once(tmp_path, monkeypatch, capsys):
    names = ("validate_spec", "surface_invariants", "genus_cover_tower", "singular_fibers")
    calls = {name: count_calls(monkeypatch, "fibration", name) for name in names}
    k3 = write_spec(tmp_path, EXAMPLE_K3)
    rational = write_spec(tmp_path, EXAMPLE_RATIONAL, name="rational.json")
    ops = [
        # an ordinary E reaches the Hasse divisor
        (["decide", k3, "--set", "E=ordinary", "--set", "Dp=1"], "Hasse divisor"),
        # a supersingular E on an ordinary rational X reaches the corollary check
        (["decide", rational], "E: genus 1, p-rank 0, ordinary=False"),
        (["invariants", k3, "--format", "json"], '"k3_candidate": true'),
    ]
    for done, (argv, shown) in enumerate(ops, start=1):
        assert main(argv) == EXIT_OK
        assert shown in capsys.readouterr().out
        for name in names:
            assert calls[name][None] == done, (argv, name)


def test_primes_up_to_matches_trial_division():
    primes = [n for n in range(3001) if n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))]
    for n in range(3001):
        assert cli._primes_up_to(n) == [p for p in primes if p <= n], n
    assert cli._primes_up_to(-5) == []


def test_scan_computes_each_curve_fact_once_per_prime(tmp_path, monkeypatch, capsys):
    per_prime = {
        "hasse": count_calls(monkeypatch, "curves", "hasse_invariant", key=lambda e: e.field.p),
        "cartier": count_calls(monkeypatch, "curves", "cartier_manin", key=lambda m: m.field.p),
        "squarefree": count_calls(
            monkeypatch, "ffpoly", "FpPolynomial.is_squarefree", key=lambda f: f.field.p
        ),
        "kernel": count_calls(monkeypatch, "ffpoly", "poly_pow_coeff", key=lambda f, *_: f.field.p),
        "fields": count_calls(monkeypatch, "ffpoly", "PrimeField.__init__", key=lambda _, p: p),
    }
    specs = count_calls(monkeypatch, "fibration", "validate_spec")
    # a sextic branch with f(0) = 35 (genus-2 D'): the runs answer every good
    # prime; 5 and 7 divide h(0), so their low rows come from the kernel alone
    doc = {"E": {"a": 1, "b": 1}, "branch": [35, 1, 0, 3, 0, 1, 1]}
    path = write_spec(tmp_path, doc, name="scan.json")
    assert main(["scan", path, "--pmax", "200", "--format", "json"]) == EXIT_OK
    good = [row["p"] for row in json.loads(capsys.readouterr().out)["rows"] if row["good"]]
    assert len(good) > 40 and good[:2] == [5, 7]
    assert not per_prime["hasse"] and not per_prime["cartier"] and not per_prime["squarefree"]
    assert dict(per_prime["kernel"]) == {5: 1, 7: 1}
    # a field for each kernel prime, and one for the spec shape at the first good prime
    assert dict(per_prime["fields"]) == {5: 1 + 1, 7: 1}
    assert specs[None] == 1
    # without a branch the E run answers every prime alone
    for counter in per_prime.values():
        counter.clear()
    path = write_spec(tmp_path, {"E": {"a": 1, "b": 1}}, name="scan-e.json")
    assert main(["scan", path, "--pmax", "200", "--format", "json"]) == EXIT_OK
    assert sum(row["good"] for row in json.loads(capsys.readouterr().out)["rows"]) > 40
    assert not any(per_prime.values())


def test_branch_scan_powers_the_cartier_matrix_only_where_dp_is_not_ordinary(
    tmp_path, monkeypatch, capsys
):
    # x^6 + x^2 + 2 takes the p-ranks 2, 1 and 0 below 400: the determinant
    # answers rank 2, and M is squared once at each prime of rank 1 or 0
    powers = count_calls(monkeypatch, "ffpoly", "matrix_mul_mod", key=lambda a, b, p: p)
    path = write_spec(tmp_path, {"E": {"a": 1, "b": 1}, "branch": [2, 0, 1, 0, 0, 0, 1]})
    assert main(["scan", path, "--pmax", "400", "--format", "json"]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)["rows"]
    nonordinary = [row["p"] for row in rows if row["good"] and not row["Dp_ord"]]
    assert len(nonordinary) > 10 and any(row["Dp_ord"] for row in rows)
    assert dict(powers) == dict.fromkeys(nonordinary, 1)


@pytest.mark.parametrize("a, b, inner, modulus", ((0, 5, (1, 5), 3), (-3, 0, (1, -3), 4)))
def test_j0_and_j1728_scans_run_the_engine_on_the_sparse_part(
    tmp_path, monkeypatch, capsys, a, b, inner, modulus
):
    # 1 + b x^3 (j = 0) and 1 + a x^2 (j = 1728) run as 1 + b x and 1 + a x;
    # the Hasse invariant c_((p-1)/2) is 0 unless 3 (4) divides p - 1, and
    # those primes make no read at all
    runs = count_calls(
        monkeypatch, "ffpoly", "half_power_windows",
        key=lambda h, reads, width: (tuple(h), tuple(reads), width),
    )
    path = write_spec(tmp_path, {"E": {"a": a, "b": b}}, name="scan.json")
    assert main(["scan", path, "--pmax", "500"]) == EXIT_OK
    capsys.readouterr()
    (outer, _, _), (h, reads, width) = runs
    assert list(runs.values()) == [1, 1]
    assert outer == (1, 0, a, b) and h == inner and width == 1
    good = [p for p in range(5, 501) if _is_prime(p) and (4 * a**3 + 27 * b**2) % p]
    assert [p for p, _ in reads] == [p for p in good if p % modulus == 1]


def _payload_from_tsv(text: str) -> dict:
    """The JSON payload of a scan, rebuilt from its TSV rows."""
    value = {"1": True, "0": False, "-": None}
    rows = []
    for line in text.splitlines()[1:]:
        if not line.startswith("#"):
            p, good, e_ord, dp_ord, verdict = line.split("\t")
            rows.append({"p": int(p), "good": value[good], "E_ord": value[e_ord],
                         "Dp_ord": value[dp_ord], "verdict": value[verdict]})
    good = [row for row in rows if row["good"]]
    ordinary = sum(bool(row["verdict"]) for row in good)
    fraction = Fraction(ordinary, len(good)) if good else None
    return {
        "rows": rows,
        "good_primes": len(good),
        "ordinary_primes": ordinary,
        "ordinary_fraction": None if fraction is None else [fraction.numerator, fraction.denominator],
    }


@pytest.mark.parametrize("doc, pmax", (
    ({"E": {"a": 1, "b": 1}}, 4),  # no rows
    ({"E": {"a": 1, "b": 1}}, 0),
    ({"E": {"a": 0, "b": 5}}, 6),  # 5 divides 27 * 25: no good prime
    ({"E": {"a": 1, "b": 1}, "branch": [1, 0, 0, 0, 0, 5]}, 6),  # 5 divides lc
    ({"E": {"a": -7, "b": -11}}, 300),  # E only: Dp_ord is null
    ({"E": {"a": 1, "b": 1}, "branch": [36, -30, 10, -13, -4, 1]}, 300),  # bad at 5, 11, 19, 31
    ({"E": {"a": 0, "b": 7}, "branch": [2, 0, 1, 0, 0, 0, 1]}, 300),
))
def test_scan_json_is_the_indented_dump_of_the_payload(tmp_path, capsys, doc, pmax):
    path = write_spec(tmp_path, doc, name="scan.json")
    assert main(["scan", path, "--pmax", str(pmax)]) == EXIT_OK
    payload = _payload_from_tsv(capsys.readouterr().out)
    assert main(["scan", path, "--pmax", str(pmax), "--format", "json"]) == EXIT_OK
    assert capsys.readouterr().out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_decide_bad_override_syntax(tmp_path, capsys):
    code = main(["decide", write_spec(tmp_path, EXAMPLE_K3), "--set", "Enope"])
    assert code == EXIT_PARSE


def test_decide_contradictory_override(tmp_path, capsys):
    code = main(["decide", write_spec(tmp_path, EXAMPLE_RATIONAL), "--set", "E=ordinary"])
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert "contradicts" in err


def test_verify_examples_all_pass(capsys):
    code = main(["verify-examples"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "FAIL" not in out
    assert out.count("PASS") == 10


def test_verify_examples_deterministic(capsys):
    main(["verify-examples"])
    first = capsys.readouterr().out
    main(["verify-examples"])
    second = capsys.readouterr().out
    assert first == second


def test_scan_congruence_curve(tmp_path, capsys):
    path = write_spec(tmp_path, {"E": {"a": 0, "b": 1}}, name="scan.json")
    code = main(["scan", path, "--pmax", "50"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    lines = [l for l in out.splitlines() if l and not l.startswith(("p\t", "#"))]
    for line in lines:
        p, good, e_ord, dp_ord, verdict = line.split("\t")
        p = int(p)
        if good == "1":
            assert e_ord == ("1" if p % 3 == 1 else "0")
            assert verdict == e_ord
            assert dp_ord == "-"
        else:
            assert verdict == "-"


def test_scan_rows_sorted_and_summary_consistent(tmp_path, capsys):
    path = write_spec(tmp_path, {"E": {"a": 1, "b": 1}}, name="scan.json")
    code = main(["scan", path, "--pmax", "60", "--format", "json"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    rows = payload["rows"]
    assert [r["p"] for r in rows] == sorted(r["p"] for r in rows)
    good = [r for r in rows if r["good"]]
    ordinary = [r for r in good if r["verdict"]]
    assert payload["good_primes"] == len(good)
    assert payload["ordinary_primes"] == len(ordinary)
    num, den = payload["ordinary_fraction"]
    assert num * len(good) == den * len(ordinary)


def test_scan_with_branch_uses_full_verdict(tmp_path, capsys):
    # quartic branch: rows carry D' ordinarity and the surface verdict
    doc = {"E": {"a": 0, "b": 1}, "branch": [1, 0, 0, 0, 1]}
    path = write_spec(tmp_path, doc, name="scan.json")
    code = main(["scan", path, "--pmax", "30", "--format", "json"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    for row in payload["rows"]:
        if row["good"]:
            assert row["Dp_ord"] is not None
            assert row["verdict"] == (row["E_ord"] and row["Dp_ord"])
        else:
            assert row["verdict"] is None


def test_scan_bad_primes_flagged(tmp_path, capsys):
    # y^2 = x^3 + x + 1: discriminant factor 4 + 27 = 31
    path = write_spec(tmp_path, {"E": {"a": 1, "b": 1}}, name="scan.json")
    main(["scan", path, "--pmax", "40", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    by_p = {r["p"]: r for r in payload["rows"]}
    assert by_p[31]["good"] is False
    assert by_p[31]["verdict"] is None


def test_scan_at_the_advertised_limit_follows_deuring(tmp_path, capsys):
    # j = 0 is ordinary exactly at p = 1 mod 3, j = 1728 exactly at p = 1 mod 4
    for (a, b), modulus in (((0, 1), 3), ((1, 0), 4)):
        path = write_spec(tmp_path, {"E": {"a": a, "b": b}}, name="scan.json")
        assert main(["scan", path, "--pmax", str(SCAN_MAX_P), "--format", "json"]) == EXIT_OK
        good = [row for row in json.loads(capsys.readouterr().out)["rows"] if row["good"]]
        assert good[-1]["p"] == 9973
        for row in good:
            assert row["E_ord"] == (row["p"] % modulus == 1), (a, b, row["p"])
        for p in [row["p"] for row in good][-10:]:
            curve = EllipticCurveW(PrimeField(p), a, b)
            assert hasse_invariant(curve) == point_count_oracle(curve)[1] % p, (a, b, p)


# SHA-256 of `scan --format json --pmax N` as the per-prime route computed it
PINNED_SCANS = (
    ({"E": {"a": 0, "b": 12}}, 2200,
     "4faac59d493948e7741dfc045762bcd060c69ae1b681f498b5b15bd6b64705fd"),
    ({"E": {"a": -5, "b": 0}}, 2200,
     "3e58d8e6b3688a6c8d18dba095a633cd099e8da223f058dd40d52ae356eaf87c"),
    ({"E": {"a": -7, "b": -11}}, 2200,
     "a13ae0950eb83ead2f67273e80ba5b142a2291581546a3711a0d27475c714b92"),
    # f(0) = 0
    ({"E": {"a": 2, "b": -3}, "branch": [0, 3, -1, 4, 0, 2]}, 1000,
     "e0a2d1e219d28add9b8899372be99a03e5669fb85a5dec00123ccc565df727c3"),
    ({"E": {"a": -1, "b": 5}, "branch": [3, 1, -2, 5, 7, -1, 4]}, 800,
     "ce4312f90176a9574cc85779a5624a01e62617f8b8d68fdba309d69113e7cab7"),
    # 5 and 7 divide f(0)
    ({"E": {"a": 0, "b": 7}, "branch": [35, -2, 0, 1, 3, 0, -1, 2]}, 640,
     "48bdf482743b12499f2a61c1085bfc2929e16a39a2d7061b5b440804fdca99a9"),
    ({"E": {"a": 6, "b": 0}, "branch": [-2, 5, 1, 0, -3, 2, 0, 1, 5]}, 700,
     "0f14275115aa89a5ecb1fa613eef4ed4e11df53704386d5d1f18b99848832268"),
)


@pytest.mark.parametrize(
    "doc, pmax, digest",
    PINNED_SCANS,
    ids=("j0", "j1728", "generic", "quintic", "sextic", "heptic", "octic"),
)
def test_scan_bytes_are_pinned(tmp_path, capsys, doc, pmax, digest):
    path = write_spec(tmp_path, doc, name="scan.json")
    assert main(["scan", path, "--pmax", str(pmax), "--format", "json"]) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# SHA-256 of `scan --pmax N` (TSV) on the documents of PINNED_SCANS
PINNED_TSV_SCANS = (
    "73ed54a32c39787781c443e55aa24f051233327621957c5d5b4c36759fd4d46b",
    "fa4ec0dd34f560abf68a377ffe757e0ae25467afaf06ae5fa73af38c68c759cb",
    "2f1d295aac428d59d9fe14742319f231040408dbc582e0afa70305bf717053c3",
    "1284780d196353cd96302adb5dff627a4e2c1338f9e9bd198b7b9665378a8800",
    "a7fcb27c4a1f5e9f17502ec00a08cf094416407e190d0adace394051b16c6570",
    "9aaf070a021fea7a5f4298e20c78c65458f814b70635aaf52274d5aa9e32a267",
    "e67b51b2adeb53e3a12fce47afcb825831614939cfb637c4fc99c433ec8f0607",
)


@pytest.mark.parametrize(
    "doc, pmax, digest",
    [(doc, pmax, digest) for (doc, pmax, _), digest in zip(PINNED_SCANS, PINNED_TSV_SCANS)],
    ids=("j0", "j1728", "generic", "quintic", "sextic", "heptic", "octic"),
)
def test_scan_tsv_bytes_are_pinned(tmp_path, capsys, doc, pmax, digest):
    path = write_spec(tmp_path, doc, name="scan.json")
    assert main(["scan", path, "--pmax", str(pmax)]) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# SHA-256 of the exit code, stdout and stderr of `invariants` then `decide`, each
# with --format text then json, on every golden case, a C4 divisor listing, a
# law-breaking document and each clause outcome of decide that no golden case reaches
PINNED_REPORTS = {
    "fiber-euler-table-0":
        "51fac1271770beeabb2e03e145689f8df27463c2c33c000f773eeb50eaef986d",
    "fiber-euler-table-1":
        "826b3ad26aa203ec922d87af778ae3f2c2f9b95f4ca783366fd1b02b5d55c2ca",
    "two-branch-points-rational-0":
        "021fb6b3af1524c3cc88be9d8fe106a35d05df3e7cea2db658f5abbae4574408",
    "four-branch-points-k3-0":
        "1f1aa400916225ad4465f268dd63857ae78857578e9617c0e660458925169827",
    "rational-exception-0":
        "cc106a990a3216578da8a62e3e61acb05d81f1054260c783303abac7973cc5d8",
    "kummer-not-ordinary-0":
        "3fba48192b034cdf043e67a17de01ab1c081965aab77269d4b07767d9687942b",
    "trivial-rotation-product-0":
        "e1826a69ed08769df0870bcba5f0477854b09227adba0153e0501c47781536d8",
    "hasse-invariant-values-0":
        "f33e9bde73b41a69801cd13ae25f78b93867accf79a883efdd1f8b70c6a79036",
    "hasse-invariant-values-1":
        "2891fa2225c280988c522414b3266ec6fbeeb8f24f63dcec1d343d3def66cd8e",
    "hasse-invariant-values-2":
        "8e3c4f8f623f20fa9e68026bbfdbf8632d73bddd2f0b419c2a4a0b06fdc3f9e1",
    "order-four-divisor-0":
        "c4521816e32c793ee60c91c6d8b4d651ba5d96067596f4820aef0625c084cd16",
    "order-four-star-divisor-0":
        "087c4a199483c77b3af015c863ff994068c421714b65cf887be87543f28b34f0",
    "order-six-degrees-0":
        "066740164ec058dffeddf6be550115e8d4930ae32b3cd271de7ea0cce1a0ff62",
    "c4-divisor-listing":
        "7a235d2617a89eeb6d7fdf7edc913d8628d0e5bbf5b85d14b1098adeb9601683",
    "law-breaking":
        "9bd9cf98429e3c0b199650116e916694225a3931e6050106c55658b0283159e8",
    "c3-ordinary":
        "a43b0527dea9cc6e7191d9fefbf17bde1b39a2f59d5dbf936080f7743e79073e",
    "c3-not-ordinary":
        "dedb612326bba62d2c34bac051b01ec8da74a6316776d49d934cafb128162edf",
    "c3-supersingular-e":
        "8e367ac635c350f05b86058ade8b91521667008554a7d32e78a7643d9d6f7ac0",
    "c6-equal-drop":
        "debc80b2179d306e1597c0c6bfc53367767a7e1f0ebdbcc735ef2c6f0763a315",
    "c6-unequal-drop":
        "97ab2ba296b9bee6124a8651d5086c3793ebbb315950342587d32fd06de3a040",
    "pair-h-vanishing":
        "d0dd489084866400a168771df4a1e72ab1725fa1d47c22925d51440c928bf7f2",
    "c2-supersingular-e":
        "c616cbec3639e4fbbd515552b2e95ff4ca849bc966d9413063efe32d42230108",
    "c4-fails-on-e":
        "21a0557b90b6907b306578211234693f35f5675674a540ad03779615ba8c9af6",
    "c4-fails-on-c":
        "1a29a0abdf06feabcf799c6c7ad75c23080fd298f75754a9c6437ee99cb589de",
    "c4-missing-rank":
        "9d482275ef88c8bc9079e093f475a62f872835ff157e19dd5ce4a1d9163f1bf3",
    "c6-fails-on-e":
        "cf934c5c9219c6627a79d507e700d4f8afed016e0e4fa776088d522c60ec71e1",
    "c6-fails-on-c":
        "70de1f922876494b8c1ecb3c9f4972bc8d880a835fee93930770d148432582f2",
    "trivial-set-dp":
        "3de5f07bd312ab03c44fec9d1904b435762c7b55b132d618dcadbd3929682ec2",
}
REPORT_DOCUMENTS = [
    (f"{name}-{index}", document, overrides)
    for name, _, cases in GOLDEN_SUITE
    for index, (document, overrides, _) in enumerate(cases)
] + [
    ("c4-divisor-listing",
     {"p": 13, "R": "C4", "ram": {"a4p": 4, "a4m": 2, "a2": 3}, "E": {"a": 1, "b": 0}},
     {"Dp": "1", "Dpp": "1"}),
    ("law-breaking", {"p": 5, "R": "C2", "ram": {"a2": 3}}, {}),
    # C3: D' decides once E is ordinary; E at 5 (j = 0) is supersingular
    ("c3-ordinary", {"p": 7, "R": "C3", "ram": {"a3p": 2, "a3m": 2}}, {"E": "ordinary", "Dp": "2"}),
    ("c3-not-ordinary",
     {"p": 7, "R": "C3", "ram": {"a3p": 2, "a3m": 2}}, {"E": "ordinary", "Dp": "1"}),
    ("c3-supersingular-e",
     {"p": 5, "R": "C3", "ram": {"a3p": 2, "a3m": 2}, "E": {"a": 0, "b": 1}}, {}),
    # C6 over an elliptic base: genus drop g(D') - g(D''') = 6 - 3, p-rank drop 4 - 1 or 5 - 1
    ("c6-equal-drop", {"p": 7, "R": "C6", "genus_base": 1, "ram": {"a6p": 1, "a6m": 1}},
     {"E": "ordinary", "C": "ordinary", "Dp": "4", "Dppp": "1"}),
    ("c6-unequal-drop", {"p": 7, "R": "C6", "genus_base": 1, "ram": {"a6p": 1, "a6m": 1}},
     {"E": "ordinary", "C": "ordinary", "Dp": "5", "Dppp": "1"}),
    ("pair-h-vanishing", {"p": 7, "R": "C3", "ram": {"a3p": 1, "a3m": 1}}, {}),
    # a K3-type C2 surface (h^2 = 1) with E supersingular at 5: the h^2 reason is added
    ("c2-supersingular-e", {"p": 5, "R": "C2", "ram": {"a2": 4}, "E": {"a": 0, "b": 1}}, {}),
    # C4 and C6 fail on E or C before the tower is read; with only Dp's flag, decide asks for more
    ("c4-fails-on-e",
     {"p": 7, "R": "C4", "ram": {"a4p": 2, "a2": 1}, "E": {"a": 1, "b": 0}}, {}),
    ("c4-fails-on-c", {"p": 13, "R": "C4", "genus_base": 1, "ram": {"a4p": 1, "a4m": 1}},
     {"E": "ordinary", "C": "nonordinary"}),
    ("c4-missing-rank", {"p": 13, "R": "C4", "genus_base": 1, "ram": {"a4p": 1, "a4m": 1}},
     {"E": "ordinary", "C": "ordinary", "Dp": "ordinary"}),
    ("c6-fails-on-e",
     {"p": 5, "R": "C6", "ram": {"a6p": 1, "a6m": 1, "a2": 2}, "E": {"a": 0, "b": 1}}, {}),
    ("c6-fails-on-c", {"p": 7, "R": "C6", "genus_base": 1, "ram": {"a6p": 1, "a6m": 1}},
     {"E": "ordinary", "C": "nonordinary"}),
    # under the trivial rotation D' is C: --set Dp is accepted with genus g_C and listed
    ("trivial-set-dp", {"p": 5, "R": "trivial", "genus_base": 2},
     {"E": "ordinary", "C": "ordinary", "Dp": "2"}),
]


@pytest.mark.parametrize(
    "document, overrides, digest",
    [(document, overrides, PINNED_REPORTS[name]) for name, document, overrides in REPORT_DOCUMENTS],
    ids=[name for name, _, _ in REPORT_DOCUMENTS],
)
def test_report_bytes_are_pinned(tmp_path, capsys, document, overrides, digest):
    path = write_spec(tmp_path, document)
    sets = [arg for name, value in overrides.items() for arg in ("--set", f"{name}={value}")]
    transcript = []
    for argv in (["invariants", path], ["decide", path, *sets]):
        for form in ("text", "json"):
            code = main([*argv, "--format", form])
            captured = capsys.readouterr()
            transcript.append(f"{code}\n{captured.out}\n{captured.err}")
    assert hashlib.sha256("\n".join(transcript).encode()).hexdigest() == digest


def test_branch_scan_at_the_advertised_limit_matches_the_per_prime_p_rank(tmp_path, capsys):
    doc = {"E": {"a": 1, "b": 3}, "branch": [1, 3, -2, 5, 7, -1, 4]}
    path = write_spec(tmp_path, doc, name="scan.json")
    assert main(["scan", path, "--pmax", str(SCAN_MAX_P), "--format", "json"]) == EXIT_OK
    good = [row for row in json.loads(capsys.readouterr().out)["rows"] if row["good"]]
    assert len(good) > 1200
    for row in good[-10:]:
        model = HyperellipticModel(FpPolynomial(PrimeField(row["p"]), doc["branch"]))
        assert row["Dp_ord"] == (p_rank_hyperelliptic(model) == 2), row["p"]


def test_branch_scan_refuses_beyond_the_recurrence_bound_before_any_run(tmp_path, capsys):
    # the message names the work of the first good prime beyond the bound,
    # with the indices cartier_manin reads there
    _, scan, _ = _branch_documents(tmp_path, 100)
    assert main(["scan", scan, "--pmax", str(SCAN_MAX_P)]) == EXIT_ORACLE_BOUND
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "oracle bound exceeded: closed form refused: the recurrence takes 1011846 steps "
        "x p-adic digits, exceeding bound 1000000\n"
    )


def test_scan_pmax_bound(tmp_path, capsys):
    path = write_spec(tmp_path, {"E": {"a": 0, "b": 1}}, name="scan.json")
    code = main(["scan", path, "--pmax", "20000"])
    assert code == EXIT_ORACLE_BOUND


def test_scan_flags_bad_reduction_of_curve_and_branch(tmp_path, capsys):
    # disc(x^4 + 7) = 256 * 7^3 and 4a^3 + 27b^2 = 31: the bad primes are 7 and 31
    doc = {"E": {"a": 1, "b": 1}, "branch": [7, 0, 0, 0, 1]}
    path = write_spec(tmp_path, doc, name="scan.json")
    assert main(["scan", path, "--pmax", "40", "--format", "json"]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [r["p"] for r in rows] == [5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    assert {r["p"] for r in rows if not r["good"]} == {7, 31}
    for r in rows:
        assert (r["Dp_ord"] is None) == (not r["good"]), r


def test_decide_refuses_hasse_invariant_beyond_closed_form_bound(tmp_path, capsys):
    # (p - 1)/2 recurrence steps of one digit: 1000001 > RECURRENCE_MAX_WORK
    doc = {"p": 2000003, "R": "C2", "ram": {"a2": 4}, "E": {"a": 1, "b": 1}}
    start = perf_counter()
    code = main(["decide", write_spec(tmp_path, doc), "--set", "Dp=1"])
    assert perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert code == EXIT_ORACLE_BOUND
    assert captured.out == ""
    assert "closed form refused: the recurrence takes 1000001 steps" in captured.err
    doc["p"] = 100003  # 50001 steps: answered
    assert main(["decide", write_spec(tmp_path, doc), "--set", "Dp=1"]) == EXIT_OK
    assert "E: genus 1, p-rank" in capsys.readouterr().out


def _branch_documents(tmp_path, degree):
    """A decide/invariants spec and a scan document over one squarefree branch mod 7."""
    branch = list(random_squarefree_poly(random.Random(degree), PrimeField(7), degree).coeffs)
    doc = {"p": 7, "R": "C2", "ram": {"a2": degree}, "E": {"a": 1, "b": 1}, "branch": branch}
    spec = write_spec(tmp_path, doc, name=f"spec{degree}.json")
    scan = write_spec(tmp_path, {"E": {"a": 1, "b": 1}, "branch": branch}, name=f"scan{degree}.json")
    return spec, scan, branch


def test_commands_refuse_a_branch_beyond_degree_bound(tmp_path, capsys):
    spec, scan, _ = _branch_documents(tmp_path, 320)
    for argv in (["decide", spec], ["invariants", spec], ["scan", scan, "--pmax", "100"]):
        start = perf_counter()
        code = main(argv)
        assert perf_counter() - start < 1.0, argv
        captured = capsys.readouterr()
        assert code == EXIT_ORACLE_BOUND, argv
        assert captured.out == ""
        assert "branch refused: degree 320 exceeds bound 100" in captured.err


def test_branch_degree_bound_is_inclusive(tmp_path, capsys):
    spec, scan, _ = _branch_documents(tmp_path, 100)
    assert main(["invariants", spec, "--format", "json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["tower"]["Dp"] == 49
    assert main(["decide", spec]) == EXIT_OK
    assert "Dp: genus 49" in capsys.readouterr().out
    assert main(["scan", scan, "--pmax", "7", "--format", "json"]) == EXIT_OK
    assert [row["p"] for row in json.loads(capsys.readouterr().out)["rows"]] == [5, 7]


def test_branch_degree_bound_comes_after_parsing_and_before_validation(tmp_path, capsys):
    _, _, branch = _branch_documents(tmp_path, 320)
    unknown_rotation = write_spec(tmp_path, {"p": 7, "R": "C9", "branch": branch})
    assert main(["invariants", unknown_rotation]) == EXIT_PARSE
    singular_curve = write_spec(tmp_path, {"E": {"a": 0, "b": 0}, "branch": branch}, name="e.json")
    assert main(["scan", singular_curve, "--pmax", "20"]) == EXIT_PARSE
    wrong_count = write_spec(tmp_path, {"p": 7, "R": "C2", "ram": {"a2": 2}, "branch": branch})
    assert main(["invariants", wrong_count]) == EXIT_ORACLE_BOUND
    assert "branch refused" in capsys.readouterr().err


def test_scan_rejects_singular_integral_model(tmp_path, capsys):
    path = write_spec(tmp_path, {"E": {"a": 0, "b": 0}}, name="scan.json")
    code = main(["scan", path, "--pmax", "20"])
    assert code == EXIT_PARSE
    assert capsys.readouterr().err == (
        "cannot read input:\n  - E: singular integral model: 4a^3 + 27b^2 = 0\n")


def test_scan_rejects_constant_branch(tmp_path, capsys):
    doc = {"E": {"a": 0, "b": 1}, "branch": [3, 0]}  # constant after stripping
    path = write_spec(tmp_path, doc, name="scan.json")
    code = main(["scan", path, "--pmax", "20"])
    assert code == EXIT_PARSE
    assert "nonconstant" in capsys.readouterr().err


def test_missing_file_is_parse_failure(capsys):
    assert main(["invariants", "/nonexistent/path.json"]) == EXIT_PARSE
    assert capsys.readouterr().err == (
        "cannot read input: [Errno 2] No such file or directory: '/nonexistent/path.json'\n"
    )


def test_a_directory_is_unreadable_input(tmp_path, capsys):
    for argv in (["invariants"], ["decide"], ["scan", "--pmax", "20"]):
        assert main([*argv[:1], str(tmp_path), *argv[1:]]) == EXIT_PARSE, argv
        assert capsys.readouterr().err == f"cannot read input: [Errno 21] Is a directory: '{tmp_path}'\n"


def test_invalid_utf8_is_unreadable_input(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"p": 5, "R": "C2", "ram": {"a2": 2}, "note": "caf\xe9"}')
    assert main(["invariants", str(path)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith(f"cannot read input: {path}: 'utf-8' codec can't decode byte 0xe9")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit here")
def test_an_integer_beyond_the_digit_limit_is_unreadable_input(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"p": ' + "7" * 5000 + ', "R": "C2", "ram": {"a2": 2}}')
    assert main(["invariants", str(path)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith(f"cannot read input: {path}: Exceeds the limit")


def test_nesting_beyond_the_decoder_depth_is_unreadable_input(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["scan", str(path), "--pmax", "20"]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith(f"cannot read input: {path}: maximum recursion depth")


def test_a_broken_pipe_on_stdout_is_not_an_input_error(tmp_path, monkeypatch, capsys):
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

    path = write_spec(tmp_path, EXAMPLE_RATIONAL)
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    with pytest.raises(BrokenPipeError):
        main(["invariants", path])
    assert "cannot read input" not in capsys.readouterr().err


def test_console_entry_point_help():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def _run_captured(capsys, call, argv):
    """(exit code, stdout, stderr) of call(argv); a SystemExit gives its code."""
    try:
        code = call(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def _command_line_corpus(tmp_path):
    spec = write_spec(tmp_path, EXAMPLE_RATIONAL)
    scan = write_spec(tmp_path, {"E": {"a": 2, "b": 3}}, name="scan.json")
    return [
        [], ["-h"], ["--help"], ["-h", "scan"], ["bogus"], ["sc"],
        ["--", "scan", scan, "--pmax", "30"],
        ["scan", "-h"], ["decide", "-h"], ["verify-examples", "-h"], ["invariants", "-h"],
        ["scan", scan, "--pmax", "30", "-h"],
        ["scan", scan], ["scan", scan, "--pmax", "x"], ["scan", scan, "--pmax", "-5"],
        ["scan", scan, "--pmax", "30", "--format", "xml"],
        ["scan", scan, "--pmax", "30", "--format", "json", "--format", "tsv"],
        ["scan", scan, "--pm", "30"], ["decide", spec, "--se", "E=ordinary"],
        ["invariants", spec, "--form", "json"], ["scan", scan, "--pmax", "30", "--format=json"],
        ["scan", "--pmax", "30", scan], ["decide", spec, "--set"],
        ["scan", scan, "--pmax", "30", "--bogus"], ["invariants", spec, "extra"],
        ["verify-examples", "x"], ["scan", scan, "--pmax", "30", "--", "more"],
        ["invariants", str(tmp_path / "missing.json")], ["decide"],
        ["invariants", spec], ["decide", spec, "--format", "json"], ["verify-examples"],
        ["invariants", "-"], ["invariants", ""], ["invariants", spec, spec],
        ["decide", spec, "--set", "-x"],
        ["decide", spec, "--set", "E=ordinary", "--set", "E=ordinary"],
        ["decide", spec, "--format", "json", "--format", "text"],
        ["scan", scan, "--pmax", " 30 "], ["scan", scan, "--pmax", "3_0"],
        ["scan", scan, "--pmax", "9" * 5000], ["verify-examples", "--format", "json"],
    ]


def test_each_command_line_behaves_as_through_the_whole_parser_tree(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # help wraps to the terminal width
    corpus = _command_line_corpus(tmp_path)
    own = [_run_captured(capsys, main, argv) for argv in corpus]
    monkeypatch.setattr(cli, "_parse_command_line", lambda argv: cli.build_parser().parse_args(argv))
    whole = [_run_captured(capsys, main, argv) for argv in corpus]
    for argv, got, want in zip(corpus, own, whole):
        assert got == want, argv
    assert {code for code, _, _ in own} == {EXIT_OK, EXIT_VALIDATION, EXIT_PARSE}
    plain = [argv for argv in corpus if cli._plain_arguments(argv) is not None]
    for argv in plain:
        tree = vars(cli.build_parser().parse_args(argv))
        assert tree.pop("command") == argv[0]
        assert vars(cli._plain_arguments(argv)) == tree, argv
    assert {argv[0] for argv in plain} == set(cli._COMMANDS)


def test_a_plain_call_builds_no_parser(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    spec = write_spec(tmp_path, EXAMPLE_RATIONAL)
    scan = write_spec(tmp_path, {"E": {"a": 2, "b": 3}}, name="scan.json")
    for argv in (["invariants", spec, "--format", "json"], ["decide", spec, "--set", "Dp=0"],
                 ["verify-examples"], ["scan", "--format", "json", scan, "--pmax", "30"]):
        assert main(argv) == EXIT_OK, argv
    assert built == []
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert built == ["isofib"] + [f"isofib {name}" for name in
                                  ("invariants", "decide", "verify-examples", "scan")]


def test_a_plain_call_in_a_fresh_interpreter_loads_no_argparse_or_gettext():
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys, isofib.cli; code = isofib.cli.main(['verify-examples']); print(code, "
            "[m for m in ('argparse', 'gettext') if m in sys.modules], file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "0 []\n")


def test_a_command_runs_the_handler_bound_on_the_module_at_call_time(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "cmd_scan", lambda args: seen.append(args) or 7)
    scan = write_spec(tmp_path, {"E": {"a": 2, "b": 3}}, name="scan.json")
    assert main(["scan", scan, "--pmax", "30"]) == 7
    assert [(a.scan_file, a.pmax, a.format) for a in seen] == [(scan, 30, "tsv")]


def test_the_module_entry_point_reads_its_arguments_from_the_process(tmp_path, capsys):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    scan = write_spec(tmp_path, {"E": {"a": 2, "b": 3}}, name="scan.json")

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "isofib.cli", *argv], env=env,
                              capture_output=True, timeout=60)

    proc = run("scan", scan, "--pmax", "60", "--format", "json")
    assert main(["scan", scan, "--pmax", "60", "--format", "json"]) == EXIT_OK
    assert (proc.returncode, proc.stdout) == (EXIT_OK, capsys.readouterr().out.encode())
    proc = run("scan", scan)
    assert proc.returncode == 2
    assert proc.stderr.decode().endswith("the following arguments are required: --pmax\n")
    proc = run("--help")
    assert proc.returncode == 0
    assert proc.stdout.startswith(b"usage: isofib ")


def test_importing_the_command_line_loads_no_unneeded_standard_modules():
    src = str(Path(cli.__file__).resolve().parents[1])
    unneeded = ("fractions", "decimal", "_decimal", "numbers", "dataclasses", "inspect")
    code = f"import sys, isofib.cli; print(' '.join(m for m in {unneeded} if m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "\n", "")
