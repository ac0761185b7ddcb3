"""The golden suite: spec documents with expected payload fields, checked end to end."""

import json

import pytest

from isofib import cli
from isofib.cli import EXIT_OK, EXIT_VALIDATION, GOLDEN_SUITE, main, parse_spec_document
from isofib.curves import ZETA_MAX_P, HyperellipticModel, point_count_oracle, zeta_prank_oracle
from isofib.ordinarity import build_report

CASES = [
    pytest.param(document, overrides, command, fields, id=f"{name}-{index}-{command}")
    for name, _, cases in GOLDEN_SUITE
    for index, (document, overrides, expected) in enumerate(cases)
    for command, fields in expected.items()
]


@pytest.mark.parametrize("document, overrides, command, fields", CASES)
def test_golden_case_through_the_command_line(tmp_path, capsys, document, overrides, command,
                                              fields):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(document))
    sets = [arg for name, value in overrides.items() for arg in ("--set", f"{name}={value}")]
    if command == "invariants":
        sets = []  # invariants takes no --set; the overrides only complete decide
    assert main([command, str(path), *sets, "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert {field: payload[field] for field in fields} == fields


def test_golden_models_agree_with_the_counting_oracles():
    curves = branches = 0
    for _, _, cases in GOLDEN_SUITE:
        for document, overrides, _ in cases:
            spec = parse_spec_document(document)
            report = build_report(spec, overrides)
            if spec.e_model is not None:
                _, trace = point_count_oracle(spec.e_model)
                assert report.E.ordinary == (trace % spec.field.p != 0), document
                curves += 1
            branch = spec.branch_poly
            if branch is not None and branch.degree() >= 3 and spec.field.p <= ZETA_MAX_P:
                assert report.Dp.p_rank == zeta_prank_oracle(HyperellipticModel(branch)), document
                branches += 1
    assert curves >= 5 and branches >= 1


def test_verify_examples_reports_each_failure_and_exits_one(monkeypatch, capsys):
    rational = {"p": 5, "R": "C2", "ram": {"a2": 2}}
    monkeypatch.setattr(cli, "GOLDEN_SUITE", (
        ("right", "chi = 1", ((rational, {}, {"invariants": {"chi": 1}}),)),
        ("wrong", "chi = 2", ((rational, {}, {"invariants": {"chi": 2}}),)),
        ("lawless", "odd a2", (({"p": 5, "R": "C2", "ram": {"a2": 3}}, {},
                                {"invariants": {"chi": 1}}),)),
        ("incomplete", "no E", ((rational | {"ram": {"a2": 4}}, {}, {"decide": {}}),)),
    ))
    assert main(["verify-examples"]) == EXIT_VALIDATION
    assert capsys.readouterr().out.splitlines() == [
        "PASS right: chi = 1",
        "FAIL wrong: invariants chi = 1, expected 2",
        "FAIL lawless: ValidationError: deg L1 = -a2/2 = -3/2 is not an integer",
        "FAIL incomplete: MissingReportDataError: missing report data for: E",
        "1/4 examples verified",
    ]
