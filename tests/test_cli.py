import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shoda.algebra
import shoda.cli
import shoda.commutators
from shoda.cli import CliConfig, main, run
from shoda.serialize import dumps, element_to_json


@pytest.fixture
def spec23_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"blocks": [2, 3]}))
    return str(path)


@pytest.fixture
def spec4_file(tmp_path):
    path = tmp_path / "spec4.json"
    path.write_text(json.dumps({"blocks": [4]}))
    return str(path)


@pytest.fixture
def witness_file(tmp_path):
    blocks = [
        [[3, 0], [0, 0], [0, 0], [3, 0]],
        [[-2, 0], [0, 0], [0, 0], [0, 0], [-2, 0], [0, 0], [0, 0], [0, 0], [-2, 0]],
    ]
    path = tmp_path / "witness.json"
    path.write_text(json.dumps({"blocks": blocks}))
    return str(path)


def test_complete_command(spec23_file):
    code, report = run(CliConfig(command="complete", spec_path=spec23_file))
    assert code == 0
    assert report["N"] == 5
    assert report["radical_dim"] == 0
    assert report["components"] == [25]
    assert report["iso_residual"] < 1e-10


def test_check_commands(spec23_file, spec4_file):
    code, report = run(CliConfig(command="check", spec_path=spec4_file))
    assert code == 0 and report["verdict"] is True
    code, report = run(CliConfig(command="check", spec_path=spec23_file))
    assert code == 0 and report["verdict"] is False
    assert report["witness"] is not None


def test_decompose_in_completion(spec23_file, witness_file):
    config = CliConfig(
        command="decompose",
        spec_path=spec23_file,
        element_path=witness_file,
        in_completion=True,
    )
    code, report = run(config)
    assert code == 0
    assert report["residual"] < 1e-9
    assert "a" in report and "u" in report["a"]


def test_decompose_reports_certificate_for_multi_block(spec23_file, witness_file):
    config = CliConfig(command="decompose", spec_path=spec23_file, element_path=witness_file)
    code, report = run(config)
    assert code == 0
    assert report["certified_non_commutator"] is True
    assert report["block_traces"] == [[6.0, 0.0], [-6.0, 0.0]]


def test_decompose_multi_block_rejects_nonzero_trace(tmp_path, spec23_file, capsys):
    # diag(1, 2) + diag(3, 4, 5) has trace 15: no commutator, in A or in the completion
    element = tmp_path / "diagonal.json"
    blocks = [np.diag([1.0, 2.0]), np.diag([3.0, 4.0, 5.0])]
    element.write_text(json.dumps({"blocks": [[[x, 0.0] for x in b.ravel()] for b in blocks]}))
    config = CliConfig(command="decompose", spec_path=spec23_file, element_path=str(element))
    code, report = run(config)
    assert code == 1
    assert report["error"] == "NotTraceless"
    assert main(["decompose", spec23_file, str(element)]) == 1
    assert '"error": "NotTraceless"' in capsys.readouterr().out


def test_decompose_single_block(tmp_path, spec4_file):
    element = tmp_path / "traceless.json"
    flat = [[0.0, 0.0]] * 16
    flat[0] = [1.0, 0.0]
    flat[5] = [-1.0, 0.0]
    element.write_text(json.dumps({"blocks": [flat]}))
    config = CliConfig(command="decompose", spec_path=spec4_file, element_path=str(element))
    code, report = run(config)
    assert code == 0
    assert report["residual"] < 1e-12
    assert report["in_completion"] is False
    assert "blocks" in report["a"]


def test_path_with_explicit_endpoints(tmp_path, spec23_file):
    p_flat = [[0.0, 0.0]] * 9
    p_flat[0] = [1.0, 0.0]
    q_flat = [[0.0, 0.0]] * 9
    q_flat[4] = [1.0, 0.0]
    zero2 = [[0.0, 0.0]] * 4
    endpoints = {
        "p": {"blocks": [zero2, p_flat]},
        "q": {"blocks": [zero2, q_flat]},
    }
    path_file = tmp_path / "endpoints.json"
    path_file.write_text(json.dumps(endpoints))
    config = CliConfig(
        command="path", spec_path=spec23_file, element_path=str(path_file), samples=33
    )
    code, report = run(config)
    assert code == 0
    assert report["samples"] == 33
    assert report["max_idempotency_residual"] < 1e-9


def test_decompose_rejects_nonzero_trace(tmp_path, spec4_file):
    element = tmp_path / "one.json"
    flat = [[1.0 if r == c else 0.0, 0.0] for r in range(4) for c in range(4)]
    element.write_text(json.dumps({"blocks": [flat]}))
    config = CliConfig(command="decompose", spec_path=spec4_file, element_path=str(element))
    code, report = run(config)
    assert code == 1
    assert report["error"] == "NotTraceless"


def test_rank_trace_spectrum(spec23_file, tmp_path):
    element = tmp_path / "elt.json"
    blocks = [
        [[2, 0], [0, 0], [0, 0], [0, 0]],
        [[0, 0]] * 9,
    ]
    element.write_text(json.dumps({"blocks": blocks}))
    code, report = run(CliConfig(command="rank", spec_path=spec23_file, element_path=str(element)))
    assert code == 0 and report["rank"] == 1
    code, report = run(CliConfig(command="trace", spec_path=spec23_file, element_path=str(element)))
    assert code == 0 and report["trace"] == [2.0, 0.0]
    code, report = run(
        CliConfig(command="spectrum", spec_path=spec23_file, element_path=str(element))
    )
    assert code == 0
    assert [[2.0, 0.0], 1] in report["eigenvalues"]
    assert report["nonzero"] == [[[2.0, 0.0], 1]]


def test_riesz_command(spec23_file, tmp_path):
    element = tmp_path / "elt.json"
    blocks = [
        [[2, 0], [0, 0], [0, 0], [0, 0]],
        [[0, 0]] * 9,
    ]
    element.write_text(json.dumps({"blocks": blocks}))
    code, report = run(CliConfig(command="riesz", spec_path=spec23_file, element_path=str(element)))
    assert code == 0
    assert len(report["projections"]) == 1
    entry = report["projections"][0]
    assert entry["rank"] == 1
    assert entry["idempotency_residual"] < 1e-10


@pytest.mark.parametrize("shift", [np.eye(2), -np.triu(np.ones((2, 2)), 1)])
def test_riesz_gates_its_residuals(monkeypatch, spec23_file, tmp_path, capsys, shift):
    # negative controls: with x = 2 E_00, P + 1e-6 I commutes with x but is
    # not idempotent, and P - 1e-6 E_01 is idempotent but does not commute
    riesz = shoda.cli._riesz_from_clusters

    def shifted(x, *args):
        p = riesz(x, *args)
        return shoda.algebra.Element(p.spec, (p.blocks[0] + 1e-6 * shift, p.blocks[1]))

    monkeypatch.setattr(shoda.cli, "_riesz_from_clusters", shifted)
    element = tmp_path / "elt.json"
    element.write_text(json.dumps({"blocks": [[[2, 0], [0, 0], [0, 0], [0, 0]], [[0, 0]] * 9]}))
    assert main(["riesz", spec23_file, str(element)]) == 1
    report = _strict_json(capsys.readouterr().out)
    assert report["error"] == "NumericalFailure" and "residual" in report["detail"]


def test_riesz_projects_the_tiny_values_spectrum_lists(tmp_path, capsys):
    # the zero test of the quadrature was absolute, so riesz refused them
    spec = tmp_path / "s.json"
    spec.write_text(json.dumps({"blocks": [2]}))
    element = tmp_path / "e.json"
    element.write_text(json.dumps({"blocks": [[[1e-12, 0], [0, 0], [0, 0], [2e-12, 0]]]}))
    assert main(["spectrum", str(spec), str(element)]) == 0
    listed = [v for v, _ in json.loads(capsys.readouterr().out)["nonzero"]]
    assert main(["riesz", str(spec), str(element)]) == 0
    projections = json.loads(capsys.readouterr().out)["projections"]
    assert [p["eigenvalue"] for p in projections] == listed == [[2e-12, 0.0], [1e-12, 0.0]]
    assert all(p["rank"] == 1 and p["idempotency_residual"] < 1e-9 for p in projections)


def test_riesz_projects_a_defective_element(tmp_path, capsys):
    # diag(J_3(2), J_2(5), 1, 1, -3) conjugated by a dense S: not triangular and
    # not diagonalizable; at the default tol LAPACK splits the Jordan eigenvalues
    j = np.diag([2.0, 2, 2, 5, 5, 1, 1, -3]) + np.diag([1.0, 1, 0, 1, 0, 0, 0], 1)
    s = np.eye(8) + 0.3 * np.random.default_rng(1).normal(size=(8, 8))
    m = s @ j @ np.linalg.inv(s)
    spec = tmp_path / "s.json"
    spec.write_text(json.dumps({"blocks": [8]}))
    element = tmp_path / "e.json"
    element.write_text(json.dumps({"blocks": [[[z, 0.0] for z in m.ravel()]]}))
    assert main(["riesz", str(spec), str(element), "--tol", "1e-4"]) == 0
    projections = json.loads(capsys.readouterr().out)["projections"]
    assert sorted(p["multiplicity"] for p in projections) == [1, 2, 2, 3]
    assert all(p["rank"] == p["multiplicity"] for p in projections)
    blocks = [np.array(p["projection"]["blocks"][0]) for p in projections]
    total = sum(b[:, 0] + 1j * b[:, 1] for b in blocks).reshape(8, 8)
    assert np.allclose(total, np.eye(8), atol=1e-9)
    x_scale = 1 + np.linalg.norm(m)
    for p, b in zip(projections, blocks):
        p_scale = 1 + np.linalg.norm(b)
        assert p["idempotency_residual"] <= 1e-4 * p_scale**2
        assert p["commutation_residual"] <= 1e-4 * p_scale * x_scale


def test_riesz_sign_iteration_over_its_step_cap_is_exit_one(monkeypatch, spec23_file, tmp_path, capsys):
    # x = 2 E_00: the Cayley image of block 0 is diag(1, -1/3), which one step does not settle
    monkeypatch.setattr(shoda.algebra, "_SIGN_STEPS", 1)
    element = tmp_path / "elt.json"
    element.write_text(json.dumps({"blocks": [[[2, 0], [0, 0], [0, 0], [0, 0]], [[0, 0]] * 9]}))
    assert main(["riesz", spec23_file, str(element)]) == 1
    report = _strict_json(capsys.readouterr().out)
    assert report["error"] == "NumericalFailure" and "sign iteration" in report["detail"]


def test_norm_audit_command(spec23_file):
    code, report = run(
        CliConfig(command="norm-audit", spec_path=spec23_file, samples=200, seed=9)
    )
    assert code == 0
    assert report["worst_ratio"] <= 1 + 1e-9
    assert report["isometry_dev"] < 1e-12
    assert report["a_norm_model"] == "max-block-operator-norm"


def test_path_command(spec23_file):
    code, report = run(CliConfig(command="path", spec_path=spec23_file, samples=64))
    assert code == 0
    assert report["samples"] == 64
    assert report["max_idempotency_residual"] < 1e-9
    assert report["max_rank_defect"] == 0
    assert report["endpoints_exact"] is True


def test_path_with_one_sample_reports_exact_endpoints(spec23_file):
    # the one sample is p; q is not on a one-sample path
    code, report = run(CliConfig(command="path", spec_path=spec23_file, samples=1))
    assert code == 0
    assert report["samples"] == 1
    assert report["max_rank_defect"] == 0
    assert report["endpoints_exact"] is True


def test_path_takes_every_sample_asked_for(spec23_file):
    code, report = run(CliConfig(command="path", spec_path=spec23_file, samples=1500, seed=7))
    assert code == 0
    spec = shoda.algebra.AlgebraSpec((2, 3))
    rng = np.random.default_rng(7)
    p = shoda.cli.random_rank_one_projection(spec, 0, rng)
    q = shoda.cli.random_rank_one_projection(spec, 0, rng)
    assert report == _loop_path_report(shoda.algebra.projection_path(p, q, 1500, 1e-9, seed=7))


@pytest.mark.parametrize("command", ["check", "info"])
def test_tol_of_one_is_exit_two(spec23_file, command, capsys):
    # at tol 1 no matrix unit has rank 1, and the commands that take no
    # element used to fail inside the rank-one check
    assert main([command, spec23_file, "--tol", "1"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"


def test_path_at_large_tol_finds_the_arc(tmp_path):
    # no entry of the seeded endpoints exceeds half their norm; their block
    # is still found, and --tol, the rank cut, does not make the arc's
    # samples exceptional
    spec = tmp_path / "spec8.json"
    spec.write_text(json.dumps({"blocks": [8]}))
    assert main(["path", str(spec), "--tol", "0.5"]) == 0
    code, report = run(CliConfig(command="path", spec_path=str(spec), tol=0.5))
    assert code == 0
    assert report["samples"] == 1000
    assert report["max_idempotency_residual"] < 1e-9
    assert report["max_rank_defect"] == 0


def test_path_rejects_a_non_projection_endpoint(tmp_path, spec23_file, capsys):
    # p = 2 E_11 fails the idempotency check
    zero2 = [[0.0, 0.0]] * 4
    p_flat = [[2.0 if r == c == 0 else 0.0, 0.0] for r in range(3) for c in range(3)]
    q_flat = [[1.0 if r == c == 2 else 0.0, 0.0] for r in range(3) for c in range(3)]
    path_file = tmp_path / "endpoints.json"
    path_file.write_text(json.dumps({"p": {"blocks": [zero2, p_flat]}, "q": {"blocks": [zero2, q_flat]}}))
    assert main(["path", spec23_file, str(path_file)]) == 1
    assert _strict_json(capsys.readouterr().out)["error"] == "NotAProjection"


def test_info_command(spec23_file):
    code, report = run(CliConfig(command="info", spec_path=spec23_file))
    assert code == 0
    assert report == {
        "blocks": [2, 3],
        "dim": 13,
        "matrix_size": 5,
        "extension_dim": 25,
        "shoda_complete": False,
    }


def test_missing_file_is_exit_two(tmp_path):
    code, report = run(CliConfig(command="info", spec_path=str(tmp_path / "nope.json")))
    assert code == 2
    assert "error" in report


def test_bad_json_is_exit_two(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, report = run(CliConfig(command="info", spec_path=str(path)))
    assert code == 2


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_tol_must_be_finite_and_positive(spec23_file, tmp_path, tol, capsys):
    # nan and inf used to exit 0 with rank 0
    element = tmp_path / "elt.json"
    element.write_text(json.dumps({"blocks": [[[1, 0]] * 4, [[1, 0]] * 9]}))
    assert main(["rank", spec23_file, str(element), "--tol", tol]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"


def test_reports_are_deterministic(spec23_file):
    first = run(CliConfig(command="norm-audit", spec_path=spec23_file, samples=100, seed=3))
    second = run(CliConfig(command="norm-audit", spec_path=spec23_file, samples=100, seed=3))
    assert dumps(first[1]) == dumps(second[1])


def test_main_writes_output_file(spec23_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["check", spec23_file, "-o", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["verdict"] is False
    assert capsys.readouterr().out == ""


def test_main_prints_to_stdout(spec23_file, capsys):
    code = main(["info", spec23_file])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["blocks"] == [2, 3]


def test_dump_table_flag(tmp_path, capsys):
    spec = tmp_path / "s.json"
    spec.write_text(json.dumps({"blocks": [1, 1]}))
    code, report = run(CliConfig(command="complete", spec_path=str(spec), dump_table=True))
    assert code == 0
    table = report["table"]
    assert len(table) == 4 and len(table[0]) == 4 and len(table[0][0]) == 4


def test_non_finite_element_is_exit_two(tmp_path, spec4_file, capsys):
    # NaN used to flow into the decomposition and exit 0 with a NaN residual
    path = tmp_path / "nan.json"
    flat = [[0.0, 0.0]] * 16
    flat[1] = [float("nan"), 0.0]
    path.write_text(json.dumps({"blocks": [flat]}))
    for command in ("decompose", "rank"):
        assert main([command, spec4_file, str(path)]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["error"] == "ValueError"


@pytest.mark.parametrize("entry", [[1, 2, 3], [10**400, 0]])
def test_malformed_entry_is_exit_two(tmp_path, entry, capsys):
    # a third value used to be dropped silently, and an integer beyond the
    # float range escaped as an OverflowError traceback
    spec = tmp_path / "spec1.json"
    spec.write_text(json.dumps({"blocks": [1]}))
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"blocks": [[entry]]}))
    assert main(["rank", str(spec), str(path)]) == 2
    assert _strict_json(capsys.readouterr().out)["error"] == "ValueError"


@pytest.mark.parametrize(
    "flat",
    [
        [["1", "0"], [True, False], [0, 0], ["-1", 0]],
        [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [True, 0.0]],
    ],
    ids=["strings", "boolean"],
)
def test_string_or_boolean_entry_is_exit_two(tmp_path, flat, capsys):
    # numpy reads "1" and true as numbers, so both used to exit 0
    spec = tmp_path / "spec2.json"
    spec.write_text(json.dumps({"blocks": [2]}))
    element = tmp_path / "x.json"
    element.write_text(json.dumps({"blocks": [flat]}))
    ends = tmp_path / "ends.json"
    projection = {"blocks": [[[1, 0], [0, 0], [0, 0], [0, 0]]]}
    ends.write_text(json.dumps({"p": projection, "q": {"blocks": [flat]}}))
    for argv in (["rank", str(spec), str(element)], ["path", str(spec), str(ends)]):
        assert main(argv) == 2
        report = _strict_json(capsys.readouterr().out)
        assert report["error"] == "ValueError" and "must be numbers" in report["detail"]


def test_numerical_failure_is_exit_one(monkeypatch, spec23_file, witness_file):
    # LinAlgError subclasses ValueError, but it is a numerical failure, not a
    # parse error
    def diverge(x, tol):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(shoda.cli, "rank", diverge)
    code, report = run(CliConfig(command="rank", spec_path=spec23_file, element_path=witness_file))
    assert code == 1
    assert report["error"] == "LinAlgError"


def _strict_json(text: str):
    def reject(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def test_witness_over_tol_is_exit_one(tmp_path, capsys):
    # an exactly traceless integer element whose witness has a residual
    # of about 1e-15: at --tol 1e-25 there is no checked certificate
    spec = tmp_path / "spec3.json"
    spec.write_text(json.dumps({"blocks": [3]}))
    entries = [1, 2, 3, 4, 5, 6, 7, 8, -6]
    element = tmp_path / "t.json"
    element.write_text(json.dumps({"blocks": [[[v, 0] for v in entries]]}))
    assert main(["decompose", str(spec), str(element), "--tol", "1e-25"]) == 1
    captured = capsys.readouterr()
    report = _strict_json(captured.out)
    assert report["error"] == "NumericalFailure"
    assert "Traceback" not in captured.err


def test_non_finite_report_is_exit_one(monkeypatch, spec23_file, witness_file, capsys):
    monkeypatch.setattr(shoda.cli, "rank", lambda x, tol: float("nan"))
    assert main(["rank", spec23_file, witness_file]) == 1
    report = _strict_json(capsys.readouterr().out)
    assert report["error"] == "NumericalFailure"


def test_spec_over_table_budget_is_exit_one(tmp_path, capsys):
    spec = tmp_path / "big.json"
    spec.write_text(json.dumps({"blocks": [87]}))
    start = time.perf_counter()
    code = main(["complete", str(spec)])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert _strict_json(capsys.readouterr().out)["error"] == "TooLarge"


def test_check_refuses_a_witness_report_over_budget(tmp_path, capsys):
    # the completeness checks of (500, 500) fit the budget; the JSON of its
    # witness, with dim = 500000 entries, does not
    spec = tmp_path / "big.json"
    spec.write_text(json.dumps({"blocks": [500, 500]}))
    start = time.perf_counter()
    code = main(["check", str(spec)])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    report = _strict_json(capsys.readouterr().out)
    assert report["error"] == "TooLarge" and "witness report" in report["detail"]


@pytest.mark.parametrize("dims", [[2] * 92434, [1, 2] * 50000])
def test_check_budget_counts_the_blocks_of_its_witness(tmp_path, capsys, dims):
    # about 1500 bytes of report per block beside its entries: by entries
    # alone both specs fit, and their reports peaked at 324 and 272 MiB
    spec = tmp_path / "many.json"
    spec.write_text(json.dumps({"blocks": dims}))
    assert main(["check", str(spec)]) == 1
    report = _strict_json(capsys.readouterr().out)
    assert report["error"] == "TooLarge" and "witness report" in report["detail"]


def test_path_refuses_a_block_over_its_working_set(tmp_path, capsys):
    # ten n x n arrays of [1448] need 320 MiB; it peaked at 299 MiB, the
    # interpreter included
    spec = tmp_path / "spec1448.json"
    spec.write_text(json.dumps({"blocks": [1448]}))
    start = time.perf_counter()
    assert main(["path", str(spec), "--samples", "2"]) == 1
    assert time.perf_counter() - start < 1.0
    report = _strict_json(capsys.readouterr().out)
    assert report["error"] == "TooLarge" and "path sample" in report["detail"]


def test_check_at_large_tol_reports_square_corners(tmp_path, capsys):
    # the dense rank cut over the n^2 x n^2 corner used to report a corner of
    # dimension 3 here, and the criteria disagreed with exit 1
    spec = tmp_path / "spec5.json"
    spec.write_text(json.dumps({"blocks": [5]}))
    assert main(["check", str(spec), "--tol", "0.1"]) == 0
    report = _strict_json(capsys.readouterr().out)
    assert report["verdict"] is True
    assert report["criterion_corner"] == [[1, 1], [2, 4]]


def test_disagreeing_criteria_are_exit_one(monkeypatch, tmp_path, capsys):
    # negative control of the disagreement gate: a non-square corner dimension
    monkeypatch.setattr(shoda.commutators, "_corner_dim", lambda p, tol: 3)
    spec = tmp_path / "spec4.json"
    spec.write_text(json.dumps({"blocks": [4]}))
    assert main(["check", str(spec)]) == 1
    report = _strict_json(capsys.readouterr().out)
    assert report["error"] == "NumericalFailure"
    assert "criteria disagree" in report["detail"]


def test_dense_table_over_budget_is_exit_one(tmp_path, capsys):
    # these complete, but their table dumps are refused before the pipeline
    # runs: the budget counts the nested lists and the JSON text of every
    # entry, so N = 8 is the largest table dumped
    spec = tmp_path / "big.json"
    for blocks in ([4, 5], [17]):
        spec.write_text(json.dumps({"blocks": blocks}))
        start = time.perf_counter()
        code = main(["complete", str(spec), "--dump-table"])
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert _strict_json(capsys.readouterr().out)["error"] == "TooLarge"


def test_completeness_checks_over_budget_are_exit_one(tmp_path, capsys):
    spec = tmp_path / "big.json"
    spec.write_text(json.dumps({"blocks": [1000000]}))
    for command in ("info", "check"):
        start = time.perf_counter()
        code = main([command, str(spec)])
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert _strict_json(capsys.readouterr().out)["error"] == "TooLarge"


def test_decompose_over_budget_is_exit_one(tmp_path, capsys):
    # the size is checked first: the element file, of the wrong size, is never parsed
    spec = tmp_path / "big.json"
    spec.write_text(json.dumps({"blocks": [100000]}))
    element = tmp_path / "t.json"
    element.write_text(json.dumps({"blocks": [[[0, 0]]]}))
    for flags in ([], ["--in-completion"]):
        start = time.perf_counter()
        code = main(["decompose", str(spec), str(element), *flags])
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert _strict_json(capsys.readouterr().out)["error"] == "TooLarge"


def test_decompose_refuses_its_report_before_reading_the_element(tmp_path, capsys):
    # the input and both factors count against the budget; the element file
    # does not exist, so an admitted size exits 2 when it is read
    spec = tmp_path / "big.json"
    missing = str(tmp_path / "missing.json")
    n = _REFUSED_BLOCK["decompose"]
    for flags in ([], ["--in-completion"]):
        for size, code, error in ((n, 1, "TooLarge"), (n - 1, 2, "FileNotFoundError")):
            spec.write_text(json.dumps({"blocks": [size]}))
            assert main(["decompose", str(spec), missing, *flags]) == code
            assert _strict_json(capsys.readouterr().out)["error"] == error


def test_riesz_refuses_a_report_over_budget(tmp_path, capsys):
    # one projection of 6400 entries for each of 80 distinct eigenvalues,
    # refused after the spectrum and before any quadrature
    spec = tmp_path / "spec80.json"
    spec.write_text(json.dumps({"blocks": [80]}))
    rng = np.random.default_rng(80)
    m = rng.normal(size=(80, 80)) + 1j * rng.normal(size=(80, 80))
    element = tmp_path / "x.json"
    element.write_text(json.dumps({"blocks": [[[z.real, z.imag] for z in m.ravel()]]}))
    start = time.perf_counter()
    code = main(["riesz", str(spec), str(element)])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    report = _strict_json(capsys.readouterr().out)
    assert report["error"] == "TooLarge" and "riesz report" in report["detail"]


def test_norm_audit_over_budget_is_exit_one(tmp_path, capsys):
    spec = tmp_path / "big.json"
    for n in (_REFUSED_BLOCK["norm-audit"], 30000):
        spec.write_text(json.dumps({"blocks": [n]}))
        start = time.perf_counter()
        code = main(["norm-audit", str(spec)])
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert _strict_json(capsys.readouterr().out)["error"] == "TooLarge"


def test_completeness_checks_refuse_the_first_block_over_budget(tmp_path, capsys):
    # the budget counts eleven arrays of dim complex entries
    spec = tmp_path / "big.json"
    spec.write_text(json.dumps({"blocks": [_REFUSED_BLOCK["info"]]}))
    for command in ("info", "check"):
        start = time.perf_counter()
        code = main([command, str(spec)])
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert _strict_json(capsys.readouterr().out)["error"] == "TooLarge"


def test_path_over_budget_is_exit_one(tmp_path, capsys):
    # the size is checked first: no endpoints are drawn, and the endpoint
    # file, of the wrong size, is never parsed
    spec = tmp_path / "big.json"
    element = tmp_path / "ends.json"
    element.write_text(json.dumps({"p": {"blocks": [[[1, 0]]]}, "q": {"blocks": [[[1, 0]]]}}))
    for n in (_REFUSED_BLOCK["path"], 30000):
        spec.write_text(json.dumps({"blocks": [n]}))
        for ends in ([], [str(element)]):
            start = time.perf_counter()
            code = main(["path", str(spec), *ends])
            assert time.perf_counter() - start < 1.0
            assert code == 1
            assert _strict_json(capsys.readouterr().out)["error"] == "TooLarge"


def test_memory_error_is_exit_one(monkeypatch, spec23_file, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 14.4 GiB")

    monkeypatch.setattr(shoda.cli, "is_shoda_complete", exhausted)
    assert main(["info", spec23_file]) == 1
    report = _strict_json(capsys.readouterr().out)
    assert report == {"error": "MemoryError", "detail": "Unable to allocate 14.4 GiB"}


@pytest.mark.parametrize("blocks", [[8], [4, 4], [5, 3], [1, 1, 1]])
def test_path_report_equals_the_sample_loop(tmp_path, blocks):
    # the stacked checks give the same floats as one Element at a time
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"blocks": blocks}))
    code, report = run(CliConfig(command="path", spec_path=str(spec_path), seed=7))
    assert code == 0
    spec = shoda.algebra.AlgebraSpec(tuple(blocks))
    rng = np.random.default_rng(7)
    p = shoda.cli.random_rank_one_projection(spec, 0, rng)
    q = shoda.cli.random_rank_one_projection(spec, 0, rng)
    assert report == _loop_path_report(shoda.algebra.projection_path(p, q, 1000, 1e-9, seed=7))


def _loop_path_report(arc):
    """The path report of the Elements of an arc, one at a time."""
    return {
        "samples": len(arc),
        "max_idempotency_residual": max(
            shoda.algebra.frobenius(shoda.algebra.multiply(e, e) - e) for e in arc
        ),
        "max_rank_defect": max(abs(shoda.algebra.rank(e) - 1) for e in arc),
        "endpoints_exact": True,
    }


@pytest.mark.parametrize("tiny", [0.0, 1e-12])
def test_path_report_in_the_last_block_equals_the_sample_loop(tmp_path, tiny):
    # the CLI draws its endpoints in block 0; these lie in block 3 of 3.  With
    # tiny = 1e-12, p's five entries outside that block, below the rank
    # threshold, make the largest idempotency residual, sqrt(5) 1e-12.
    spec = shoda.algebra.AlgebraSpec((1, 2, 3))
    rng = np.random.default_rng(11)
    v, w = rng.normal(size=(2, 2, 3)) + 1j * rng.normal(size=(2, 2, 3))
    p, q = (
        shoda.algebra.Element(spec, [np.full((1, 1), t), np.full((2, 2), t), np.outer(x, y) / (y @ x)])
        for x, y, t in zip(v, w, (tiny, 0.0))
    )
    spec_path, ends = tmp_path / "spec.json", tmp_path / "ends.json"
    spec_path.write_text(json.dumps({"blocks": [1, 2, 3]}))
    ends.write_text(dumps({"p": element_to_json(p), "q": element_to_json(q)}))
    config = CliConfig(command="path", spec_path=str(spec_path), element_path=str(ends), seed=7)
    code, report = run(config)
    assert code == 0
    assert report == _loop_path_report(shoda.algebra.projection_path(p, q, 1000, 1e-9, seed=7))
    if tiny:
        assert report["max_idempotency_residual"] == 2.236068436841561e-12


def test_decompose_needs_no_recursion(tmp_path):
    # one step per dimension used to be one stack frame per dimension
    n = 150
    rng = np.random.default_rng(150)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m -= np.trace(m) / n * np.eye(n)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"blocks": [n]}))
    element = tmp_path / "t.json"
    element.write_text(json.dumps({"blocks": [[[z.real, z.imag] for z in m.ravel()]]}))
    script = (
        "import sys; from shoda import cli; sys.setrecursionlimit(120); "
        "sys.exit(cli.main(sys.argv[1:]))"
    )
    src = str(Path(shoda.cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script, "decompose", str(spec), str(element)],
        capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    report = _strict_json(proc.stdout)
    assert report["residual"] <= 1e-9 * max(1.0, np.linalg.norm(m))


def test_riesz_computes_the_eigenvalues_once(monkeypatch, tmp_path):
    spec = tmp_path / "spec8.json"
    spec.write_text(json.dumps({"blocks": [8]}))
    rng = np.random.default_rng(8)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    element = tmp_path / "x.json"
    element.write_text(json.dumps({"blocks": [[[z.real, z.imag] for z in m.ravel()]]}))
    calls = []
    eigenvalues = shoda.algebra._all_eigenvalues

    def counting(a):
        calls.append(a)
        return eigenvalues(a)

    monkeypatch.setattr(shoda.algebra, "_all_eigenvalues", counting)
    code, report = run(CliConfig(command="riesz", spec_path=str(spec), element_path=str(element)))
    assert code == 0
    assert len(report["projections"]) == 8
    assert len(calls) == 1


@pytest.mark.parametrize("blocks", [[8], [4, 4], [5, 3], [16]])
def test_completeness_checks_within_budget_succeed(tmp_path, blocks):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"blocks": blocks}))
    for command in ("info", "check"):
        code, report = run(CliConfig(command=command, spec_path=str(spec)))
        assert code == 0
        assert "error" not in report


# ---------------------------------------------------------------------------
# fuzzing the command line with JSON inputs

# smallest single block each command refuses as over its memory budget
_REFUSED_BLOCK = {
    "complete": 87, "info": 1235, "check": 1235, "decompose": 432, "norm-audit": 1183,
    "path": 1296,
}

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_PAIR = st.lists(st.floats(-4, 4), min_size=2, max_size=2)


@st.composite
def _cli_case(draw):
    """A command with JSON spec and element files.

    Three inputs in four are well formed, so the numerical paths run too.
    Block sizes stay small, except for the commands in _REFUSED_BLOCK, which
    refuse a size over their budget before allocating anything.
    """

    def junk() -> bool:
        return draw(st.integers(0, 3)) == 0

    command = draw(st.sampled_from(sorted(shoda.cli._COMMANDS)))
    sizes = st.integers(-1, 3) if junk() else st.integers(1, 3)
    dims = draw(st.lists(sizes, min_size=1, max_size=3).filter(lambda d: sum(d) <= 6))
    if command in _REFUSED_BLOCK and junk():
        dims = [draw(st.integers(_REFUSED_BLOCK[command], 10**6))]
    spec = draw(_JSON) if junk() else {"blocks": dims}
    entry = _PAIR | _JSON if junk() else _PAIR
    sizes = [n for n in dims if 0 < n <= 3]
    blocks = [draw(st.lists(entry, min_size=n * n, max_size=n * n)) for n in sizes]
    diagonal = [b[k * n + k] for n, b in zip(sizes, blocks) for k in range(n)]
    if command == "decompose" and diagonal and entry is _PAIR:
        # traceless, so that the decompositions run
        diagonal[-1][0] -= sum(p[0] for p in diagonal)
        diagonal[-1][1] -= sum(p[1] for p in diagonal)
    element = draw(_JSON) if junk() else {"blocks": blocks}
    if command == "path" and not junk():
        element = {"p": element, "q": {"blocks": blocks}}
    takes_element = command in ("decompose", "rank", "trace", "spectrum", "riesz") or (
        command == "path" and draw(st.booleans())
    )
    flags = ["--tol", repr(draw(st.sampled_from([1e-9, 1e-25, 0.5]))), "--samples", "3"]
    if command == "decompose" and draw(st.booleans()):
        flags.append("--in-completion")
    if command == "complete" and draw(st.booleans()):
        flags.append("--dump-table")
    return command, spec, takes_element, element, flags


@settings(max_examples=60, deadline=None)
@given(_cli_case())
def test_cli_fuzz_exit_codes_and_strict_json(case):
    command, spec, takes_element, element, flags = case
    with tempfile.TemporaryDirectory() as tmp:
        spec_path = Path(tmp) / "spec.json"
        spec_path.write_text(json.dumps(spec))
        argv = [command, str(spec_path)]
        if takes_element:
            element_path = Path(tmp) / "element.json"
            element_path.write_text(json.dumps(element))
            argv.append(str(element_path))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv + flags)
    assert code in (0, 1, 2)
    report = _strict_json(out.getvalue())
    assert ("error" in report) == (code != 0)


# ---------------------------------------------------------------------------
# entries near the ends of the float range, short refusals, pinned checks


@pytest.mark.parametrize("blocks", [[2, 1], [2]])
def test_a_huge_trace_is_not_traceless(tmp_path, blocks, capsys):
    # the trace 1e200 is measured against 1 + |x|_F = 1e200, not against
    # an overflowed |x|_F, so the element is refused as not traceless
    spec, element = tmp_path / "spec.json", tmp_path / "x.json"
    spec.write_text(json.dumps({"blocks": blocks}))
    flats = [[[1e200, 0], [0, 0], [0, 0], [0, 0]], [[0, 0]]][: len(blocks)]
    element.write_text(json.dumps({"blocks": flats}))
    assert main(["decompose", str(spec), str(element)]) == 1
    assert _strict_json(capsys.readouterr().out)["error"] == "NotTraceless"


def test_riesz_of_a_huge_entry_overflows_nothing(tmp_path, capsys):
    spec, element = tmp_path / "spec.json", tmp_path / "x.json"
    spec.write_text(json.dumps({"blocks": [1]}))
    element.write_text(json.dumps({"blocks": [[[1e200, 0]]]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["riesz", str(spec), str(element)]) == 0
    (projection,) = _strict_json(capsys.readouterr().out)["projections"]
    assert projection["eigenvalue"] == [1e200, 0.0] and projection["rank"] == 1


def test_path_endpoint_files_count_their_json(tmp_path, capsys):
    # two endpoints of 458 * 458 entries are refused before the file is read,
    # at 640 bytes per entry of each; the file here is not even JSON
    spec, ends = tmp_path / "spec.json", tmp_path / "ends.json"
    spec.write_text(json.dumps({"blocks": [458]}))
    ends.write_text("not read")
    assert main(["path", str(spec), str(ends)]) == 1
    report = _strict_json(capsys.readouterr().out)
    assert report["error"] == "TooLarge" and "path endpoints" in report["detail"]


def test_refusals_of_many_blocks_are_short(tmp_path, capsys):
    # the detail names the block count, N and dim, not every block
    spec = tmp_path / "many.json"
    spec.write_text(json.dumps({"blocks": [1] * 3 * 10**6}))
    assert main(["path", str(spec)]) == 1
    text = capsys.readouterr().out
    assert len(text.encode()) < 1024
    report = _strict_json(text)
    assert report["error"] == "TooLarge" and "3000000 blocks" in report["detail"]


@pytest.mark.parametrize(
    "blocks, corner, verdict",
    [
        ([1] * 20000, [[1, 1]] * 20000 + [[2, 2]] * 19999, False),
        ([2, 3], [[1, 1], [2, 4], [1, 1], [2, 4], [2, 2]], False),
        ([1, 2, 2], [[1, 1], [1, 1], [2, 4], [1, 1], [2, 4], [2, 2], [2, 2]], False),
        ([512], [[1, 1], [2, 4]], True),
    ],
)
def test_check_reports_pinned_integers(tmp_path, blocks, corner, verdict):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"blocks": blocks}))
    code, report = run(CliConfig(command="check", spec_path=str(spec)))
    assert code == 0 and report["criterion_corner"] == corner
    for criterion in ("verdict", "criterion_minimal_ideal", "criterion_single_generator",
                      "criterion_connectivity"):
        assert report[criterion] is verdict
