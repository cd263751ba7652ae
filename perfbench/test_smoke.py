"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric BENCHMARK.json declares is emitted with a finite
value and its unit, that call counts repeat exactly across seeds, that the
output checks flag corrupted results, and that the benchmark refuses to run
without the shoda sources.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from shoda import AlgebraSpec, Element, commutator_decompose, complete, decompose_in_completion  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_declared_names_match_the_code():
    import workloads

    assert sorted(WORKLOADS) == sorted(run.WORKLOADS) == sorted(workloads.PLANS)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in DECLARED[key]} == table


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted_finite(workload, trace, key):
    result = result_of(bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in DECLARED[key])
    for metric in DECLARED[key]:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert math.isfinite(value["value"])


def test_call_counts_repeat_across_seeds():
    counts = [result_of(bench("completion", 1, seed))["metrics"] for seed in (5, 6)]
    for name in ("structure.radical.calls", "tensor.multiply_B.calls"):
        assert counts[0][name]["value"] == counts[1][name]["value"] > 0
    # two radical computations per complete(), three complete() calls per tiny round
    assert counts[0]["structure.radical.calls"]["value"] == 6


def test_tracer_restores_every_binding():
    import tracing

    before = [getattr(module, attr) for module, attr, *_ in tracing.SITES]
    tracer = tracing.Tracer()
    tracer.install()
    assert getattr(tracing.SITES[0][0], tracing.SITES[0][1]) is not before[0]
    tracer.restore()
    assert [getattr(module, attr) for module, attr, *_ in tracing.SITES] == before


def test_check_flags_a_perturbed_factor():
    rng = np.random.default_rng(0)
    for dims, decompose in (((3,), commutator_decompose), ((1, 2), decompose_in_completion)):
        blocks = [rng.normal(size=(n, n)) + 0j for n in dims]
        blocks[0][0, 0] -= sum(np.trace(m) for m in blocks)
        witness = decompose(Element(AlgebraSpec(dims), tuple(blocks)))
        in_completion = len(dims) > 1
        assert checks.check_decomposition(witness, blocks, in_completion) is None
        part = witness.a.a if in_completion else witness.a
        bumped = Element(part.spec, tuple(m + 1e-3 for m in part.blocks))
        if in_completion:
            bumped = dataclasses.replace(witness.a, a=bumped)
        corrupted = dataclasses.replace(witness, a=bumped)
        assert "recomputed residual" in checks.check_decomposition(corrupted, blocks, in_completion)


def test_check_flags_a_wrong_completion():
    result = complete(AlgebraSpec((1, 2)))
    assert checks.check_completion(result, (1, 2)) is None
    wrong = dataclasses.replace(result, block_structure=(4, 4, 1))
    assert "block_structure" in checks.check_completion(wrong, (1, 2))
    bad_iso = dataclasses.replace(result, iso_residual=float("nan"))
    assert "iso_residual" in checks.check_completion(bad_iso, (1, 2))


def test_check_flags_nan_in_cli_output():
    element = [np.eye(2, dtype=complex)]
    assert checks.check_cli("trace", 0, '{"trace": [2.0, 0.0]}', (2,), element) is None
    assert "strict JSON" in checks.check_cli("trace", 0, '{"trace": [NaN, 0.0]}', (2,), element)
    assert "exit code" in checks.check_cli("trace", 1, '{"trace": [2.0, 0.0]}', (2,), element)
    assert checks.check_cli("trace", 0, '{"trace": [2.5, 0.0]}', (2,), element) is not None


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("completion", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
