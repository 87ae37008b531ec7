"""Smoke test of the benchmark itself, at tiny step counts.

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, reference=None):
    cmd = [sys.executable, str(BENCH / "run.py"), "--seconds", "0", *args]
    if reference is not None:
        cmd += ["--reference", str(reference)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload,steps", [("reduced-bifurcated", 4),
                                            ("mms-coupled", 30)])
@pytest.mark.parametrize("trace,group", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_printed_with_its_unit(workload, steps, trace, group):
    text, result = bench("--workload", workload, "--seed", "1",
                         "--steps", str(steps), "--trace", trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and line.rstrip().endswith(unit)
                   for line in text.splitlines()), name
        assert isinstance(result["metrics"][name]["value"], (int, float))


def test_traced_layers_are_the_ones_each_workload_stresses():
    _, red = bench("--workload", "reduced-bifurcated", "--steps", "4", "--trace", "1")
    _, mms = bench("--workload", "mms-coupled", "--steps", "30", "--trace", "1")
    red, mms = red["metrics"], mms["metrics"]
    assert red["sparse_solve.solve_ms"]["value"] > red["dynamics.rhs_ms"]["value"]
    assert red["harness.mms_load_ms"]["value"] == 0.0
    assert mms["harness.mms_load_ms"]["value"] > 0.0
    assert mms["harness.l2_err_e"]["value"] > 0.0
    assert 0.0 < red["sparse_solve.rel_residual_max"]["value"] < 1e-9


def test_corrupted_reference_fingerprint_fails_the_run(tmp_path):
    reference = tmp_path / "reference.json"
    args = ("--workload", "reduced-bifurcated", "--steps", "4")
    subprocess.run([sys.executable, str(BENCH / "run.py"), *args, "--write-reference",
                    "--reference", str(reference)],
                   cwd=ROOT, check=True, capture_output=True, timeout=170)
    _, good = bench(*args, "--seed", "5", reference=reference)
    assert good["correct"] and good["failed"] == 0

    data = json.loads(reference.read_text())
    key = "bifurcated-straight/steps=4/offset=0"
    data[key]["e_norm"] *= 1.0 + 1e-4
    reference.write_text(json.dumps(data))
    text, bad = bench(*args, "--seed", "5", reference=reference)
    assert not bad["correct"]
    assert bad["failed"] >= 1 and bad["failed"] < bad["attempted"]
    assert "differs from reference" in text


def test_missing_target_is_reported_not_measured(monkeypatch, tmp_path):
    sys.path.insert(0, str(BENCH))
    import run
    import tracing
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + [
        ("sppfetd.dynamics.no_such_function", "dynamics.energy", None)])
    run._cap_threads()
    sys.path.insert(0, str(run.SRC))
    workload = run.WORKLOADS["reduced-bifurcated"](0, 2)
    runner = run.Runner(workload, {}, str(tmp_path / "out"))
    metrics, unmeasured = run.measure_per_layer(runner, 0.0, str(tmp_path / "spans.jsonl"))
    assert runner.failed == 0
    assert unmeasured == {"dynamics.energy_ms", "dynamics.energy_calls"}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
