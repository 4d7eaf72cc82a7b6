"""The benchmark's own tests: tiny-size smoke runs and a planted failure.

    python3 -m pytest -q bench/test_bench.py

About half a minute: boussinesq_filtered has no smaller form, so its
traced smoke run does two full ops.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import speed

workloads = run.load_workloads()  # also puts the checkout's src/ on sys.path
import sweep  # noqa: E402  (imports longwave)
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _result(capsys, *args: str) -> dict:
    assert run.main(["--tiny", "--seconds", "0.01", *args]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_metric_tables_match_benchmark_json():
    assert dict(run.END_TO_END) == _units("end_to_end")
    layers = dict(tracing.LAYER_METRICS)
    layers.update((name, "us") for name in sweep.metric_names())
    assert layers == _units("per_layer")
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", ["kdv_transit", "kdv_collision", "profile_pipeline"])
def test_untraced_smoke_reports_every_end_to_end_metric(capsys, name):
    result = _result(capsys, "--workload", name, "--seed", "3", "--trace", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = _units("end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_smoke_reports_every_layer_metric(capsys, name):
    import numpy.fft

    rfft = numpy.fft.rfft
    result = _result(capsys, "--workload", name, "--seed", "3", "--trace", "1")
    assert result["correct"] and result["attempted"] == 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("per_layer")
    assert numpy.fft.rfft is rfft  # the tracer put every wrapped name back
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if name == "boussinesq_filtered":
        assert values["evolution.evolve_calls"] == 4
        assert values["evolution.blowups"] == 1
    if name == "profile_pipeline":
        assert values["evolution.evolve_calls"] == 0
        assert values["elliptic.jacobi_calls"] > 0 and values["cli.csv_write_bytes"] > 0


@pytest.mark.parametrize("name", ["kdv_transit", "profile_pipeline"])
def test_traced_counts_repeat_at_the_same_seed(capsys, name):
    counts = ("operators.fft_calls", "operators.fft_points", "evolution.evolve_calls",
              "invariants.compute_calls", "elliptic.jacobi_calls", "cli.csv_write_bytes")
    runs = [_result(capsys, "--workload", name, "--seed", "5", "--trace", "1")
            for _ in range(2)]
    first, second = ({k: r["metrics"][k]["value"] for k in counts} for r in runs)
    assert first == second


def test_planted_wrong_readback_counts_as_failure(capsys, monkeypatch):
    read = workloads.api.read_profile_csv

    def perturbed(path):
        meta, x, h = read(path)
        h[0] = np.nextafter(h[0], np.inf)
        return meta, x, h

    monkeypatch.setattr(workloads.api, "read_profile_csv", perturbed)
    result = _result(capsys, "--workload", "profile_pipeline", "--seed", "3", "--trace", "0")
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["pass_ratio"]["value"] == 0


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "kdv_transit",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and done.stdout == ""


def test_reference_clock_takes_out_probe_time_and_scales_by_speed():
    probe = speed.SpeedProbe()
    ref = speed.REF_KERNEL_S
    # samples at 0, 1 and 2 s, each busy 0.1 s; the machine runs at half
    # the reference speed until 1 s and at the reference speed after it
    probe._t, probe._busy, probe._kernel = [0.0, 1.0, 2.0], [0.1] * 3, [2 * ref, ref, ref]
    assert probe.reference_seconds([(0.1, 1.0), (1.1, 2.0), (0.5, 1.5)]) == \
        pytest.approx([0.9 * 0.75, 0.9, 0.5 * 0.75 + 0.4])
    assert probe.reference_seconds([(-1.0, 0.0), (2.1, 3.1)]) == pytest.approx([0.5, 1.0])
