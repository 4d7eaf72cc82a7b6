"""The names and calls the benchmark under bench/ makes of longwave.

bench/test_bench.py runs every workload end to end, which takes most of a
minute.  This module checks, in a fraction of a second, that what the
benchmark reads of longwave still exists and accepts its calls: every
attribute its tracer wraps, each workload's warm-up on tiny inputs, and
each single-layer case of its sweep once.  It also checks that
BENCHMARK.json declares the workloads and metrics the harness reports.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import run  # noqa: E402
import sweep  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("site", tracing.patch_sites(workloads.api),
                         ids=lambda site: f"{getattr(site[0], '__name__', 'api')}.{site[1]}")
def test_every_traced_name_resolves(site):
    owner, attribute = site[:2]
    assert callable(getattr(owner, attribute, None))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_workload_warms_on_tiny_inputs(name):
    w = workloads.WORKLOADS[name]
    w.warm(w.inputs(3, 0, True))


def test_each_sweep_case_runs_once(tmp_path):
    calls = sweep._calls(256, tmp_path)
    assert set(calls) == set(sweep.CASES)
    for call in calls.values():
        call()


def test_benchmark_json_declares_what_the_harness_reports():
    # BENCHMARK.json and bench/ each name the workloads and the metrics; a
    # name, unit or reason changed in one copy only shows here
    declared = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json")
                          .read_text(encoding="utf-8"))
    assert [(w["name"], w["why"]) for w in declared["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == [
        *tracing.LAYER_METRICS, *((name, "us") for name in sweep.metric_names())]
