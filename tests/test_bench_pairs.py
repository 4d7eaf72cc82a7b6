"""tools/bench_pairs.py: its summary of paired runs and its refusals, without running a pair."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import bench_pairs  # noqa: E402


def test_summary_counts_the_pairs_won_in_each_metrics_direction():
    # the change is faster in two of three pairs and level in the third, and
    # passes as often: ties count for neither side
    runs = [{"parent": {"op_p50_s": p, "pass_ratio": 1.0},
             "change": {"op_p50_s": c, "pass_ratio": 1.0}}
            for p, c in ((0.040, 0.030), (0.036, 0.036), (0.038, 0.031))]
    s = bench_pairs.summarize(runs, {"op_p50_s": "lower", "pass_ratio": "higher"})
    assert s["op_p50_s"] == pytest.approx({"parent_median": 0.038, "change_median": 0.031,
                                           "parent_q1": 0.037, "parent_q3": 0.039,
                                           "change_better_in": 2, "pairs": 3})
    assert s["pass_ratio"]["change_better_in"] == 0


def test_env_values_may_hold_spaces():
    line = "env git=d4a0727 python=3.11.7 numpy=2.4.6 nproc=2 cpu=Intel(R) Xeon(R) CPU @ 2.00GHz"
    assert bench_pairs.parse_env(line) == {"git": "d4a0727", "python": "3.11.7", "numpy": "2.4.6",
                                           "nproc": "2", "cpu": "Intel(R) Xeon(R) CPU @ 2.00GHz"}


def test_checkouts_at_paths_of_unequal_length_are_refused(tmp_path, capsys):
    # peak RSS moves with the checkout's layout, so such a pair compares layouts
    for name in ("pa", "pbb"):
        (tmp_path / name / "bench").mkdir(parents=True)
        (tmp_path / name / "bench" / "run.py").write_text("")
    code = bench_pairs.main([str(tmp_path / "pa"), str(tmp_path / "pbb"),
                             "--workload", "kdv_transit"])
    assert code == 2 and "differ in length" in capsys.readouterr().err
