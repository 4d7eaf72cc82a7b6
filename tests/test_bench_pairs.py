"""tools/bench_pairs.py: its summary of paired runs, its refusals and its record (the last
with stand-in bench scripts, not real runs)."""

import json
import statistics
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
    s = bench_pairs.summarize(runs, {"op_p50_s": {"better": "lower", "bound": 0.2},
                                     "pass_ratio": {"better": "higher", "bound": 0.01}})
    assert s["op_p50_s"] == pytest.approx({"claim_holds": False, "beyond_bound": False,
                                           "unresolved": False, "parent_median": 0.038, "change_median": 0.031,
                                           "parent_q1": 0.037, "parent_q3": 0.039,
                                           "change_better_in": 2, "pairs": 3})
    assert s["pass_ratio"]["change_better_in"] == 0


def _pairs(parent, change, name="op_p50_s"):
    return [{"parent": {name: p}, "change": {name: c}} for p, c in zip(parent, change)]


LOWER = {"op_p50_s": {"better": "lower", "bound": 0.2}}
HIGHER = {"ops_per_s": {"better": "higher", "bound": 0.2}}


@pytest.mark.parametrize("change, holds", [
    # better in all ten pairs, by 5.0 against a parent q1-q3 4.5 wide: the claim holds
    ([p - 5.0 for p in range(30, 40)], True),
    # better in nine of ten is enough
    ([p - 5.0 for p in range(30, 39)] + [45.0], True),
    # better in eight of ten is not, however wide the gap
    ([p - 9.0 for p in range(30, 38)] + [40.0, 41.0], False),
    # better in every pair, but by less than the parent's q1-q3
    ([p - 0.5 for p in range(30, 40)], False),
])
def test_a_claim_needs_nine_in_ten_pairs_and_a_gap_wider_than_the_parents_spread(change,
                                                                                  holds):
    # the parent's runs 30..39 have q1-q3 = 32.25-36.75, 4.5 wide
    parent = [float(p) for p in range(30, 40)]
    gap = statistics.median(parent) - statistics.median(change)
    s = bench_pairs.summarize(_pairs(parent, change), LOWER)["op_p50_s"]
    assert (s["parent_q3"] - s["parent_q1"], s["claim_holds"]) == (4.5, holds)
    assert holds == (s["change_better_in"] >= 9 and gap > 4.5)


def test_the_claim_rule_reads_each_metrics_direction():
    parent = [100.0 + i for i in range(10)]
    up = bench_pairs.summarize(_pairs(parent, [p + 10.0 for p in parent], "ops_per_s"), HIGHER)
    down = bench_pairs.summarize(_pairs(parent, [p - 10.0 for p in parent], "ops_per_s"), HIGHER)
    assert up["ops_per_s"]["claim_holds"] and not down["ops_per_s"]["claim_holds"]


@pytest.mark.parametrize("declared, factor, beyond", [
    (LOWER, 1.19, False), (LOWER, 1.21, True), (LOWER, 0.5, False),
    (HIGHER, 0.81, False), (HIGHER, 0.79, True), (HIGHER, 2.0, False),
])
def test_a_median_worse_than_the_bound_is_flagged(declared, factor, beyond):
    # the bound is relative to the parent's median, in the metric's own direction
    (name,) = declared
    parent = [10.0] * 4
    s = bench_pairs.summarize(_pairs(parent, [p * factor for p in parent], name), declared)
    assert s[name]["beyond_bound"] is beyond


@pytest.mark.parametrize("parent, change, unresolved", [
    # q1-q3 of 9.25-10.75, 1.5 wide, against a bound of 0.1 x 10: unresolved
    ([8.0, 9.0, 10.0, 11.0, 12.0], [10.0] * 5, True),
    # as wide, but every change run is better than every parent run
    ([8.0, 9.0, 10.0, 11.0, 12.0], [7.9] * 5, False),
    # q1-q3 of 9.75-10.25, 0.5 wide: within the bound's reach, so resolved
    ([9.5, 9.75, 10.0, 10.25, 10.5], [10.4] * 5, False),
])
def test_a_parent_spread_wider_than_the_bound_is_unresolved(parent, change, unresolved):
    # setup_s is the case in point: its q1-q3 has read 24% of its median
    # against a bound of 0.25
    declared = {"op_p50_s": {"better": "lower", "bound": 0.1}}
    s = bench_pairs.summarize(_pairs(parent, change), declared)["op_p50_s"]
    assert s["unresolved"] is unresolved
    line = bench_pairs.verdict_line("kdv_transit", "op_p50_s", s, "lower")
    assert ("UNRESOLVED;" in line) is unresolved


def test_the_unresolved_verdict_reads_each_metrics_direction():
    # a wide parent spread, and a change above every parent run: better for a
    # throughput, so resolved; worse for a time, so unresolved
    parent, change = [6.0, 8.0, 10.0, 12.0, 14.0], [14.5] * 5
    up = bench_pairs.summarize(_pairs(parent, change, "ops_per_s"), HIGHER)["ops_per_s"]
    down = bench_pairs.summarize(_pairs(parent, change), LOWER)["op_p50_s"]
    assert not up["unresolved"] and (down["unresolved"], down["beyond_bound"]) == (True, True)


def test_the_verdicts_lead_each_printed_line():
    s = bench_pairs.summarize(_pairs([10.0] * 4, [13.0] * 4), LOWER)["op_p50_s"]
    line = bench_pairs.verdict_line("kdv_transit", "op_p50_s", s, "lower")
    assert line.startswith("kdv_transit op_p50_s: no claim, BEYOND BOUND; 10 -> 13")


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


def _stand_in_pair(tmp_path):
    """One pair of runs of two stand-in checkouts, pa and pb; the record it writes."""
    run = ('import json\nprint("env git=abc python=3.11.7 numpy=2.4.6 nproc=2 cpu=x")\n'
           'print(json.dumps({"failed": 0, "metrics": {"op_p50_s": {"value": 0.01}}}))\n')
    for name in ("pa", "pb"):
        (tmp_path / name / "bench").mkdir(parents=True)
        (tmp_path / name / "bench" / "run.py").write_text(run)
        (tmp_path / name / "BENCHMARK.json").write_text(
            '{"end_to_end": [{"name": "op_p50_s", "better": "lower", "bound": 0.2}]}')
    out = tmp_path / "pairs.json"
    assert bench_pairs.main([str(tmp_path / "pa"), str(tmp_path / "pb"), "--workload", "w",
                             "--pairs", "1", "--seconds", "1", "--out", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.mark.parametrize("value", ["1", None])
def test_the_record_names_the_bytecode_setting_the_runs_inherit(tmp_path, monkeypatch, value):
    # start-up compiles longwave afresh in each run when PYTHONDONTWRITEBYTECODE is set
    if value is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
    record = _stand_in_pair(tmp_path)
    assert record["PYTHONDONTWRITEBYTECODE"] == value
    assert record["verdicts"]["w"] == {"claim_holds": [], "beyond_bound": [], "unresolved": []}
    assert (record["numpy"], record["python"], record["nproc"]) == ("2.4.6", "3.11.7", "2")


MOUNTS = """\
/dev/vda / ext4 rw,relatime,discard 0 0
proc /proc proc rw,nosuid,nodev,noexec,relatime 0 0
tmpfs /srv tmpfs rw,nosuid,size=65536k 0 0
/dev/vdb /srv/bench xfs rw,noatime 0 0
/dev/vdc /srv/bench\\040runs ext4 rw,relatime 0 0
overlay /srv/stacked overlay rw,lowerdir=/a 0 0
tmpfs /srv/stacked tmpfs rw,size=4k 0 0
"""


@pytest.mark.parametrize("path, found", [
    # the longest mount point that contains the path
    ("/srv/bench/parent", ("xfs", "rw,noatime")),
    ("/srv/bench", ("xfs", "rw,noatime")),
    # a point is matched by whole path parts, not as a string prefix
    ("/srv/benchmark", ("tmpfs", "rw,nosuid,size=65536k")),
    ("/home/lab/longwave", ("ext4", "rw,relatime,discard")),
    # an escaped space in a mount point
    ("/srv/bench runs/change", ("ext4", "rw,relatime")),
    # of two mounts at one point, the later one sits on top
    ("/srv/stacked/x", ("tmpfs", "rw,size=4k")),
])
def test_the_mount_under_a_checkout_is_the_longest_point_that_holds_it(path, found):
    fs = bench_pairs.mount_of(Path(path), MOUNTS)
    assert (fs["type"], fs["options"]) == found


def test_no_mount_table_gives_no_filesystem():
    assert bench_pairs.mount_of(Path("/srv/bench"), "") is None


def test_the_record_names_each_checkouts_filesystem(tmp_path, monkeypatch):
    # output-file timing depends on the filesystem and its mount options
    table = {"pa": {"type": "ext4", "options": "rw,relatime,discard"},
             "pb": {"type": "xfs", "options": "rw,noatime"}}
    monkeypatch.setattr(bench_pairs, "mount_of", lambda path, mounts: table[path.name])
    record = _stand_in_pair(tmp_path)
    assert (record["parent"]["filesystem"], record["change"]["filesystem"]) == (table["pa"],
                                                                                table["pb"])
