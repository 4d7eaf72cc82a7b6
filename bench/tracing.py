"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions where they are imported: the
benchmark's own `api` namespace, the names longwave's modules import
from one another (`longwave.cli.evolve`, `longwave.evolution.stable_dt`,
...), and `numpy.fft.rfft`/`irfft`.  Each call of a wrapped function
while the tracer is active records one span (name, start, end, parent
span, op id, work).  Spans stay in flat in-memory arrays until the run
ends; `layer_metrics` reduces them to per-op figures per layer and
`save` writes them out.  The wrapper's own cost falls in the parent
span's self time; trace.overhead_ratio reports its total.

A span is not opened while another span of the same layer group is
open, so a layer's busy time never counts one interval twice.  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import os
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

# one span group per layer boundary; each metric name starts with its group
GROUPS = (
    "cli.scenario", "cli.csv_write", "cli.csv_read", "cli.manifest",
    "evolution.evolve", "evolution.advisory_dt", "evolution.crest_fit",
    "evolution.factorization", "operators.fft", "operators.diff",
    "invariants.compute", "invariants.energy", "elliptic.jacobi",
    "waves.profile", "waves.residual", "velocity.diagnostics",
)

# (metric, unit); every workload reports all of them, 0 where unused
LAYER_METRICS = (
    ("cli.scenario_self_s", "s/op"), ("cli.csv_write_s", "s/op"),
    ("cli.csv_write_bytes", "B/op"), ("cli.csv_read_s", "s/op"),
    ("cli.manifest_s", "s/op"),
    ("evolution.evolve_calls", "count/op"), ("evolution.evolve_self_s", "s/op"),
    ("evolution.advisory_dt_s", "s/op"), ("evolution.blowups", "count/op"),
    ("evolution.crest_fit_s", "s/op"), ("evolution.factorization_s", "s/op"),
    ("operators.fft_calls", "count/op"), ("operators.fft_points", "count/op"),
    ("operators.fft_s", "s/op"), ("operators.diff_calls", "count/op"),
    ("operators.diff_s", "s/op"),
    ("invariants.compute_calls", "count/op"), ("invariants.compute_s", "s/op"),
    ("invariants.energy_calls", "count/op"), ("invariants.energy_s", "s/op"),
    ("elliptic.jacobi_calls", "count/op"), ("elliptic.jacobi_points", "count/op"),
    ("elliptic.jacobi_s", "s/op"),
    ("waves.profile_s", "s/op"), ("waves.residual_s", "s/op"),
    ("velocity.diagnostics_s", "s/op"),
    ("trace.overhead_ratio", "ratio"),
)

ERR_NONE, ERR_BLOWUP, ERR_OTHER = 0, 1, 2


def _input_size(args, kwargs, out) -> float:
    a = args[0]
    return float(a.size if isinstance(a, np.ndarray) else np.size(a))


def _output_size(args, kwargs, out) -> float:
    return float(out.size)


def _bytes_written(args, kwargs, out) -> float:
    return float(os.path.getsize(kwargs.get("path", args[-1])))


def patch_sites(api):
    """(owner, attribute, span name, group, work function) of every wrap."""
    import numpy.fft
    from longwave import cli, evolution, invariants, velocity, waves

    sites = [
        (numpy.fft, "rfft", "numpy.fft.rfft", "operators.fft", _input_size),
        (numpy.fft, "irfft", "numpy.fft.irfft", "operators.fft", _output_size),
        (api, "run_scenario", "cli.run_scenario", "cli.scenario", None),
        (cli, "evolve", "evolution.evolve", "evolution.evolve", None),
        (evolution, "stable_dt", "evolution.stable_dt", "evolution.advisory_dt", None),
        (cli, "crest_position", "evolution.crest_position", "evolution.crest_fit", None),
        (cli, "fit_speed", "evolution.fit_speed", "evolution.crest_fit", None),
        (api, "factorization_residual", "evolution.factorization_residual",
         "evolution.factorization", None),
        (cli, "emit_profile_csv", "cli.emit_profile_csv", "cli.csv_write", _bytes_written),
        (api, "emit_profile_csv", "cli.emit_profile_csv", "cli.csv_write", _bytes_written),
        (cli, "emit_invariants_csv", "cli.emit_invariants_csv", "cli.csv_write",
         _bytes_written),
        (api, "read_profile_csv", "cli.read_profile_csv", "cli.csv_read", None),
        (cli, "write_manifest", "cli.write_manifest", "cli.manifest", None),
        (evolution, "compute_invariants", "invariants.compute_invariants",
         "invariants.compute", None),
        (api, "compute_invariants", "invariants.compute_invariants",
         "invariants.compute", None),
        (evolution, "boussinesq_energy", "invariants.boussinesq_energy",
         "invariants.energy", None),
        (cli, "boussinesq_energy", "invariants.boussinesq_energy", "invariants.energy", None),
        (waves, "jacobi_cn_sn_dn", "elliptic.jacobi_cn_sn_dn", "elliptic.jacobi",
         _input_size),
        (cli, "solitary_field", "waves.solitary_field", "waves.profile", None),
        (cli, "solitary_profile", "waves.solitary_profile", "waves.profile", None),
        (api, "solitary_field", "waves.solitary_field", "waves.profile", None),
        (api, "cnoidal_field", "waves.cnoidal_field", "waves.profile", None),
        (api, "cnoidal_ode_residual", "waves.cnoidal_ode_residual", "waves.residual", None),
        (api, "steady_ode_residual_solitary", "waves.steady_ode_residual_solitary",
         "waves.residual", None),
        (api, "velocity_diagnostics", "velocity.velocity_diagnostics",
         "velocity.diagnostics", None),
    ]
    for module in (cli, evolution, invariants, velocity):
        sites.append((module, "diff", "operators.diff", "operators.diff", None))
    return sites


class Tracer:
    """In-memory span recorder; wraps functions between install/uninstall."""

    def __init__(self):
        from longwave import BlowUpError

        self._blowup = BlowUpError
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._group_of: list[int] = []  # span-name id -> GROUPS index
        self.start, self.end, self.work = array("d"), array("d"), array("d")
        self.name, self.parent, self.op = array("i"), array("i"), array("i")
        self.err = array("b")
        self._stack = [-1]
        self._open = [0] * len(GROUPS)
        self._patches: list[tuple[object, str, object]] = []
        self.active = False
        self.op_id = -1

    def _intern(self, name: str, group: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._group_of.append(GROUPS.index(group))
        return self._name_ids[name]

    def _wrap(self, fn, name_id: int, work):
        group = self._group_of[name_id]
        # bound methods and locals: the wrapper runs ~10^6 times per traced op
        add_name, add_parent, add_op = self.name.append, self.parent.append, self.op.append
        add_start, add_end, add_work = self.start.append, self.end.append, self.work.append
        add_err, end, work_of, err = self.err.append, self.end, self.work, self.err
        stack, is_open, clock, blowup = self._stack, self._open, perf_counter, self._blowup

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active or is_open[group]:
                return fn(*args, **kwargs)
            i = len(end)
            add_name(name_id)
            add_parent(stack[-1])
            add_op(self.op_id)
            add_end(0.0)
            add_work(0.0)
            add_err(ERR_NONE)
            stack.append(i)
            is_open[group] = 1
            add_start(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                err[i] = ERR_BLOWUP if isinstance(e, blowup) else ERR_OTHER
                raise
            finally:
                end[i] = clock()
                is_open[group] = 0
                stack.pop()
            if work is not None:
                work_of[i] = work(args, kwargs, out)
            return out

        return traced

    def install(self, api) -> None:
        for owner, attr, name, group, work in patch_sites(api):
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, self._intern(name, group), work))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _arrays(self, clock):
        start = clock(np.array(self.start, dtype=float))
        dur = clock(np.array(self.end, dtype=float)) - start
        name = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        group = np.asarray(self._group_of, dtype=np.int64)[name] if dur.size else name
        return dur, dur - child, group

    def layer_metrics(self, n_ops: int, clock) -> dict[str, float]:
        """Per-op layer figures over every span recorded (trace.* excluded).

        clock maps perf_counter readings to the seconds that are reported
        (speed.SpeedProbe.reference_clock in the benchmark).
        """
        dur, self_t, group = self._arrays(clock)
        work = np.array(self.work, dtype=float)
        err = np.array(self.err, dtype=np.int8)

        def sel(g):
            return group == GROUPS.index(g)

        def busy(g):
            return float(dur[sel(g)].sum()) / n_ops

        def self_time(g):
            return float(self_t[sel(g)].sum()) / n_ops

        def calls(g):
            return float(np.count_nonzero(sel(g))) / n_ops

        def total(g):
            return float(work[sel(g)].sum()) / n_ops

        return {
            "cli.scenario_self_s": self_time("cli.scenario"),
            "cli.csv_write_s": busy("cli.csv_write"),
            "cli.csv_write_bytes": total("cli.csv_write"),
            "cli.csv_read_s": busy("cli.csv_read"),
            "cli.manifest_s": busy("cli.manifest"),
            "evolution.evolve_calls": calls("evolution.evolve"),
            "evolution.evolve_self_s": self_time("evolution.evolve"),
            "evolution.advisory_dt_s": busy("evolution.advisory_dt"),
            "evolution.blowups": float(np.count_nonzero(
                sel("evolution.evolve") & (err == ERR_BLOWUP))) / n_ops,
            "evolution.crest_fit_s": busy("evolution.crest_fit"),
            "evolution.factorization_s": busy("evolution.factorization"),
            "operators.fft_calls": calls("operators.fft"),
            "operators.fft_points": total("operators.fft"),
            "operators.fft_s": busy("operators.fft"),
            "operators.diff_calls": calls("operators.diff"),
            "operators.diff_s": busy("operators.diff"),
            "invariants.compute_calls": calls("invariants.compute"),
            "invariants.compute_s": busy("invariants.compute"),
            "invariants.energy_calls": calls("invariants.energy"),
            "invariants.energy_s": busy("invariants.energy"),
            "elliptic.jacobi_calls": calls("elliptic.jacobi"),
            "elliptic.jacobi_points": total("elliptic.jacobi"),
            "elliptic.jacobi_s": busy("elliptic.jacobi"),
            "waves.profile_s": busy("waves.profile"),
            "waves.residual_s": busy("waves.residual"),
            "velocity.diagnostics_s": busy("velocity.diagnostics"),
        }

    def save(self, path: Path) -> None:
        """Write every span as flat arrays plus the span-name table (.npz)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path,
                 names=np.array(json.dumps(self.names)),
                 groups=np.array(json.dumps([GROUPS[g] for g in self._group_of])),
                 start=np.array(self.start, dtype=float),
                 end=np.array(self.end, dtype=float),
                 name=np.array(self.name, dtype=np.int32),
                 parent=np.array(self.parent, dtype=np.int32),
                 op=np.array(self.op, dtype=np.int32),
                 work=np.array(self.work, dtype=float),
                 err=np.array(self.err, dtype=np.int8))
