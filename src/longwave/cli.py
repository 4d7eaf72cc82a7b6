"""Command-line front door: named experiment scenarios with reproducible
CSV output.

Configuration is a flat key=value map (dots group sections, e.g.
grid.N=1024).  Defaults < config file (--config) < command-line
overrides (--set key=value).  An unknown key or a value that does not
parse as its kind (KINDS) is a usage error, raised before anything runs
or any output directory exists.  Every run writes a manifest echoing the
fully resolved configuration and the library version, so outputs are
reproducible from the manifest alone; identical configuration and seed
give byte-identical files.

Exit codes: 0 success, 2 usage error, 3 numerical blow-up, 4 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .evolution import (
    BlowUpError,
    DeformationSpec,
    SchemeConfig,
    crest_position,
    evolve,
    factorization_residual,
    fit_speed,
    front_slope_change,
    steepening_verdict,
)
from .invariants import (
    boussinesq_energy,
    compute_invariants,
    conservation_drift,
)
from .model import PeriodicGrid, PhysicalParams, WaveField, dispersion_sigma
from .operators import diff, fourier_shift, lowpass
from .waves import (
    CnoidalSpec,
    SolitarySpec,
    boussinesq_periodic_speed,
    cnoidal_alpha,
    cnoidal_field,
    cnoidal_wavelength,
    grid_for_cnoidal,
    solitary_field,
    solitary_profile,
    solitary_speed,
)
from .elliptic import complete_K

EXIT_OK, EXIT_USAGE, EXIT_BLOWUP, EXIT_IO = 0, 2, 3, 4

DEFAULTS = {
    "physical.g": "9.81",
    "physical.H": "1.0",
    "physical.rho": "1000.0",
    "physical.T": "0.0",
    "grid.N": "1024",
    "grid.L": "120.0",
    "scheme.deriv": "spectral",
    "scheme.dt": "auto",
    "scheme.t_end": "auto",
    "scheme.filter_cut": "0.5",
    "scheme.filter": "on",
    "scheme.frame": "fixed",
    "scheme.alpha": "0.0",
    "seed": "0",
    "output_dir": "out",
}

SWITCH_VALUES = {"on": True, "1": True, "true": True, "yes": True,
                 "off": False, "0": False, "false": False, "no": False}

# per-command defaults on top of DEFAULTS (scenario names, "analytic", "evolve")
SCENARIO_DEFAULTS = {
    "solitary_transit": {"scenario.h0": "0.1"},
    "two_soliton": {
        "scenario.h0_tall": "0.5", "scenario.h0_short": "0.2",
        "scenario.x_tall": "-22.0", "scenario.x_short": "-4.0",
        "grid.N": "256", "grid.L": "80.0",
        "scheme.frame": "moving", "scheme.alpha": "0.0", "scheme.t_end": "60.0",
    },
    "cnoidal_family": {
        "scenario.m_list": "0.1,0.5,0.9,0.99", "scenario.kl_sum": "0.2",
        "scenario.n_waves": "1", "scenario.phase": "0.0", "grid.N": "512",
    },
    "steepening": {
        "scenario.hbar": "0.1", "scenario.p_ratios": "0.8,0.9,1.0,1.1,1.2",
        "scenario.t_check": "1.0",
    },
    "moment_conservation": {"scenario.h0": "0.1", "grid.N": "512"},
    "factorization": {"scenario.h0": "0.02", "scenario.n_list": "128,256,512,1024"},
    "boussinesq_demo": {
        "scenario.h0": "0.1", "scenario.mode_index": "8",
        "scenario.mode_amp": "1e-8", "scenario.noise_amp": "1e-10",
        "scenario.solitary_filter_cut": "0.75",
    },
    "analytic": {"scenario.h0": "0.1", "scenario.kl_sum": "0.2", "scenario.m": "0.5",
                 "scenario.n_waves": "1"},
    "evolve": {"scenario.h0": "0.1", "scenario.kl_sum": "0.2", "scenario.m": "0.5",
               "scenario.n_waves": "4"},
}

KNOWN_KEYS = frozenset(DEFAULTS).union(*SCENARIO_DEFAULTS.values())


def _integer(text: str) -> int:
    v = float(text)
    if not v.is_integer():
        raise ValueError(text)
    return int(v)


# a kind is (what the value must be, parser of its text)
NUMBER = ("a number", float)
INTEGER = ("an integer", _integer)
NUMBERS = ("a comma-separated list of numbers",
           lambda text: [float(s) for s in text.split(",") if s.strip()])
INTEGERS = ("a comma-separated list of integers",
            lambda text: [_integer(s) for s in text.split(",") if s.strip()])
AUTO_OR_NUMBER = ("'auto' or a number", lambda text: None if text == "auto" else float(text))
SWITCH = (f"one of {', '.join(SWITCH_VALUES)}", SWITCH_VALUES.__getitem__)
TEXT = ("text", str)

KINDS = {
    "physical.g": NUMBER, "physical.H": NUMBER, "physical.rho": NUMBER, "physical.T": NUMBER,
    "grid.N": INTEGER, "grid.L": NUMBER,
    "scheme.deriv": TEXT, "scheme.dt": AUTO_OR_NUMBER, "scheme.t_end": AUTO_OR_NUMBER,
    "scheme.filter_cut": NUMBER, "scheme.filter": SWITCH, "scheme.frame": TEXT,
    "scheme.alpha": NUMBER, "seed": INTEGER, "output_dir": TEXT,
    "scenario.h0": NUMBER, "scenario.h0_tall": NUMBER, "scenario.h0_short": NUMBER,
    "scenario.x_tall": NUMBER, "scenario.x_short": NUMBER, "scenario.m_list": NUMBERS,
    "scenario.kl_sum": NUMBER, "scenario.n_waves": INTEGER, "scenario.phase": NUMBER,
    "scenario.hbar": NUMBER, "scenario.p_ratios": NUMBERS, "scenario.t_check": NUMBER,
    "scenario.n_list": INTEGERS, "scenario.mode_index": INTEGER, "scenario.mode_amp": NUMBER,
    "scenario.noise_amp": NUMBER, "scenario.solitary_filter_cut": NUMBER, "scenario.m": NUMBER,
}


# --------------------------------------------------------------------------
# configuration plumbing
# --------------------------------------------------------------------------

def parse_config_file(path: str | Path) -> dict[str, str]:
    """Flat key=value lines; '#' starts a comment; blank lines ignored."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = stripped.split("=", 1)
        out[key.strip()] = value.strip()
    return out


@dataclass
class ExperimentConfig:
    """Resolved configuration: raw text (as the manifest echoes it), parsed values."""

    scenario: str
    raw: dict[str, str]
    values: dict[str, object]
    params: PhysicalParams
    grid: PeriodicGrid
    scheme: SchemeConfig
    seed: int
    output_dir: Path

    def fnum(self, key: str):
        """The parsed value of `key`: a number, a list, None for 'auto', ..."""
        return self.values[key]

    @property
    def t_end_auto(self) -> bool:
        return self.values["scheme.t_end"] is None


def _check_known(keys) -> None:
    """Reject configuration keys no command reads, naming the nearest known one."""
    import difflib  # only this error path needs it; keeps it out of every start-up

    by_lower = {k.lower(): k for k in KNOWN_KEYS}
    problems = []
    for key in sorted(set(keys) - KNOWN_KEYS):
        near = difflib.get_close_matches(key.lower(), by_lower, n=1)
        hint = f" (did you mean {by_lower[near[0]]!r}?)" if near else ""
        problems.append(f"unknown configuration key {key!r}{hint}")
    if problems:
        raise ValueError("; ".join(problems))


def _parse(key: str, text: str):
    what, parse = KINDS[key]
    try:
        return parse(text)
    except (ValueError, KeyError):
        raise ValueError(f"{key!r} must be {what}, got {text!r}") from None


def resolve_config(scenario: str, config_file: str | None,
                   overrides: list[str], out_dir: str | None) -> ExperimentConfig:
    raw = dict(DEFAULTS)
    raw.update(SCENARIO_DEFAULTS.get(scenario, {}))
    if config_file:
        raw.update(parse_config_file(config_file))
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        raw[key.strip()] = value.strip()
    if out_dir:
        raw["output_dir"] = out_dir
    _check_known(raw)
    v = {key: _parse(key, text) for key, text in raw.items()}
    params = PhysicalParams(g=v["physical.g"], H=v["physical.H"],
                            rho=v["physical.rho"], T=v["physical.T"])
    scheme = SchemeConfig(deriv=v["scheme.deriv"], dt=v["scheme.dt"],
                          t_end=v["scheme.t_end"] or 0.0, filter_cut=v["scheme.filter_cut"],
                          boussinesq_filter=v["scheme.filter"], frame=v["scheme.frame"],
                          alpha=v["scheme.alpha"])
    return ExperimentConfig(scenario=scenario, raw=raw, values=v, params=params,
                            grid=PeriodicGrid(L=v["grid.L"], N=v["grid.N"]),
                            scheme=scheme, seed=v["seed"], output_dir=Path(v["output_dir"]))


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def emit_profile_csv(field: WaveField, params: PhysicalParams,
                     scheme: str, path: str | Path) -> None:
    """Write one elevation profile: '#' key=value header, then x,h rows.

    Full double precision (17 significant digits), LF endings, '.'
    decimal separator; reading the h column back reproduces the array
    bit for bit.
    """
    grid = field.grid
    head = [
        ("t", _fmt(field.t)), ("N", str(grid.N)), ("L", _fmt(grid.L)),
        ("H", _fmt(params.H)), ("g", _fmt(params.g)), ("rho", _fmt(params.rho)),
        ("T", _fmt(params.T)), ("sigma", _fmt(dispersion_sigma(params))),
        ("scheme", scheme),
    ]
    lines = [f"# {k}={v}" for k, v in head]
    lines.append("# columns=x,h")
    lines.extend(map("{:.17g},{:.17g}".format, grid.x.tolist(), field.h.tolist()))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_profile_csv(path: str | Path):
    """Inverse of emit_profile_csv: (meta dict, x array, h array)."""
    meta: dict[str, str] = {}
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    for line in lines:
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                k, v = body.split("=", 1)
                meta[k.strip()] = v.strip()
    x, h = np.loadtxt(lines, delimiter=",", comments="#", ndmin=2).T.copy()
    return meta, x, h


def emit_invariants_csv(series, path: str | Path) -> None:
    """Invariant time series: t,Q,E,M,Hfun,xg_dot (empty cell when absent)."""
    lines = ["# columns=t,Q,E,M,Hfun,xg_dot"]
    for s in series:
        xg = "" if s.xg_dot is None else _fmt(s.xg_dot)
        lines.append(",".join([_fmt(s.t), _fmt(s.Q), _fmt(s.E), _fmt(s.M),
                               _fmt(s.Hfun), xg]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_manifest(path: str | Path, cfg: ExperimentConfig,
                   results: dict[str, str], **choices: str) -> None:
    # output_dir is where the files land, not part of the experiment itself;
    # choices are command-line options outside the configuration (evolve's --ic)
    entries = {f"config.{k}": v for k, v in cfg.raw.items() if k != "output_dir"}
    entries.update(scenario=cfg.scenario, version=__version__, **choices)
    entries.update({f"result.{k}": v for k, v in results.items()})
    lines = [f"{k}={entries[k]}" for k in sorted(entries)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _drift_entries(drifts: dict[str, float]) -> dict[str, str]:
    # the centroid velocity lives on the grid chart and spikes while a wave
    # straddles the periodic seam, so only the four functionals are reported
    return {f"drift_{k}": _fmt(drifts[k]) for k in ("Q", "E", "M", "Hfun")}


def _step_entries(res) -> dict[str, str]:
    # how the run stepped is deterministic, so it belongs in the manifest
    return {"integrator": res.integrator, "dt": _fmt(res.dt), "steps": str(res.steps)}


def recentered_shape_error(final: WaveField, reference: WaveField) -> float:
    """Max |final - reference| after sliding the final crest onto the reference."""
    shift = crest_position(final) - crest_position(reference)
    moved = fourier_shift(final.h, final.grid.L, -shift)
    return float(np.max(np.abs(moved - reference.h)))


# --------------------------------------------------------------------------
# scenarios
# --------------------------------------------------------------------------

def _solitary_pieces(cfg: ExperimentConfig, h0: float):
    sigma = dispersion_sigma(cfg.params)
    spec = SolitarySpec(h0=h0, sigma=sigma, H=cfg.params.H, g=cfg.params.g)
    return spec, solitary_speed(spec)


def _track_crests(res) -> tuple[list[float], list[float]]:
    ts, xs = [], []
    for t, snap in zip(res.times, res.snapshots):
        field = snap[0] if isinstance(snap, tuple) else snap
        ts.append(t)
        xs.append(crest_position(field))
    return ts, xs


def scenario_solitary_transit(cfg: ExperimentConfig) -> dict[str, str]:
    """One full periodic transit of the solitary wave at its own speed."""
    spec, omega = _solitary_pieces(cfg, cfg.fnum("scenario.h0"))
    t_end = cfg.grid.L / omega if cfg.t_end_auto else cfg.scheme.t_end
    scheme = replace(cfg.scheme, t_end=t_end)
    field0 = solitary_field(spec, cfg.grid)
    tail = abs(solitary_profile(spec, cfg.grid.L / 2)) / abs(spec.h0)
    res = evolve(field0, cfg.params, scheme)
    emit_profile_csv(field0, cfg.params, scheme.deriv, cfg.output_dir / "profile_initial.csv")
    emit_profile_csv(res.final, cfg.params, scheme.deriv, cfg.output_dir / "profile_final.csv")
    emit_invariants_csv(res.invariants, cfg.output_dir / "invariants.csv")
    ts, xs = _track_crests(res)
    drifts = conservation_drift(res.invariants)
    shape_err = recentered_shape_error(res.final, field0)
    return {
        "t_end": _fmt(t_end),
        "speed_formula": _fmt(omega),
        "speed_measured": _fmt(fit_speed(ts, xs, cfg.grid.L)),
        "shape_error": _fmt(shape_err),
        "shape_error_rel_h0": _fmt(shape_err / abs(spec.h0)),
        "tail_rel": _fmt(tail),
        **_drift_entries(drifts),
        **_step_entries(res),
    }


def scenario_two_soliton(cfg: ExperimentConfig) -> dict[str, str]:
    """Overtaking of a short solitary wave by a tall one (moving frame)."""
    if cfg.scheme.frame != "moving":
        raise ValueError("two_soliton measures its phase shifts in the moving frame: "
                         f"'scheme.frame' must be 'moving', got {cfg.scheme.frame!r}")
    params, grid = cfg.params, cfg.grid
    hA, hB = cfg.fnum("scenario.h0_tall"), cfg.fnum("scenario.h0_short")
    xA, xB = cfg.fnum("scenario.x_tall"), cfg.fnum("scenario.x_short")
    sigma = dispersion_sigma(params)
    specA = SolitarySpec(hA, sigma, params.H, params.g)
    specB = SolitarySpec(hB, sigma, params.H, params.g)
    x = grid.x
    h = (solitary_profile(specA, x - xA) + solitary_profile(specB, x - xB))
    field0 = WaveField(grid, h)
    t_end = cfg.scheme.t_end if not cfg.t_end_auto else 60.0
    scheme = replace(cfg.scheme, t_end=t_end)
    res = evolve(field0, params, scheme)
    final = res.final
    L = grid.L
    wrap = lambda z: (z + L / 2) % L - L / 2

    # locate both crests: global max, then next max away from it
    posA = crest_position(final)
    awayA = np.abs(wrap(x - posA)) > 8.0
    posB = crest_position(final, where=awayA)

    # speeds relative to a frame moving at sqrt(gH) - sqrt(g/H) alpha
    vA = math.sqrt(params.g / params.H) * (0.5 * hA + cfg.scheme.alpha)
    vB = math.sqrt(params.g / params.H) * (0.5 * hB + cfg.scheme.alpha)
    shiftA = float(wrap(posA - (xA + vA * t_end)))
    shiftB = float(wrap(posB - (xB + vB * t_end)))

    refA = solitary_profile(specA, wrap(x - posA))
    refB = solitary_profile(specB, wrap(x - posB))
    winA = np.abs(wrap(x - posA)) < 7.0
    winB = np.abs(wrap(x - posB)) < 7.0
    errA = float(np.max(np.abs(final.h[winA] - (refA + refB)[winA]))) / hA
    errB = float(np.max(np.abs(final.h[winB] - (refA + refB)[winB]))) / hB

    emit_profile_csv(field0, params, scheme.deriv, cfg.output_dir / "profile_initial.csv")
    emit_profile_csv(final, params, scheme.deriv, cfg.output_dir / "profile_final.csv")
    emit_invariants_csv(res.invariants, cfg.output_dir / "invariants.csv")
    return {
        "phase_shift_tall": _fmt(shiftA), "phase_shift_short": _fmt(shiftB),
        "amp_tall": _fmt(np.max(final.h)), "amp_short": _fmt(np.max(final.h[awayA])),
        "shape_error_tall_rel": _fmt(errA), "shape_error_short_rel": _fmt(errB),
        **_step_entries(res),
    }


def scenario_cnoidal_family(cfg: ExperimentConfig) -> dict[str, str]:
    """Profiles and speeds across the elliptic-parameter family."""
    params = cfg.params
    sigma = dispersion_sigma(params)
    kl_sum = cfg.fnum("scenario.kl_sum")
    n_waves = cfg.fnum("scenario.n_waves")
    phase = cfg.fnum("scenario.phase")
    rows = ["# columns=m,k,l,K,wavelength,speed_periodic,speed_frame"]
    results: dict[str, str] = {}
    for i, m in enumerate(cfg.fnum("scenario.m_list")):
        l = m * kl_sum
        k = kl_sum - l
        spec = CnoidalSpec(k=k, l=l, sigma=sigma, H=params.H, g=params.g)
        lam = cnoidal_wavelength(spec)
        speed_p = boussinesq_periodic_speed(spec)
        speed_f = (math.sqrt(params.g * params.H)
                   - math.sqrt(params.g / params.H) * cnoidal_alpha(spec))
        grid = grid_for_cnoidal(spec, n_waves, cfg.grid.N)
        field = cnoidal_field(spec, grid, phase=phase)
        emit_profile_csv(field, params, "analytic",
                         cfg.output_dir / f"profile_{i:02d}.csv")
        rows.append(",".join(_fmt(v) for v in
                             (m, k, l, complete_K(m), lam, speed_p, speed_f)))
        results[f"wavelength_{i:02d}"] = _fmt(lam)
    (cfg.output_dir / "family.csv").write_text("\n".join(rows) + "\n",
                                               encoding="utf-8", newline="\n")
    return results


def scenario_steepening(cfg: ExperimentConfig) -> dict[str, str]:
    """Verdict sweep across profile widths, with evolution cross-checks."""
    params = cfg.params
    sigma = dispersion_sigma(params)
    hbar = cfg.fnum("scenario.hbar")
    t_check = cfg.fnum("scenario.t_check")
    p_star = math.sqrt(hbar / (4.0 * sigma))
    rows = ["# columns=p_ratio,p,verdict,front_slope_change"]
    results: dict[str, str] = {}
    for ratio in cfg.fnum("scenario.p_ratios"):
        p = ratio * p_star
        spec = DeformationSpec(hbar=hbar, p=p,
                               alpha=4.0 * sigma * p * p - 1.5 * hbar)
        verdict = steepening_verdict(spec, params)
        change = front_slope_change(spec, params, t_check)
        rows.append(f"{_fmt(ratio)},{_fmt(p)},{verdict.value},{_fmt(change)}")
        results[f"verdict_{ratio:.6g}"] = verdict.value
    (cfg.output_dir / "steepening.csv").write_text("\n".join(rows) + "\n",
                                                   encoding="utf-8", newline="\n")
    return results


def scenario_moment_conservation(cfg: ExperimentConfig) -> dict[str, str]:
    """Invariant drift over a solitary transit (conservation showcase)."""
    spec, omega = _solitary_pieces(cfg, cfg.fnum("scenario.h0"))
    t_end = cfg.grid.L / omega if cfg.t_end_auto else cfg.scheme.t_end
    scheme = replace(cfg.scheme, t_end=t_end)
    field0 = solitary_field(spec, cfg.grid)
    res = evolve(field0, cfg.params, scheme)
    emit_invariants_csv(res.invariants, cfg.output_dir / "invariants.csv")
    return {"t_end": _fmt(t_end),
            **_drift_entries(conservation_drift(res.invariants)),
            **_step_entries(res)}


def scenario_factorization(cfg: ExperimentConfig) -> dict[str, str]:
    """Bidirectional-operator residual on unidirectional jets, with control."""
    params = cfg.params
    spec, _ = _solitary_pieces(cfg, cfg.fnum("scenario.h0"))
    # domain wide enough that the tails sit below 1e-12 of the crest
    L = max(cfg.grid.L, 30.0 / spec.inv_width)
    rows = ["# columns=scheme,N,residual,normalized"]
    norm_unit = params.g * params.H * 1.5 * spec.h0 ** 2 / params.H ** 3
    last_norm = None
    for deriv in ("centered4", "spectral"):
        for N in cfg.fnum("scenario.n_list"):
            grid = PeriodicGrid(L=L, N=N)
            field = solitary_field(spec, grid)
            r = factorization_residual(field, params, scheme=deriv)
            rows.append(f"{deriv},{N},{_fmt(r)},{_fmt(r / norm_unit)}")
            last_norm = r / norm_unit
    gridc = PeriodicGrid(L=L, N=512)
    fieldc = solitary_field(spec, gridc)
    left = math.sqrt(params.g * params.H) * diff(fieldc.h, L, 1)
    rc = factorization_residual(fieldc, params, h_t=left)
    rows.append(f"left_moving_control,512,{_fmt(rc)},{_fmt(rc / norm_unit)}")
    (cfg.output_dir / "factorization.csv").write_text(
        "\n".join(rows) + "\n", encoding="utf-8", newline="\n")
    return {"normalized_residual": _fmt(last_norm),
            "normalized_control": _fmt(rc / norm_unit)}


def _mode_frequency(ts: np.ndarray, cs: np.ndarray) -> float:
    """Frequency of uniformly sampled A cos(w t + phi) by linear prediction.

    Exact for noise-free uniform samples; a trailing off-stride sample
    (the run's endpoint) is dropped.
    """
    dt = ts[1] - ts[0]
    if len(ts) > 3 and abs((ts[-1] - ts[-2]) - dt) > 1e-9 * dt:
        ts, cs = ts[:-1], cs[:-1]
    num = float((cs[1:-1] * (cs[2:] + cs[:-2])).sum())
    den = float(2.0 * (cs[1:-1] ** 2).sum())
    return math.acos(max(-1.0, min(1.0, num / den))) / dt


def scenario_boussinesq_demo(cfg: ExperimentConfig) -> dict[str, str]:
    """Filtered bidirectional runs plus the unfiltered blow-up control."""
    params = cfg.params
    g, H = params.g, params.H
    results: dict[str, str] = {}

    # (a) one low linear mode: measured oscillation frequency
    grid = PeriodicGrid(L=64.0, N=256)
    j = cfg.fnum("scenario.mode_index")
    k0 = 2.0 * math.pi * j / grid.L
    om_exact = k0 * math.sqrt(g * H) * math.sqrt(1.0 - H * H * k0 * k0 / 3.0)
    amp = cfg.fnum("scenario.mode_amp") * H
    h0f = WaveField(grid, amp * np.cos(k0 * grid.x))
    v0f = WaveField(grid, np.zeros(grid.N))
    t10 = 10.0 * 2.0 * math.pi / om_exact
    scheme = SchemeConfig(deriv="spectral", dt=0.005, t_end=t10,
                          filter_cut=cfg.scheme.filter_cut)
    res = evolve((h0f, v0f), params, scheme, sample_every=14)
    ts = np.array(res.times)
    cosk = np.cos(k0 * grid.x)
    cs = np.array([2.0 / grid.N * float(np.dot(s[0].h, cosk)) for s in res.snapshots])
    rows = ["# columns=t,mode_amplitude"]
    rows += [f"{_fmt(t)},{_fmt(c)}" for t, c in zip(ts, cs)]
    (cfg.output_dir / "mode_series.csv").write_text("\n".join(rows) + "\n",
                                                    encoding="utf-8", newline="\n")
    om_fit = _mode_frequency(ts, cs)
    results["mode_frequency_exact"] = _fmt(om_exact)
    results["mode_frequency_measured"] = _fmt(om_fit)

    # (b) right-moving solitary data at the corrected long-wave speed
    spec, omega = _solitary_pieces(cfg, cfg.fnum("scenario.h0"))
    gridS = cfg.grid
    cut = cfg.fnum("scenario.solitary_filter_cut")
    hs = lowpass(solitary_profile(spec, gridS.x), gridS.L, cut * math.sqrt(3.0) / H)
    vs = -omega * diff(hs, gridS.L, 1)
    schemeS = SchemeConfig(deriv="spectral", dt=0.01, t_end=30.0, filter_cut=cut)
    resS = evolve((WaveField(gridS, hs), WaveField(gridS, vs)), params, schemeS)
    ts2, xs2 = _track_crests(resS)
    results["solitary_speed_formula"] = _fmt(omega)
    results["solitary_speed_measured"] = _fmt(fit_speed(ts2, xs2, gridS.L))
    emit_profile_csv(resS.final[0], params, "spectral",
                     cfg.output_dir / "profile_solitary_final.csv")

    # (c) broadband noise: unfiltered blow-up against the filtered twin
    gridN = PeriodicGrid(L=64.0, N=256)
    rng = np.random.default_rng(cfg.seed)
    noise = cfg.fnum("scenario.noise_amp") * H * rng.standard_normal(gridN.N)
    noise -= noise.mean()
    v0 = WaveField(gridN, np.zeros(gridN.N))
    raw = SchemeConfig(deriv="spectral", dt=1e-4, t_end=2.0, boussinesq_filter=False)
    try:
        evolve((WaveField(gridN, noise), v0), params, raw, record_invariants=False)
        results["unfiltered_blowup_time"] = "none"
    except BlowUpError as e:
        results["unfiltered_blowup_time"] = _fmt(e.time)
    filt = SchemeConfig(deriv="spectral", dt=1e-4, t_end=1.0,
                        filter_cut=cfg.scheme.filter_cut)
    hf = WaveField(gridN, lowpass(noise, gridN.L,
                                  cfg.scheme.filter_cut * math.sqrt(3.0) / H))
    resF = evolve((hf, v0), params, filt, record_invariants=False, sample_every=500)
    E = [boussinesq_energy(s[0], s[1], params) for s in resF.snapshots]
    drift = max(abs(e - E[0]) for e in E) / abs(E[0])
    results["filtered_energy_drift"] = _fmt(drift)
    return results


SCENARIOS = {
    "solitary_transit": scenario_solitary_transit,
    "two_soliton": scenario_two_soliton,
    "cnoidal_family": scenario_cnoidal_family,
    "steepening": scenario_steepening,
    "moment_conservation": scenario_moment_conservation,
    "factorization": scenario_factorization,
    "boussinesq_demo": scenario_boussinesq_demo,
}


def run_scenario(cfg: ExperimentConfig) -> dict[str, str]:
    """Run one named scenario; returns the manifest result entries."""
    if cfg.scenario not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise ValueError(f"unknown scenario {cfg.scenario!r}; known scenarios: {known}")
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    results = SCENARIOS[cfg.scenario](cfg)
    write_manifest(cfg.output_dir / "manifest.txt", cfg, results)
    return results


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def _cmd_scenario(args) -> int:
    cfg = resolve_config(args.name, args.config, args.set or [], args.out)
    results = run_scenario(cfg)
    for k in sorted(results):
        print(f"{k} = {results[k]}")
    print(f"wrote {cfg.output_dir}/manifest.txt")
    return EXIT_OK


def _cnoidal_pieces(cfg: ExperimentConfig):
    """The cnoidal wave of the analytic and evolve commands, and its grid."""
    kl_sum, m, params = cfg.fnum("scenario.kl_sum"), cfg.fnum("scenario.m"), cfg.params
    spec = CnoidalSpec(k=(1 - m) * kl_sum, l=m * kl_sum, sigma=dispersion_sigma(params),
                       H=params.H, g=params.g)
    return spec, grid_for_cnoidal(spec, cfg.fnum("scenario.n_waves"), cfg.grid.N)


def _cmd_analytic(args) -> int:
    cfg = resolve_config("analytic", args.config, args.set or [], args.out)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    print(f"sigma = {_fmt(dispersion_sigma(cfg.params))}")
    if args.wave == "solitary":
        spec, speed = _solitary_pieces(cfg, cfg.fnum("scenario.h0"))
        field = solitary_field(spec, cfg.grid, center=args.phase)
        print(f"speed = {_fmt(speed)}")
    else:
        spec, grid = _cnoidal_pieces(cfg)
        field = cnoidal_field(spec, grid, phase=args.phase)
        print(f"wavelength = {_fmt(cnoidal_wavelength(spec))}")
        print(f"speed = {_fmt(boussinesq_periodic_speed(spec))}")
    emit_profile_csv(field, cfg.params, "analytic", cfg.output_dir / "profile.csv")
    print(f"wrote {cfg.output_dir}/profile.csv")
    return EXIT_OK


def _cmd_evolve(args) -> int:
    cfg = resolve_config("evolve", args.config, args.set or [], args.out)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    params = cfg.params
    if args.ic == "solitary":
        spec, speed = _solitary_pieces(cfg, cfg.fnum("scenario.h0"))
        initial = solitary_field(spec, cfg.grid)
        t_end = cfg.grid.L / speed if cfg.t_end_auto else cfg.scheme.t_end
    elif args.ic == "cnoidal":
        spec, grid = _cnoidal_pieces(cfg)
        initial = cnoidal_field(spec, grid, zero_mean=True)
        t_end = 10.0 if cfg.t_end_auto else cfg.scheme.t_end
    else:
        raise ValueError(f"unknown initial condition {args.ic!r}")
    scheme = replace(cfg.scheme, t_end=t_end)
    res = evolve(initial, params, scheme)
    emit_profile_csv(initial, params, scheme.deriv, cfg.output_dir / "profile_initial.csv")
    emit_profile_csv(res.final, params, scheme.deriv, cfg.output_dir / "profile_final.csv")
    emit_invariants_csv(res.invariants, cfg.output_dir / "invariants.csv")
    results = {"t_end": _fmt(t_end),
               **_drift_entries(conservation_drift(res.invariants)),
               **_step_entries(res)}
    if args.ic == "solitary":
        # crest tracking is unambiguous only with a single crest in the domain
        ts, xs = _track_crests(res)
        results["crest_speed"] = _fmt(fit_speed(ts, xs, initial.grid.L))
    write_manifest(cfg.output_dir / "manifest.txt", cfg, results, ic=args.ic)
    for k in sorted(results):
        print(f"{k} = {results[k]}")
    return EXIT_OK


def _cmd_invariants(args) -> int:
    meta, x, h = read_profile_csv(args.input)
    params = PhysicalParams(g=float(meta["g"]), H=float(meta["H"]),
                            rho=float(meta["rho"]), T=float(meta["T"]))
    grid = PeriodicGrid(L=float(meta["L"]), N=int(meta["N"]))
    field = WaveField(grid, h, t=float(meta.get("t", "0")))
    inv = compute_invariants(field, params)
    print(f"Q = {_fmt(inv.Q)}")
    print(f"E = {_fmt(inv.E)}")
    print(f"M = {_fmt(inv.M)}")
    print(f"Hfun = {_fmt(inv.Hfun)}")
    print(f"xg_dot = {'undefined' if inv.xg_dot is None else _fmt(inv.xg_dot)}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        emit_invariants_csv([inv], args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_stability(args) -> int:
    cfg = resolve_config("stability", args.config, args.set or [], None)
    params = cfg.params
    sigma = dispersion_sigma(params)
    hbar = args.hbar
    p = args.p if args.p is not None else args.p_ratio * math.sqrt(hbar / (4 * sigma))
    alpha = 4.0 * sigma * p * p - 1.5 * hbar
    spec = DeformationSpec(hbar=hbar, p=p, alpha=alpha)
    verdict = steepening_verdict(spec, params, cross_check=args.cross_check)
    print(f"p = {_fmt(p)}")
    print(f"p_steady = {_fmt(math.sqrt(hbar / (4 * sigma)))}")
    print(f"verdict = {verdict.value}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="longwave",
        description="Long waves in shallow water: steady profiles, evolution, "
                    "invariants, and named experiment scenarios.")
    ap.add_argument("--version", action="version", version=f"longwave {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value configuration file")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one configuration key (repeatable)")
    common.add_argument("--out", help="output directory")

    p = sub.add_parser("analytic", parents=[common],
                       help="closed-form steady profiles and speeds")
    p.add_argument("--wave", choices=("solitary", "cnoidal"), default="solitary")
    p.add_argument("--phase", type=float, default=0.0,
                   help="shift the crest to this abscissa [m]")
    p.set_defaults(func=_cmd_analytic)

    p = sub.add_parser("evolve", parents=[common], help="time-integrate an initial condition")
    p.add_argument("--ic", choices=("solitary", "cnoidal"), default="solitary")
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("stability", parents=[common],
                       help="steepening verdict for a near-solitary profile")
    p.add_argument("--hbar", type=float, required=True, help="profile amplitude [m]")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--p", type=float, help="inverse width [1/m]")
    g.add_argument("--p-ratio", type=float, help="inverse width over the steady value")
    p.add_argument("--cross-check", action="store_true",
                   help="confirm the verdict with a short evolution run")
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("invariants", parents=[common],
                       help="conserved functionals of a stored profile")
    p.add_argument("--input", required=True, help="profile CSV to read")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("scenario", parents=[common], help="run a named experiment")
    p.add_argument("name", help=f"one of: {', '.join(sorted(SCENARIOS))}")
    p.set_defaults(func=_cmd_scenario)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BlowUpError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BLOWUP
    except (ValueError, KeyError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
