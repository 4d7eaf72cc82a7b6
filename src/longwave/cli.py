"""Command-line front door: named experiment scenarios with reproducible
CSV output.

Configuration is a flat key=value map (dots group sections, e.g.
grid.N=1024).  COMMANDS lists the keys each command reads (analytic and
evolve: each --wave or --ic choice), with their defaults, and KINDS what
each key's value must be.  Defaults < config file (--config) <
command-line overrides (--set key=value).  A value
that does not parse as its kind, a key no command reads and a --set key
the command does not read are usage errors, raised before anything
runs; a config-file key the command does not read is left out, so one
file can serve several commands.
Each experiment returns its results and its files, a map from file
name to (writer, *args); _run writes them only after it returns, so a
run that fails writes nothing, not even its output directory.  Every
run, analytic included, writes a manifest of the keys it read and the
library version, so outputs are reproducible from the manifest alone;
identical configuration and seed give byte-identical files.

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
    _is_normal,
    crest_position,
    crest_position_rows,
    evolve,
    factorization_residual,
    fit_speed,
    front_slope_change,
    steady_inverse_width,
    steepening_verdict,
)
from .invariants import (
    boussinesq_energy,
    boussinesq_energy_rows,
    compute_invariants,
    conservation_drift,
)
from .model import PeriodicGrid, PhysicalParams, WaveField, dispersion_sigma
from .operators import diff, fourier_shift, lowpass, wavenumbers
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

# key groups that several commands read, each written once
GRAVITY = {"physical.g": "9.81", "physical.H": "1.0"}
PHYSICAL = {**GRAVITY, "physical.rho": "1000.0", "physical.T": "0.0"}
WRITES = {**PHYSICAL, "output_dir": "out"}  # every command but stability writes files
GRID = {"grid.N": "1024", "grid.L": "120.0"}
STEPPING = {"scheme.deriv": "spectral", "scheme.dt": "auto", "scheme.t_end": "auto",
            "scheme.frame": "fixed", "scheme.alpha": "0.0"}
EVOLVES = {**WRITES, **GRID, **STEPPING}
# a cnoidal wave spans n_waves wavelengths, so it reads grid.N but not grid.L
CNOIDAL = {"grid.N": "1024", "scenario.kl_sum": "0.2", "scenario.m": "0.5"}

# the keys each command reads, with their defaults: scenario names,
# "stability", and analytic and evolve per --wave or --ic choice
COMMANDS = {
    "solitary_transit": {**EVOLVES, "scenario.h0": "0.1"},
    "two_soliton": {**EVOLVES, "grid.N": "256", "grid.L": "80.0", "scheme.frame": "moving",
                    "scheme.t_end": "60.0", "scenario.h0_tall": "0.5", "scenario.h0_short": "0.2",
                    "scenario.x_tall": "-22.0", "scenario.x_short": "-4.0"},
    "cnoidal_family": {**WRITES, "grid.N": "512", "scenario.m_list": "0.1,0.5,0.9,0.99",
                       "scenario.kl_sum": "0.2", "scenario.n_waves": "1", "scenario.phase": "0.0"},
    "steepening": {**WRITES, "scenario.hbar": "0.1", "scenario.p_ratios": "0.8,0.9,1.0,1.1,1.2",
                   "scenario.t_check": "1.0"},
    "moment_conservation": {**EVOLVES, "grid.N": "512", "scenario.h0": "0.1"},
    "factorization": {**WRITES, "grid.L": "120.0", "scenario.h0": "0.02",
                      "scenario.n_list": "128,256,512,1024"},
    # the bidirectional pair is pure gravity, so the demo reads no rho or T
    "boussinesq_demo": {**GRAVITY, "output_dir": "out", **GRID, "scheme.dt": "auto",
                        "scheme.filter_cut": "0.5", "seed": "0", "scenario.h0": "0.1",
                        "scenario.mode_index": "8", "scenario.mode_amp": "1e-8",
                        "scenario.noise_amp": "1e-10", "scenario.solitary_filter_cut": "0.75"},
    "analytic --wave solitary": {**WRITES, **GRID, "scenario.h0": "0.1"},
    "analytic --wave cnoidal": {**WRITES, **CNOIDAL, "scenario.n_waves": "1"},
    "evolve --ic solitary": {**EVOLVES, "scenario.h0": "0.1"},
    "evolve --ic cnoidal": {**WRITES, **STEPPING, **CNOIDAL, "scenario.n_waves": "4"},
    "stability": PHYSICAL,
}


def _integer(text: str) -> int:
    v = float(text)
    if not v.is_integer():
        raise ValueError(text)
    return int(v)


def _list_of(parse):
    def parse_list(text: str) -> list:
        items = [parse(s) for s in text.split(",") if s.strip()]
        if not items:
            raise ValueError(text)
        return items
    return parse_list


# a kind is (what the value must be, parser of its text)
NUMBER = ("a number", float)
INTEGER = ("an integer", _integer)
NUMBERS = ("a comma-separated list of numbers (at least one)", _list_of(float))
INTEGERS = ("a comma-separated list of integers (at least one)", _list_of(_integer))
AUTO_OR_NUMBER = ("'auto' or a number", lambda text: None if text == "auto" else float(text))
TEXT = ("text", str)

KINDS = {
    "physical.g": NUMBER, "physical.H": NUMBER, "physical.rho": NUMBER, "physical.T": NUMBER,
    "grid.N": INTEGER, "grid.L": NUMBER,
    "scheme.deriv": TEXT, "scheme.dt": AUTO_OR_NUMBER, "scheme.t_end": AUTO_OR_NUMBER,
    "scheme.filter_cut": NUMBER, "scheme.frame": TEXT,
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
    """Resolved configuration: the raw text of the keys the command reads (as
    the manifest echoes it) and their parsed values; grid, scheme and
    output_dir are None for a command that does not read all their keys,
    and params takes its defaults for the physical.* keys it does not
    read.  scenario is the command without its --wave or --ic choice."""

    scenario: str
    raw: dict[str, str]
    values: dict[str, object]
    params: PhysicalParams
    grid: PeriodicGrid | None
    scheme: SchemeConfig | None
    output_dir: Path | None

    def fnum(self, key: str):
        """The parsed value of `key`: a number, a list, None for 'auto', ..."""
        return self.values[key]

    @property
    def t_end_auto(self) -> bool:
        return self.values["scheme.t_end"] is None


def _check_known(keys) -> None:
    """Reject configuration keys no command reads, naming the nearest known one."""
    import difflib  # only this error path needs it; keeps it out of every start-up

    by_lower = {k.lower(): k for k in KINDS}
    problems = []
    for key in sorted(set(keys) - KINDS.keys()):
        near = difflib.get_close_matches(key.lower(), by_lower, n=1)
        hint = f" (did you mean {by_lower[near[0]]!r}?)" if near else ""
        problems.append(f"unknown configuration key {key!r}{hint}")
    if problems:
        raise ValueError("; ".join(problems))


def _parse(key: str, text: str):
    what, parse = KINDS[key]
    try:
        return parse(text)
    except ValueError:
        raise ValueError(f"{key!r} must be {what}, got {text!r}") from None


def resolve_config(scenario: str, config_file: str | None,
                   overrides: list[str], out_dir: str | None) -> ExperimentConfig:
    """The command's defaults, updated by the config file, then by --set."""
    if scenario not in COMMANDS:
        known = ", ".join(sorted(SCENARIOS))
        raise ValueError(f"unknown scenario {scenario!r}; known scenarios: {known}")
    reads = COMMANDS[scenario]
    from_file = parse_config_file(config_file) if config_file else {}
    from_set: dict[str, str] = {}
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        from_set[key.strip()] = value.strip()
    given = {**from_file, **from_set}
    _check_known(given)
    for key, text in given.items():
        _parse(key, text)  # a malformed value is reported as such, read or not
    unread = [f"{scenario} does not read {key!r} (--set {key}={text})"
              for key, text in from_set.items() if key not in reads]
    if unread:
        raise ValueError("; ".join(unread))
    raw = {key: given.get(key, text) for key, text in reads.items()}
    if out_dir:
        raw["output_dir"] = out_dir
    v = {key: _parse(key, text) for key, text in raw.items()}
    try:  # a value out of range names the command and choice that read it
        params = PhysicalParams(**{key.split(".", 1)[1]: value for key, value in v.items()
                                   if key.startswith("physical.")})
        grid = PeriodicGrid(L=v["grid.L"], N=v["grid.N"]) if GRID.keys() <= v.keys() else None
        scheme = (SchemeConfig(deriv=v["scheme.deriv"], dt=v["scheme.dt"],
                               t_end=v["scheme.t_end"] or 0.0, frame=v["scheme.frame"],
                               alpha=v["scheme.alpha"])
                  if STEPPING.keys() <= v.keys() else None)
    except ValueError as e:
        raise ValueError(f"{scenario}: {e}") from None
    return ExperimentConfig(scenario=scenario.partition(" ")[0], raw=raw, values=v,
                            params=params, grid=grid, scheme=scheme,
                            output_dir=Path(v["output_dir"]) if "output_dir" in v else None)


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _write_rows(rows, path: str | Path) -> None:
    """Write text rows as one UTF-8 file with LF line endings."""
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8", newline="\n")


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
    _write_rows(lines, path)


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
    _write_rows(lines, path)


def write_manifest(path: str | Path, cfg: ExperimentConfig,
                   results: dict[str, str], **choices) -> None:
    # output_dir is where the files land, not part of the experiment itself;
    # choices are command-line options outside the configuration (--ic, --wave)
    entries = {f"config.{k}": v for k, v in cfg.raw.items() if k != "output_dir"}
    entries.update(scenario=cfg.scenario, version=__version__, **choices)
    entries.update({f"result.{k}": v for k, v in results.items()})
    _write_rows([f"{k}={entries[k]}" for k in sorted(entries)], path)


def _run(cfg: ExperimentConfig, experiment, **choices) -> dict[str, str]:
    """Run an experiment, then write the files it returns and the manifest."""
    results, files = experiment(cfg, **choices)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    for name, (writer, *args) in files.items():
        writer(*args, cfg.output_dir / name)
    write_manifest(cfg.output_dir / "manifest.txt", cfg, results, **choices)
    return results


def _drift_entries(res) -> dict[str, str]:
    # the centroid velocity lives on the grid chart and spikes while a wave
    # straddles the periodic seam, so only the four functionals are reported
    drifts = conservation_drift(res.invariants)
    return {f"drift_{k}": _fmt(drifts[k]) for k in ("Q", "E", "M", "Hfun")}


def _step_entries(res, prefix: str = "") -> dict[str, str]:
    # how the run stepped is deterministic, so it belongs in the manifest
    return {f"{prefix}integrator": res.integrator, f"{prefix}dt": _fmt(res.dt),
            f"{prefix}steps": str(res.steps), f"{prefix}rejected": str(res.rejected),
            f"{prefix}band_min": str(res.band[0]), f"{prefix}band_max": str(res.band[1])}


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


def _crest_speed(res, params: PhysicalParams) -> float:
    """The fitted speed of the run's crest, from every snapshot's crest in one pass.

    Crest positions carry a roundoff of about eps L, so a run whose span
    leaves that above a thousandth of sqrt(g H) cannot resolve a speed.
    """
    if len(res.times) < 2:
        raise ValueError("'scheme.t_end' must be positive: a crest speed needs two samples")
    fields = [snap[0] if isinstance(snap, tuple) else snap for snap in res.snapshots]
    grid, span = fields[0].grid, res.times[-1] - res.times[0]
    if not span * 1e-3 * params.c0 > sys.float_info.epsilon * grid.L:
        raise ValueError(f"'scheme.t_end' is too short for a crest speed: over a run of "
                         f"{span:.3g} s the crest positions' roundoff passes 1e-3 sqrt(g H)")
    return fit_speed(res.times, crest_position_rows(np.stack([f.h for f in fields]), grid),
                     grid.L)


def _evolve_to(cfg: ExperimentConfig, initial: WaveField, t_auto: float):
    """Evolve to scheme.t_end (t_auto if 'auto'): the run, its t_end and its three files."""
    t_end = t_auto if cfg.t_end_auto else cfg.scheme.t_end
    scheme = replace(cfg.scheme, t_end=t_end)
    res = evolve(initial, cfg.params, scheme)
    files = {
        "profile_initial.csv": (emit_profile_csv, initial, cfg.params, scheme.deriv),
        "profile_final.csv": (emit_profile_csv, res.final, cfg.params, scheme.deriv),
        "invariants.csv": (emit_invariants_csv, res.invariants),
    }
    return res, t_end, files


def scenario_solitary_transit(cfg: ExperimentConfig):
    """One full periodic transit of the solitary wave at its own speed."""
    spec, omega = _solitary_pieces(cfg, cfg.fnum("scenario.h0"))
    field0 = solitary_field(spec, cfg.grid)
    tail = abs(solitary_profile(spec, cfg.grid.L / 2)) / abs(spec.h0)
    res, t_end, files = _evolve_to(cfg, field0, cfg.grid.L / omega)
    shape_err = recentered_shape_error(res.final, field0)
    return {
        "t_end": _fmt(t_end),
        "speed_formula": _fmt(omega),
        "speed_measured": _fmt(_crest_speed(res, cfg.params)),
        "shape_error": _fmt(shape_err),
        "shape_error_rel_h0": _fmt(shape_err / abs(spec.h0)),
        "tail_rel": _fmt(tail),
        **_drift_entries(res),
        **_step_entries(res),
    }, files


def scenario_two_soliton(cfg: ExperimentConfig):
    """Overtaking of a short solitary wave by a tall one (moving frame)."""
    if cfg.scheme.frame != "moving":
        raise ValueError("two_soliton measures its phase shifts in the moving frame: "
                         f"'scheme.frame' must be 'moving', got {cfg.scheme.frame!r}")
    params, grid = cfg.params, cfg.grid
    hA, hB = cfg.fnum("scenario.h0_tall"), cfg.fnum("scenario.h0_short")
    for key in ("scenario.h0_tall", "scenario.h0_short"):  # the shape errors divide by them
        if not _is_normal(cfg.fnum(key)):
            raise ValueError(f"{key!r} must be a normal float, got {cfg.raw[key]}")
    if not hA > hB:  # the crest search and the signed shifts assume the tall wave overtakes
        raise ValueError("'scenario.h0_tall' must exceed 'scenario.h0_short', got "
                         f"{cfg.raw['scenario.h0_tall']} and {cfg.raw['scenario.h0_short']}")
    xA, xB = cfg.fnum("scenario.x_tall"), cfg.fnum("scenario.x_short")
    sigma = dispersion_sigma(params)
    specA = SolitarySpec(hA, sigma, params.H, params.g)
    specB = SolitarySpec(hB, sigma, params.H, params.g)
    x = grid.x
    h = (solitary_profile(specA, x - xA) + solitary_profile(specB, x - xB))
    res, t_end, files = _evolve_to(cfg, WaveField(grid, h), 60.0)
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
    return {
        "phase_shift_tall": _fmt(shiftA), "phase_shift_short": _fmt(shiftB),
        "amp_tall": _fmt(np.max(final.h)), "amp_short": _fmt(np.max(final.h[awayA])),
        "shape_error_tall_rel": _fmt(errA), "shape_error_short_rel": _fmt(errB),
        **_step_entries(res),
    }, files


def scenario_cnoidal_family(cfg: ExperimentConfig):
    """Profiles and speeds across the elliptic-parameter family."""
    params = cfg.params
    phase = cfg.fnum("scenario.phase")
    if not math.isfinite(phase):
        raise ValueError(f"'scenario.phase' must be finite, got {cfg.raw['scenario.phase']}")
    rows = ["# columns=m,k,l,K,wavelength,speed_periodic,speed_frame"]
    results: dict[str, str] = {}
    files = {}
    for i, m in enumerate(cfg.fnum("scenario.m_list")):
        spec, grid = _cnoidal_pieces(cfg, m)
        lam = cnoidal_wavelength(spec)
        speed_p = boussinesq_periodic_speed(spec)
        speed_f = (math.sqrt(params.g * params.H)
                   - math.sqrt(params.g / params.H) * cnoidal_alpha(spec))
        field = cnoidal_field(spec, grid, phase=phase)
        files[f"profile_{i:02d}.csv"] = (emit_profile_csv, field, params, "analytic")
        rows.append(",".join(_fmt(v) for v in
                             (m, spec.k, spec.l, complete_K(m), lam, speed_p, speed_f)))
        results[f"wavelength_{i:02d}"] = _fmt(lam)
    files["family.csv"] = (_write_rows, rows)
    return results, files


def scenario_steepening(cfg: ExperimentConfig):
    """Analytic verdict per profile width, beside the front-slope change a short run measures.

    The measured change is reported, not checked against the verdict;
    only `stability --cross-check` confirms a verdict by its run.
    """
    params = cfg.params
    hbar = cfg.fnum("scenario.hbar")
    t_check = cfg.fnum("scenario.t_check")
    p_star = steady_inverse_width(hbar, params)
    # every member is built, and so checked, before the first run
    specs = [DeformationSpec(hbar=hbar, p=ratio * p_star)
             for ratio in cfg.fnum("scenario.p_ratios")]
    rows = ["# columns=p_ratio,p,verdict,front_slope_change"]
    results: dict[str, str] = {}
    for ratio, spec in zip(cfg.fnum("scenario.p_ratios"), specs):
        verdict = steepening_verdict(spec, params)
        change = front_slope_change(spec, params, t_check)
        rows.append(f"{_fmt(ratio)},{_fmt(spec.p)},{verdict.value},{_fmt(change)}")
        results[f"verdict_{ratio:.6g}"] = verdict.value
    return results, {"steepening.csv": (_write_rows, rows)}


def scenario_moment_conservation(cfg: ExperimentConfig):
    """Invariant drift over a solitary transit (conservation showcase)."""
    spec, omega = _solitary_pieces(cfg, cfg.fnum("scenario.h0"))
    res, t_end, files = _evolve_to(cfg, solitary_field(spec, cfg.grid), cfg.grid.L / omega)
    return ({"t_end": _fmt(t_end), **_drift_entries(res), **_step_entries(res)},
            {"invariants.csv": files["invariants.csv"]})


def scenario_factorization(cfg: ExperimentConfig):
    """Bidirectional-operator residual on unidirectional jets, with control."""
    params = cfg.params
    spec, _ = _solitary_pieces(cfg, cfg.fnum("scenario.h0"))
    if not cfg.fnum("grid.L") > 0:
        raise ValueError(f"'grid.L' must be positive, got {cfg.fnum('grid.L')}")
    # domain wide enough that the tails sit below 1e-12 of the crest
    L = max(cfg.fnum("grid.L"), 30.0 / spec.inv_width)
    rows = ["# columns=scheme,N,residual,normalized"]
    norm_unit = params.g * params.H * 1.5 * (spec.h0 * spec.h0) / params.H ** 3
    if not _is_normal(norm_unit):
        raise ValueError("'scenario.h0' must leave the residual's unit g H (3/2) h0^2/H^3 "
                         f"a normal float, got {_fmt(norm_unit)} m/s^2")
    last_norm = None
    # every grid is built, and so checked, before the first residual
    grids = [PeriodicGrid(L=L, N=N) for N in cfg.fnum("scenario.n_list")]
    for deriv in ("centered4", "spectral"):
        for grid in grids:
            field = solitary_field(spec, grid)
            r = factorization_residual(field, params, scheme=deriv)
            rows.append(f"{deriv},{grid.N},{_fmt(r)},{_fmt(r / norm_unit)}")
            last_norm = r / norm_unit
    gridc = PeriodicGrid(L=L, N=512)
    fieldc = solitary_field(spec, gridc)
    left = math.sqrt(params.g * params.H) * diff(fieldc.h, L, 1)
    rc = factorization_residual(fieldc, params, h_t=left)
    rows.append(f"left_moving_control,512,{_fmt(rc)},{_fmt(rc / norm_unit)}")
    return ({"normalized_residual": _fmt(last_norm),
             "normalized_control": _fmt(rc / norm_unit)},
            {"factorization.csv": (_write_rows, rows)})


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


def scenario_boussinesq_demo(cfg: ExperimentConfig):
    """Filtered bidirectional runs plus the unfiltered blow-up control.

    The three filtered runs step at scheme.dt (auto: the error-controlled
    integrating factor); the unfiltered control, whatever scheme.dt says,
    takes classical RK4 steps at its stability advisory (0.4 x the RK4
    limit of its fastest growth rate; 25 steps to blow-up at the
    defaults).  Each run's integrator, step, step count and rejected
    steps go in the results.
    """
    params = cfg.params
    g, H = params.g, params.H
    results: dict[str, str] = {}

    # every input of the three parts is checked before part (a) runs
    filtered = SchemeConfig(deriv="spectral", dt=cfg.fnum("scheme.dt"),
                            filter_cut=cfg.fnum("scheme.filter_cut"))
    grid = PeriodicGrid(L=64.0, N=256)  # parts (a) and (c)
    k_cut = filtered.filter_cut * math.sqrt(3.0) / H
    j = cfg.fnum("scenario.mode_index")
    j_max = int(np.count_nonzero(wavenumbers(grid.N, grid.L) <= k_cut)) - 1
    if not 1 <= j <= j_max:
        raise ValueError("'scenario.mode_index' must name a mode the filter keeps, "
                         f"1 to {j_max}, got {j}")
    for key in ("scenario.mode_amp", "scenario.noise_amp"):
        if not cfg.fnum(key):
            raise ValueError(f"{key!r} must be nonzero")
    # the frequency fit divides by the mode's squared amplitude, the drift by E(0)
    amp = cfg.fnum("scenario.mode_amp") * H
    if not _is_normal(amp * amp):
        raise ValueError("'scenario.mode_amp' must leave (mode_amp*H)**2 a normal float, "
                         f"got {_fmt(amp * amp)}")
    rng = np.random.default_rng(cfg.fnum("seed"))
    noise = cfg.fnum("scenario.noise_amp") * H * rng.standard_normal(grid.N)
    noise -= noise.mean()
    rest = WaveField(grid, np.zeros(grid.N))
    hf = WaveField(grid, lowpass(noise, grid.L, k_cut))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        E0 = boussinesq_energy(hf, rest, params)
    if not _is_normal(E0):
        raise ValueError("'scenario.noise_amp' and 'physical.g' must leave the filtered noise "
                         f"run a normal starting energy, got {_fmt(E0)} J/m")
    k0 = 2.0 * math.pi * j / grid.L
    om_exact = k0 * math.sqrt(g * H) * math.sqrt(1.0 - H * H * k0 * k0 / 3.0)
    t10 = 10.0 * 2.0 * math.pi / om_exact
    # the frequency fit needs three samples, so two steps of part (a) at least
    if filtered.dt is not None and not filtered.dt <= t10 / 2:
        raise ValueError(f"'scheme.dt' must be at most {_fmt(t10 / 2)} s, half of part (a)")
    spec, omega = _solitary_pieces(cfg, cfg.fnum("scenario.h0"))
    cut = cfg.fnum("scenario.solitary_filter_cut")
    schemeS = replace(filtered, filter_cut=cut, t_end=30.0)
    # part (b)'s start is built here, so a grid.L too short for its slope stops before (a)
    gridS = cfg.grid
    hs = lowpass(solitary_profile(spec, gridS.x), gridS.L, cut * math.sqrt(3.0) / H)
    vs = -omega * diff(hs, gridS.L, 1)

    # (a) one low linear mode: measured oscillation frequency
    cosk = np.cos(k0 * grid.x)
    h0f = WaveField(grid, amp * cosk)
    # the default sampling is uniform under both integrators, as the fit needs
    res = evolve((h0f, rest), params, replace(filtered, t_end=t10), record_invariants=False)
    ts = np.array(res.times)
    cs = np.array([2.0 / grid.N * float(np.dot(s[0].h, cosk)) for s in res.snapshots])
    rows = ["# columns=t,mode_amplitude"]
    rows += [f"{_fmt(t)},{_fmt(c)}" for t, c in zip(ts, cs)]
    results["mode_frequency_exact"] = _fmt(om_exact)
    results["mode_frequency_measured"] = _fmt(_mode_frequency(ts, cs))
    results.update(_step_entries(res, "mode_"))

    # (b) right-moving solitary data at the corrected long-wave speed
    resS = evolve((WaveField(gridS, hs), WaveField(gridS, vs)), params, schemeS,
                  record_invariants=False)
    results["solitary_speed_formula"] = _fmt(omega)
    results["solitary_speed_measured"] = _fmt(_crest_speed(resS, params))
    results.update(_step_entries(resS, "solitary_"))

    # (c) broadband noise: unfiltered blow-up against the filtered twin
    # dt = None: RK4 at the advisory, which resolves the fastest growth rate
    raw = SchemeConfig(deriv="spectral", dt=None, t_end=2.0, boussinesq_filter=False)
    try:
        resU = evolve((WaveField(grid, noise), rest), params, raw, record_invariants=False)
        results["unfiltered_blowup_time"] = "none"
        results.update(_step_entries(resU, "unfiltered_"))
    except BlowUpError as e:
        # RK4 retries no step; the run ends in the step that tripped the check
        results["unfiltered_blowup_time"] = _fmt(e.time)
        results.update(unfiltered_integrator=e.integrator, unfiltered_dt=_fmt(e.time / e.step),
                       unfiltered_steps=str(e.step), unfiltered_rejected="0")
    resF = evolve((hf, rest), params, replace(filtered, t_end=1.0), record_invariants=False)
    E = boussinesq_energy_rows(np.stack([s[0].h for s in resF.snapshots]),
                               np.stack([s[1].h for s in resF.snapshots]), grid.L, params)
    drift = float(np.max(np.abs(E - E0))) / abs(E0)
    results["filtered_energy_drift"] = _fmt(drift)
    results.update(_step_entries(resF, "filtered_"))
    return results, {
        "mode_series.csv": (_write_rows, rows),
        "profile_solitary_final.csv": (emit_profile_csv, resS.final[0], params, "spectral"),
    }


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
    """Run one named scenario and write its files; returns the manifest result entries."""
    return _run(cfg, SCENARIOS[cfg.scenario])


def _cnoidal_pieces(cfg: ExperimentConfig, m: float):
    """The cnoidal wave of elliptic parameter m, and its grid of n_waves wavelengths."""
    kl_sum, params = cfg.fnum("scenario.kl_sum"), cfg.params
    spec = CnoidalSpec(k=kl_sum - m * kl_sum, l=m * kl_sum, sigma=dispersion_sigma(params),
                       H=params.H, g=params.g)
    return spec, grid_for_cnoidal(spec, cfg.fnum("scenario.n_waves"), cfg.fnum("grid.N"))


def _analytic(cfg: ExperimentConfig, wave: str, phase: float):
    """One closed-form steady profile, crest at `phase` (modulo its period), with its speed."""
    if not math.isfinite(phase):
        raise ValueError(f"--phase must be finite, got {phase}")
    results = {"sigma": _fmt(dispersion_sigma(cfg.params))}
    if wave == "solitary":
        spec, speed = _solitary_pieces(cfg, cfg.fnum("scenario.h0"))
        field = solitary_field(spec, cfg.grid, center=phase)
    else:
        spec, grid = _cnoidal_pieces(cfg, cfg.fnum("scenario.m"))
        field = cnoidal_field(spec, grid, phase=phase)
        results["wavelength"] = _fmt(cnoidal_wavelength(spec))
        speed = boussinesq_periodic_speed(spec)
    results["speed"] = _fmt(speed)
    return results, {"profile.csv": (emit_profile_csv, field, cfg.params, "analytic")}


def _evolve(cfg: ExperimentConfig, ic: str):
    """One run from a solitary or a cnoidal initial condition."""
    if ic == "solitary":
        spec, speed = _solitary_pieces(cfg, cfg.fnum("scenario.h0"))
        initial, t_auto = solitary_field(spec, cfg.grid), cfg.grid.L / speed
    else:
        spec, grid = _cnoidal_pieces(cfg, cfg.fnum("scenario.m"))
        initial, t_auto = cnoidal_field(spec, grid, zero_mean=True), 10.0
    res, t_end, files = _evolve_to(cfg, initial, t_auto)
    results = {"t_end": _fmt(t_end), **_drift_entries(res), **_step_entries(res)}
    if ic == "solitary":
        # crest tracking is unambiguous only with a single crest in the domain
        results["crest_speed"] = _fmt(_crest_speed(res, cfg.params))
    return results, files


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def _print_results(cfg: ExperimentConfig, results: dict[str, str]) -> int:
    for k in sorted(results):
        print(f"{k} = {results[k]}")
    print(f"wrote {cfg.output_dir}/manifest.txt")
    return EXIT_OK


def _cmd_scenario(args) -> int:
    command = args.name.partition(" ")[0]
    if args.name not in SCENARIOS and command in {c.partition(" ")[0] for c in COMMANDS}:
        raise ValueError(f"{args.name!r} is not a scenario: run 'longwave {command}'")
    cfg = resolve_config(args.name, args.config, args.set or [], args.out)
    return _print_results(cfg, run_scenario(cfg))


def _cmd_analytic(args) -> int:
    cfg = resolve_config(f"analytic --wave {args.wave}", args.config, args.set or [], args.out)
    return _print_results(cfg, _run(cfg, _analytic, wave=args.wave, phase=args.phase))


def _cmd_evolve(args) -> int:
    cfg = resolve_config(f"evolve --ic {args.ic}", args.config, args.set or [], args.out)
    return _print_results(cfg, _run(cfg, _evolve, ic=args.ic))


def _cmd_invariants(args) -> int:
    meta, x, h = read_profile_csv(args.input)
    missing = [key for key in ("g", "H", "rho", "T", "L", "N") if key not in meta]
    if missing:
        raise ValueError(f"{args.input}: the header lacks "
                         + ", ".join(f"'# {key}='" for key in missing))
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
    params = resolve_config("stability", args.config, args.set or [], None).params
    p_star = steady_inverse_width(args.hbar, params)
    p = args.p if args.p is not None else args.p_ratio * p_star
    verdict = steepening_verdict(DeformationSpec(hbar=args.hbar, p=p), params,
                                 cross_check=args.cross_check)
    print(f"p = {_fmt(p)}")
    print(f"p_steady = {_fmt(p_star)}")
    print(f"verdict = {verdict.value}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="longwave",
        description="Long waves in shallow water: steady profiles, evolution, "
                    "invariants, and named experiment scenarios.")
    ap.add_argument("--version", action="version", version=f"longwave {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    # each subcommand takes only the flags it reads
    configured = argparse.ArgumentParser(add_help=False)
    configured.add_argument("--config", help="key=value configuration file")
    configured.add_argument("--set", action="append", metavar="KEY=VALUE",
                            help="override one configuration key (repeatable)")
    writes = argparse.ArgumentParser(add_help=False, parents=[configured])
    writes.add_argument("--out", help="output directory")

    p = sub.add_parser("analytic", parents=[writes],
                       help="closed-form steady profiles and speeds")
    p.add_argument("--wave", choices=("solitary", "cnoidal"), default="solitary")
    p.add_argument("--phase", type=float, default=0.0,
                   help="shift the crest to this abscissa, modulo the period [m]")
    p.set_defaults(func=_cmd_analytic)

    p = sub.add_parser("evolve", parents=[writes], help="time-integrate an initial condition")
    p.add_argument("--ic", choices=("solitary", "cnoidal"), default="solitary")
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("stability", parents=[configured],
                       help="steepening verdict for a near-solitary profile")
    p.add_argument("--hbar", type=float, required=True, help="profile amplitude [m]")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--p", type=float, help="inverse width [1/m]")
    g.add_argument("--p-ratio", type=float, help="inverse width over the steady value")
    p.add_argument("--cross-check", action="store_true",
                   help="confirm the verdict with a short evolution run")
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("invariants", help="conserved functionals of a stored profile")
    p.add_argument("--input", required=True, help="profile CSV to read")
    p.add_argument("--out", help="invariants CSV to write")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("scenario", parents=[writes], help="run a named experiment")
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
