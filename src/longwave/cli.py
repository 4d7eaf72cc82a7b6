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
identical configuration and seed give byte-identical files.  A rerun
replaces its files (see _replace_file); it removes the old manifest
before its first file and writes its own last, so a manifest always
describes files its own run wrote.

Exit codes: 0 success, 2 usage error, 3 numerical blow-up, 4 I/O error.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .evolution import (
    BLOWUP_FACTOR,
    BlowUpError,
    DeformationSpec,
    FrameError,
    SchemeConfig,
    _is_normal,
    _symbols,
    crest_position,
    crest_position_rows,
    evolve,
    factorization_residual,
    fit_speed,
    frame_alpha,
    front_slope_change,
    steady_inverse_width,
    steepening_verdict,
)
from .invariants import (
    boussinesq_energy,
    compute_invariants,
    conservation_drift,
)
from .model import PeriodicGrid, PhysicalParams, WaveField, dispersion_sigma
from .operators import diff, fourier_shift, irfft, rfft
from .waves import (
    CnoidalSpec,
    SolitarySpec,
    boussinesq_periodic_speed,
    cnoidal_alpha,
    cnoidal_field,
    cnoidal_wavelength,
    grid_for_cnoidal,
    rayleigh_speed,
    solitary_field,
    solitary_profile,
    solitary_speed,
)
from .elliptic import complete_K
from .rowtext import fmt17 as _fmt, rows17

EXIT_OK, EXIT_USAGE, EXIT_BLOWUP, EXIT_IO = 0, 2, 3, 4

# key groups that several commands read, each written once
GRAVITY = {"physical.g": "9.81", "physical.H": "1.0"}
PHYSICAL = {**GRAVITY, "physical.rho": "1000.0", "physical.T": "0.0"}
WRITES = {**PHYSICAL, "output_dir": "out"}  # every command but stability writes files
GRID = {"grid.N": "1024", "grid.L": "120.0"}
STEPPING = {"scheme.deriv": "spectral", "scheme.dt": "auto", "scheme.t_end": "auto"}
FRAME = {"scheme.frame": "fixed", "scheme.alpha": "0.0"}
EVOLVES = {**WRITES, **GRID, **STEPPING, **FRAME}
# a cnoidal wave spans n_waves wavelengths, so it reads grid.N but not grid.L
CNOIDAL = {"grid.N": "1024", "scenario.kl_sum": "0.2", "scenario.m": "0.5"}

# the keys each command reads, with their defaults: scenario names,
# "stability", and analytic and evolve per --wave or --ic choice
COMMANDS = {
    # the transit's speed formula and its lap are the fixed frame's, so it reads no frame
    "solitary_transit": {**WRITES, **GRID, **STEPPING, "scenario.h0": "0.1"},
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
    "evolve --ic cnoidal": {**WRITES, **STEPPING, **FRAME, **CNOIDAL, "scenario.n_waves": "4"},
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
    the manifest echoes it) and their parsed values.  params and scheme
    are never None: each takes the physical.* or scheme.* keys the command
    reads as its fields and its defaults for the rest.  grid is None for a
    command that does not read both grid keys, output_dir for one that
    writes nothing.  scenario is the command without its --wave or --ic
    choice."""

    scenario: str
    raw: dict[str, str]
    values: dict[str, object]
    params: PhysicalParams
    grid: PeriodicGrid | None
    scheme: SchemeConfig
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


def _fields(values: dict[str, object], section: str) -> dict[str, object]:
    """The section's parsed keys by field name; 'auto' (None) leaves a field its default."""
    return {key.partition(".")[2]: value for key, value in values.items()
            if key.partition(".")[0] == section and value is not None}


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
        params = PhysicalParams(**_fields(v, "physical"))
        grid = PeriodicGrid(**_fields(v, "grid")) if GRID.keys() <= v.keys() else None
        scheme = SchemeConfig(**_fields(v, "scheme"))
    except ValueError as e:
        raise ValueError(f"{scenario}: {e}") from None
    return ExperimentConfig(scenario=scenario.partition(" ")[0], raw=raw, values=v,
                            params=params, grid=grid, scheme=scheme,
                            output_dir=Path(v["output_dir"]) if "output_dir" in v else None)


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def _remove_output(path: Path) -> None:
    """Unlink the file at path, if there is one, unless the process may not write it.

    A file the process may not write raises PermissionError, as opening
    it for writing would; a symlink is judged by itself, not its target.
    """
    if not os.access(path, os.W_OK, follow_symlinks=False) and os.path.lexists(path):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
    path.unlink(missing_ok=True)


def _replace_file(path: str | Path, data: bytes) -> None:
    """Make `data` the whole of a new file at path, in place of what was there.

    The old file is unlinked, not truncated.  On ext4, freeing a file's
    disk blocks puts the process to sleep once, by truncation or by
    unlink; a truncated file's new data is flushed at close, so a file
    rewritten by truncation has blocks to free at every later rewrite.
    A new file gets its blocks only when the kernel writes it back
    (after 30 s by default), and a file replaced before then frees none.
    So a symlink or a hard link at path is replaced, not written
    through, and the file gets a new file's permission bits.  A
    directory at path raises IsADirectoryError.
    """
    path = Path(path)
    _remove_output(path)
    with open(path, "xb") as f:
        f.write(data)


def _write_rows(rows, path: str | Path) -> None:
    """Write text rows as one UTF-8 file with LF line endings."""
    _replace_file(path, ("\n".join(rows) + "\n").encode("utf-8"))


def emit_profile_csv(field: WaveField, params: PhysicalParams,
                     scheme: str, path: str | Path) -> None:
    """Write one elevation profile: '#' key=value header, then x,h rows.

    Full double precision (17 significant digits, the text of `_fmt`),
    LF endings, '.' decimal separator; reading the columns back
    reproduces x and h bit for bit.

    The rows are formed by NumPy in `rowtext.rows17`, a block of values at
    a time: each value's 17 digits are its magnitude times a power of ten,
    scaled to [10**16, 10**17) and rounded half to even, from a
    double-double product that is exact or within 2**-47 of it; `%.17g`'s
    layout (sign, '0.' prefix, point, cut trailing zeros, exponent) is
    looked up from the value's decade and digits.  A value whose rounding
    that bound leaves unsure, and any inf or nan, is written by `_fmt`
    itself.  So the bytes are `_fmt`'s (CPython's correctly rounded
    `%.17g`), as tests/test_profile_text.py checks value by value.
    """
    grid = field.grid
    head = [
        ("t", _fmt(field.t)), ("N", str(grid.N)), ("L", _fmt(grid.L)),
        ("H", _fmt(params.H)), ("g", _fmt(params.g)), ("rho", _fmt(params.rho)),
        ("T", _fmt(params.T)), ("sigma", _fmt(dispersion_sigma(params))),
        ("scheme", scheme), ("columns", "x,h"),
    ]
    rows = rows17(np.column_stack((grid.x, field.h)).ravel())
    _replace_file(path, "".join(f"# {k}={v}\n" for k, v in head).encode("utf-8") + rows)


def read_profile_csv(path: str | Path):
    """Inverse of emit_profile_csv: (meta dict, x array, h array).

    The header is the file's leading block of '#' and blank lines, and
    each '# key=value' line in it sets meta[key]. `np.loadtxt` parses
    the lines after that block; it skips later '#' and blank lines, so
    a '# key=value' line below the first x,h row sets no key. Raises
    ValueError naming the file when a line of it is not UTF-8 text, when
    it holds no x,h rows, when its rows do not have two columns, or when
    a cell does not parse.
    """
    meta: dict[str, str] = {}
    raw = Path(path).read_bytes()
    try:
        lines = raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as e:
        line = raw.count(b"\n", 0, e.start) + 1
        raise ValueError(f"{path}: line {line} is not UTF-8 text: {e}") from None
    for n, line in enumerate(lines):
        body = line.strip()
        if body[:1] not in ("#", ""):
            break
        key, eq, value = body[1:].partition("=")
        if eq:
            meta[key.strip()] = value.strip()
    else:
        raise ValueError(f"{path}: no x,h rows below the '#' header")
    try:
        rows = np.loadtxt(lines[n:], delimiter=",", comments="#", ndmin=2)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    if rows.shape[1] != 2:
        raise ValueError(f"{path}: x,h rows need 2 columns, got {rows.shape[1]}")
    x, h = rows.T.copy()
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
    # removed first and written last, so a manifest never sits beside a failed
    # rerun's mix of old and new files
    manifest = cfg.output_dir / "manifest.txt"
    _remove_output(manifest)
    for name, (writer, *args) in files.items():
        writer(*args, cfg.output_dir / name)
    write_manifest(manifest, cfg, results, **choices)
    return results


def _drift_entries(res) -> dict[str, str]:
    # the centroid velocity lives on the grid chart and spikes while a wave
    # straddles the periodic seam, so only the four functionals are reported
    drifts = conservation_drift(res.invariants)
    return {f"drift_{k}": _fmt(drifts[k]) for k in ("Q", "E", "M", "Hfun")}


def _step_entries(res, prefix: str = "") -> dict[str, str]:
    # how the run stepped is deterministic, so it belongs in the manifest
    entries = {f"{prefix}integrator": res.integrator, f"{prefix}dt": _fmt(res.dt),
               f"{prefix}steps": str(res.steps), f"{prefix}rejected": str(res.rejected),
               f"{prefix}band_min": str(res.band[0]), f"{prefix}band_max": str(res.band[1])}
    if res.step_alpha is not None:  # the (h, v) pair steps in no frame
        entries[f"{prefix}step_alpha"] = _fmt(res.step_alpha)
    return entries


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


def _check_fit(spec: SolitarySpec, grid: PeriodicGrid, key: str = "scenario.h0") -> None:
    """ValueError unless the solitary wave's width 1/kappa lies between one grid
    step and the domain, kappa = SolitarySpec.inv_width.

    Below L kappa = 1 the wave is flat on the grid: its tail at the seam
    passes sech^2(1/2) = 0.79 of its crest, and a transit's crest speed
    reads 0 by h0 = 1e-100 m.  Above kappa dx = 1 it falls between the
    grid points: a transit at kappa dx = 2.7 misses its speed by 1.1% and
    its shape by 36% of h0.
    """
    kappa = spec.inv_width
    if not grid.L * kappa >= 1.0:
        raise ValueError(f"{key!r} = {spec.h0:g} m is too small for 'grid.L' = {grid.L:g} m: "
                         f"the solitary wave is wider than the domain (L kappa = "
                         f"{grid.L * kappa:.3g}, at least 1 needed)")
    if not kappa * grid.dx <= 1.0:
        raise ValueError(f"'grid.L' = {grid.L:g} m over 'grid.N' = {grid.N} points is too "
                         f"coarse for {key!r} = {spec.h0:g} m: the solitary wave is narrower "
                         f"than a step (kappa dx = {kappa * grid.dx:.3g}, at most 1 allowed)")


def _crest_speed(res, params: PhysicalParams) -> float:
    """The fitted speed of the run's crest, from every sample's crest in one pass.

    Crest positions carry a roundoff of about eps L, so a run whose span
    leaves that above a thousandth of sqrt(g H) cannot resolve a speed.
    """
    if len(res.times) < 2:
        raise ValueError("'scheme.t_end' must be positive: a crest speed needs two samples")
    grid, span = res.grid, res.times[-1] - res.times[0]
    if not span * 1e-3 * params.c0 > sys.float_info.epsilon * grid.L:
        raise ValueError(f"'scheme.t_end' is too short for a crest speed: over a run of "
                         f"{span:.3g} s the crest positions' roundoff passes 1e-3 sqrt(g H)")
    return fit_speed(res.times, crest_position_rows(res.samples[:, 0], grid), grid.L)


def _evolve_to(cfg: ExperimentConfig, initial: WaveField, t_auto: float, *waves):
    """Evolve to scheme.t_end (t_auto if 'auto'): the run and its three files.

    waves are the (spec, key) of the solitary waves the start places.  Once
    the grid is shown to carry the equation's symbols, a wave whose crest is
    past evolve's blow-up limit stops the run at its start, as evolve would
    (BlowUpError), whether or not a grid point samples that crest; every
    other wave must fit the grid (_check_fit).  So a grid too short for its
    symbols and a crest too high for the model are reported as such.
    """
    _symbols(initial.grid, cfg.params, cfg.scheme, False)
    for spec, key in waves:
        if not abs(spec.h0) <= BLOWUP_FACTOR * spec.H:
            raise BlowUpError(initial.t, 1, abs(spec.h0))
        _check_fit(spec, initial.grid, key)
    t_end = t_auto if cfg.t_end_auto else cfg.scheme.t_end
    res = evolve(initial, cfg.params, replace(cfg.scheme, t_end=t_end))
    files = {
        "profile_initial.csv": (emit_profile_csv, initial, cfg.params, cfg.scheme.deriv),
        "profile_final.csv": (emit_profile_csv, res.final, cfg.params, cfg.scheme.deriv),
        "invariants.csv": (emit_invariants_csv, res.invariants),
    }
    return res, files


def scenario_solitary_transit(cfg: ExperimentConfig):
    """One full periodic transit of the solitary wave at its own speed."""
    spec, omega = _solitary_pieces(cfg, cfg.fnum("scenario.h0"))
    field0 = solitary_field(spec, cfg.grid)
    tail = abs(solitary_profile(spec, cfg.grid.L / 2)) / abs(spec.h0)
    res, files = _evolve_to(cfg, field0, cfg.grid.L / omega, (spec, "scenario.h0"))
    shape_err = recentered_shape_error(res.final, field0)
    return {
        "t_end": _fmt(res.config.t_end),
        "speed_formula": _fmt(omega),
        "speed_measured": _fmt(_crest_speed(res, cfg.params)),
        "shape_error": _fmt(shape_err),
        "shape_error_rel_h0": _fmt(shape_err / abs(spec.h0)),
        "tail_rel": _fmt(tail),
        **_drift_entries(res),
        **_step_entries(res),
    }, files


def scenario_two_soliton(cfg: ExperimentConfig):
    """Overtaking of a short solitary wave by a tall one, in the run's frame."""
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
    h = solitary_field(specA, grid, xA).h + solitary_field(specB, grid, xB).h
    res, files = _evolve_to(cfg, WaveField(grid, h), 60.0,
                            (specA, "scenario.h0_tall"), (specB, "scenario.h0_short"))
    final, t_end = res.final, res.config.t_end
    L = grid.L
    wrap = lambda z: (z + L / 2) % L - L / 2

    # locate both crests: global max, then next max away from it
    posA = crest_position(final)
    awayA = np.abs(wrap(x - posA)) > 8.0
    posB = crest_position(final, where=awayA)

    # speeds relative to the run's frame, which moves at sqrt(gH) - sqrt(g/H) alpha
    vA = math.sqrt(params.g / params.H) * (0.5 * hA + frame_alpha(params, cfg.scheme))
    vB = math.sqrt(params.g / params.H) * (0.5 * hB + frame_alpha(params, cfg.scheme))
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


def _gravity(params) -> str:
    """The keys that set the frame speeds of a steepening run, for its refusal."""
    return f"'physical.g' = {params.g!r} m/s^2 and 'physical.H' = {params.H!r} m"


def scenario_steepening(cfg: ExperimentConfig):
    """Analytic verdict per profile width, beside the front-slope change a short run measures.

    The measured change is reported, not checked against the verdict;
    only `stability --cross-check` confirms a verdict by its run.
    """
    params = cfg.params
    hbar = cfg.fnum("scenario.hbar")
    t_check = cfg.fnum("scenario.t_check")
    p_star = steady_inverse_width(hbar, params)
    ratios = cfg.fnum("scenario.p_ratios")
    # a verdict's result key is its ratio at 6 digits, so two alike would lose one
    if len({f"{ratio:.6g}" for ratio in ratios}) < len(ratios):
        raise ValueError("'scenario.p_ratios' must differ in their first 6 significant "
                         f"digits, which name their verdicts, got {cfg.raw['scenario.p_ratios']}")
    # every member is built, and so checked, before the first run
    specs = [DeformationSpec(hbar=hbar, p=ratio * p_star) for ratio in ratios]
    rows = ["# columns=p_ratio,p,verdict,front_slope_change"]
    results: dict[str, str] = {}
    for ratio, spec in zip(ratios, specs):
        verdict = steepening_verdict(spec, params)
        try:
            change = front_slope_change(spec, params, t_check)
        except FrameError as e:
            raise ValueError(f"'scenario.t_check' = {t_check!r} s with {_gravity(params)}: "
                             f"{e}") from None
        rows.append(f"{_fmt(ratio)},{_fmt(spec.p)},{verdict.value},{_fmt(change)}")
        results[f"verdict_{ratio:.6g}"] = verdict.value
    return results, {"steepening.csv": (_write_rows, rows)}


def scenario_moment_conservation(cfg: ExperimentConfig):
    """Invariant drift over a solitary transit (conservation showcase)."""
    spec, omega = _solitary_pieces(cfg, cfg.fnum("scenario.h0"))
    res, files = _evolve_to(cfg, solitary_field(spec, cfg.grid), cfg.grid.L / omega,
                            (spec, "scenario.h0"))
    return ({"t_end": _fmt(res.config.t_end), **_drift_entries(res), **_step_entries(res)},
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
    filtered = cfg.scheme
    grid = PeriodicGrid(L=64.0, N=256)  # parts (a) and (c)
    # the low-pass band of (a) and (c), J modes from the mean up, as evolve steps it
    J = _symbols(grid, params, filtered, True)[0].size
    j = cfg.fnum("scenario.mode_index")
    if not 1 <= j <= J - 1:
        raise ValueError("'scenario.mode_index' must name a mode the filter keeps, "
                         f"1 to {J - 1}, got {j}")
    for key in ("scenario.mode_amp", "scenario.noise_amp"):
        if not (cfg.fnum(key) and math.isfinite(cfg.fnum(key))):
            raise ValueError(f"{key!r} must be nonzero and finite, got {cfg.fnum(key)}")
    # the frequency fit divides by the mode's squared amplitude, the drift by E(0)
    amp = cfg.fnum("scenario.mode_amp") * H
    if not _is_normal(amp * amp):
        raise ValueError("'scenario.mode_amp' must leave (mode_amp*H)**2 a normal float, "
                         f"got {_fmt(amp * amp)}")
    rng = np.random.default_rng(cfg.fnum("seed"))
    noise = cfg.fnum("scenario.noise_amp") * H * rng.standard_normal(grid.N)
    noise -= noise.mean()
    rest = WaveField(grid, np.zeros(grid.N))
    hf = WaveField(grid, irfft(rfft(noise)[:J], grid.N))  # the noise on the band
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
    # part (b)'s band and then its start are built here, so a grid.L too short for
    # the band or the start's slope, or an h0 whose start overflows or starts past
    # evolve's blow-up limit, stops before (a)
    gridS = cfg.grid
    JS = _symbols(gridS, params, schemeS, True)[0].size
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        hs = irfft(rfft(solitary_field(spec, gridS).h)[:JS], gridS.N)
        vs = -omega * diff(hs, gridS.L, 1)
    if not (np.isfinite(hs).all() and np.isfinite(vs).all()):
        raise ValueError(f"'scenario.h0' = {spec.h0} m leaves part (b)'s starting h and "
                         "v = -omega h_x not finite")
    peak = float(np.max(np.abs(hs)))
    if peak > BLOWUP_FACTOR * H:
        raise ValueError(f"'scenario.h0' = {spec.h0} m starts part (b) past the blow-up limit "
                         f"of {BLOWUP_FACTOR:g} H: its low-passed max|h| is {peak:.6g} m")
    _check_fit(spec, gridS)

    # (a) one low linear mode: measured oscillation frequency
    cosk = np.cos(k0 * grid.x)
    h0f = WaveField(grid, amp * cosk)
    # the default sampling is uniform under both integrators, as the fit needs
    res = evolve((h0f, rest), params, replace(filtered, t_end=t10))
    ts = np.array(res.times)
    cs = np.array([2.0 / grid.N * float(np.dot(h, cosk)) for h in res.samples[:, 0]])
    rows = ["# columns=t,mode_amplitude"]
    rows += [f"{_fmt(t)},{_fmt(c)}" for t, c in zip(ts, cs)]
    results["mode_frequency_exact"] = _fmt(om_exact)
    results["mode_frequency_measured"] = _fmt(_mode_frequency(ts, cs))
    results.update(_step_entries(res, "mode_"))

    # (b) right-moving solitary data at the corrected long-wave speed
    resS = evolve((WaveField(gridS, hs), WaveField(gridS, vs)), params, schemeS)
    results["solitary_speed_formula"] = _fmt(omega)
    results["solitary_speed_rayleigh"] = _fmt(rayleigh_speed(g, H, spec.h0))
    results["solitary_speed_measured"] = _fmt(_crest_speed(resS, params))
    results.update(_step_entries(resS, "solitary_"))

    # (c) broadband noise: unfiltered blow-up against the filtered twin
    # dt = None: RK4 at the advisory, which resolves the fastest growth rate
    raw = replace(filtered, dt=None, t_end=2.0, boussinesq_filter=False)
    try:
        resU = evolve((WaveField(grid, noise), rest), params, raw)
        results["unfiltered_blowup_time"] = "none"
        results.update(_step_entries(resU, "unfiltered_"))
    except BlowUpError as e:
        # RK4 retries no step; the run ends in the step that tripped the check
        results["unfiltered_blowup_time"] = _fmt(e.time)
        results.update(unfiltered_integrator=e.integrator, unfiltered_dt=_fmt(e.time / e.step),
                       unfiltered_steps=str(e.step), unfiltered_rejected="0")
    resF = evolve((hf, rest), params, replace(filtered, t_end=1.0))
    drift = float(np.max(np.abs(np.array(resF.energy) - E0))) / abs(E0)
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
        _check_fit(spec, cfg.grid)
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
        initial, t_auto, waves = solitary_field(spec, cfg.grid), cfg.grid.L / speed, [spec]
    else:
        spec, grid = _cnoidal_pieces(cfg, cfg.fnum("scenario.m"))
        initial, t_auto, waves = cnoidal_field(spec, grid, zero_mean=True), 10.0, []
    res, files = _evolve_to(cfg, initial, t_auto, *[(w, "scenario.h0") for w in waves])
    results = {"t_end": _fmt(res.config.t_end), **_drift_entries(res), **_step_entries(res)}
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


# how far, in grid steps, a profile's x may sit from x_j = -L/2 + j L/N of its
# header; emit_profile_csv's x reads back exactly
X_GRID_TOL = 1e-6


def _cmd_invariants(args) -> int:
    meta, x, h = read_profile_csv(args.input)
    missing = [key for key in ("g", "H", "rho", "T", "L", "N") if key not in meta]
    if missing:
        raise ValueError(f"{args.input}: the header lacks "
                         + ", ".join(f"'# {key}='" for key in missing))

    def value(key: str, kind=float):
        try:
            return kind(meta.get(key, "0"))  # of the keys read, only t may be absent
        except ValueError:
            raise ValueError(f"the header's '# {key}={meta[key]}' is not "
                             f"{'an integer' if kind is int else 'a number'}") from None

    try:
        params = PhysicalParams(g=value("g"), H=value("H"), rho=value("rho"), T=value("T"))
        grid = PeriodicGrid(L=value("L"), N=value("N", int))
        t = value("t")
    except ValueError as e:
        raise ValueError(f"{args.input}: {e}") from None
    if x.size != grid.N:
        raise ValueError(f"{args.input}: {x.size} x,h rows, but the header's N is {grid.N}")
    # the invariants are integrals over the header's grid, so x must be that grid
    off = np.flatnonzero(~(np.abs(x - grid.x) <= X_GRID_TOL * grid.dx))
    if off.size:
        j = off[0]
        raise ValueError(f"{args.input}: x_{j} = {_fmt(x[j])} is more than {X_GRID_TOL:g} dx "
                         f"from the header's grid point -L/2 + {j} L/N = {_fmt(grid.x[j])}")
    bad = np.flatnonzero(~np.isfinite(h))
    if bad.size:
        raise ValueError(f"{args.input}: h_{bad[0]} = {_fmt(h[bad[0]])} is not finite")
    field = WaveField(grid, h, t=t)
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
    try:
        verdict = steepening_verdict(DeformationSpec(hbar=args.hbar, p=p), params,
                                     cross_check=args.cross_check)
    except FrameError as e:
        raise ValueError(f"{_gravity(params)}: {e}") from None
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
