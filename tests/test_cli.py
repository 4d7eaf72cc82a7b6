import errno
import filecmp
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from longwave import (
    WATER,
    PeriodicGrid,
    PhysicalParams,
    SolitarySpec,
    WaveField,
    compute_invariants,
    critical_depth,
    dispersion_sigma,
    solitary_field,
    solitary_profile,
    solitary_speed,
)
from longwave import SchemeConfig, cli, conservation_drift, evolve, stable_dt
from longwave.cli import (
    COMMANDS,
    EXIT_BLOWUP,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    KINDS,
    emit_invariants_csv,
    emit_profile_csv,
    main,
    parse_config_file,
    read_profile_csv,
    resolve_config,
)
from longwave.invariants import InvariantSet


class TestProfileCsv:
    def test_zero_field_rows(self, tmp_path, params):
        grid = PeriodicGrid(L=4.0, N=8)
        path = tmp_path / "p.csv"
        emit_profile_csv(WaveField(grid, np.zeros(8)), params, "spectral", path)
        lines = path.read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert len(data) == 8
        assert all(l.split(",")[1] == "0" for l in data)
        assert "\r" not in path.read_text()

    def test_round_trip_bit_identical(self, tmp_path, params):
        rng = np.random.default_rng(12)
        grid = PeriodicGrid(L=7.3, N=64)
        h = rng.standard_normal(64) * 0.123456789
        field = WaveField(grid, h, t=0.5)
        path = tmp_path / "p.csv"
        emit_profile_csv(field, params, "spectral", path)
        meta, x, h2 = read_profile_csv(path)
        assert np.array_equal(h2, h)
        assert np.array_equal(x, grid.x)
        assert meta["scheme"] == "spectral"
        assert float(meta["t"]) == 0.5

    @pytest.mark.parametrize("N", [256, 4096])
    def test_random_bit_patterns_write_and_read_exactly(self, tmp_path, params, N):
        # every finite double, subnormals and extremes included: the rows are
        # the per-value _fmt text and read back bit for bit
        bits = np.random.default_rng(N).integers(0, 2 ** 64, size=4 * N, dtype=np.uint64)
        pool = bits.view(np.float64)
        h = pool[np.isfinite(pool)][:N].copy()
        h[:3] = [-0.0, 5e-324, 1.7976931348623157e308]
        grid = PeriodicGrid(L=7.3, N=N)
        field = WaveField(grid, h, t=0.25)
        path = tmp_path / "p.csv"
        emit_profile_csv(field, params, "spectral", path)
        text = path.read_text(encoding="utf-8")
        rows = [f"{cli._fmt(a)},{cli._fmt(b)}" for a, b in zip(grid.x, h)]
        assert text.endswith("# columns=x,h\n" + "\n".join(rows) + "\n")
        _, x, h2 = read_profile_csv(path)
        assert np.array_equal(h2.view(np.uint64), h.view(np.uint64))
        assert np.array_equal(x.view(np.uint64), grid.x.view(np.uint64))

    def test_header_is_the_leading_comment_block(self, tmp_path, params):
        # a '# key=value' line below the first x,h row is a comment and sets no
        # key; blank lines, in the header or among the rows, and CRLF endings read
        grid = PeriodicGrid(L=7.3, N=16)
        h = np.random.default_rng(3).standard_normal(16)
        path = tmp_path / "p.csv"
        emit_profile_csv(WaveField(grid, h, t=0.5), params, "spectral", path)
        lines = path.read_text().splitlines()
        lines[12:12] = ["", "# late=yes", "# N=99", ""]
        lines.insert(3, "")
        path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
        meta, x, h2 = read_profile_csv(path)
        assert "late" not in meta and meta["N"] == "16" and meta["columns"] == "x,h"
        assert np.array_equal(x, grid.x) and np.array_equal(h2, h)

    def test_header_sigma_consistent(self, tmp_path, water):
        grid = PeriodicGrid(L=4.0, N=8)
        path = tmp_path / "p.csv"
        emit_profile_csv(WaveField(grid, np.zeros(8)), water, "analytic", path)
        meta, _, _ = read_profile_csv(path)
        assert float(meta["sigma"]) == dispersion_sigma(water)
        assert meta["N"] == "8"


class TestInvariantsCsv:
    def test_single_row_and_empty_cell(self, tmp_path):
        inv = InvariantSet(Q=0.0, E=0.0, M=0.0, Hfun=0.0, xg_dot=None, t=0.0)
        path = tmp_path / "inv.csv"
        emit_invariants_csv([inv], path)
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert len(lines) == 1
        assert lines[0] == "0,0,0,0,0,"

    def test_zero_field_run_rows(self, tmp_path, params):
        grid = PeriodicGrid(L=10.0, N=16)
        series = [compute_invariants(WaveField(grid, np.zeros(16), t=t), params)
                  for t in (0.0, 1.0, 2.0)]
        path = tmp_path / "inv.csv"
        emit_invariants_csv(series, path)
        rows = [l.split(",") for l in path.read_text().splitlines()
                if not l.startswith("#")]
        assert len(rows) == 3
        assert all(r[1] == r[2] == r[3] == r[4] == "0" for r in rows)


class TestConfigResolution:
    def test_file_and_overrides(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("# comment\nphysical.H=2.0\ngrid.N = 64\n")
        cfg = resolve_config("solitary_transit", str(cfgfile),
                             ["grid.N=128", "scenario.h0=0.05"], str(tmp_path))
        assert cfg.params.H == 2.0
        assert cfg.grid.N == 128  # --set beats the file
        assert cfg.fnum("scenario.h0") == 0.05

    def test_bad_values(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("grid.N\n")
        with pytest.raises(ValueError):
            parse_config_file(bad)
        with pytest.raises(ValueError):
            resolve_config("solitary_transit", None, ["grid.N=abc"], None)
        with pytest.raises(ValueError):
            resolve_config("solitary_transit", None, ["badpair"], None)

    def test_unknown_scenario_lists_names(self, tmp_path):
        with pytest.raises(ValueError, match="solitary_transit"):
            resolve_config("not_a_thing", None, [], str(tmp_path))


def _manifest(out):
    return dict(l.split("=", 1) for l in (out / "manifest.txt").read_text().splitlines())


def _command(name):
    """The argv that runs the command `name` (a COMMANDS key, or a command
    without its --wave or --ic choice) with every flag it requires."""
    if name == "stability":
        return ["stability", "--hbar", "0.1", "--p-ratio", "1"]
    if name.partition(" ")[0] in ("analytic", "evolve"):
        return name.split()
    return ["scenario", name]


def _longwave_process(*argv):
    """`python -m longwave *argv` in a child process; a run past 60 s fails the test."""
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "longwave", *argv],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)


def _config_keys(manifest):
    return {k[len("config."):] for k in manifest if k.startswith("config.")}


class TestConfigTable:
    def test_every_key_read_has_a_kind_and_every_kind_is_read(self):
        read = set().union(*COMMANDS.values())
        assert read - set(KINDS) == set()
        assert set(KINDS) - read == set()  # a key no command reads is dead

    def test_values_parsed_once_by_kind(self):
        cfg = resolve_config("factorization", None, [], None)
        assert cfg.fnum("scenario.n_list") == [128, 256, 512, 1024]
        assert all(type(n) is int for n in cfg.fnum("scenario.n_list"))
        cfg = resolve_config("evolve --ic solitary", None, ["scheme.dt=0.01"], None)
        assert cfg.fnum("scheme.dt") == cfg.scheme.dt == 0.01
        assert cfg.fnum("scheme.t_end") is None and cfg.t_end_auto
        assert cfg.scenario == "evolve"  # the manifest's scenario line
        cnoidal = resolve_config("analytic --wave cnoidal", None, [], None)
        assert cnoidal.fnum("scenario.n_waves") == 1 and cnoidal.grid is None
        assert resolve_config("evolve --ic cnoidal", None, [], None).fnum("scenario.n_waves") == 4

    @pytest.mark.parametrize("key", sorted(set(KINDS) - {"output_dir"}))
    def test_malformed_value_exits_before_output(self, tmp_path, capsys, key):
        out = tmp_path / "out"
        rc = main(["scenario", "cnoidal_family", "--out", str(out), "--set", f"{key}=abc"])
        assert rc == EXIT_USAGE
        assert "abc" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, key", [
        (command, key) for command, reads in COMMANDS.items()
        for key in sorted(KINDS) if key not in reads])
    def test_set_key_the_command_does_not_read_exits_naming_it(
            self, tmp_path, capsys, monkeypatch, command, key):
        value = next(reads[key] for reads in COMMANDS.values() if key in reads)
        monkeypatch.chdir(tmp_path)  # the default output directory lands here
        assert main([*_command(command), "--set", f"{key}={value}"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{command} does not read" in err and f"{key}={value}" in err
        assert not any(tmp_path.iterdir())

    def test_one_config_file_serves_commands_that_read_part_of_it(self, tmp_path, capsys):
        shared = tmp_path / "shared.cfg"
        shared.write_text("grid.N=128\nseed=7\nscheme.deriv=centered4\n")
        steep = ["scenario", "steepening", "--set", "scenario.p_ratios=0.9,1.1",
                 "--set", "scenario.t_check=0.1"]
        assert main([*steep, "--config", str(shared), "--out", str(tmp_path / "st")]) == EXIT_OK
        assert main([*steep, "--out", str(tmp_path / "plain")]) == EXIT_OK
        # steepening reads none of the file's keys: the run and its record are unchanged
        for name in ("steepening.csv", "manifest.txt"):
            assert filecmp.cmp(tmp_path / "st" / name, tmp_path / "plain" / name,
                               shallow=False), name
        assert _config_keys(_manifest(tmp_path / "st")) == set(COMMANDS["steepening"]) - {
            "output_dir"}
        assert main(["scenario", "solitary_transit", "--config", str(shared),
                     "--out", str(tmp_path / "tr"), "--set", "grid.L=60",
                     "--set", "scheme.t_end=0.5"]) == EXIT_OK
        transit = _manifest(tmp_path / "tr")
        assert _config_keys(transit) == set(COMMANDS["solitary_transit"]) - {"output_dir"}
        assert transit["config.grid.N"] == "128"
        assert transit["config.scheme.deriv"] == "centered4"
        meta, _, _ = read_profile_csv(tmp_path / "tr" / "profile_final.csv")
        assert (meta["N"], meta["scheme"]) == ("128", "centered4")
        capsys.readouterr()
        shared.write_text("grid.N=128\nseed=7\nscheme.driv=centered4\n")
        out = tmp_path / "typo"
        assert main([*steep, "--config", str(shared), "--out", str(out)]) == EXIT_USAGE
        assert "did you mean 'scheme.deriv'?" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("length", ["0", "-5", "nan"])
    def test_factorization_rejects_a_least_length_that_is_not_positive(
            self, tmp_path, capsys, length):
        # factorization reads grid.L alone, so no grid checks it
        out = tmp_path / "fa"
        rc = main(["scenario", "factorization", "--out", str(out), "--set", f"grid.L={length}"])
        assert rc == EXIT_USAGE
        assert "'grid.L' must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_fractional_grid_list_rejected(self, tmp_path, capsys):
        out = tmp_path / "fa"
        rc = main(["scenario", "factorization", "--out", str(out),
                   "--set", "scenario.n_list=64.7,128"])
        assert rc == EXIT_USAGE
        assert "'scenario.n_list' must be a comma-separated list of integers" in (
            capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("scenario, key", [
        ("factorization", "scenario.n_list"),
        ("cnoidal_family", "scenario.m_list"),
        ("steepening", "scenario.p_ratios"),
    ])
    @pytest.mark.parametrize("value", ["", " , "])
    def test_empty_sweep_list_exits_before_output(self, tmp_path, capsys, scenario, key,
                                                  value):
        out = tmp_path / "out"
        rc = main(["scenario", scenario, "--out", str(out), "--set", f"{key}={value}"])
        assert rc == EXIT_USAGE
        assert f"{key!r} must be a comma-separated list" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scenario, settings, message", [
        ("cnoidal_family", ["grid.N=64", "scenario.m_list=0.5,1.5"],
         "roots k and l must be positive"),
        ("steepening", ["scenario.p_ratios=0.9,-1"], "hbar and p must be positive"),
        ("factorization", ["scenario.n_list=64,0"], "N must be even and >= 8"),
    ])
    def test_out_of_range_sweep_member_stops_the_sweep_before_it_runs(
            self, tmp_path, capsys, monkeypatch, scenario, settings, message):
        # every member is built, and so checked, before the first one is
        # computed or written
        def member_ran(*args, **kwargs):
            raise AssertionError("a sweep member ran before the sweep was checked")

        for name in ("emit_profile_csv", "front_slope_change", "factorization_residual"):
            monkeypatch.setattr(cli, name, member_ran)
        out = tmp_path / "out"
        rc = main(["scenario", scenario, "--out", str(out),
                   *[arg for setting in settings for arg in ("--set", setting)]])
        assert rc == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_moment_conservation_runs_the_recorded_frame(self, tmp_path, params):
        sets = ["--set", "grid.N=128", "--set", "grid.L=60", "--set", "scheme.t_end=2.0"]
        moving = ["--set", "scheme.frame=moving", "--set", "scheme.alpha=0.3"]
        for name, extra in (("fixed", []), ("moving", moving)):
            rc = main(["scenario", "moment_conservation", "--out", str(tmp_path / name),
                       *sets, *extra])
            assert rc == EXIT_OK
        fixed, moved = _manifest(tmp_path / "fixed"), _manifest(tmp_path / "moving")
        assert moved["config.scheme.frame"] == "moving"
        # both frames step in the wave's own, so they record one drift; the
        # frame shows in the centroid velocity of each invariants row
        assert moved["result.step_alpha"] == fixed["result.step_alpha"]
        assert moved["result.drift_E"] == fixed["result.drift_E"]
        rows = [(tmp_path / name / "invariants.csv").read_text().splitlines()[1:]
                for name in ("fixed", "moving")]
        assert all(a.rsplit(",", 1)[1] != b.rsplit(",", 1)[1] for a, b in zip(*rows))
        # the recorded drift is the one of a moving-frame run of the library
        spec = SolitarySpec(0.1, dispersion_sigma(params), params.H, params.g)
        res = evolve(solitary_field(spec, PeriodicGrid(L=60.0, N=128)), params,
                     SchemeConfig(t_end=2.0, frame="moving", alpha=0.3))
        drift_E = conservation_drift(res.invariants)["E"]
        assert moved["result.drift_E"] == format(drift_E, ".17g")

    def test_two_soliton_runs_in_the_fixed_frame(self, tmp_path):
        # the reference speeds sqrt(g/H)(h0/2 + alpha) hold at the fixed frame's
        # alpha = H too, so both frames measure the same phase shifts
        runs = {}
        for frame in ("moving", "fixed"):
            out = tmp_path / frame
            rc = main(["scenario", "two_soliton", "--out", str(out),
                       "--set", f"scheme.frame={frame}"])
            assert rc == EXIT_OK
            runs[frame] = _manifest(out)
        moving, fixed = runs["moving"], runs["fixed"]
        assert fixed["config.scheme.frame"] == "fixed"
        assert fixed["result.steps"] == moving["result.steps"]
        tall, short = (float(fixed[f"result.phase_shift_{w}"]) for w in ("tall", "short"))
        assert 1.7 <= tall <= 3.2 and -5.0 <= short <= -2.7  # criterion 07's ranges
        for w in ("tall", "short"):
            key = f"result.phase_shift_{w}"
            assert abs(float(fixed[key]) - float(moving[key])) <= 5e-3

    def test_evolve_manifest_reproduces_cnoidal_run(self, tmp_path):
        first = tmp_path / "c1"
        rc = main(["evolve", "--ic", "cnoidal", "--out", str(first),
                   "--set", "grid.N=128", "--set", "scheme.t_end=2.0"])
        assert rc == EXIT_OK
        manifest = _manifest(first)
        assert manifest["ic"] == "cnoidal"
        for key, value in (("kl_sum", "0.2"), ("m", "0.5"), ("n_waves", "4")):
            assert manifest[f"config.scenario.{key}"] == value
        # the domain is n_waves wavelengths and the wave has no h0
        assert "config.grid.L" not in manifest and "config.scenario.h0" not in manifest
        # the mass of a zero-mean field moves by roundoff only
        assert float(manifest["result.drift_Q"]) <= 1e-12
        again = ["evolve", "--ic", manifest["ic"], "--out", str(tmp_path / "c2")]
        for key, value in manifest.items():
            if key.startswith("config."):
                again += ["--set", f"{key[7:]}={value}"]
        assert main(again) == EXIT_OK
        for name in ("manifest.txt", "profile_final.csv", "invariants.csv"):
            assert filecmp.cmp(first / name, tmp_path / "c2" / name, shallow=False), name


class TestDeterminism:
    def test_same_config_same_bytes(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            rc = main(["scenario", "cnoidal_family", "--out", str(tmp_path / name),
                       "--set", "grid.N=64", "--set", "scenario.m_list=0.5,0.9"])
            assert rc == EXIT_OK
            outs.append(tmp_path / name)
        for f in ("manifest.txt", "family.csv", "profile_00.csv", "profile_01.csv"):
            assert filecmp.cmp(outs[0] / f, outs[1] / f, shallow=False), f


class TestExitCodes:
    def test_module_entry_point(self):
        done = _longwave_process("--help")
        assert done.returncode == EXIT_OK, done.stderr
        assert "usage: longwave" in done.stdout

    def test_usage_error(self, tmp_path, capsys):
        rc = main(["scenario", "nosuch", "--out", str(tmp_path)])
        assert rc == EXIT_USAGE
        assert "known scenarios" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analytic", "evolve", "stability"])
    def test_other_command_is_not_a_scenario(self, tmp_path, capsys, command):
        assert main(["scenario", command, "--out", str(tmp_path / "o")]) == EXIT_USAGE
        assert f"run 'longwave {command}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_blowup_exit(self, tmp_path, capsys):
        rc = main(["evolve", "--ic", "solitary", "--out", str(tmp_path / "o"),
                   "--set", "grid.N=64", "--set", "grid.L=60",
                   "--set", "scheme.dt=5.0", "--set", "scheme.t_end=50.0"])
        assert rc == EXIT_BLOWUP
        assert "blew up" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["evolve", "--set", "grid.N=128", "--set", "grid.L=60", "--set", "scenario.h0=1e200"],
        ["evolve", "--set", "grid.N=128", "--set", "grid.L=60", "--set", "scenario.h0=1e150"],
        ["scenario", "steepening", "--set", "scenario.hbar=1e300",
         "--set", "scenario.p_ratios=0.9"],
    ], ids=["h0_1e200", "h0_1e150", "steepening_1e300"])
    def test_state_too_large_to_size_a_step_blows_up(self, tmp_path, argv):
        # evolve checks the start before it builds anything, so the run stops
        # with exit 3 before any norm of it can overflow (a subprocess, so a
        # spin fails this test instead of hanging the suite)
        out = tmp_path / "o"
        done = _longwave_process(*argv, "--out", str(out))
        assert done.returncode == EXIT_BLOWUP, done.stderr
        assert "blew up at t = 0 s (step 1" in done.stderr
        assert not out.exists()

    def test_blowup_stderr_names_step_and_amplitude(self, tmp_path, capsys):
        rc = main(["evolve", "--ic", "solitary", "--out", str(tmp_path / "o"),
                   "--set", "grid.N=64", "--set", "grid.L=60",
                   "--set", "scheme.dt=5.0", "--set", "scheme.t_end=50.0"])
        assert rc == EXIT_BLOWUP
        err = capsys.readouterr().err
        assert "(step 1, max|h| = " in err

    def test_unknown_key_rejected_with_suggestion(self, tmp_path, capsys):
        assert self._analytic_with(tmp_path, "grid.n=64") == EXIT_USAGE
        err = capsys.readouterr().err
        assert "unknown configuration key 'grid.n'" in err
        assert "did you mean 'grid.N'?" in err
        assert not (tmp_path / "profile.csv").exists()
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("scenario.ho=0.1\n")
        with pytest.raises(ValueError, match="did you mean 'scenario.h0'"):
            resolve_config("solitary_transit", str(cfgfile), [], None)
        with pytest.raises(ValueError, match="unknown configuration key 'zzz'$"):
            resolve_config("solitary_transit", None, ["zzz=1"], None)
        # a key that another command reads is rejected, naming this one and its choice
        with pytest.raises(ValueError,
                           match="evolve --ic cnoidal does not read 'scenario.mode_amp'"):
            resolve_config("evolve --ic cnoidal", None,
                           ["scenario.m=0.3", "scenario.mode_amp=1e-9"], None)

    def _analytic_with(self, tmp_path, setting):
        return main(["analytic", "--wave", "solitary", "--out", str(tmp_path),
                     "--set", "grid.L=60", "--set", setting])

    def test_fractional_grid_size_rejected(self, tmp_path, capsys):
        assert self._analytic_with(tmp_path, "grid.N=100.5") == EXIT_USAGE
        assert "'grid.N' must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "profile.csv").exists()

    def test_fractional_seed_rejected(self, tmp_path, capsys):
        assert self._analytic_with(tmp_path, "seed=1.5") == EXIT_USAGE
        assert "'seed' must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "profile.csv").exists()

    def test_io_error(self, tmp_path, capsys):
        block = tmp_path / "blocker"
        block.write_text("i am a file")
        rc = main(["scenario", "cnoidal_family", "--out", str(block / "sub"),
                   "--set", "grid.N=64", "--set", "scenario.m_list=0.5"])
        assert rc == EXIT_IO

    @pytest.mark.parametrize("argv", [
        ["invariants", "--input", "p.csv", "--config", "p.csv"],
        ["invariants", "--input", "p.csv", "--set", "physical.H=2"],
        ["stability", "--hbar", "0.1", "--p-ratio", "1", "--out", "out"],
    ], ids=["invariants_config", "invariants_set", "stability_out"])
    def test_flag_the_command_does_not_read_is_rejected(self, tmp_path, capsys, monkeypatch,
                                                        params, argv):
        # invariants takes H and the grid from the profile's header, and
        # stability writes nothing
        monkeypatch.chdir(tmp_path)
        emit_profile_csv(WaveField(PeriodicGrid(L=4.0, N=8), np.zeros(8)), params, "analytic",
                         tmp_path / "p.csv")
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err
        assert [f.name for f in tmp_path.iterdir()] == ["p.csv"]


class TestSubcommands:
    def test_analytic_solitary(self, tmp_path, capsys):
        rc = main(["analytic", "--wave", "solitary", "--out", str(tmp_path),
                   "--set", "grid.N=64", "--set", "grid.L=60",
                   "--set", "scenario.h0=0.2"])
        assert rc == EXIT_OK
        meta, x, h = read_profile_csv(tmp_path / "profile.csv")
        spec = SolitarySpec(0.2, 1.0 / 3.0, 1.0, 9.81)
        field = solitary_field(spec, PeriodicGrid(L=60.0, N=64))
        assert np.array_equal(h, field.h)
        out = capsys.readouterr().out
        assert "speed" in out

    def test_analytic_cnoidal_phase(self, tmp_path):
        rc = main(["analytic", "--wave", "cnoidal", "--phase", "2.0",
                   "--out", str(tmp_path), "--set", "grid.N=64",
                   "--set", "scenario.m=0.5"])
        assert rc == EXIT_OK
        _, x, h = read_profile_csv(tmp_path / "profile.csv")
        assert abs(x[np.argmax(h)] - 2.0) <= x[1] - x[0]

    def test_analytic_phase_is_taken_modulo_the_domain(self, tmp_path):
        # L = 120 at the defaults: a crest at 100 is the crest at -20
        for name, phase in (("ahead", "100"), ("behind", "-20")):
            assert main(["analytic", f"--phase={phase}", "--out", str(tmp_path / name)]) == EXIT_OK
        _, _, ahead = read_profile_csv(tmp_path / "ahead" / "profile.csv")
        _, _, behind = read_profile_csv(tmp_path / "behind" / "profile.csv")
        assert np.array_equal(ahead, behind)

    def test_analytic_crest_near_the_seam_keeps_its_tail_across_it(self, tmp_path):
        # a crest at 59 is 1 m from x = -60 across the seam, not 119 m
        assert main(["analytic", "--phase", "59", "--out", str(tmp_path)]) == EXIT_OK
        _, x, h = read_profile_csv(tmp_path / "profile.csv")
        assert x[0] == -60.0
        spec = SolitarySpec(0.1, 1.0 / 3.0, 1.0, 9.81)
        assert abs(h[0] - solitary_profile(spec, 1.0)) <= 1e-15

    def test_invariants_subcommand(self, tmp_path, capsys, params):
        grid = PeriodicGrid(L=60.0, N=64)
        spec = SolitarySpec(0.2, 1.0 / 3.0, 1.0, 9.81)
        field = solitary_field(spec, grid)
        emit_profile_csv(field, params, "analytic", tmp_path / "p.csv")
        rc = main(["invariants", "--input", str(tmp_path / "p.csv"),
                   "--out", str(tmp_path / "inv.csv")])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        inv = compute_invariants(field, params)
        printed_q = [l for l in out.splitlines() if l.startswith("Q =")][0]
        assert float(printed_q.split("=")[1]) == pytest.approx(inv.Q, rel=1e-15)
        assert (tmp_path / "inv.csv").exists()

    def test_invariants_subcommand_names_the_header_key_a_profile_lacks(self, tmp_path, capsys,
                                                                        params):
        path = tmp_path / "p.csv"
        emit_profile_csv(WaveField(PeriodicGrid(L=4.0, N=8), np.zeros(8)), params, "analytic",
                         path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(line for line in lines if not line.startswith("# g=")))
        assert main(["invariants", "--input", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: {path}: the header lacks '# g='\n"

    @pytest.mark.parametrize("mangle, message", [
        (lambda head, rows: head, "no x,h rows below the '#' header"),
        (lambda head, rows: head + [r.split(",")[1] for r in rows],
         "x,h rows need 2 columns, got 1"),
        (lambda head, rows: head + [f"{r},0" for r in rows], "x,h rows need 2 columns, got 3"),
        (lambda head, rows: head + rows[:10], "10 x,h rows, but the header's N is 64"),
        (lambda head, rows: head + rows[:2] + ["-28.125,abc"] + rows[3:],
         "could not convert string 'abc' to float64"),
        # an analytic profile moved 1000 m along x: h alone would give its invariants
        (lambda head, rows: head + [f"{float(x) + 1000:.17g},{h}"
                                    for x, h in (r.split(",") for r in rows)],
         "x_0 = 970 is more than 1e-06 dx from the header's grid point -L/2 + 0 L/N = -30"),
        # the lone surrogate \udcc0 is written as the byte 0xc0, which is not UTF-8
        (lambda head, rows: head + rows[:2] + ["-28.125,\udcc0"] + rows[3:],
         "line 13 is not UTF-8 text: 'utf-8' codec can't decode byte 0xc0"),
        (lambda head, rows: ["# N=abc" if line.startswith("# N=") else line for line in head]
         + rows, "the header's '# N=abc' is not an integer"),
        (lambda head, rows: ["# g=-9.81" if line.startswith("# g=") else line for line in head]
         + rows, "g must be positive and finite, got -9.81"),
        (lambda head, rows: head + rows[:2] + ["-28.125,nan"] + rows[3:], "h_2 = nan is not finite"),
    ], ids=["header_only", "one_column", "three_columns", "row_count", "unparsable_cell",
            "shifted_x", "not_utf8", "unparsable_header", "header_out_of_range",
            "non_finite_h"])
    def test_invariants_subcommand_names_the_file_and_what_is_wrong(self, tmp_path, capsys,
                                                                    params, mangle, message):
        path = tmp_path / "p.csv"
        field = solitary_field(SolitarySpec(0.2, 1.0 / 3.0, 1.0, 9.81), PeriodicGrid(L=60.0, N=64))
        emit_profile_csv(field, params, "analytic", path)
        lines = path.read_text().splitlines()
        head, rows = lines[:10], lines[10:]
        text = "".join(f"{line}\n" for line in mangle(head, rows))
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        out = tmp_path / "inv.csv"
        assert main(["invariants", "--input", str(path), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {path}: ") and message in err
        assert len(err.splitlines()) == 1 and not out.exists()

    @pytest.mark.parametrize("shift, code", [(0.9e-6, EXIT_OK), (1.1e-6, EXIT_USAGE)])
    def test_invariants_subcommand_takes_x_within_its_tolerance_of_the_grid(
            self, tmp_path, capsys, params, shift, code):
        grid = PeriodicGrid(L=60.0, N=64)
        path = tmp_path / "p.csv"
        emit_profile_csv(WaveField(grid, np.zeros(64)), params, "analytic", path)
        lines = path.read_text().splitlines()
        x4 = float(grid.x[4] + shift * grid.dx)
        lines[14] = f"{x4!r},0"
        path.write_text("".join(f"{line}\n" for line in lines))
        assert main(["invariants", "--input", str(path)]) == code
        if code == EXIT_USAGE:
            assert f"x_4 = {cli._fmt(x4)} is more than 1e-06 dx" in capsys.readouterr().err

    def test_invariants_subcommand_at_the_critical_depth(self, tmp_path, capsys):
        # sigma = 0: no dispersion and no stability moment, reported as a usage error
        params = PhysicalParams(H=critical_depth(WATER), T=WATER.T)
        grid = PeriodicGrid(L=1.0, N=32)
        field = WaveField(grid, 1e-4 * np.cos(2 * np.pi * grid.x / grid.L))
        emit_profile_csv(field, params, "analytic", tmp_path / "p.csv")
        assert main(["invariants", "--input", str(tmp_path / "p.csv")]) == EXIT_USAGE
        assert "sigma = 0" in capsys.readouterr().err

    def test_stability_subcommand(self, capsys):
        rc = main(["stability", "--hbar", "0.1", "--p-ratio", "0.9"])
        assert rc == EXIT_OK
        assert "steepens_in_front" in capsys.readouterr().out
        rc = main(["stability", "--hbar", "0.1", "--p-ratio", "1.0"])
        assert rc == EXIT_OK
        assert "verdict = steady" in capsys.readouterr().out

    def test_evolve_subcommand_and_manifest(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["evolve", "--ic", "solitary", "--out", str(out),
                   "--set", "grid.N=128", "--set", "grid.L=60",
                   "--set", "scenario.h0=0.2", "--set", "scheme.t_end=1.0"])
        assert rc == EXIT_OK
        manifest = dict(l.split("=", 1) for l in
                        (out / "manifest.txt").read_text().splitlines())
        assert manifest["config.grid.N"] == "128"
        assert "result.crest_speed" in manifest
        assert float(manifest["result.drift_Q"]) < 1e-10
        assert (out / "invariants.csv").exists()
        assert (out / "profile_final.csv").exists()

    def test_evolve_manifest_records_integrator(self, tmp_path):
        runs = {}
        for name, extra in (("auto", []), ("fixed", ["--set", "scheme.dt=0.001"])):
            rc = main(["evolve", "--ic", "solitary", "--out", str(tmp_path / name),
                       "--set", "grid.N=128", "--set", "grid.L=60",
                       "--set", "scheme.t_end=0.5", *extra])
            assert rc == EXIT_OK
            runs[name] = dict(l.split("=", 1) for l in
                              (tmp_path / name / "manifest.txt").read_text().splitlines())
        assert runs["auto"]["result.integrator"] == "etdrk4"
        assert runs["fixed"]["result.integrator"] == "rk4"
        assert runs["fixed"]["result.steps"] == "500"
        for m in runs.values():
            assert int(m["result.steps"]) * float(m["result.dt"]) == pytest.approx(0.5)
        # the explicit step moves the 2/3-rule band, the modes below N/3; the
        # auto step at most those
        assert runs["fixed"]["result.band_min"] == runs["fixed"]["result.band_max"] == "43"
        assert 0 < int(runs["auto"]["result.band_min"]) <= int(runs["auto"]["result.band_max"]) <= 43

    def test_manifest_records_rejected_steps(self, tmp_path):
        for name, extra in (("auto", []), ("fixed", ["--set", "scheme.dt=0.01"])):
            rc = main(["scenario", "solitary_transit", "--out", str(tmp_path / name),
                       "--set", "grid.N=128", "--set", "grid.L=60",
                       "--set", "scheme.t_end=0.5", *extra])
            assert rc == EXIT_OK
            assert _manifest(tmp_path / name)["result.rejected"] == "0"

    @pytest.mark.parametrize("argv", [
        ["evolve"], ["evolve", "--ic", "solitary"], ["scenario", "solitary_transit"]])
    def test_zero_length_run_has_no_crest_speed(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        rc = main([*argv, "--out", str(out), "--set", "grid.N=64", "--set", "scheme.t_end=0"])
        assert rc == EXIT_USAGE
        assert "'scheme.t_end' must be positive: a crest speed needs two samples" in (
            capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["evolve", "--ic", "solitary"],
                                      ["scenario", "solitary_transit"]])
    def test_crest_speed_at_a_subnormal_gravity_is_the_formula(self, tmp_path, argv):
        # a transit at g = 1e-320 lasts about 1e162 s; the fit must not overflow
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out), "--set", "grid.N=256",
                     "--set", "physical.g=1e-320"]) == EXIT_OK
        manifest = _manifest(out)
        speed = float(manifest.get("result.speed_measured", manifest.get("result.crest_speed")))
        formula = solitary_speed(SolitarySpec(h0=0.1, sigma=1.0 / 3.0, H=1.0, g=1e-320))
        assert speed == pytest.approx(formula, rel=1e-2)

    def test_crest_at_rest_in_its_frame_has_zero_speed(self, tmp_path):
        # the moving frame at alpha = -h0/2 carries the solitary wave with it
        out = tmp_path / "out"
        assert main(["evolve", "--ic", "solitary", "--out", str(out), "--set", "grid.N=128",
                     "--set", "grid.L=60", "--set", "scheme.t_end=2.0",
                     "--set", "scheme.frame=moving", "--set", "scheme.alpha=-0.05"]) == EXIT_OK
        assert abs(float(_manifest(out)["result.crest_speed"])) < 1e-6

    def test_evolve_centered4_passthrough(self, tmp_path):
        out = tmp_path / "run4"
        rc = main(["evolve", "--ic", "solitary", "--out", str(out),
                   "--set", "grid.N=256", "--set", "grid.L=60",
                   "--set", "scenario.h0=0.2", "--set", "scheme.t_end=1.0",
                   "--set", "scheme.deriv=centered4"])
        assert rc == EXIT_OK
        meta, _, _ = read_profile_csv(out / "profile_final.csv")
        assert meta["scheme"] == "centered4"
        manifest = dict(l.split("=", 1) for l in
                        (out / "manifest.txt").read_text().splitlines())
        speed = float(manifest["result.crest_speed"])
        assert speed == pytest.approx(math.sqrt(9.81) * 1.1, rel=1e-3)

    def test_evolve_cnoidal_ic(self, tmp_path):
        out = tmp_path / "runc"
        rc = main(["evolve", "--ic", "cnoidal", "--out", str(out),
                   "--set", "grid.N=128", "--set", "scenario.m=0.5",
                   "--set", "scenario.n_waves=4", "--set", "scheme.t_end=2.0"])
        assert rc == EXIT_OK
        manifest = dict(l.split("=", 1) for l in
                        (out / "manifest.txt").read_text().splitlines())
        # multi-crest fields get no crest-speed entry (tracking is ambiguous)
        assert "result.crest_speed" not in manifest
        assert float(manifest["result.drift_E"]) < 1e-8


class TestScenarioSmoke:
    def test_two_soliton_short(self, tmp_path):
        # shortened, coarse variant: exercises the full pipeline only
        rc = main(["scenario", "two_soliton", "--out", str(tmp_path / "ts"),
                   "--set", "scheme.t_end=2.0", "--set", "grid.N=128"])
        assert rc == EXIT_OK
        manifest = (tmp_path / "ts" / "manifest.txt").read_text()
        assert "result.phase_shift_tall" in manifest

    def test_two_soliton_frame_speed_accounting(self, tmp_path):
        # before the waves meet, any frame parameter must leave the
        # free-flight phase shifts at zero
        rc = main(["scenario", "two_soliton", "--out", str(tmp_path / "tf"),
                   "--set", "scheme.t_end=2.0", "--set", "grid.N=256",
                   "--set", "scheme.alpha=0.2"])
        assert rc == EXIT_OK
        manifest = dict(l.split("=", 1) for l in
                        (tmp_path / "tf" / "manifest.txt").read_text().splitlines())
        assert abs(float(manifest["result.phase_shift_tall"])) < 0.15
        assert abs(float(manifest["result.phase_shift_short"])) < 0.15

    def test_cnoidal_family_default_profiles_match_mpmath(self, tmp_path):
        # each default profile is l cn^2(beta x | m), with beta and m formed
        # exactly from the k, l of family.csv and the sigma of its header;
        # the worst error is 1.25e-15 l, the bound about three times that
        out = tmp_path / "cf"
        assert main(["scenario", "cnoidal_family", "--out", str(out)]) == EXIT_OK
        rows = [line.split(",") for line in (out / "family.csv").read_text().splitlines()
                if not line.startswith("#")]
        assert len(rows) == 4
        for i, row in enumerate(rows):
            meta, x, h = read_profile_csv(out / f"profile_{i:02d}.csv")
            with mp.workdps(34):
                k, l, sigma = mp.mpf(float(row[1])), mp.mpf(float(row[2])), float(meta["sigma"])
                beta, m = mp.sqrt((l + k) / (4 * sigma)), l / (l + k)
                exact = np.array([float(l * mp.ellipfun("cn", beta * xi, m=m) ** 2)
                                  for xi in x])
            assert np.max(np.abs(h - exact)) <= 4e-15 * float(l), row[0]

    def test_steepening_scenario(self, tmp_path):
        rc = main(["scenario", "steepening", "--out", str(tmp_path / "st"),
                   "--set", "scenario.p_ratios=0.9,1.1",
                   "--set", "scenario.t_check=0.3"])
        assert rc == EXIT_OK
        rows = (tmp_path / "st" / "steepening.csv").read_text().splitlines()
        assert rows[1].split(",")[2] == "steepens_in_front"
        assert rows[2].split(",")[2] == "flattens_in_front"

    def test_factorization_scenario(self, tmp_path):
        rc = main(["scenario", "factorization", "--out", str(tmp_path / "fa"),
                   "--set", "scenario.n_list=128,256"])
        assert rc == EXIT_OK
        manifest = dict(l.split("=", 1) for l in
                        (tmp_path / "fa" / "manifest.txt").read_text().splitlines())
        assert float(manifest["result.normalized_control"]) > 1e-3
        assert float(manifest["result.normalized_residual"]) < 1e-3

    def test_solitary_transit_short(self, tmp_path):
        # a fraction of a transit at coarse resolution: the recentered shape
        # error must still be far below the headline tolerance
        rc = main(["scenario", "solitary_transit", "--out", str(tmp_path / "tr"),
                   "--set", "grid.N=256", "--set", "scheme.t_end=5.0"])
        assert rc == EXIT_OK
        manifest = dict(l.split("=", 1) for l in
                        (tmp_path / "tr" / "manifest.txt").read_text().splitlines())
        assert float(manifest["result.shape_error_rel_h0"]) < 1e-4
        assert float(manifest["result.drift_Q"]) < 1e-12
        speed = float(manifest["result.speed_measured"])
        formula = float(manifest["result.speed_formula"])
        assert abs(speed - formula) / formula < 0.01
        # mass conservation must also hold for the serialized series
        rows = [l.split(",") for l in
                (tmp_path / "tr" / "invariants.csv").read_text().splitlines()
                if not l.startswith("#")]
        Q = [float(r[1]) for r in rows]
        assert max(abs(q - Q[0]) for q in Q) <= 1e-12 * abs(Q[0])

    def test_capillary_transit_in_the_default_frame(self, tmp_path):
        # one lap in 1 cm of water: the fixed frame steps the capillary sigma
        # (at the pure-gravity sigma the shape error read 0.069 h0)
        out = tmp_path / "cap"
        rc = main(["scenario", "solitary_transit", "--out", str(out),
                   "--set", "physical.H=0.01", "--set", "physical.T=0.0728",
                   "--set", "scenario.h0=0.001", "--set", "grid.L=1.2",
                   "--set", "grid.N=256"])
        assert rc == EXIT_OK
        manifest = _manifest(out)
        # the transit's formula and lap are the fixed frame's: it reads no frame
        assert not {"config.scheme.frame", "config.scheme.alpha"} & manifest.keys()
        assert float(manifest["result.shape_error_rel_h0"]) <= 1e-5
        for name in ("E", "M", "Hfun"):
            assert float(manifest[f"result.drift_{name}"]) <= 1e-6

    def test_boussinesq_demo_control_that_does_not_blow_up(self, tmp_path, capsys):
        # at g = 1e-3 the unfiltered noise grows too slowly to trip the check in its
        # 2 s: six RK4 steps of 1/3 s at the advisory, on all 129 modes
        out = tmp_path / "bd"
        rc = main(["scenario", "boussinesq_demo", "--out", str(out), "--set", "physical.g=1e-3"])
        assert rc == EXIT_OK
        printed = dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines()[:-1])
        unfiltered = {k: v for k, v in printed.items() if k.startswith("unfiltered_")}
        assert unfiltered == {
            "unfiltered_blowup_time": "none", "unfiltered_integrator": "rk4",
            "unfiltered_dt": cli._fmt(2.0 / 6), "unfiltered_steps": "6",
            "unfiltered_rejected": "0", "unfiltered_band_min": "129", "unfiltered_band_max": "129"}
        manifest = _manifest(out)
        assert {k: manifest[f"result.{k}"] for k in unfiltered} == unfiltered

    def test_manifest_reproduces_run(self, tmp_path):
        # a manifest alone must suffice to regenerate identical outputs
        rc = main(["scenario", "steepening", "--out", str(tmp_path / "r1"),
                   "--set", "scenario.p_ratios=0.9,1.1",
                   "--set", "scenario.t_check=0.3"])
        assert rc == EXIT_OK
        args = ["scenario", None, "--out", str(tmp_path / "r2")]
        for line in (tmp_path / "r1" / "manifest.txt").read_text().splitlines():
            key, value = line.split("=", 1)
            if key == "scenario":
                args[1] = value
            elif key.startswith("config."):
                args += ["--set", f"{key[7:]}={value}"]
        assert main(args) == EXIT_OK
        for name in ("manifest.txt", "steepening.csv"):
            assert filecmp.cmp(tmp_path / "r1" / name, tmp_path / "r2" / name,
                               shallow=False)

    @pytest.mark.parametrize("sets, filtered", [
        ([], "etdrk4"),  # scheme.dt=auto: the three filtered runs take exponential steps
        (["--set", "scheme.dt=0.005"], "rk4"),
    ], ids=["auto", "explicit_dt"])
    def test_boussinesq_demo_scenario(self, tmp_path, sets, filtered):
        rc = main(["scenario", "boussinesq_demo", "--out", str(tmp_path / "bd"),
                   "--set", "grid.N=256", "--set", "grid.L=64", *sets])
        assert rc == EXIT_OK
        manifest = dict(l.split("=", 1) for l in
                        (tmp_path / "bd" / "manifest.txt").read_text().splitlines())
        # the unfiltered control takes RK4 at its advisory whatever scheme.dt says
        integrators = {run: manifest[f"result.{run}_integrator"]
                       for run in ("mode", "solitary", "unfiltered", "filtered")}
        assert integrators == {"mode": filtered, "solitary": filtered, "unfiltered": "rk4",
                               "filtered": filtered}
        # an exponential run of the pair steps in its start's crest frame: part (b)'s
        # wave moves at its speed c, the frame at alpha = H - c/sqrt(g/H), and parts
        # (a) and (c) start at rest, in the fixed frame at alpha = H; RK4 steps
        # in no frame of its own
        alphas = {key: float(value) for key, value in manifest.items()
                  if key.endswith("step_alpha")}
        if filtered == "rk4":
            assert alphas == {}
        else:
            c = float(manifest["result.solitary_speed_formula"])
            assert alphas == {"result.mode_step_alpha": 1.0, "result.filtered_step_alpha": 1.0,
                              "result.solitary_step_alpha": pytest.approx(
                                  1.0 - c / math.sqrt(9.81), rel=1e-12)}
        for run in ("mode", "solitary", "unfiltered", "filtered"):
            assert float(manifest[f"result.{run}_dt"]) > 0
            assert int(manifest[f"result.{run}_steps"]) > 0
            assert manifest[f"result.{run}_rejected"] == "0"
        advisory = stable_dt(PeriodicGrid(L=64.0, N=256), PhysicalParams(),
                             SchemeConfig(boussinesq_filter=False), "boussinesq")
        assert int(manifest["result.unfiltered_steps"]) <= 30
        assert (advisory * (1 - 1e-9) >= float(manifest["result.unfiltered_dt"])
                >= 0.99 * advisory)
        om = float(manifest["result.mode_frequency_measured"])
        om0 = float(manifest["result.mode_frequency_exact"])
        assert abs(om - om0) / om0 < 1e-3
        assert float(manifest["result.unfiltered_blowup_time"]) < 2.0
        assert float(manifest["result.filtered_energy_drift"]) < 1e-6
        sp = float(manifest["result.solitary_speed_measured"])
        sp0 = float(manifest["result.solitary_speed_formula"])
        assert abs(sp - sp0) / sp0 < 0.01
        # the pair's solitary wave moves at Rayleigh's speed sqrt(g (H + h0)), closer
        # to it (3.2849657 m/s) than to the KdV formula (3.2886966 m/s)
        rayleigh = float(manifest["result.solitary_speed_rayleigh"])
        assert rayleigh == math.sqrt(9.81 * (1.0 + 0.1))
        assert abs(sp - rayleigh) < abs(sp - sp0)


class TestSolitaryFit:
    @pytest.mark.parametrize("h0, L, N, message", [
        (1.1e-4, 120.0, 1024, None),  # L kappa = 1.09
        (8e-5, 120.0, 1024, "'scenario.h0' = 8e-05 m is too small for 'grid.L' = 120 m: the "
                            "solitary wave is wider than the domain (L kappa = 0.93,"),
        (0.1, 220.0, 64, None),  # kappa dx = 0.941
        (0.1, 250.0, 64, "'grid.L' = 250 m over 'grid.N' = 64 points is too coarse for "
                         "'scenario.h0' = 0.1 m: the solitary wave is narrower than a step "
                         "(kappa dx = 1.07,"),
    ])
    def test_a_solitary_start_must_fit_its_grid(self, tmp_path, capsys, h0, L, N, message):
        # the width 1/kappa, kappa = sqrt(h0/(4 sigma)), must lie between one step and
        # the domain; each row sits within 10% of one of the two bounds
        kappa = SolitarySpec(h0, 1.0 / 3.0, 1.0, 9.81).inv_width
        assert 0.9 < min(L * kappa, N / (L * kappa)) < 1.1
        out = tmp_path / "out"
        rc = main(["analytic", "--out", str(out), "--set", f"scenario.h0={h0}",
                   "--set", f"grid.L={L}", "--set", f"grid.N={N}"])
        err = capsys.readouterr().err
        if message is None:
            assert (rc, err) == (EXIT_OK, "")
        else:
            assert rc == EXIT_USAGE and message in err and len(err.splitlines()) == 1
            assert not out.exists()


BLOWUP = ["--set", "grid.N=64", "--set", "grid.L=60",
          "--set", "scheme.dt=5.0", "--set", "scheme.t_end=50.0"]


# runs that would take more than MAX_STEPS steps: an explicit dt is refused
# before the run, a controlled run of the pair when its first wanted step is
# too short
TOO_MANY_STEPS = [
    *[([*command, "--set", "scheme.dt=1e-300"], EXIT_USAGE,
       "dt = 1e-300 s is too small to reach t_end = ")
      for command in (["scenario", "solitary_transit"], ["scenario", "two_soliton"],
                      ["scenario", "moment_conservation"], ["scenario", "boussinesq_demo"],
                      ["evolve", "--ic", "solitary"], ["evolve", "--ic", "cnoidal"])],
    (["scenario", "boussinesq_demo", "--set", "physical.g=1e300"], EXIT_BLOWUP,
     "would take more than MAX_STEPS = 1e+08 steps"),
]

# unidirectional auto-dt runs whose samples' frame runs so far from the crest's
# frame they step in, by t_end, that no float places a sample within 1e-6 dx:
# refused before any step, naming the frame (scheme.alpha where it is moving)
FRAME_UNRESOLVED = [
    *[([*command, "--set", "scheme.t_end=1e300"], EXIT_USAGE, f"{frame} runs ")
      for command, frame in ((["scenario", "solitary_transit"], "the fixed frame (alpha = H)"),
                             (["scenario", "two_soliton"], "scheme.alpha = 0.0"))],
    *[([*command, "--set", "scheme.t_end=1e300"], EXIT_USAGE, "the fixed frame (alpha = H) runs ")
      for command in (["scenario", "moment_conservation"], ["evolve", "--ic", "solitary"],
                      ["evolve", "--ic", "cnoidal"])],
    *[([*command, "--set", "physical.g=1e300"], EXIT_USAGE,
       "too far for a float to place its samples within 1e-06 dx")
      for command in (["scenario", "two_soliton"], ["evolve", "--ic", "cnoidal"])],
    (["scenario", "two_soliton", "--set", "scheme.alpha=1e300"], EXIT_USAGE,
     "scheme.alpha = 1e+300 runs 1.88e+302 m from the crest's frame (alpha = "),
    (["scenario", "two_soliton", "--set", "scheme.alpha=1e8"], EXIT_USAGE,
     "scheme.alpha = 100000000.0 runs 1.88e+10 m from the crest's frame"),
    # the front-slope run's frame is its own, so its refusal names the keys that
    # part it from the crest's frame: the check time and gravity
    (["scenario", "steepening", "--set", "physical.g=1e300"], EXIT_USAGE,
     "usage error: 'scenario.t_check' = 1.0 s with 'physical.g' = 1e+300 m/s^2 and "
     "'physical.H' = 1.0 m: p = 0.21908902300206648 1/m: the run's frame at alpha = "
     "4 sigma p^2 - (3/2) hbar = -0.08600000000000001 moves 3.3e+137 m from its crest's "
     "frame by t_check = 1 s, too far for a float to place its samples within 1e-06 dx"),
    (["scenario", "steepening", "--set", "scenario.t_check=1e300"], EXIT_USAGE,
     "usage error: 'scenario.t_check' = 1e+300 s with 'physical.g' = 9.81 m/s^2 and "
     "'physical.H' = 1.0 m: p = 0.21908902300206648 1/m: the run's frame at alpha = "
     "4 sigma p^2 - (3/2) hbar = -0.08600000000000001 moves 1.03e+288 m from its crest's "
     "frame by t_check = 1e+300 s, too far"),
    (["stability", "--hbar", "0.1", "--p-ratio", "0.9", "--cross-check",
      "--set", "physical.g=1e300"], EXIT_USAGE,
     "usage error: 'physical.g' = 1e+300 m/s^2 and 'physical.H' = 1.0 m: p = "),
]

# derived values and amplitudes that overflow or underflow, and a cross-check
# too slow to resolve its trend
OUT_OF_RANGE = [
    *[([*_command(name), "--set", "physical.H=1e300"], EXIT_USAGE,
       "H = 1e+300 m (with g, rho and T) must leave sigma and sqrt(g H) finite, got inf m^3")
      for name in cli.COMMANDS],
    (["scenario", "steepening", "--set", "scenario.hbar=1e-300"], EXIT_USAGE,
     "hbar = 1e-300 m and p = 6.92820323027551e-151 1/m must leave the starting "
     "forward-face slope a normal float"),
    (["stability", "--hbar", "1e-320", "--p-ratio", "1", "--cross-check"], EXIT_USAGE,
     "must leave the starting forward-face slope a normal float"),
    (["scenario", "steepening", "--set", "scenario.p_ratios=1e300"], EXIT_USAGE,
     "p = 2.7386127875258312e+299 1/m overflows the frame's alpha"),
    (["stability", "--hbar", "0.1", "--p-ratio", "1e300", "--cross-check"], EXIT_USAGE,
     "p = 2.7386127875258312e+299 1/m overflows the frame's alpha"),
    *[(["scenario", "factorization", "--set", f"scenario.h0={h0}"], EXIT_USAGE,
       "'scenario.h0' must leave the residual's unit g H (3/2) h0^2/H^3 a normal float, "
       f"got {unit} m/s^2") for h0, unit in (("1e-300", "0"), ("1e-320", "0"), ("1e300", "inf"))],
    *[(["scenario", "two_soliton", "--set", f"{key}=1e-320"], EXIT_USAGE,
       f"{key!r} must be a normal float, got 1e-320")
      for key in ("scenario.h0_tall", "scenario.h0_short")],
    (["stability", "--hbar", "0.1", "--p-ratio", "1.0001", "--cross-check"], EXIT_USAGE,
     "evolution cross-check contradicts verdict flattens_in_front"),
    # domains too short for their grids: the Fourier symbols of the run overflow
    (["evolve", "--set", "grid.L=1e-100"], EXIT_USAGE,
     "L = 1e-100 m over N = 1024 points leaves the equation's Fourier symbols not finite"),
    # and a low-pass band that keeps only the mean mode
    (["scenario", "boussinesq_demo", "--set", "grid.L=1e-100"], EXIT_USAGE,
     "L = 1e-100 m leaves only the mean mode at or below the low-pass cut k = "
     "1.299038105676658 1/m"),
    *[([*command, "--set", "grid.L=1e-300"], EXIT_USAGE,
       f"L = 1e-300 m is too short for N = {N} points: its derivative symbols overflow")
      for command, N in ((["evolve"], 1024), (["scenario", "two_soliton"], 256),
                         (["scenario", "boussinesq_demo"], 1024))],
    # and so short that its wavenumbers overflow
    (["scenario", "boussinesq_demo", "--set", "grid.L=1e-320"], EXIT_USAGE,
     "L = 1e-320 m is too short for N = 1024 points: its wavenumbers overflow"),
    # runs too short for the crest positions' roundoff to resolve a speed
    *[([*command, "--set", f"scheme.t_end={t_end}"], EXIT_USAGE,
       f"'scheme.t_end' is too short for a crest speed: over a run of {t_end} s")
      for command in (["scenario", "solitary_transit"], ["evolve", "--ic", "solitary"])
      for t_end in ("1e-300", "1e-320")],
    (["stability", "--hbar", "0.1", "--p-ratio", "1e150", "--cross-check"], EXIT_USAGE,
     "p = 2.7386127875258307e+149 1/m: L = 1.1684747893443543e-148 m over N = 512 points "
     "leaves the equation's Fourier symbols not finite"),
]


class TestNothingWrittenUnlessTheRunSucceeds:
    @pytest.mark.parametrize("argv, code, message", [
        (["scenario", "cnoidal_family", "--set", "scenario.m_list=0.5,1.5"], EXIT_USAGE,
         "roots k and l must be positive"),
        (["scenario", "factorization", "--set", "scenario.n_list=0,64"], EXIT_USAGE,
         "N must be even and >= 8, got 0"),
        (["evolve", "--ic", "solitary", *BLOWUP], EXIT_BLOWUP, "blew up"),
        (["analytic", "--wave", "cnoidal", "--set", "scenario.m=1.5"], EXIT_USAGE,
         "roots k and l must be positive"),
        (["scenario", "boussinesq_demo", "--set", "scenario.h0=-5"], EXIT_USAGE,
         "h0*sigma must be positive"),
        *[([*command, "--set", "scenario.h0=inf"], EXIT_USAGE, "h0 must be finite, got inf")
          for command in (["scenario", "solitary_transit"], ["scenario", "moment_conservation"],
                          ["scenario", "boussinesq_demo"], ["analytic", "--wave", "solitary"],
                          ["evolve", "--ic", "solitary"])],
        # a solitary wave wider than its domain, or narrower than a grid step
        *[([*command, "--set", "scenario.h0=1e-100"], EXIT_USAGE,
           "'scenario.h0' = 1e-100 m is too small for 'grid.L' = 120 m")
          for command in (["scenario", "solitary_transit"], ["scenario", "boussinesq_demo"],
                          ["evolve", "--ic", "solitary"])],
        *[([*command, "--set", "grid.L=1e300"], EXIT_USAGE,
           "'grid.L' = 1e+300 m over 'grid.N' = 1024 points is too coarse for "
           "'scenario.h0' = 0.1 m")
          for command in (["scenario", "solitary_transit"], ["evolve", "--ic", "solitary"])],
        (["analytic", "--set", "scenario.h0=1e150"], EXIT_USAGE,
         "'grid.L' = 120 m over 'grid.N' = 1024 points is too coarse for 'scenario.h0' = 1e+150 m"),
        (["scenario", "steepening", "--set", "physical.T=3270"], EXIT_USAGE,
         "steepening analysis requires sigma > 0"),
        (["scenario", "steepening", "--set", "physical.T=5000"], EXIT_USAGE,
         "steepening analysis requires sigma > 0"),
        (["stability", "--hbar", "0.1", "--p-ratio", "1", "--set", "physical.T=3270"],
         EXIT_USAGE, "steepening analysis requires sigma > 0"),
        (["stability", "--hbar", "0.1", "--p-ratio", "1", "--set", "physical.T=5000"],
         EXIT_USAGE, "steepening analysis requires sigma > 0"),
        (["stability", "--hbar", "-0.1", "--p-ratio", "1"], EXIT_USAGE,
         "hbar must be positive and finite, got -0.1"),
        (["stability", "--hbar", "inf", "--p-ratio", "1"], EXIT_USAGE,
         "hbar must be positive and finite, got inf"),
        (["stability", "--hbar", "0.1", "--p", "inf"], EXIT_USAGE,
         "hbar and p must be positive and finite, got 0.1, inf"),
        (["stability", "--hbar", "0.1", "--p-ratio", "inf"], EXIT_USAGE,
         "hbar and p must be positive and finite, got 0.1, inf"),
        (["scenario", "steepening", "--set", "scenario.hbar=inf"], EXIT_USAGE,
         "hbar must be positive and finite, got inf"),
        (["scenario", "steepening", "--set", "scenario.t_check=0"], EXIT_USAGE,
         "t_check must be positive and finite, got 0.0"),
        (["scenario", "steepening", "--set", "scenario.t_check=-1"], EXIT_USAGE,
         "t_check must be positive and finite, got -1.0"),
        (["scenario", "steepening", "--set", "scenario.t_check=inf"], EXIT_USAGE,
         "t_check must be positive and finite, got inf"),
        (["scenario", "boussinesq_demo", "--set", "scenario.mode_index=0"], EXIT_USAGE,
         "'scenario.mode_index' must name a mode the filter keeps, 1 to 8, got 0"),
        (["scenario", "boussinesq_demo", "--set", "scenario.mode_index=20"], EXIT_USAGE,
         "'scenario.mode_index' must name a mode the filter keeps, 1 to 8, got 20"),
        (["scenario", "boussinesq_demo", "--set", "scenario.mode_index=-3"], EXIT_USAGE,
         "'scenario.mode_index' must name a mode the filter keeps, 1 to 8, got -3"),
        (["scenario", "boussinesq_demo", "--set", "scenario.mode_amp=0"], EXIT_USAGE,
         "'scenario.mode_amp' must be nonzero"),
        (["scenario", "boussinesq_demo", "--set", "scenario.noise_amp=0"], EXIT_USAGE,
         "'scenario.noise_amp' must be nonzero"),
        # amplitudes whose squares underflow: the fit and the drift would divide by zero
        (["scenario", "boussinesq_demo", "--set", "scenario.mode_amp=1e-300"], EXIT_USAGE,
         "'scenario.mode_amp' must leave (mode_amp*H)**2 a normal float, got 0"),
        (["scenario", "boussinesq_demo", "--set", "scenario.mode_amp=1e-320"], EXIT_USAGE,
         "'scenario.mode_amp' must leave (mode_amp*H)**2 a normal float, got 0"),
        (["scenario", "boussinesq_demo", "--set", "scenario.noise_amp=1e-300"], EXIT_USAGE,
         "'scenario.noise_amp' and 'physical.g' must leave the filtered noise run a normal "
         "starting energy, got 0 J/m"),
        (["scenario", "boussinesq_demo", "--set", "scenario.noise_amp=1e-320"], EXIT_USAGE,
         "'scenario.noise_amp' and 'physical.g' must leave the filtered noise run a normal "
         "starting energy, got 0 J/m"),
        (["scenario", "boussinesq_demo", "--set", "physical.g=1e-320"], EXIT_USAGE,
         "'scenario.noise_amp' and 'physical.g' must leave the filtered noise run a normal "
         "starting energy, got 0 J/m"),
        # and whose squares overflow
        (["scenario", "boussinesq_demo", "--set", "scenario.mode_amp=1e200"], EXIT_USAGE,
         "'scenario.mode_amp' must leave (mode_amp*H)**2 a normal float, got inf"),
        (["scenario", "boussinesq_demo", "--set", "scenario.noise_amp=1e200"], EXIT_USAGE,
         "'scenario.noise_amp' and 'physical.g' must leave the filtered noise run a normal "
         "starting energy, got nan J/m"),
        # a solitary crest whose start overflows, and a noise amplitude that is not finite
        *[(["scenario", "boussinesq_demo", "--set", f"scenario.h0={h0}"], EXIT_USAGE,
           f"'scenario.h0' = {float(h0)} m leaves part (b)'s starting h and "
           "v = -omega h_x not finite") for h0 in ("1e200", "1e300")],
        # a finite start past evolve's blow-up limit stops before part (a) runs
        (["scenario", "boussinesq_demo", "--set", "scenario.h0=1e100"], EXIT_USAGE,
         "'scenario.h0' = 1e+100 m starts part (b) past the blow-up limit of 10 H: "
         "its low-passed max|h| is 4.78516e+98 m"),
        # a start under the limit runs, and this one blows up in part (b) itself
        (["scenario", "boussinesq_demo", "--set", "scenario.h0=20"], EXIT_BLOWUP,
         "solution blew up at t = 0.116472 s (step 14, max|h| = 10.2759 m)"),
        # crests past the limit whose tails' arguments overflow: the tails are 0,
        # and the start stops at t = 0, sampled crest or not
        *[([*command, "--set", "physical.H=1e-100", "--set", "grid.L=1e300"], EXIT_BLOWUP,
           f"solution blew up at t = 0 s (step 1, max|h| = {h0} m)")
          for command, h0 in ((["evolve", "--ic", "solitary"], 0.1),
                              (["scenario", "solitary_transit"], 0.1),
                              (["scenario", "moment_conservation"], 0.1),
                              (["scenario", "two_soliton"], 0.5))],
        (["evolve", "--ic", "solitary", "--set", "grid.L=1e300", "--set", "scenario.h0=1e300"],
         EXIT_BLOWUP, "solution blew up at t = 0 s (step 1, max|h| = 1e+300 m)"),
        *[(["scenario", "boussinesq_demo", "--set", f"scenario.noise_amp={amp}"], EXIT_USAGE,
           f"'scenario.noise_amp' must be nonzero and finite, got {amp}")
          for amp in ("inf", "-inf")],
        (["evolve", "--set", "scheme.dt=0.01", "--set", "scheme.t_end=inf"], EXIT_USAGE,
         "t_end must be non-negative and finite, got inf"),
        (["evolve", "--set", "scheme.frame=moving", "--set", "scheme.alpha=nan"], EXIT_USAGE,
         "alpha must be finite, got nan"),
        (["evolve", "--set", "physical.g=inf"], EXIT_USAGE,
         "g must be positive and finite, got inf"),
        (["analytic", "--wave", "solitary", "--set", "physical.g=inf"], EXIT_USAGE,
         "g must be positive and finite, got inf"),
        (["evolve", "--set", "grid.L=inf"], EXIT_USAGE, "L must be positive and finite, got inf"),
        # a key the choice does not read, and an alpha the fixed frame ignores
        (["analytic", "--wave", "solitary", "--set", "scenario.m=0.9"], EXIT_USAGE,
         "analytic --wave solitary does not read 'scenario.m'"),
        (["analytic", "--wave", "cnoidal", "--set", "grid.L=5"], EXIT_USAGE,
         "analytic --wave cnoidal does not read 'grid.L'"),
        (["evolve", "--ic", "cnoidal", "--set", "scenario.h0=0.3"], EXIT_USAGE,
         "evolve --ic cnoidal does not read 'scenario.h0'"),
        (["scenario", "boussinesq_demo", "--set", "physical.T=0.0728"], EXIT_USAGE,
         "boussinesq_demo does not read 'physical.T'"),
        (["scenario", "solitary_transit", "--set", "scheme.alpha=0.3"], EXIT_USAGE,
         "solitary_transit does not read 'scheme.alpha'"),
        (["scenario", "solitary_transit", "--set", "scheme.frame=moving"], EXIT_USAGE,
         "solitary_transit does not read 'scheme.frame'"),
        (["scenario", "moment_conservation", "--set", "scheme.alpha=0.3"], EXIT_USAGE,
         "moment_conservation: alpha applies to the moving frame only, got 0.3"),
        (["evolve", "--set", "scheme.alpha=0.3"], EXIT_USAGE,
         "evolve --ic solitary: alpha applies to the moving frame only, got 0.3"),
        # explicit steps too small to count, or too long for part (a)'s fit
        (["evolve", "--set", "grid.N=128", "--set", "grid.L=60", "--set", "scheme.dt=1e-320"],
         EXIT_USAGE, "dt = 1e-320 s is too small to reach t_end = 18.244310194688598 s "
                     "in MAX_STEPS = 1e+08 steps"),
        (["scenario", "boussinesq_demo", "--set", "scheme.dt=1e-320"], EXIT_USAGE,
         "dt = 1e-320 s is too small to reach t_end = 28.657641566170994 s "
         "in MAX_STEPS = 1e+08 steps"),
        (["scenario", "boussinesq_demo", "--set", "scheme.dt=40"], EXIT_USAGE,
         "'scheme.dt' must be at most 14.328820783085497 s, half of part (a)"),
        (["scenario", "boussinesq_demo", "--set", "scheme.dt=100"], EXIT_USAGE,
         "'scheme.dt' must be at most 14.328820783085497 s, half of part (a)"),
        (["scenario", "two_soliton", "--set", "scenario.h0_tall=0.2",
          "--set", "scenario.h0_short=0.5"], EXIT_USAGE,
         "'scenario.h0_tall' must exceed 'scenario.h0_short', got 0.2 and 0.5"),
        # a crest offset is taken modulo the period, which a non-finite one has none of
        *[(["analytic", "--wave", wave, "--phase", phase], EXIT_USAGE,
           f"--phase must be finite, got {phase}")
          for wave in ("solitary", "cnoidal") for phase in ("nan", "inf")],
        (["scenario", "cnoidal_family", "--set", "scenario.phase=nan"], EXIT_USAGE,
         "'scenario.phase' must be finite, got nan"),
        (["scenario", "cnoidal_family", "--set", "scenario.phase=-inf"], EXIT_USAGE,
         "'scenario.phase' must be finite, got -inf"),
        # two ratios alike at 6 digits would name their verdicts alike, losing one
        (["scenario", "steepening", "--set", "scenario.p_ratios=0.9999999,1.0000001"],
         EXIT_USAGE, "'scenario.p_ratios' must differ in their first 6 significant digits, "
                     "which name their verdicts, got 0.9999999,1.0000001"),
        *TOO_MANY_STEPS,
        *FRAME_UNRESOLVED,
        *OUT_OF_RANGE,
    ])
    def test_bad_input_exits_with_its_reason_and_leaves_no_directory(
            self, tmp_path, capsys, monkeypatch, time_limit, argv, code, message):
        out = tmp_path / "out"
        monkeypatch.chdir(tmp_path)  # the default output directory; stability has no --out
        assert main(argv) == code
        err = capsys.readouterr().err
        assert message in err and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv, files", [
        (["scenario", "solitary_transit", "--set", "grid.N=128", "--set", "grid.L=60",
          "--set", "scheme.t_end=0.5"],
         {"profile_initial.csv", "profile_final.csv", "invariants.csv"}),
        (["scenario", "two_soliton", "--set", "grid.N=128", "--set", "scheme.t_end=0.5"],
         {"profile_initial.csv", "profile_final.csv", "invariants.csv"}),
        (["scenario", "cnoidal_family", "--set", "grid.N=64",
          "--set", "scenario.m_list=0.5,0.9"],
         {"profile_00.csv", "profile_01.csv", "family.csv"}),
        (["scenario", "steepening", "--set", "scenario.p_ratios=0.9,1.1",
          "--set", "scenario.t_check=0.1"], {"steepening.csv"}),
        (["scenario", "moment_conservation", "--set", "grid.N=128", "--set", "grid.L=60",
          "--set", "scheme.t_end=0.5"], {"invariants.csv"}),
        (["scenario", "factorization", "--set", "scenario.n_list=64,128"],
         {"factorization.csv"}),
        (["scenario", "boussinesq_demo", "--set", "grid.N=64"],
         {"mode_series.csv", "profile_solitary_final.csv"}),
        (["evolve", "--ic", "solitary", "--set", "grid.N=128", "--set", "grid.L=60",
          "--set", "scheme.t_end=0.5"],
         {"profile_initial.csv", "profile_final.csv", "invariants.csv"}),
        (["evolve", "--ic", "cnoidal", "--set", "grid.N=128", "--set", "scheme.t_end=0.5"],
         {"profile_initial.csv", "profile_final.csv", "invariants.csv"}),
        (["analytic", "--wave", "solitary", "--set", "grid.N=64"], {"profile.csv"}),
        (["analytic", "--wave", "cnoidal", "--set", "grid.N=64"], {"profile.csv"}),
    ])
    def test_each_command_writes_its_files_and_a_manifest(self, tmp_path, capsys, argv, files):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        assert {f.name for f in out.iterdir()} == files | {"manifest.txt"}
        printed = capsys.readouterr().out.splitlines()
        results = {k: v for k, v in _manifest(out).items() if k.startswith("result.")}
        assert printed == [f"{k[7:]} = {v}" for k, v in sorted(results.items())] + [
            f"wrote {out}/manifest.txt"]

    @pytest.mark.parametrize("wave, setting", [("solitary", "scenario.h0=0.3"),
                                               ("cnoidal", "scenario.m=0.3")])
    def test_analytic_manifest_reproduces_profile(self, tmp_path, wave, setting):
        first = tmp_path / "a1"
        rc = main(["analytic", "--wave", wave, "--phase", "2.5", "--out", str(first),
                   "--set", "grid.N=64", "--set", setting])
        assert rc == EXIT_OK
        manifest = _manifest(first)
        assert manifest["wave"] == wave and float(manifest["phase"]) == 2.5
        assert manifest["scenario"] == "analytic"
        again = ["analytic", "--wave", manifest["wave"], "--phase", manifest["phase"],
                 "--out", str(tmp_path / "a2")]
        for key, value in manifest.items():
            if key.startswith("config."):
                again += ["--set", f"{key[7:]}={value}"]
        assert main(again) == EXIT_OK
        for name in ("manifest.txt", "profile.csv"):
            assert filecmp.cmp(first / name, tmp_path / "a2" / name, shallow=False), name

    @pytest.mark.parametrize("argv", [
        ["scenario", "solitary_transit", "--set", "grid.N=128", "--set", "grid.L=60",
         "--set", "scheme.t_end=0.5"],
        ["scenario", "two_soliton", "--set", "grid.N=128", "--set", "scheme.t_end=0.5"],
        ["scenario", "cnoidal_family", "--set", "grid.N=64", "--set", "scenario.m_list=0.5,0.9"],
        ["scenario", "steepening", "--set", "scenario.p_ratios=0.9,1.1",
         "--set", "scenario.t_check=0.1"],
        ["scenario", "moment_conservation", "--set", "grid.N=128", "--set", "grid.L=60",
         "--set", "scheme.t_end=0.5"],
        ["scenario", "factorization", "--set", "scenario.n_list=64,128"],
        ["scenario", "boussinesq_demo", "--set", "grid.N=64"],
        ["evolve", "--ic", "solitary", "--set", "grid.N=128", "--set", "grid.L=60",
         "--set", "scheme.t_end=0.5"],
        ["analytic", "--wave", "cnoidal", "--phase", "2.5", "--set", "grid.N=64"],
    ], ids=lambda argv: argv[argv[0] == "scenario"])
    def test_manifest_alone_replays_every_file(self, tmp_path, argv):
        # every key a manifest records is one its command accepts, and reads
        first, again = tmp_path / "first", tmp_path / "again"
        assert main([*argv, "--out", str(first)]) == EXIT_OK
        manifest = _manifest(first)
        replay = _command(manifest["scenario"])
        for choice in ("wave", "phase", "ic"):
            if choice in manifest:
                replay += [f"--{choice}", manifest[choice]]
        for key in sorted(_config_keys(manifest)):
            replay += ["--set", f"{key}={manifest['config.' + key]}"]
        assert main([*replay, "--out", str(again)]) == EXIT_OK
        names = sorted(f.name for f in first.iterdir())
        assert names == sorted(f.name for f in again.iterdir())
        for name in names:
            assert filecmp.cmp(first / name, again / name, shallow=False), name

    def test_traced_names_are_called_from_the_cli_module(self, tmp_path, monkeypatch):
        # the benchmark's layer metrics wrap these names on the cli module;
        # a run that stopped calling them there would read zero, not fail
        calls = {}
        for name in ("evolve", "emit_profile_csv", "emit_invariants_csv", "write_manifest"):
            def counted(*args, _name=name, _real=getattr(cli, name), **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(cli, name, counted)
        rc = main(["scenario", "two_soliton", "--out", str(tmp_path / "ts"),
                   "--set", "grid.N=128", "--set", "scheme.t_end=2"])
        assert rc == EXIT_OK
        assert calls == {"evolve": 1, "emit_profile_csv": 2, "emit_invariants_csv": 1,
                         "write_manifest": 1}

    def test_traced_names_are_called_from_the_cli_module_by_the_demo(self, tmp_path,
                                                                      monkeypatch):
        # the same guard for the benchmark's boussinesq_filtered workload
        calls = {}
        for name in ("evolve", "emit_profile_csv", "emit_invariants_csv", "write_manifest"):
            def counted(*args, _name=name, _real=getattr(cli, name), **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(cli, name, counted)
        rc = main(["scenario", "boussinesq_demo", "--out", str(tmp_path / "bd"),
                   "--set", "grid.N=256", "--set", "grid.L=64"])
        assert rc == EXIT_OK
        assert calls == {"evolve": 4, "emit_profile_csv": 1, "write_manifest": 1}


# Each writer puts a longer or a shorter file at path (the CLI case at
# path.parent/manifest.txt, through a whole run).
def _profile_of(path, long):
    n = 64 if long else 16
    emit_profile_csv(WaveField(PeriodicGrid(L=4.0, N=n), np.linspace(0.0, 0.5, n)), WATER,
                     "analytic", path)


def _rows_of(path, long):
    cli._write_rows([f"row,{i}" for i in range(40 if long else 4)], path)


def _manifest_of(path, long):
    assert main(["scenario", "cnoidal_family", "--out", str(path.parent), "--set", "grid.N=64",
                 "--set", f"scenario.m_list={'0.5,0.9' if long else '0.5'}"]) == EXIT_OK


REWRITERS = {"emit_profile_csv": (_profile_of, "p.csv"), "_write_rows": (_rows_of, "rows.csv"),
             "rerun_manifest": (_manifest_of, "manifest.txt")}


@pytest.mark.parametrize("write, name", REWRITERS.values(), ids=REWRITERS)
class TestRewrite:
    """A rewritten output file is a new file in place of the old one, not the old one
    truncated and refilled.  (Its inode number may still repeat: ext4 reuses them.)"""

    def _paths(self, tmp_path, name):
        paths = tmp_path / "a" / name, tmp_path / "fresh" / name
        for p in paths:
            p.parent.mkdir()
        return paths

    def test_a_handle_on_the_old_file_still_reads_the_old_bytes(self, tmp_path, write, name):
        path, _ = self._paths(tmp_path, name)
        write(path, True)
        old = path.read_bytes()
        with open(path, "rb") as held:
            write(path, False)
            assert held.read() == old  # truncating in place would show the new bytes
        assert path.read_bytes() != old

    @pytest.mark.parametrize("first", [True, False], ids=["longer_first", "shorter_first"])
    def test_the_rewrite_equals_a_write_to_a_fresh_path(self, tmp_path, write, name, first):
        # rewritten shorter, it leaves no tail of the longer file
        path, fresh = self._paths(tmp_path, name)
        write(path, first)
        before = path.stat().st_size
        write(path, not first)
        write(fresh, not first)
        assert path.read_bytes() == fresh.read_bytes()
        assert (path.stat().st_size < before) is first

    def test_a_symlink_at_the_path_is_replaced_not_followed(self, tmp_path, write, name):
        path, fresh = self._paths(tmp_path, name)
        target = tmp_path / "target"
        target.write_bytes(b"kept\n")
        path.symlink_to(target)
        write(path, False)
        write(fresh, False)
        assert not path.is_symlink() and path.read_bytes() == fresh.read_bytes()
        assert target.read_bytes() == b"kept\n"

    def test_a_hard_link_keeps_the_old_bytes(self, tmp_path, write, name):
        path, fresh = self._paths(tmp_path, name)
        write(path, True)
        old = path.read_bytes()
        (tmp_path / "link").hardlink_to(path)
        write(path, False)
        write(fresh, False)
        assert path.read_bytes() == fresh.read_bytes()
        assert (tmp_path / "link").read_bytes() == old

    def test_a_rewritten_file_gets_a_new_files_bits(self, tmp_path, write, name):
        path, fresh = self._paths(tmp_path, name)
        write(path, True)
        path.chmod(0o600)
        write(path, False)
        write(fresh, False)
        assert path.read_bytes() == fresh.read_bytes()
        assert path.stat().st_mode == fresh.stat().st_mode  # truncation kept 0o600


def _read_only(path, monkeypatch):
    """Make path a file the process may not write; root may write any file, so deny it too."""
    path.chmod(0o444)
    if os.geteuid() == 0:
        real = os.access
        monkeypatch.setattr(os, "access", lambda p, mode, **kw:
                            not (mode & os.W_OK and Path(p) == path) and real(p, mode, **kw))


@pytest.mark.parametrize("write, name", [REWRITERS["emit_profile_csv"], REWRITERS["_write_rows"]],
                         ids=["emit_profile_csv", "_write_rows"])
def test_a_file_the_process_may_not_write_is_kept(tmp_path, monkeypatch, write, name):
    # as writing it in place would: a read-only output is not replaced
    path = tmp_path / name
    write(path, True)
    old = path.read_bytes()
    _read_only(path, monkeypatch)
    with pytest.raises(PermissionError):
        write(path, False)
    assert path.read_bytes() == old


class TestRewriteFromTheCli:
    def test_invariants_reads_its_input_before_replacing_it(self, tmp_path, capsys, params):
        field = solitary_field(SolitarySpec(0.1, dispersion_sigma(params), params.H, params.g),
                               PeriodicGrid(L=40.0, N=64))
        for name in ("p.csv", "copy.csv"):
            emit_profile_csv(field, params, "analytic", tmp_path / name)
        same, other = tmp_path / "p.csv", tmp_path / "inv.csv"
        assert main(["invariants", "--input", str(same), "--out", str(same)]) == EXIT_OK
        assert main(["invariants", "--input", str(tmp_path / "copy.csv"),
                     "--out", str(other)]) == EXIT_OK
        assert same.read_bytes() == other.read_bytes()
        assert same.read_text().startswith("# columns=t,Q,E,M,Hfun,xg_dot\n")

    @pytest.mark.parametrize("name", ["manifest.txt", "profile.csv"])
    def test_a_directory_at_an_output_path_exits_4_with_one_line(self, tmp_path, capsys,
                                                                 name):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert main(["analytic", "--out", str(out), "--set", "grid.N=64"]) == EXIT_IO
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("i/o error:") and name in err[0]
        assert (out / name).is_dir()

    def test_invariants_out_a_directory_exits_4_with_one_line(self, tmp_path, capsys, params):
        emit_profile_csv(WaveField(PeriodicGrid(L=4.0, N=8), np.zeros(8)), params, "analytic",
                         tmp_path / "p.csv")
        (tmp_path / "d").mkdir()
        assert main(["invariants", "--input", str(tmp_path / "p.csv"),
                     "--out", str(tmp_path / "d")]) == EXIT_IO
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("i/o error:")

    def test_a_read_only_manifest_stops_a_rerun_before_its_first_file(self, tmp_path, capsys,
                                                                       monkeypatch):
        out = tmp_path / "out"
        _manifest_of(out / "manifest.txt", True)
        before = {f.name: f.read_bytes() for f in out.iterdir()}
        capsys.readouterr()
        _read_only(out / "manifest.txt", monkeypatch)
        assert main(["scenario", "cnoidal_family", "--out", str(out), "--set", "grid.N=64",
                     "--set", "scenario.m_list=0.5"]) == EXIT_IO
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("i/o error:") and "manifest.txt" in err[0]
        assert {f.name: f.read_bytes() for f in out.iterdir()} == before

    def test_a_failed_rerun_leaves_no_manifest(self, tmp_path, capsys, monkeypatch):
        # the old manifest would describe the old files, of which some are now replaced
        out = tmp_path / "out"
        argv = ["scenario", "cnoidal_family", "--out", str(out), "--set", "grid.N=64",
                "--set", "scenario.m_list=0.5,0.9"]
        assert main(argv) == EXIT_OK
        assert {f.name for f in out.iterdir()} == {"profile_00.csv", "profile_01.csv",
                                                  "family.csv", "manifest.txt"}
        capsys.readouterr()
        written, real = [], cli.emit_profile_csv

        def full_after_the_first_file(*args):
            if written:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(args[-1]))
            written.append(args[-1].name)
            real(*args)

        monkeypatch.setattr(cli, "emit_profile_csv", full_after_the_first_file)
        assert main(argv) == EXIT_IO
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("i/o error:")
        assert written == ["profile_00.csv"]
        assert not (out / "manifest.txt").exists()
