import filecmp
import math

import numpy as np
import pytest

from longwave import (
    PeriodicGrid,
    PhysicalParams,
    SolitarySpec,
    WaveField,
    compute_invariants,
    dispersion_sigma,
    solitary_field,
)
from longwave import SchemeConfig, cli, conservation_drift, evolve
from longwave.cli import (
    EXIT_BLOWUP,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    KINDS,
    KNOWN_KEYS,
    emit_invariants_csv,
    emit_profile_csv,
    main,
    parse_config_file,
    read_profile_csv,
    resolve_config,
    run_scenario,
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
        cfg = resolve_config("not_a_thing", None, [], str(tmp_path))
        with pytest.raises(ValueError, match="solitary_transit"):
            run_scenario(cfg)


def _manifest(out):
    return dict(l.split("=", 1) for l in (out / "manifest.txt").read_text().splitlines())


class TestConfigTable:
    def test_every_key_has_a_kind(self):
        assert set(KINDS) == KNOWN_KEYS

    def test_values_parsed_once_by_kind(self):
        cfg = resolve_config("factorization", None, ["scheme.dt=0.01"], None)
        assert cfg.fnum("scenario.n_list") == [128, 256, 512, 1024]
        assert all(type(n) is int for n in cfg.fnum("scenario.n_list"))
        assert cfg.fnum("scheme.dt") == cfg.scheme.dt == 0.01
        assert cfg.fnum("scheme.t_end") is None and cfg.t_end_auto
        assert cfg.fnum("scheme.filter") is True
        assert resolve_config("analytic", None, [], None).fnum("scenario.n_waves") == 1
        assert resolve_config("evolve", None, [], None).fnum("scenario.n_waves") == 4

    @pytest.mark.parametrize("key", sorted(KNOWN_KEYS - {"output_dir"}))
    def test_malformed_value_exits_before_output(self, tmp_path, capsys, key):
        out = tmp_path / "out"
        rc = main(["scenario", "cnoidal_family", "--out", str(out), "--set", f"{key}=abc"])
        assert rc == EXIT_USAGE
        assert "abc" in capsys.readouterr().err
        assert not out.exists()

    def test_fractional_grid_list_rejected(self, tmp_path, capsys):
        out = tmp_path / "fa"
        rc = main(["scenario", "factorization", "--out", str(out),
                   "--set", "scenario.n_list=64.7,128"])
        assert rc == EXIT_USAGE
        assert "'scenario.n_list' must be a comma-separated list of integers" in (
            capsys.readouterr().err)
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
        assert moved["result.drift_E"] != fixed["result.drift_E"]
        # the recorded drift is the one of a moving-frame run of the library
        spec = SolitarySpec(0.1, dispersion_sigma(params), params.H, params.g)
        res = evolve(solitary_field(spec, PeriodicGrid(L=60.0, N=128)), params,
                     SchemeConfig(t_end=2.0, frame="moving", alpha=0.3))
        drift_E = conservation_drift(res.invariants)["E"]
        assert moved["result.drift_E"] == format(drift_E, ".17g")

    def test_two_soliton_requires_moving_frame(self, tmp_path, capsys):
        rc = main(["scenario", "two_soliton", "--out", str(tmp_path / "ts"),
                   "--set", "scheme.frame=fixed", "--set", "grid.N=128",
                   "--set", "scheme.t_end=1.0"])
        assert rc == EXIT_USAGE
        assert "'scheme.frame' must be 'moving'" in capsys.readouterr().err

    def test_evolve_manifest_reproduces_cnoidal_run(self, tmp_path):
        first = tmp_path / "c1"
        rc = main(["evolve", "--ic", "cnoidal", "--out", str(first),
                   "--set", "grid.N=128", "--set", "scheme.t_end=2.0"])
        assert rc == EXIT_OK
        manifest = _manifest(first)
        assert manifest["ic"] == "cnoidal"
        for key, value in (("h0", "0.1"), ("kl_sum", "0.2"), ("m", "0.5"), ("n_waves", "4")):
            assert manifest[f"config.scenario.{key}"] == value
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
    def test_usage_error(self, tmp_path, capsys):
        rc = main(["scenario", "nosuch", "--out", str(tmp_path)])
        assert rc == EXIT_USAGE
        assert "known scenarios" in capsys.readouterr().err

    def test_blowup_exit(self, tmp_path, capsys):
        rc = main(["evolve", "--ic", "solitary", "--out", str(tmp_path / "o"),
                   "--set", "grid.N=64", "--set", "grid.L=60",
                   "--set", "scheme.dt=5.0", "--set", "scheme.t_end=50.0"])
        assert rc == EXIT_BLOWUP
        assert "blew up" in capsys.readouterr().err

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
        # every key a command reads stays accepted, also outside its own scenario
        cfg = resolve_config("evolve", None, ["scenario.m=0.3", "scenario.mode_amp=1e-9"],
                             None)
        assert cfg.raw["scenario.m"] == "0.3"

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

    def test_misspelled_filter_switch_rejected(self, tmp_path, capsys):
        assert self._analytic_with(tmp_path, "scheme.filter=of") == EXIT_USAGE
        assert "'scheme.filter' must be one of" in capsys.readouterr().err
        assert not (tmp_path / "profile.csv").exists()
        for text, on in (("on", True), ("yes", True), ("off", False), ("0", False)):
            cfg = resolve_config("solitary_transit", None, [f"scheme.filter={text}"], None)
            assert cfg.scheme.boussinesq_filter is on

    def test_io_error(self, tmp_path, capsys):
        block = tmp_path / "blocker"
        block.write_text("i am a file")
        rc = main(["scenario", "cnoidal_family", "--out", str(block / "sub"),
                   "--set", "grid.N=64", "--set", "scenario.m_list=0.5"])
        assert rc == EXIT_IO


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
        assert runs["auto"]["result.integrator"] == "ifrk4"
        assert runs["fixed"]["result.integrator"] == "rk4"
        assert runs["fixed"]["result.steps"] == "500"
        for m in runs.values():
            assert int(m["result.steps"]) * float(m["result.dt"]) == pytest.approx(0.5)

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

    def test_boussinesq_demo_scenario(self, tmp_path):
        rc = main(["scenario", "boussinesq_demo", "--out", str(tmp_path / "bd"),
                   "--set", "grid.N=256", "--set", "grid.L=64"])
        assert rc == EXIT_OK
        manifest = dict(l.split("=", 1) for l in
                        (tmp_path / "bd" / "manifest.txt").read_text().splitlines())
        om = float(manifest["result.mode_frequency_measured"])
        om0 = float(manifest["result.mode_frequency_exact"])
        assert abs(om - om0) / om0 < 1e-3
        assert float(manifest["result.unfiltered_blowup_time"]) < 2.0
        assert float(manifest["result.filtered_energy_drift"]) < 1e-6
        sp = float(manifest["result.solitary_speed_measured"])
        sp0 = float(manifest["result.solitary_speed_formula"])
        assert abs(sp - sp0) / sp0 < 0.01
