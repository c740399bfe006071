"""Experiment harness: configs, trials, sweeps, determinism."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from cosamp import experiment
from cosamp.cli import EXIT_SOLVER, main
from cosamp.experiment import (
    ConfigError,
    build_noise,
    cell_config,
    load_config,
    parse_recovery,
    run_sweep,
    run_trial,
    sweep_cells,
    sweep_csv,
)

FIXTURE = Path(__file__).resolve().parent.parent / "demos" / "configs" / "gauss_64_32_s3.json"


def base_config(**overrides):
    cfg = {
        "version": "config_v1",
        "master_seed": 7,
        "operator": {"kind": "gaussian", "m": 16, "n": 64},
        "signal": {"kind": "sparse", "n": 64, "s": 3, "law": "flat"},
        "noise": None,
        "recovery": {
            "s": 3,
            "halting": [
                {"kind": "sample_norm", "epsilon": 1e-8},
                {"kind": "fixed_iterations", "count": 40},
            ],
            "max_iterations": 40,
        },
        "trials": 3,
    }
    cfg.update(overrides)
    return cfg


class TestConfigLoading:
    def test_fixture_parses(self):
        cfg = load_config(FIXTURE)
        assert cfg["operator"]["kind"] == "gaussian"

    def test_malformed_json_reports_line_and_column(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": "config_v1",\n  "oops": }\n')
        with pytest.raises(ConfigError, match=r"line 2, column"):
            load_config(bad)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "v0.json"
        path.write_text('{"version": "config_v0"}')
        with pytest.raises(ConfigError, match="version"):
            load_config(path)

    def test_unknown_halting_kind(self):
        with pytest.raises(ConfigError):
            parse_recovery({"s": 2, "halting": [{"kind": "clock"}]})

    def test_recovery_defaults(self):
        cfg = parse_recovery({"s": 4})
        assert cfg.lsq.solver == "cg"
        assert cfg.effective_max_iterations() == 30

    @pytest.mark.parametrize(
        "section",
        [
            {"s": 4, "identify_width": 8},
            {"s": 4, "prune_width": 4},
            {"s": 4, "lsq": {"warm_start": "zero"}},
        ],
        ids=["identify_width", "prune_width", "warm_start_zero"],
    )
    def test_fixed_loop_settings_rejected(self, section):
        # these keys once changed the algorithm; ignoring them would run something else
        with pytest.raises(ConfigError):
            parse_recovery(section)

    def test_current_warm_start_accepted(self):
        cfg = parse_recovery({"s": 4, "lsq": {"solver": "richardson", "warm_start": "current"}})
        assert cfg.lsq.solver == "richardson"


class TestBuildNoise:
    def test_exact_norm(self):
        e = build_noise({"norm": 0.25}, 16, False, seed=3)
        assert np.linalg.norm(e) == pytest.approx(0.25, rel=1e-12)

    def test_sigma_mode(self):
        e = build_noise({"sigma": 0.1, "seed": 4}, 50_000, False, seed=0)
        assert np.std(e) == pytest.approx(0.1, rel=0.05)

    def test_complex_when_operator_complex(self):
        e = build_noise({"norm": 1.0}, 8, True, seed=5)
        assert np.iscomplexobj(e)

    def test_none_spec(self):
        assert build_noise(None, 8, False, seed=0) is None

    def test_explicit_seed_wins_over_derived(self):
        spec = {"norm": 0.5, "seed": 4}
        assert np.array_equal(build_noise(spec, 16, False, seed=1), build_noise(spec, 16, False, seed=2))

    @pytest.mark.parametrize("key", ["norm", "sigma"])
    @pytest.mark.parametrize("value", [-0.1, float("nan"), float("inf")])
    def test_negative_or_non_finite_scale_rejected(self, key, value):
        with pytest.raises(ConfigError, match=rf"^noise\.{key}: must be finite and nonnegative"):
            build_noise({key: value}, 16, False, seed=0)


class TestRunTrial:
    def test_bundled_fixture_recovers(self):
        cfg = load_config(FIXTURE)
        outcome = run_trial(cfg)
        assert outcome.relative_error <= 1e-6
        assert outcome.success

    def test_variants_dispatch(self):
        cfg = load_config(FIXTURE)
        for variant in ("standard", "residual", "prune-first"):
            outcome = run_trial(cfg, variant=variant)
            assert outcome.relative_error <= 1e-4

    def test_polish_does_not_hurt_noiseless(self):
        cfg = load_config(FIXTURE)
        plain = run_trial(cfg)
        polished = run_trial(cfg, polish=True)
        assert polished.relative_error <= max(plain.relative_error, 1e-10) * 10

    def test_trial_seeds_differ(self):
        cfg = base_config()
        a = run_trial(cfg, trial_index=0)
        b = run_trial(cfg, trial_index=1)
        assert not np.array_equal(a.truth, b.truth)

    @pytest.mark.parametrize("section", ["operator", "signal", "recovery"])
    def test_section_that_is_not_an_object(self, section):
        with pytest.raises(ConfigError, match=rf"^{section}: "):
            run_trial(base_config(**{section: 5}))

    def test_recovery_s_above_n_rejected(self):
        cfg = base_config()
        cfg["recovery"]["s"] = 65
        with pytest.raises(ConfigError, match=r"^recovery\.s: s = 65 exceeds N = 64"):
            run_trial(cfg)

    def test_noisy_success_threshold(self):
        cfg = base_config(noise={"norm": 0.05})
        outcome = run_trial(cfg)
        # threshold is 15 ||e|| / ||x||; rerun to confirm stability of the rule
        assert outcome.success == (
            outcome.relative_error <= 15 * outcome.noise_norm / np.linalg.norm(outcome.truth)
        )

    def test_explicit_success_threshold_sets_the_bar(self):
        strict = run_trial(base_config(noise={"norm": 0.05}, success_threshold=0))
        assert strict.relative_error > 0 and not strict.success
        assert run_trial(base_config(noise={"norm": 0.05}, success_threshold=1e300)).success


class TestSweep:
    def test_single_cell_reduces_to_recover_aggregates(self):
        cfg = base_config(sweep=None, trials=2)
        results = run_sweep(cfg, jobs=1)
        assert len(results) == 1
        only = results[0]
        assert only.trials == 2
        single = run_trial(cell_config(cfg, results[0].cell), cell_index=0, trial_index=0)
        assert only.median_final_error <= max(10 * single.relative_error, 1e-6) or (
            only.success_rate in (0.0, 0.5, 1.0)
        )

    def test_raised_trials_count_as_failures(self, monkeypatch):
        cfg = base_config(sweep=None, trials=4)
        real_trial = experiment.run_trial

        def every_other_raises(cfg, *, trial_index, **kwargs):
            if trial_index % 2:
                raise RuntimeError("trial blew up")
            return real_trial(cfg, trial_index=trial_index, **kwargs)

        cell = sweep_cells(cfg)[0]
        assert experiment.run_cell(cfg, cell, 4).success_rate == 1.0
        monkeypatch.setattr(experiment, "run_trial", every_other_raises)
        result = experiment.run_cell(cfg, cell, 4)
        assert result.failures == 2
        assert result.success_rate == 0.5

    def test_cell_whose_every_trial_raises(self, monkeypatch, tmp_path):
        def raises(*args, **kwargs):
            raise RuntimeError("trial blew up")

        monkeypatch.setattr(experiment, "run_trial", raises)
        cfg = base_config(sweep=None, trials=3)
        result = experiment.run_cell(cfg, sweep_cells(cfg)[0], 3)
        assert result.success_rate == 0.0 and result.failures == result.trials == 3
        medians = (result.median_iterations, result.median_final_error,
                   result.median_iteration_time_us)
        assert all(math.isnan(v) for v in medians)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_SOLVER
        row = (tmp_path / "out" / "sweep.csv").read_text().split("\n")[1].split(",")
        assert row[5:] == ["3", "0.000000000000e+00", "nan", "nan"]

    def test_grid_shape_and_indexing(self):
        cfg = base_config(sweep={"m": [8, 16], "s": [2, 3], "noise_norm": [0.0]})
        cells = sweep_cells(cfg)
        assert len(cells) == 4
        assert [c["cell_index"] for c in cells] == [0, 1, 2, 3]
        assert cells[1]["m"] == 8 and cells[1]["s"] == 3

    def test_success_rate_monotone_in_m(self):
        # phase-transition sanity: more samples never hurt (within 2 sigma)
        cfg = {
            "version": "config_v1",
            "master_seed": 99,
            "operator": {"kind": "gaussian", "m": 64, "n": 256},
            "signal": {"kind": "sparse", "n": 256, "s": 8, "law": "flat"},
            "noise": None,
            "recovery": {
                "s": 8,
                "halting": [
                    {"kind": "sample_norm", "epsilon": 1e-8},
                    {"kind": "fixed_iterations", "count": 40},
                ],
            },
            "trials": 50,
            "sweep": {"m": [16, 32, 64]},
        }
        results = run_sweep(cfg, jobs=1)
        rates = [r.success_rate for r in results]
        sigma = max(np.sqrt(p * (1 - p) / 50) for p in rates) or 0.07
        assert rates[0] <= rates[1] + 2 * sigma
        assert rates[1] <= rates[2] + 2 * sigma
        assert rates[2] >= 0.9  # m = 8s comfortably recovers

    def test_rerun_and_jobs_byte_identical(self):
        cfg = base_config(sweep={"m": [8, 16]}, trials=3)
        first = sweep_csv(run_sweep(cfg, jobs=1), 64)
        second = sweep_csv(run_sweep(cfg, jobs=1), 64)
        parallel = sweep_csv(run_sweep(cfg, jobs=4), 64)
        assert first == second == parallel

    def test_cell_m_cannot_exceed_n(self):
        cfg = base_config(sweep={"m": [128]})
        with pytest.raises(ConfigError):
            run_sweep(cfg)

    @pytest.mark.parametrize("axes", [{"s": [65]}, {"s": [0]}, {"noise_norm": [-1.0]}])
    def test_cell_outside_the_grid_bounds(self, axes):
        with pytest.raises(ConfigError, match=r"^sweep: cell"):
            run_sweep(base_config(sweep=axes))

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_below_one_rejected(self, trials):
        with pytest.raises(ConfigError, match=r"^trials: "):
            run_sweep(base_config(trials=trials))

    def test_more_than_m_over_three_still_runs(self):
        # 3s > m, and 4s > N for s = 20: trials run and fail to recover,
        # rather than stopping the sweep
        with pytest.warns(UserWarning, match="4 s = 80 exceeds N = 64"):
            results = run_sweep(base_config(sweep={"s": [12, 20]}, trials=2))
        assert [r.failures for r in results] == [0, 0]
        assert [r.success_rate for r in results] == [0.0, 0.0]

    def test_seeded_noise_section_pins_the_sweep_noise(self):
        cfg = base_config(noise={"norm": 0.05, "seed": 11}, sweep=None, trials=1)
        swept = run_sweep(cfg)[0]
        single = run_trial(cfg)
        assert swept.median_final_error == single.relative_error
        other_seed = run_trial(base_config(noise={"norm": 0.05, "seed": 12}))
        assert single.relative_error != other_seed.relative_error

    @pytest.mark.parametrize(
        "noise", [{"sigma": 0.1}, {"norm": 0.1, "sigma": 0.1}, {"seed": 3}, {"sigma": 0.1, "seed": 3}]
    )
    def test_noise_section_a_sweep_cannot_state_rejected(self, noise):
        with pytest.raises(ConfigError, match=r"^noise: "):
            sweep_cells(base_config(noise=noise))

    def test_csv_layout(self):
        cfg = base_config(trials=1)
        text = sweep_csv(run_sweep(cfg, jobs=1), 64)
        lines = text.strip().split("\n")
        assert lines[0] == "cell_index,m,n,s,noise_norm,trials,success_rate,median_iterations,median_final_error"
        assert len(lines) == 2
        assert "e" in lines[1]  # %.12e formatting


class TestCellConfig:
    """A sweep cell is a config: ``cell_config`` sets the cell's operator.m, signal.s,
    recovery.s and noise.norm, and ``run_trial`` of it is that trial of the sweep."""

    def test_every_trial_of_a_two_by_two_sweep_is_run_trial_of_its_cell_config(
        self, monkeypatch
    ):
        cfg = base_config(noise={"norm": 0.01, "seed": 5},
                          sweep={"m": [16, 24], "noise_norm": [0.0, 0.02]}, trials=2)
        swept = {}
        real_trial = experiment.run_trial

        def recording(trial_cfg, *, cell_index, trial_index, **kwargs):
            outcome = real_trial(trial_cfg, cell_index=cell_index, trial_index=trial_index,
                                 **kwargs)
            swept[cell_index, trial_index] = outcome
            return outcome

        monkeypatch.setattr(experiment, "run_trial", recording)
        results = run_sweep(cfg, jobs=1)
        assert len(results) == 4 and len(swept) == 8
        for cell in sweep_cells(cfg):
            for t in range(2):
                alone = real_trial(cell_config(cfg, cell), cell_index=cell["cell_index"],
                                   trial_index=t)
                there = swept[cell["cell_index"], t]
                assert alone.relative_error == there.relative_error
                assert alone.report.iterations_run == there.report.iterations_run
                assert alone.success == there.success
                assert alone.noise_norm == pytest.approx(cell["noise_norm"], abs=1e-15)

    def test_the_cell_sets_four_fields_and_leaves_the_rest(self):
        cfg = base_config(noise={"norm": 0.01, "seed": 5})
        cell = {"cell_index": 3, "m": 24, "s": 2, "noise_norm": 0.5}
        got = cell_config(cfg, cell)
        assert got["operator"] == {**cfg["operator"], "m": 24}
        assert got["signal"] == {**cfg["signal"], "s": 2}
        assert got["recovery"] == {**cfg["recovery"], "s": 2}
        assert got["noise"] == {"norm": 0.5, "seed": 5}
        changed = ("operator", "signal", "recovery", "noise")
        assert {k: v for k, v in got.items() if k not in changed} == \
            {k: v for k, v in cfg.items() if k not in changed}
        assert cfg["operator"]["m"] == 16 and cfg["noise"] == {"norm": 0.01, "seed": 5}

    def test_a_noiseless_config_gets_the_cell_norm(self):
        got = cell_config(base_config(), {"cell_index": 0, "m": 16, "s": 3, "noise_norm": 0.0})
        assert got["noise"] == {"norm": 0.0}


class TestBench:
    def test_step_accounting(self):
        import time

        import cosamp
        from cosamp.recovery import FixedIterations, RecoveryConfig, recover

        op = cosamp.partial_fourier_operator(1024, 4096, seed=30)
        x = cosamp.make_sparse(4096, 16, "flat", position_seed=34, sign_seed=35)
        u = op.apply(x)
        cfg = RecoveryConfig(s=16, halting=FixedIterations(4))
        recover(op, u, cfg)  # warm caches so the timed run is steady
        t0 = time.perf_counter()
        report = recover(op, u, cfg)
        wall_per_iter = (time.perf_counter() - t0) * 1e6 / report.iterations_run
        traced = np.mean([row.total_time_us() for row in report.trace])
        # the six step columns account for the iteration wall time within 10%
        assert traced <= wall_per_iter * 1.001
        assert traced >= wall_per_iter * 0.9

    def test_csv_rows_match_step_names(self):
        import cosamp

        op = cosamp.gaussian_operator(64, 256, seed=32)
        medians = experiment.bench_operator(op, 8, 3, seed=33)
        text = experiment.bench_csv([("gauss", medians)])
        lines = text.strip().split("\n")
        assert lines[0] == "step,gauss"
        names = [line.split(",")[0] for line in lines[1:]]
        assert names == list(experiment.BENCH_STEPS) + ["total"]
