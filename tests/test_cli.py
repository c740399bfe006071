"""Command-line harness: subcommands, exit codes, output files."""

import csv
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from cosamp import experiment
from cosamp.cli import EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, main
from cosamp.experiment import ConfigError
from cosamp.serialize import dump_json, read_signal

FIXTURE = Path(__file__).resolve().parent.parent / "demos" / "configs" / "gauss_64_32_s3.json"


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    dump_json(path, payload)
    return path


def small_sweep_config():
    return {
        "version": "config_v1",
        "master_seed": 5,
        "operator": {"kind": "gaussian", "m": 16, "n": 64},
        "signal": {"kind": "sparse", "n": 64, "s": 3, "law": "flat"},
        "noise": None,
        "recovery": {
            "s": 3,
            "halting": [
                {"kind": "sample_norm", "epsilon": 1e-8},
                {"kind": "fixed_iterations", "count": 30},
            ],
        },
        "trials": 3,
        "sweep": {"m": [12, 24]},
    }


class TestRecoverCommand:
    def test_bundled_fixture(self, tmp_path, capsys):
        code = main(["recover", "--config", str(FIXTURE), "--out", str(tmp_path)])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["version"] == "report_v1"
        assert report["relative_error"] <= 1e-6
        with open(tmp_path / "trace.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "v_norm", "y_inf", "err_l2", "err_linf", "step_times_us"]
        assert len(rows) - 1 == report["iterations_run"]

    def test_trace_lines_end_in_newline_only(self, tmp_path):
        assert main(["recover", "--config", str(FIXTURE), "--out", str(tmp_path)]) == EXIT_OK
        text = (tmp_path / "trace.csv").read_bytes()
        assert b"\r" not in text and text.endswith(b"\n")

    def test_zero_iteration_config(self, tmp_path):
        cfg = json.loads(FIXTURE.read_text())
        cfg["recovery"]["halting"] = [{"kind": "fixed_iterations", "count": 0}]
        path = write_config(tmp_path, cfg)
        code = main(["recover", "--config", str(path), "--out", str(tmp_path), "--json"])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["iterations_run"] == 0
        assert report["final"]["support"] == []

    def test_malformed_json_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": "config_v1", "x": }\n')
        code = main(["recover", "--config", str(bad), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "line 1" in err and "column" in err

    def test_variant_flag(self, tmp_path):
        code = main([
            "recover", "--config", str(FIXTURE), "--out", str(tmp_path),
            "--variant", "residual",
        ])
        assert code == EXIT_OK

    def test_polish_flag(self, tmp_path):
        code = main([
            "recover", "--config", str(FIXTURE), "--out", str(tmp_path), "--polish",
        ])
        assert code == EXIT_OK

    def test_polish_rank_deficiency_exit_two(self, tmp_path, capsys):
        # two rows: any three columns are linearly dependent, so polishing an
        # s = 3 support factors a singular Gram
        cfg = json.loads(FIXTURE.read_text())
        angles = 0.3 * np.arange(16)
        matrix = [np.cos(angles).tolist(), np.sin(angles).tolist()]
        cfg["operator"] = {"kind": "dense", "matrix": matrix}
        cfg["signal"]["n"] = 16
        path = write_config(tmp_path, cfg)
        code = main(["recover", "--config", str(path), "--out", str(tmp_path), "--polish"])
        assert code == EXIT_SOLVER
        assert "singular" in capsys.readouterr().err

    def test_seed_override_changes_instance(self, tmp_path):
        cfg = json.loads(FIXTURE.read_text())
        del cfg["operator"]["seed"]
        del cfg["signal"]["position_seed"]
        del cfg["signal"]["sign_seed"]
        path = write_config(tmp_path, cfg)
        main(["recover", "--config", str(path), "--out", str(tmp_path / "a"), "--seed", "1"])
        main(["recover", "--config", str(path), "--out", str(tmp_path / "b"), "--seed", "2"])
        rep_a = json.loads((tmp_path / "a" / "report.json").read_text())
        rep_b = json.loads((tmp_path / "b" / "report.json").read_text())
        assert rep_a["final"]["support"] != rep_b["final"]["support"]


class TestSweepCommand:
    def test_outputs_and_determinism(self, tmp_path):
        path = write_config(tmp_path, small_sweep_config())
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "r1")]) == EXIT_OK
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "r2"),
                     "--jobs", "4"]) == EXIT_OK
        first = (tmp_path / "r1" / "sweep.csv").read_bytes()
        second = (tmp_path / "r2" / "sweep.csv").read_bytes()
        assert first == second
        assert (tmp_path / "r1" / "sweep_timing.csv").exists()

    def test_json_output(self, tmp_path, capsys):
        path = write_config(tmp_path, small_sweep_config())
        code = main(["sweep", "--config", str(path), "--out", str(tmp_path), "--json"])
        assert code == EXIT_OK
        cells = json.loads(capsys.readouterr().out)
        assert len(cells) == 2


class TestRipCommand:
    def test_identity_exhaustive(self, tmp_path, capsys):
        cfg = {
            "version": "config_v1",
            "operator": {"kind": "identity", "n": 16},
        }
        path = write_config(tmp_path, cfg)
        code = main(["rip", "--config", str(path), "--out", str(tmp_path), "--r", "4"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "delta_4 = 0.000000" in out

    def test_both_methods_ordered(self, tmp_path, capsys):
        cfg = {
            "version": "config_v1",
            "master_seed": 3,
            "operator": {"kind": "gaussian", "m": 24, "n": 32, "seed": 3},
        }
        path = write_config(tmp_path, cfg)
        code = main([
            "rip", "--config", str(path), "--out", str(tmp_path),
            "--r", "2", "--method", "both", "--trials", "2000", "--json",
        ])
        assert code == EXIT_OK
        estimates = json.loads(capsys.readouterr().out)
        exact = next(e for e in estimates if e["method"] == "exhaustive")
        sampled = next(e for e in estimates if e["method"] == "monte_carlo")
        assert sampled["delta_lower"] <= exact["delta_exact"] + 1e-12

    def test_budget_exceeded_exit_two(self, tmp_path, capsys):
        cfg = {
            "version": "config_v1",
            "operator": {"kind": "gaussian", "m": 24, "n": 32, "seed": 4},
        }
        path = write_config(tmp_path, cfg)
        code = main([
            "rip", "--config", str(path), "--out", str(tmp_path),
            "--r", "16", "--budget", "1000",
        ])
        assert code == EXIT_SOLVER
        assert "monte_carlo" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_monte_carlo_without_trials_is_a_config_error(self, tmp_path, capsys, trials):
        cfg = {"version": "config_v1", "operator": {"kind": "gaussian", "m": 8, "n": 16, "seed": 1}}
        path = write_config(tmp_path, cfg)
        code = main([
            "rip", "--config", str(path), "--out", str(tmp_path),
            "--r", "3", "--method", "monte-carlo", "--trials", trials,
        ])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "trials" in err


    def test_exhaustive_without_trials_is_a_config_error(self, tmp_path, capsys):
        # exhaustive mode draws nothing, yet reads --trials like Monte Carlo does
        cfg = {"version": "config_v1", "operator": {"kind": "gaussian", "m": 8, "n": 16, "seed": 1}}
        path = write_config(tmp_path, cfg)
        code = main([
            "rip", "--config", str(path), "--out", str(tmp_path),
            "--r", "2", "--method", "exhaustive", "--trials", "0",
        ])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: need trials >= 1")


class TestMalformedSections:
    @pytest.mark.parametrize(
        "command", [["recover"], ["sweep"], ["rip", "--r", "2"], ["gen-signal"]], ids=lambda c: c[0]
    )
    @pytest.mark.parametrize("value", [5, [1], "gaussian"])
    @pytest.mark.parametrize("section", ["operator", "signal", "noise", "recovery"])
    def test_section_that_is_not_an_object(self, tmp_path, capsys, section, value, command):
        cfg = json.loads(FIXTURE.read_text())
        cfg[section] = value
        path = write_config(tmp_path, cfg)
        code = main(command + ["--config", str(path), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and repr(section) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("section", ["operator", "signal", "recovery"])
    def test_null_section_other_than_noise(self, tmp_path, capsys, section):
        cfg = json.loads(FIXTURE.read_text())
        cfg[section] = None
        path = write_config(tmp_path, cfg)
        assert main(["recover", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: config section {section!r}")


GOOD_OPERATOR = {"kind": "gaussian", "m": 16, "n": 64, "seed": 1}

# The malformed-config corpus: one row per command run on the demo config with
# the given dotted paths set to the given values, and the JSON path the error
# must name.  A new config key gets a row here, not a new test.
MALFORMED = [
    ("recover", {"recovery.halting": ["sample_norm"]}, "recovery.halting[0]"),
    ("sweep", {"recovery.halting": ["sample_norm"]}, "recovery.halting[0]"),
    ("recover", {"recovery.halting": [{"kind": "clock"}]}, "recovery.halting[0]"),
    ("sweep", {"recovery.halting.1.count": "x"}, "recovery.halting[1]"),
    ("recover", {"recovery.lsq": 5}, "recovery.lsq"),
    ("sweep", {"recovery.lsq": 5}, "recovery.lsq"),
    ("sweep", {"recovery.lsq.solver": "nope"}, "recovery.lsq"),
    ("recover", {"recovery.s": "x"}, "recovery"),
    ("recover", {"recovery.s": 1000}, "recovery.s"),
    ("sweep", {"recovery.s": 1000}, "sweep"),
    ("recover", {"operator.kind": "nope"}, "operator"),
    ("sweep", {"operator.kind": "nope"}, "operator"),
    ("rip", {"operator.m": "x"}, "operator"),
    ("recover", {"operator": {"kind": "dense", "path": "no-such-matrix.cskm"}}, "operator"),
    ("recover", {"signal.kind": "nope"}, "signal"),
    ("recover", {"signal.n": 32}, "signal.n"),
    ("sweep", {"operator.n": 128}, "signal.n"),
    ("gen-signal", {"signal.s": 100}, "signal"),
    ("recover", {"master_seed": "x"}, "master_seed"),
    ("sweep", {"master_seed": "x"}, "master_seed"),
    ("rip", {"master_seed": "x"}, "master_seed"),
    ("gen-signal", {"master_seed": "x"}, "master_seed"),
    ("sweep", {"success_threshold": "x"}, "success_threshold"),
    ("recover", {"noise": {"norm": -1}}, "noise.norm"),
    ("recover", {"noise": {"sigma": float("nan")}}, "noise.sigma"),
    ("recover", {"noise": {"sigma": "x"}}, "noise.sigma"),
    ("recover", {"noise": {"seed": 3}}, "noise.sigma"),
    ("sweep", {"noise": {"sigma": 0.1}}, "noise"),
    ("sweep", {"noise": {"norm": 0.1, "sigma": 0.1}}, "noise"),
    ("sweep", {"noise": {"seed": 3}}, "noise"),
    ("sweep", {"noise": {"norm": -1}}, "sweep"),
    ("sweep", {"sweep": {"m": 5}}, "sweep"),
    ("sweep", {"sweep": [1]}, "sweep"),
    ("sweep", {"sweep": {"m": [128]}}, "sweep"),
    ("sweep", {"sweep": {"s": [100]}}, "sweep"),
    ("sweep", {"sweep": {"noise_norm": [-1]}}, "sweep"),
    ("sweep", {"sweep": {"noise_norm": [float("inf")]}}, "sweep"),
    ("sweep", {"trials": 0}, "trials"),
    ("sweep", {"trials": -3}, "trials"),
    ("sweep", {"trials": "x"}, "trials"),
    ("bench", {}, "bench"),
    ("bench", {"bench": [1]}, "bench"),
    ("bench", {"bench": {"scenarios": [5]}}, "bench.scenarios[0]"),
    ("bench", {"bench": {"scenarios": [{"operator": GOOD_OPERATOR}, {"operator": {"kind": "nope"}}]}},
     "bench.scenarios[1].operator"),
    ("bench", {"bench": {"scenarios": [{"operator": GOOD_OPERATOR, "iterations": "x"}]}},
     "bench.scenarios[0]"),
    # a count or seed that int() would truncate or take as 1
    ("recover", {"recovery.s": 2.5}, "recovery"),
    ("recover", {"recovery.max_iterations": 3.5}, "recovery"),
    ("recover", {"recovery.lsq.iterations": True}, "recovery.lsq"),
    ("sweep", {"recovery.halting.1.count": 2.5}, "recovery.halting[1]"),
    ("recover", {"master_seed": 2.5}, "master_seed"),
    ("sweep", {"master_seed": True}, "master_seed"),
    ("recover", {"operator.seed": 11.5}, "operator"),
    ("rip", {"operator.m": 32.5}, "operator"),
    ("recover", {"signal.position_seed": 12.5}, "signal"),
    ("recover", {"signal.s": 3.5}, "signal"),
    ("recover", {"noise": {"norm": 0.1, "seed": 0.5}}, "noise"),
    ("sweep", {"trials": 2.5}, "trials"),
    ("sweep", {"trials": True}, "trials"),
    ("sweep", {"sweep": {"m": [32.5]}}, "sweep"),
    ("bench", {"bench": {"scenarios": [{"operator": GOOD_OPERATOR, "iterations": 2.5}]}},
     "bench.scenarios[0]"),
    ("recover", {"success_threshold": -1}, "success_threshold"),
    ("sweep", {"success_threshold": -1e-3}, "success_threshold"),
    ("sweep", {"success_threshold": float("nan")}, "success_threshold"),
    ("recover", {"success_threshold": float("inf")}, "success_threshold"),
    # a config number that is a bool, a string, NaN or infinite, or that the model cannot use
    ("recover", {"recovery.halting.0.epsilon": True}, "recovery.halting[0]"),
    ("recover", {"recovery.halting.0.epsilon": float("nan")}, "recovery.halting[0]"),
    ("recover", {"recovery.halting.0": {"kind": "proxy_infinity_norm", "eta": float("nan")}},
     "recovery.halting[0]"),
    ("recover", {"signal.scale": 0}, "signal"),
    ("sweep", {"signal.scale": float("inf")}, "signal"),
    ("sweep", {"signal": {"kind": "compressible", "p": 0.7, "magnitude": float("inf"), "n": 64}},
     "signal"),
    ("recover", {"signal.scale": "2"}, "signal"),
    ("recover", {"recovery.halting.0.epsilon": "1e-9"}, "recovery.halting[0]"),
    ("recover", {"noise": {"norm": "0.01"}}, "noise.norm"),
    ("sweep", {"success_threshold": "0.5"}, "success_threshold"),
    ("sweep", {"trials": "2"}, "trials"),
    ("recover", {"master_seed": "7"}, "master_seed"),
    ("recover", {"recovery.halting.1.count": "3"}, "recovery.halting[1]"),
    ("recover", {"operator": {"kind": "partial_fourier", "m": 2, "n": 64, "rows": [0.5, 3.7]}},
     "operator"),
    ("recover", {"operator": {"kind": "partial_fourier", "m": 2, "n": 64, "rows": [0, 2**70]}},
     "operator"),
    # a seed outside [0, 2**64), which the streams would fold into range
    ("recover", {"master_seed": -1}, "master_seed"),
    ("sweep", {"master_seed": 2**64}, "master_seed"),
    ("recover", {"operator.seed": 2**70}, "operator"),
    ("recover", {"operator": {"kind": "partial_fourier", "m": 2, "n": 64, "seed": -1}}, "operator"),
    ("recover", {"signal.position_seed": -1}, "signal"),
    ("sweep", {"signal.sign_seed": 2**64 + 3}, "signal"),
    ("recover", {"signal": {"kind": "compressible", "p": 0.7, "n": 64, "permutation_seed": -2}},
     "signal"),
    ("recover", {"noise": {"norm": 0.1, "seed": 2**64}}, "noise"),
]


def set_path(cfg, dotted, value):
    *parents, last = dotted.split(".")
    for key in parents:
        cfg = cfg[int(key)] if isinstance(cfg, list) else cfg[key]
    cfg[int(last) if isinstance(cfg, list) else last] = value


def eval_path(cfg, dotted):
    for key in dotted.split("."):
        cfg = cfg[int(key)] if isinstance(cfg, list) else cfg[key]
    return cfg


class TestMalformedValues:
    @pytest.mark.parametrize(
        "command, edits, path", MALFORMED, ids=[f"{c}-{p}-{i}" for i, (c, _, p) in enumerate(MALFORMED)]
    )
    def test_config_error_names_its_path(self, tmp_path, capsys, command, edits, path):
        cfg = json.loads(FIXTURE.read_text())
        for dotted, value in edits.items():
            set_path(cfg, dotted, value)
        config = write_config(tmp_path, cfg)
        extra = ["--r", "2", "--method", "both", "--trials", "10"] if command == "rip" else []
        code = main([command, "--config", str(config), "--out", str(tmp_path)] + extra)
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG, err
        assert err.startswith(f"config error: {path}: ")
        assert "Traceback" not in err
        assert not (tmp_path / "sweep.csv").exists()

    def test_integral_floats_read_as_their_integers(self, tmp_path):
        cfg = json.loads(FIXTURE.read_text())
        floats = json.loads(FIXTURE.read_text())
        for dotted in ("master_seed", "operator.seed", "signal.s", "recovery.s",
                       "recovery.max_iterations", "recovery.halting.1.count", "trials"):
            set_path(floats, dotted, float(eval_path(cfg, dotted)))
        outputs = []
        for name, payload in (("ints", cfg), ("floats", floats)):
            out = tmp_path / name
            config = write_config(tmp_path, payload, name=f"{name}.json")
            assert main(["sweep", "--config", str(config), "--out", str(out)]) == EXIT_OK
            outputs.append((out / "sweep.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_infinite_signal_scale_stops_the_sweep_before_any_recovery(
        self, tmp_path, capsys, monkeypatch
    ):
        recoveries = []
        monkeypatch.setattr(experiment, "recover", lambda *args: recoveries.append(args))
        cfg = json.loads(FIXTURE.read_text())
        cfg["signal"]["scale"] = float("inf")
        cfg["trials"] = 3
        config = write_config(tmp_path, cfg)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["sweep", "--config", str(config), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: signal: expected a finite number, got inf\n"
        assert recoveries == [] and caught == []
        assert not (tmp_path / "sweep.csv").exists()

    def test_malformed_success_threshold_stops_the_sweep_before_any_recovery(
        self, tmp_path, capsys, monkeypatch
    ):
        recoveries = []
        real_recover = experiment.recover
        monkeypatch.setattr(experiment, "recover",
                            lambda *args: recoveries.append(args) or real_recover(*args))
        cfg = json.loads(FIXTURE.read_text())
        cfg["success_threshold"] = "0.5"
        code = main(["sweep", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: success_threshold: ")
        assert recoveries == []
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_flag_outside_u64_is_a_config_error(self, tmp_path, capsys, seed):
        code = main(["recover", "--config", str(FIXTURE), "--out", str(tmp_path), "--seed", seed])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: master_seed: ")

    def test_config_error_in_a_trial_stops_the_sweep_before_output(
        self, tmp_path, capsys, monkeypatch
    ):
        real_trial = experiment.run_trial

        def second_trial_misconfigured(cfg, *, trial_index, **kwargs):
            if trial_index == 1:
                raise ConfigError("recovery: found in trial 1")
            return real_trial(cfg, trial_index=trial_index, **kwargs)

        monkeypatch.setattr(experiment, "run_trial", second_trial_misconfigured)
        path = write_config(tmp_path, small_sweep_config())
        code = main(["sweep", "--config", str(path), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: recovery: found in trial 1\n"
        assert not (tmp_path / "sweep.csv").exists()


class TestBenchCommand:
    def test_bench_csv_written(self, tmp_path):
        cfg = {
            "version": "config_v1",
            "master_seed": 6,
            "signal": {"kind": "sparse", "n": 256, "s": 8},
            "bench": {
                "s": 8,
                "iterations": 3,
                "scenarios": [
                    {"operator": {"kind": "gaussian", "m": 64, "n": 256, "seed": 1},
                     "label": "dense_n256"},
                    {"operator": {"kind": "partial_fourier", "m": 64, "n": 256, "seed": 1},
                     "label": "fast_n256"},
                ],
            },
        }
        path = write_config(tmp_path, cfg)
        code = main(["bench", "--config", str(path), "--out", str(tmp_path)])
        assert code == EXIT_OK
        with open(tmp_path / "bench.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "dense_n256", "fast_n256"]
        assert [r[0] for r in rows[1:]] == [
            "proxy", "identify", "merge", "estimate", "prune", "update", "total",
        ]

    def test_json_output_is_the_per_step_medians(self, tmp_path, capsys):
        cfg = {
            "version": "config_v1",
            "master_seed": 6,
            "bench": {"s": 4, "iterations": 2, "scenarios": [
                {"operator": {"kind": "gaussian", "m": 32, "n": 64, "seed": 1}, "label": "g"}]},
        }
        path = write_config(tmp_path, cfg)
        code = main(["bench", "--config", str(path), "--out", str(tmp_path), "--json"])
        assert code == EXIT_OK
        medians = json.loads(capsys.readouterr().out)
        assert list(medians) == ["g"]
        steps = ["proxy", "identify", "merge", "estimate", "prune", "update", "total"]
        assert list(medians["g"]) == steps
        assert all(v >= 0.0 for v in medians["g"].values())
        assert (tmp_path / "bench.csv").exists()

    def test_missing_bench_section(self, tmp_path):
        path = write_config(tmp_path, {"version": "config_v1"})
        assert main(["bench", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG


class TestGenSignalCommand:
    def test_writes_signal_binary(self, tmp_path):
        cfg = {
            "version": "config_v1",
            "master_seed": 8,
            "signal": {"kind": "compressible", "n": 64, "p": 0.5, "magnitude": 1.0},
        }
        path = write_config(tmp_path, cfg)
        code = main(["gen-signal", "--config", str(path), "--out", str(tmp_path)])
        assert code == EXIT_OK
        signal = read_signal(tmp_path / "signal.csk1")
        assert signal.size == 64
        mags = np.sort(np.abs(signal))[::-1]
        assert np.allclose(mags, np.arange(1, 65) ** -2.0, rtol=1e-12)

    def test_deterministic_given_seed(self, tmp_path):
        cfg = {
            "version": "config_v1",
            "master_seed": 9,
            "signal": {"kind": "sparse", "n": 32, "s": 4},
        }
        path = write_config(tmp_path, cfg)
        main(["gen-signal", "--config", str(path), "--out", str(tmp_path / "a")])
        main(["gen-signal", "--config", str(path), "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "signal.csk1").read_bytes() == (
            tmp_path / "b" / "signal.csk1"
        ).read_bytes()

    def test_json_output_states_length_and_norm(self, tmp_path, capsys):
        cfg = {
            "version": "config_v1",
            "master_seed": 8,
            "signal": {"kind": "sparse", "n": 32, "s": 4, "law": "flat"},
        }
        path = write_config(tmp_path, cfg)
        code = main(["gen-signal", "--config", str(path), "--out", str(tmp_path), "--json"])
        assert code == EXIT_OK
        stated = json.loads(capsys.readouterr().out)
        signal = read_signal(tmp_path / "signal.csk1")
        assert stated == {"n": 32, "l2": float(np.linalg.norm(signal))} == {"n": 32, "l2": 2.0}


class TestLogging:
    def test_env_var_sets_level(self, tmp_path, monkeypatch):
        import logging

        monkeypatch.setenv("COSAMP_LOG", "debug")
        logging.getLogger().handlers.clear()
        main(["recover", "--config", str(FIXTURE), "--out", str(tmp_path)])
        assert logging.getLogger().level == logging.DEBUG
