import dataclasses
import importlib
import json
import math
import os

import numpy as np
import pytest

from qcanary import AuditConfig, load_iris_binary, run_trial, theory_epsilon_measurement
from qcanary.cli import (CONFIG_SCHEMA, ConfigError, build_audit_config,
                         load_config, load_dataset, main, resolve_workers)

SMALL = {
    "dataset.source": "synth",
    "dataset.synth_features": 3,
    "dataset.synth_per_class": 10,
    "model.qubits": 3,
    "model.ansatz_reps": 2,
    "train.epochs": 6,
    "audit.n": 3,
    "audit.K": 2,
    "audit.seed": 5,
}

# SMALL on the bundled iris table, with the synth keys iris does not read
# back at their defaults
IRIS = {"dataset.source": "iris", "model.qubits": 4,
        **{key: CONFIG_SCHEMA[key][1] for key in SMALL if key.startswith("dataset.synth")}}


def write_config(tmp_path, extra=None, name="cfg.json"):
    doc = dict(SMALL)
    if extra:
        doc.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_defaults_cover_every_key():
    doc = load_config(None)
    assert set(doc) == set(CONFIG_SCHEMA)


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"audit.m": 4}')
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_type_checks(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"audit.n": true}')  # bool is not an int here
    with pytest.raises(ConfigError):
        load_config(str(path))
    path.write_text('{"audit.d": "big"}')
    with pytest.raises(ConfigError):
        load_config(str(path))
    path.write_text('{"compare.ks": [1, "4"]}')
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_build_audit_config_roundtrip():
    doc = load_config(None)
    cfg = build_audit_config(doc)
    assert cfg.n == 32 and cfg.K == 8
    assert cfg.model.qubits == 4
    assert cfg.noise.kind == "depolarizing"
    # training noise only turns on when asked
    assert cfg.model.noise.kind == "none"
    doc["train.under_noise"] = True
    assert build_audit_config(doc).model.noise.kind == "depolarizing"


def test_schema_defaults_match_audit_config():
    # `qcanary audit` with an empty config must run the audit() defaults
    for f in dataclasses.fields(AuditConfig):
        if f.default is not dataclasses.MISSING:
            assert CONFIG_SCHEMA[f"audit.{f.name}"][1] == f.default, f.name
    # and every audit.* key names a field, or build_audit_config fails on it
    fields = {f.name for f in dataclasses.fields(AuditConfig)}
    assert {key[len("audit."):] for key in CONFIG_SCHEMA if key.startswith("audit.")} <= fields
    cfg = build_audit_config(load_config(None))
    assert cfg.kappa_rule == "reference" and cfg.estimator == "betting"


def test_invalid_field_is_config_error():
    for key, value in (("audit.beta", 2.0), ("audit.n", 1),
                       ("audit.delta_conf", 1.5), ("audit.delta_conf", 0.0),
                       ("audit.theory_delta", 1.5),
                       ("model.qubits", 0), ("train.epochs", 0), ("noise.p", 2.0),
                       ("audit.seed", -1), ("train.learning_rate", math.nan)):
        doc = load_config(None)
        doc[key] = value
        with pytest.raises(ConfigError):
            build_audit_config(doc)
    doc = load_config(None)
    doc.update({"dataset.source": "synth", "dataset.synth_seed": -1})
    with pytest.raises(ConfigError):
        load_dataset(doc)


def test_resolve_workers_priority():
    assert resolve_workers(3, {"run.workers": 7}) == 3
    assert resolve_workers(None, {"run.workers": 7}) == 7
    assert resolve_workers(None, {"run.workers": None}) == (os.cpu_count() or 1)
    # a count below one is refused, not raised to one
    for flag, key in ((0, 7), (-3, None), (None, 0)):
        with pytest.raises(ConfigError):
            resolve_workers(flag, {"run.workers": key})


def test_audit_command_end_to_end(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "report.json")
    assert main(["audit", "--config", cfg, "--out", out]) == 0
    rep = read_json(out)
    assert set(rep) == {"config", "seeds", "epsilon_hat", "p1_lower",
                        "p0_upper", "theory", "trial_means", "timings"}
    assert rep["config"]["audit.n"] == 3
    assert len(rep["trial_means"]["x"]) == 3
    assert rep["epsilon_hat"] >= 0.0
    # no noise has no ceiling; a depolarizing p of 0 an unbounded one
    assert main(["audit", "--config", write_config(tmp_path, {"noise.kind": "none"}),
                 "--out", out]) == 0
    theory = read_json(out)["theory"]
    assert theory["kind"] == "none" and theory["epsilon"] is None
    assert main(["audit", "--config", write_config(tmp_path, {"noise.p": 0}),
                 "--out", out]) == 0
    assert read_json(out)["theory"]["epsilon"] == "inf"


def test_audit_reports_identical_modulo_timings(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert main(["audit", "--config", cfg, "--out", out1]) == 0
    assert main(["audit", "--config", cfg, "--out", out2]) == 0
    r1, r2 = read_json(out1), read_json(out2)
    r1.pop("timings")
    r2.pop("timings")
    assert r1 == r2


def test_seed_flag_overrides_document(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "r.json")
    assert main(["audit", "--config", cfg, "--seed", "99", "--out", out]) == 0
    rep = read_json(out)
    assert rep["seeds"]["master"] == 99
    assert rep["config"]["audit.seed"] == 99


def test_reembedded_config_reproduces_report(tmp_path):
    cfg = write_config(tmp_path)
    out1 = str(tmp_path / "r1.json")
    assert main(["audit", "--config", cfg, "--out", out1]) == 0
    rep1 = read_json(out1)
    # the embedded config is itself a valid document
    embedded = tmp_path / "embedded.json"
    embedded.write_text(json.dumps(rep1["config"]))
    out2 = str(tmp_path / "r2.json")
    assert main(["audit", "--config", str(embedded), "--out", out2]) == 0
    rep2 = read_json(out2)
    rep1.pop("timings")
    rep2.pop("timings")
    rep1["config"].pop("run.out")
    rep2["config"].pop("run.out")
    assert rep1 == rep2


def test_series_export(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "r.json")
    series = str(tmp_path / "series.csv")
    assert main(["audit", "--config", cfg, "--out", out, "--series", series]) == 0
    with open(series) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "trial,mean_seen,mean_unseen"
    assert len(lines) == 4


def test_config_error_exits_2_without_output(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"no.such.key": 1}')
    out = str(tmp_path / "never.json")
    assert main(["audit", "--config", str(bad), "--out", out]) == 2
    assert not os.path.exists(out)
    # bad values fail the config check before any model trains
    shots = {"noise.kind": "measurement_shots", "noise.shots": 100}
    # the keys and the kappa rule that were removed from the contract
    removed = ({"train.optimizer": "gradient_descent"}, {"model.train_shots": None},
               {"audit.statistic": "per_canary"}, {"audit.eval_encoding": "phi2"},
               {"audit.kappa_value": 0.5}, {"model.noise_placement": "input"},
               {"audit.kappa_rule": "fixed"}, {"model.encoding_axis": "RY"},
               {"audit.delta": 0.0}, {"audit.theory_r": 1})
    # a dataset problem the config causes, and a noise key that noise.kind
    # does not read, set away from its default
    dataset = ({"model.qubits": 4}, {"dataset.synth_features": 0},
               {"dataset.synth_per_class": 0}, {"dataset.synth_per_class": -1},
               {"dataset.synth_separation": math.nan},
               {"dataset.source": "iris", "dataset.classes": ["setosa", "nope"]},
               {**IRIS, "dataset.synth_features": 3}, {**IRIS, "dataset.csv_path": "nofile.csv"},
               {**IRIS, "dataset.classes": []})
    unused = ({"noise.kind": "depolarizing", "noise.shots": 100},
              {**shots, "noise.p": 0.3, "noise.scope": "per_qubit"},
              {"noise.kind": "none", "noise.p": 0.3})
    for extra in ({**shots, "audit.theory_delta": 1.5},
                  {"audit.delta_conf": 1.5}, {"audit.seed": -1},
                  {"dataset.synth_seed": -1}, *removed, *dataset, *unused,
                  {"run.workers": 0}):
        assert main(["audit", "--config", write_config(tmp_path, extra),
                     "--out", out]) == 2, extra
        assert not os.path.exists(out)
    for flags in (["--seed", "-1"], ["--workers", "0"], ["--workers", "-3"]):
        assert main(["audit", "--config", write_config(tmp_path), *flags,
                     "--out", out]) == 2, flags
        assert not os.path.exists(out)


def test_dataset_errors_name_the_file_the_user_named(tmp_path, capsys):
    # IRIS itself loads, so only the key each case sets away from its
    # default can make it fail
    assert load_dataset(load_config(write_config(tmp_path, IRIS))).class_names == (
        "setosa", "versicolor")
    out = str(tmp_path / "never.json")
    cfg = write_config(tmp_path, {**IRIS, "dataset.classes": ["setosa", "nope"]})
    assert main(["audit", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "config error: iris: need exactly two classes" in err, err
    assert "assets" not in err and os.sep + "qcanary" not in err, err
    # a CSV the user named keeps its path in the message
    csv = tmp_path / "three.csv"
    csv.write_text("a,species\n0.1,x\n0.5,y\n0.9,z\n")
    cfg = write_config(tmp_path, {"dataset.source": "csv", "dataset.csv_path": str(csv)})
    assert main(["audit", "--config", cfg, "--out", out]) == 1
    assert f"error: {csv}: need exactly two classes" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_per_qubit_training_noise_exits_2_before_training(tmp_path):
    # training under per-qubit noise is unsupported, so the config check
    # refuses it before any model trains
    cfg = write_config(tmp_path, {"noise.kind": "depolarizing", "noise.scope": "per_qubit",
                                  "train.under_noise": True})
    out = str(tmp_path / "never.json")
    assert main(["audit", "--config", cfg, "--out", out]) == 2
    assert not os.path.exists(out)


def test_shot_noise_audit_trains_under_noise(tmp_path):
    # the calibration pass reads mu noiselessly, whatever the training noise
    cfg = write_config(tmp_path, {"noise.kind": "measurement_shots", "noise.shots": 100,
                                  "train.under_noise": True, "train.epochs": 2,
                                  "audit.n": 4, "audit.K": 2})
    out = str(tmp_path / "report.json")
    assert main(["audit", "--config", cfg, "--out", out]) == 0
    rep = read_json(out)
    assert rep["theory"]["kind"] == "measurement_shots"
    assert rep["theory"]["params"]["mu"] >= 1e-3


def test_runtime_error_exits_1_without_output(tmp_path):
    cfg = write_config(tmp_path, {"dataset.source": "csv",
                                  "dataset.csv_path": str(tmp_path / "missing.csv")})
    out = str(tmp_path / "never.json")
    assert main(["audit", "--config", cfg, "--out", out]) == 1
    assert not os.path.exists(out)
    # a nan cell parses as a float, and scaling would spread it over its column
    rows = "".join(f"0.{i},0.5,0.{9 - i},{('setosa', 'versicolor')[i % 2]}\n"
                   for i in range(10))
    csv = tmp_path / "nan.csv"
    csv.write_text("a,b,c,species\n" + rows + "nan,0.5,0.5,setosa\n")
    cfg = write_config(tmp_path, {"dataset.source": "csv", "dataset.csv_path": str(csv)})
    assert main(["audit", "--config", cfg, "--out", out]) == 1
    assert not os.path.exists(out)


def test_adjacency_violation_exits_1(tmp_path, monkeypatch):
    # offsets of 3 rad put |sin(alpha/2)| near 1, far beyond any d <= 0.1
    audit_module = importlib.import_module("qcanary.audit")
    monkeypatch.setattr(audit_module, "sample_offsets",
                        lambda spec, m, rng: np.full(m, 3.0))
    config = build_audit_config(load_config(None))
    with pytest.raises(ValueError, match="adjacency"):
        run_trial(0, config, load_iris_binary())
    cfg = write_config(tmp_path)
    out = str(tmp_path / "never.json")
    assert main(["audit", "--config", cfg, "--out", out]) == 1
    assert not os.path.exists(out)


def test_failed_write_exits_1_without_temp_file(tmp_path):
    # a directory as the target makes the final rename fail
    target = tmp_path / "taken"
    target.mkdir()
    assert main(["bounds", "--d", "0.1", "--p", "0.05", "--out", str(target)]) == 1
    cfg = write_config(tmp_path)
    out = str(tmp_path / "r.json")
    assert main(["audit", "--config", cfg, "--out", out, "--series", str(target)]) == 1
    assert not os.path.exists(out)
    # a failed report write takes the series it wrote first back out
    series = str(tmp_path / "s.csv")
    assert main(["audit", "--config", cfg, "--out", str(target), "--series", series]) == 1
    assert not os.path.exists(series)
    assert not list(tmp_path.glob("*.tmp-*"))


def test_bounds_command(tmp_path, capsys):
    assert main(["bounds", "--d", "1.0", "--p", "0.5", "--dim", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["depolarizing_epsilon"] == pytest.approx(np.log(3.0), abs=1e-12)
    assert doc["gamma"] == pytest.approx(np.pi, abs=1e-12)


def test_bounds_bad_flag_values_exit_2(tmp_path):
    # a value outside a bound's inputs is a config problem, like a
    # missing --mu; no report is written
    out = str(tmp_path / "never.json")
    shots = ["--shots", "100", "--mu", "0.3"]
    for flags in (["--d", "0"], ["--d", "2"], ["--d", "0.1", "--p", "1.5"],
                  ["--d", "0.1", "--p", "0.05", "--dim", "1"],
                  ["--d", "0.1", "--shots", "0", "--mu", "0.3"],
                  ["--d", "0.1", "--delta-conf", "0"],
                  ["--d", "0.1", *shots, "--target-delta", "2"],
                  ["--d", "1e-4", "--shots", "100", "--mu", "1.5"],
                  ["--d", "1e-4", "--shots", "100", "--mu", "nan"],
                  ["--d", "0.01", *shots, "--r", "0"],
                  ["--d", "0.1", "--shots", "100"]):
        assert main(["bounds", *flags, "--out", out]) == 2, flags
        assert not os.path.exists(out)


def test_bounds_shots_reports_the_finite_shot_ceiling(capsys):
    flags = ["bounds", "--d", "1e-4", "--shots", "400", "--mu", "0.1"]
    assert main(flags) == 0
    eps, c = theory_epsilon_measurement(400, 1e-4, 1, 0.1, 0.01)
    assert json.loads(capsys.readouterr().out)["measurement"] == {"epsilon": eps, "c": c}
    # at these inputs a larger rank factor loosens the ceiling
    assert main([*flags, "--r", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["measurement"]["epsilon"] > eps


def test_bounds_domain_error_exits_1(capsys):
    code = main(["bounds", "--d", "0.9", "--shots", "10000", "--mu", "0.5"])
    assert code == 1
    assert "mu" in capsys.readouterr().err


def test_bounds_negative_ceiling_exits_1(capsys):
    # inside the domain mu (1 - mu - N d r) > 0, yet the closed form is
    # negative here: a ceiling below 0 is a failure, not a result
    code = main(["bounds", "--d", "0.01089", "--shots", "50", "--mu", "0.45"])
    assert code == 1
    assert "nonnegative" in capsys.readouterr().err


def test_coverage_command(tmp_path):
    out = str(tmp_path / "cov.json")
    assert main(["coverage", "--replications", "30", "--n", "64",
                 "--trial-k", "4", "--epsilon-true", "0.0", "--out", out]) == 0
    cov = read_json(out)
    assert cov["replications"] == 30
    assert len(cov["seeds"]["per_replication"]) == 30
    assert cov["violation_rate"] <= 0.2


def test_coverage_rejects_beta_outside_unit_interval(tmp_path):
    out = str(tmp_path / "never.json")
    assert main(["coverage", "--beta", "1.5", "--replications", "2",
                 "--n", "16", "--out", out]) != 0
    assert not os.path.exists(out)


def test_coverage_checks_beta_before_any_replication(tmp_path):
    # with no replications no estimate runs, so the flag is checked up front
    for beta in ("1.5", "0.0"):
        out = str(tmp_path / "never.json")
        assert main(["coverage", "--beta", beta, "--replications", "0", "--out", out]) == 2
        assert not os.path.exists(out)


def test_coverage_zero_replications(capsys):
    assert main(["coverage", "--replications", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["replications"] == 0
    assert doc["violation_rate"] is None
    assert doc["seeds"]["per_replication"] == []


def test_compare_single_k(tmp_path, capsys):
    cfg = tmp_path / "cmp.json"
    cfg.write_text(json.dumps({"compare.ks": [4], "compare.replications": 5}))
    assert main(["compare", "--config", str(cfg)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["rows"]) == 1
    assert doc["rows"][0]["K"] == 4
    assert doc["seeds"]["master"] == 0
    assert main(["compare", "--config", str(cfg), "--seed", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["seeds"]["master"] == 3


def test_compare_rejects_bad_k_list(tmp_path):
    cfg = tmp_path / "cmp.json"
    cfg.write_text(json.dumps({"compare.ks": []}))
    assert main(["compare", "--config", str(cfg)]) == 2


def test_compare_rejects_no_replications(tmp_path):
    cfg = tmp_path / "cmp.json"
    cfg.write_text(json.dumps({"compare.replications": 0}))
    out = str(tmp_path / "never.json")
    assert main(["compare", "--config", str(cfg), "--out", out]) == 2
    assert not os.path.exists(out)


def test_compare_rejects_beta_outside_unit_interval(tmp_path):
    for beta in (1.5, 0.0):
        cfg = tmp_path / "cmp.json"
        cfg.write_text(json.dumps({"compare.ks": [4], "compare.replications": 2,
                                   "compare.beta": beta}))
        out = str(tmp_path / "never.json")
        assert main(["compare", "--config", str(cfg), "--out", out]) == 2
        assert not os.path.exists(out)


def test_coverage_checks_harness_inputs_before_any_replication(tmp_path):
    # each bad input fails the config check, with or without replications
    for flags in (["--trial-k", "0"], ["--n", "1"], ["--p0", "1.5"], ["--p0", "0"],
                  ["--epsilon-true", "-0.5"], ["--epsilon-true", "nan"], ["--seed", "-1"]):
        for reps in ("0", "2"):
            out = str(tmp_path / "never.json")
            assert main(["coverage", "--n", "16", *flags, "--replications", reps,
                         "--out", out]) == 2, (flags, reps)
            assert not os.path.exists(out)


def test_compare_checks_harness_inputs_before_any_replication(tmp_path):
    # max_n below the grid would report max_n without a single estimate;
    # qml_trials is a removed key
    for extra in ({"compare.max_n": 4}, {"compare.p0": 1.5}, {"compare.p0": 0.0},
                  {"compare.epsilon_true": -0.5}, {"compare.epsilon_true": math.nan},
                  {"compare.target_epsilon": math.nan}, {"compare.qml_trials": 0},
                  {"audit.seed": -1}):
        cfg = tmp_path / "cmp.json"
        cfg.write_text(json.dumps({"compare.ks": [4], "compare.replications": 2, **extra}))
        out = str(tmp_path / "never.json")
        assert main(["compare", "--config", str(cfg), "--out", out]) == 2, extra
        assert not os.path.exists(out)


def test_usage_error_exit_code():
    assert main(["audit", "--no-such-flag"]) == 2
    assert main(["compare", "--workers", "2"]) == 2  # a removed flag
    assert main([]) == 2
