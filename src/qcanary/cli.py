"""Command line front end: audits, closed-form bounds, coverage, comparisons.

Configs are flat-key JSON documents checked against CONFIG_SCHEMA before
any work starts; unknown keys, wrong types and a noise.* key set where
noise.kind does not read it are rejected up front, so a typo cannot
silently fall back to a default. Command line flags override document
keys. Reports land atomically (temp file + rename), so a failed run never
leaves a partial file behind.

Exit codes: 0 success, 2 config or schema problem, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time
from datetime import datetime, timezone

import numpy as np

from .audit import (AuditConfig, DomainError, _check_harness, _check_target,
                    audit, simulate_known_mechanism, theory_epsilon_depolarizing,
                    theory_epsilon_measurement, trials_to_target)
from .classifier import ModelSpec, TrainConfig
from .data import load_csv, load_iris_binary, synth_gaussians
from .encoding import gamma_bound, sigma_bound
from .noise import NoiseSpec

class ConfigError(Exception):
    pass


# Every legal config key, its type tag, and its default. "x|null" accepts
# JSON null. The audit.* block mirrors AuditConfig, noise.* and model.*
# mirror NoiseSpec/ModelSpec, and the defaults together form the bundled
# Iris audit (4 qubits, n=32, K=8, mild depolarizing noise).
CONFIG_SCHEMA = {
    "dataset.source": ("str", "iris"),
    "dataset.csv_path": ("str|null", None),
    "dataset.label_column": ("str", "species"),
    "dataset.classes": ("list[str]|null", ["setosa", "versicolor"]),
    "dataset.synth_features": ("int", 4),
    "dataset.synth_per_class": ("int", 50),
    "dataset.synth_separation": ("float", 2.0),
    "dataset.synth_seed": ("int", 7),
    "audit.n": ("int", 32),
    "audit.K": ("int", 8),
    "audit.d": ("float", 0.1),
    "audit.delta_conf": ("float", 0.01),
    "audit.beta": ("float", 0.05),
    "audit.kappa_rule": ("str", "reference"),
    "audit.estimator": ("str", "betting"),
    "audit.seed": ("int", 0),
    "audit.theory_delta": ("float", 0.01),
    "noise.kind": ("str", "depolarizing"),
    "noise.p": ("float", 0.05),
    "noise.shots": ("int", 0),
    "noise.scope": ("str", "global"),
    "model.qubits": ("int", 4),
    "model.ansatz_reps": ("int", 3),
    "train.epochs": ("int", 30),
    "train.learning_rate": ("float", 0.1),
    "train.under_noise": ("bool", False),
    "run.workers": ("int|null", None),
    "run.out": ("str|null", None),
    "compare.ks": ("list[int]", [1, 4, 16]),
    "compare.target_epsilon": ("float", 0.5),
    "compare.epsilon_true": ("float", math.log(3.0)),
    "compare.beta": ("float", 0.05),
    "compare.p0": ("float", 0.3),
    "compare.replications": ("int", 50),
    "compare.max_n": ("int", 4096),
}


def _check_type(key: str, value, tag: str) -> None:
    if tag.endswith("|null"):
        if value is None:
            return
        tag = tag[:-5]
    ok = {
        "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
        "float": lambda v: (isinstance(v, (int, float))
                            and not isinstance(v, bool)),
        "str": lambda v: isinstance(v, str),
        "bool": lambda v: isinstance(v, bool),
        "list[str]": lambda v: (isinstance(v, list)
                                and all(isinstance(s, str) for s in v)),
        "list[int]": lambda v: (isinstance(v, list)
                                and all(isinstance(s, int)
                                        and not isinstance(s, bool) for s in v)),
    }[tag]
    if not ok(value):
        raise ConfigError(f"config key {key!r}: expected {tag}, got {value!r}")


def load_config(path: str | None) -> dict:
    """Read, validate, and default-fill a flat-key config document."""
    doc = {}
    if path is not None:
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except OSError as err:
            raise ConfigError(f"cannot read config {path}: {err}") from err
        except json.JSONDecodeError as err:
            raise ConfigError(f"config {path} is not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    for key, value in doc.items():
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        _check_type(key, value, CONFIG_SCHEMA[key][0])
    resolved = {key: default for key, (_, default) in CONFIG_SCHEMA.items()}
    resolved.update(doc)
    return resolved


def _build_noise(doc: dict) -> NoiseSpec:
    """The config's NoiseSpec. A noise.* key that its kind does not read
    must keep its default: compared with the default rather than checked
    for presence, so a config re-embedded from a report still loads."""
    kind = doc["noise.kind"]
    used = {"none": (), "depolarizing": ("noise.p", "noise.scope"),
            "measurement_shots": ("noise.shots",)}.get(kind)
    if used is None:
        raise ConfigError(f"unknown noise.kind {kind!r}")
    for key in ("noise.p", "noise.shots", "noise.scope"):
        if key not in used and doc[key] != CONFIG_SCHEMA[key][1]:
            raise ConfigError(f"{key} = {doc[key]!r} is unused by noise.kind {kind!r}")
    if kind == "none":
        return NoiseSpec.none()
    if kind == "depolarizing":
        return NoiseSpec.depolarizing(doc["noise.p"], scope=doc["noise.scope"])
    return NoiseSpec.measurement(doc["noise.shots"])


def build_audit_config(doc: dict) -> AuditConfig:
    try:
        noise = _build_noise(doc)
        model = ModelSpec(
            qubits=doc["model.qubits"],
            ansatz_reps=doc["model.ansatz_reps"],
            noise=noise if doc["train.under_noise"] else NoiseSpec.none(),
        )
        train = TrainConfig(
            epochs=doc["train.epochs"],
            learning_rate=doc["train.learning_rate"],
        )
        return AuditConfig(
            n=doc["audit.n"], K=doc["audit.K"], d=doc["audit.d"],
            model=model, train=train, noise=noise,
            delta_conf=doc["audit.delta_conf"], beta=doc["audit.beta"],
            kappa_rule=doc["audit.kappa_rule"],
            estimator=doc["audit.estimator"], seed=doc["audit.seed"],
            theory_delta=doc["audit.theory_delta"])
    except ValueError as err:
        raise ConfigError(str(err)) from err


def load_dataset(doc: dict):
    """The dataset the config names. A CSV file's content is a runtime
    failure; every input of the iris and synth loaders is a config key,
    so their ValueError is a config problem."""
    source = doc["dataset.source"]
    classes = doc["dataset.classes"]
    if source == "csv":
        path = doc["dataset.csv_path"]
        if path is None:
            raise ConfigError("dataset.source 'csv' needs dataset.csv_path")
        return load_csv(path, doc["dataset.label_column"],
                        keep_classes=tuple(classes) if classes else None)
    try:
        if source == "iris":
            return load_iris_binary(tuple(classes) if classes else ("setosa", "versicolor"))
        if source == "synth":
            if doc["dataset.synth_seed"] < 0:
                raise ConfigError(f"dataset.synth_seed {doc['dataset.synth_seed']} "
                                  "must be nonnegative")
            rng = np.random.default_rng(doc["dataset.synth_seed"])
            return synth_gaussians(doc["dataset.synth_features"],
                                   doc["dataset.synth_per_class"],
                                   doc["dataset.synth_separation"], rng)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    raise ConfigError(f"unknown dataset.source {source!r}")


def resolve_workers(flag_value: int | None, doc: dict) -> int:
    """The trial process count: --workers, else run.workers, else os.cpu_count()."""
    for name, value in (("--workers", flag_value), ("run.workers", doc["run.workers"])):
        if value is not None:
            if value < 1:
                raise ConfigError(f"{name} {value} must be at least 1")
            return value
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# output plumbing

def _sanitize(obj):
    """Make a structure JSON-safe: numpy scalars/arrays out, inf/nan as text."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _write_atomic(path: str, text: str) -> None:
    """Temp file + rename; on failure the temp file goes and the error stays."""
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def emit_json(doc: dict, out_path: str | None) -> None:
    text = json.dumps(_sanitize(doc), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"
    if out_path is None:
        sys.stdout.write(text)
        return
    _write_atomic(out_path, text)


def _log(message: str) -> None:
    print(f"[qcanary] {message}", file=sys.stderr)


# ---------------------------------------------------------------------------
# commands

def cmd_audit(args) -> int:
    doc = load_config(args.config)
    if args.seed is not None:
        doc["audit.seed"] = args.seed
    # the output path stays out of the embedded config so reports from
    # the same audit config compare equal regardless of where they landed
    out_path = args.out if args.out is not None else doc["run.out"]
    config = build_audit_config(doc)
    dataset = load_dataset(doc)
    if dataset.feature_count != config.model.qubits:
        raise ConfigError(f"model.qubits is {config.model.qubits} but the dataset has "
                          f"{dataset.feature_count} features")
    workers = resolve_workers(args.workers, doc)

    _log(f"audit: n={config.n} K={config.K} seed={config.seed} workers={workers}")
    report = audit(config, dataset, workers=workers)
    est = report.estimate
    gap = "" if est.gap_lower is None else f"gap_lower={est.gap_lower:.4f}, "
    _log(f"audit: epsilon_hat={est.epsilon_hat:.6f} "
         f"({gap}p1_lower={est.p1_lower:.4f}, p0_upper={est.p0_upper:.4f})")

    timings = dict(report.timings)
    timings["created"] = datetime.now(timezone.utc).isoformat()
    out_doc = {
        "config": doc,
        "seeds": report.seeds,
        "epsilon_hat": est.epsilon_hat,
        "p1_lower": est.p1_lower,
        "p0_upper": est.p0_upper,
        "theory": {**report.theory, "kappa": report.kappa,
                   "gap_lower": est.gap_lower, "delta": est.delta,
                   "guarantee": est.guarantee},
        "trial_means": {"x": report.trial_means_x, "y": report.trial_means_y},
        "timings": timings,
    }
    # the series goes first, so a failed series write prints no report;
    # a failed report write takes the series back out
    if args.series is not None:
        _write_series(args.series, report.trial_means_x, report.trial_means_y)
    try:
        emit_json(out_doc, out_path)
    except BaseException:
        if args.series is not None:
            with contextlib.suppress(OSError):
                os.unlink(args.series)
        raise
    return 0


def _write_series(path: str, means_x, means_y) -> None:
    lines = ["trial,mean_seen,mean_unseen"]
    lines += [f"{i},{float(x)!r},{float(y)!r}"
              for i, (x, y) in enumerate(zip(means_x, means_y))]
    _write_atomic(path, "\n".join(lines) + "\n")


def cmd_bounds(args) -> int:
    out = {"inputs": {"p": args.p, "d": args.d, "dim": args.dim,
                      "shots": args.shots, "r": args.r, "mu": args.mu,
                      "target_delta": args.target_delta,
                      "delta_conf": args.delta_conf}}
    # a flag outside a bound's inputs is a config error; a DomainError, a
    # bound that does not hold at these inputs, stays a runtime failure
    try:
        out["sigma_max"] = sigma_bound(args.d, args.delta_conf)
        out["gamma"] = gamma_bound(args.d)
        if args.p is not None:
            out["depolarizing_epsilon"] = theory_epsilon_depolarizing(
                args.p, args.d, args.dim)
        if args.shots is not None:
            if args.mu is None:
                raise ConfigError("--shots needs --mu for the finite-shot bound")
            eps, c = theory_epsilon_measurement(args.shots, args.d, args.r,
                                                args.mu, args.target_delta)
            out["measurement"] = {"epsilon": eps, "c": c}
    except DomainError:
        raise
    except ValueError as err:
        raise ConfigError(str(err)) from err
    emit_json(out, args.out)
    return 0


def cmd_coverage(args) -> int:
    if args.replications < 0:
        raise ConfigError("--replications must be nonnegative")
    try:
        _check_harness(args.epsilon_true, args.n, args.trial_k, args.beta, args.p0)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    if args.seed < 0:
        raise ConfigError(f"--seed {args.seed} must be nonnegative")
    violations = 0
    estimates = []
    rep_seeds = []
    for r in range(args.replications):
        ss = np.random.SeedSequence(args.seed, spawn_key=(r,))
        rep_seeds.append(int(ss.generate_state(1)[0]))
        est = simulate_known_mechanism(args.epsilon_true, args.n, args.trial_k,
                                       args.beta, np.random.default_rng(ss),
                                       p0=args.p0)
        estimates.append(est.epsilon_hat)
        if est.epsilon_hat > args.epsilon_true:
            violations += 1
    out = {
        "epsilon_true": args.epsilon_true,
        "beta": args.beta,
        "n": args.n,
        "K": args.trial_k,
        "p0": args.p0,
        "replications": args.replications,
        "violations": violations,
        "violation_rate": (violations / args.replications
                           if args.replications else None),
        "mean_epsilon_hat": (float(np.mean(estimates)) if estimates else None),
        "seeds": {"master": args.seed,
                  "scheme": "SeedSequence(master, spawn_key=(r,))",
                  "per_replication": rep_seeds},
    }
    emit_json(out, args.out)
    return 0


def cmd_compare(args) -> int:
    doc = load_config(args.config)
    if args.seed is not None:
        doc["audit.seed"] = args.seed
    out_path = args.out if args.out is not None else doc["run.out"]
    ks = doc["compare.ks"]
    if not ks or any(k < 1 for k in ks):
        raise ConfigError("compare.ks must list positive canary counts")
    if doc["compare.replications"] < 1:
        raise ConfigError("compare.replications must be at least 1")
    try:
        _check_target(doc["compare.target_epsilon"], doc["compare.max_n"])
        # trials_to_target's first grid point is n = 8
        _check_harness(doc["compare.epsilon_true"], 8, min(ks), doc["compare.beta"],
                       doc["compare.p0"])
    except ValueError as err:
        raise ConfigError(str(err)) from err
    if doc["audit.seed"] < 0:
        raise ConfigError(f"audit.seed {doc['audit.seed']} must be nonnegative")

    rows = []
    for idx, k in enumerate(ks):
        rng = np.random.default_rng(
            np.random.SeedSequence(doc["audit.seed"], spawn_key=(idx,)))
        t0 = time.perf_counter()
        counts = [trials_to_target(doc["compare.target_epsilon"],
                                   doc["compare.epsilon_true"], k,
                                   doc["compare.beta"], rng,
                                   p0=doc["compare.p0"],
                                   max_n=doc["compare.max_n"])
                  for _ in range(doc["compare.replications"])]
        row = {
            "K": k,
            "mean_trials_to_target": float(np.mean(counts)),
            "harness_wallclock_s": time.perf_counter() - t0,
        }
        rows.append(row)
        _log(f"compare: K={k} mean trials to target "
             f"{row['mean_trials_to_target']:.1f}")

    out = {
        "target_epsilon": doc["compare.target_epsilon"],
        "epsilon_true": doc["compare.epsilon_true"],
        "beta": doc["compare.beta"],
        "p0": doc["compare.p0"],
        "replications": doc["compare.replications"],
        "seeds": {"master": doc["audit.seed"],
                  "scheme": "SeedSequence(master, spawn_key=(k_index,))"},
        "rows": rows,
    }
    emit_json(out, out_path)
    return 0


# ---------------------------------------------------------------------------
# wiring

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcanary",
        description="Black-box privacy audits for small variational "
                    "quantum classifiers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_audit = sub.add_parser("audit", help="run the canary membership audit")
    p_audit.add_argument("--config", help="flat-key JSON config document")
    p_audit.add_argument("--seed", type=int, help="override audit.seed")
    p_audit.add_argument("--workers", type=int, help="trial process count")
    p_audit.add_argument("--out", help="report path (default: stdout)")
    p_audit.add_argument("--series", help="also write trial means as CSV")
    p_audit.set_defaults(func=cmd_audit)

    p_bounds = sub.add_parser("bounds", help="evaluate closed-form bounds")
    p_bounds.add_argument("--d", type=float, required=True,
                          help="trace-distance budget")
    p_bounds.add_argument("--delta-conf", type=float, default=0.01)
    p_bounds.add_argument("--p", type=float, help="depolarizing probability")
    p_bounds.add_argument("--dim", type=int, default=16,
                          help="Hilbert dimension for the depolarizing bound")
    p_bounds.add_argument("--shots", type=int, help="measurement shot count")
    p_bounds.add_argument("--r", type=int, default=1,
                          help="finite-shot rank factor, 1 for a two-outcome readout")
    p_bounds.add_argument("--mu", type=float,
                          help="smallest outcome probability")
    p_bounds.add_argument("--target-delta", type=float, default=0.01)
    p_bounds.add_argument("--out")
    p_bounds.set_defaults(func=cmd_bounds)

    p_cov = sub.add_parser("coverage",
                           help="estimator coverage on the synthetic harness")
    p_cov.add_argument("--epsilon-true", type=float, default=0.0)
    p_cov.add_argument("--beta", type=float, default=0.05)
    p_cov.add_argument("--n", type=int, default=512)
    p_cov.add_argument("--trial-k", type=int, default=16)
    p_cov.add_argument("--p0", type=float, default=0.3)
    p_cov.add_argument("--replications", type=int, default=2000)
    p_cov.add_argument("--seed", type=int, default=0)
    p_cov.add_argument("--out")
    p_cov.set_defaults(func=cmd_coverage)

    p_cmp = sub.add_parser("compare",
                           help="trials-to-target trend across canary counts")
    p_cmp.add_argument("--config", help="flat-key JSON config document")
    p_cmp.add_argument("--seed", type=int, help="override audit.seed")
    p_cmp.add_argument("--out")
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (DomainError, ValueError, NotImplementedError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
