"""The benchmark's workloads: their configs, timed loops and traced runs.

Every audit workload audits the bundled iris table (100 records, 4
features) with n = 64 trials of K = 16 canaries on a 4-qubit, 3-rep
model; the seed given to the benchmark becomes the audit's master seed.
The harness workload runs the estimator on synthetic Bernoulli matrices.
"""

from __future__ import annotations

import importlib
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

import checks
import layers
from tracing import Tracer
from qcanary import (AuditConfig, ModelSpec, NoiseSpec, TrainConfig, angle_encode,
                     angle_encode_offset, audit, estimate_epsilon, eval_model,
                     evaluate_losses, generate_canaries, load_iris_binary, run_trial,
                     sample_offsets, train)
from qcanary.encoding import OffsetSpec

audit_mod = importlib.import_module("qcanary.audit")
classifier_mod = importlib.import_module("qcanary.classifier")

N_TRIALS, K_CANARIES, QUBITS, REPS = 64, 16, 4, 3
BETA = 0.05
LN3 = math.log(3.0)
# the harness: coverage at n = 512, K = 16 (test_06, `qcanary coverage`)
# and trials to reach epsilon_hat >= 0.5 at eps_true = ln 3 (test_09,
# `qcanary compare`)
HARNESS_N, HARNESS_K = 512, 16
HARNESS_EPSILONS = (0.0, LN3)
HARNESS_KS = (1, 4, 16)
TARGET_EPSILON = 0.5
# estimates_per_s on the audit workloads: the audit's own estimate call,
# repeated on its own indicator matrices
RATE_CALLS, RATE_PASSES = 200, 11
POOL_CHECK_TRIALS = 2


@dataclass(frozen=True)
class AuditWorkload:
    noise: NoiseSpec
    d: float
    epochs: int
    workers: int

    def config(self, seed: int) -> AuditConfig:
        return AuditConfig(
            n=N_TRIALS, K=K_CANARIES, d=self.d,
            model=ModelSpec(qubits=QUBITS, ansatz_reps=REPS),
            train=TrainConfig(epochs=self.epochs, learning_rate=0.1),
            noise=self.noise, seed=seed)


AUDITS = {
    "iris-memorize": AuditWorkload(NoiseSpec.none(), d=0.1, epochs=100, workers=1),
    "iris-perqubit-eval": AuditWorkload(NoiseSpec.depolarizing(0.05, "per_qubit"),
                                        d=0.1, epochs=15, workers=1),
    "shots-pool": AuditWorkload(NoiseSpec.measurement(400), d=1e-4, epochs=100,
                                workers=2),
}
NAMES = (*AUDITS, "estimator-harness")


def pool_size(wanted: int) -> int:
    """Pool workers never exceed the CPUs this process may run on."""
    return max(1, min(wanted, len(os.sched_getaffinity(0))))


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _maxrss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


# ---------------------------------------------------------------------------
# checks that need the program's functions

def forward_check(workload: AuditWorkload, seed: int) -> list:
    """Train on encoded data, then compare evaluate_losses with the reference."""
    config = workload.config(seed)
    dataset = load_iris_binary()
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(7,)))
    feats, labels = generate_canaries(dataset, K_CANARIES, rng)
    spec_off = OffsetSpec(d=config.d, delta_conf=config.delta_conf)
    canaries = [angle_encode_offset(f, sample_offsets(spec_off, QUBITS, rng))
                for f in feats]
    base = [angle_encode(row) for row in dataset.features]
    states = base + canaries
    all_labels = np.concatenate([dataset.labels, labels])
    tcfg = replace(config.train, seed=int(rng.integers(2**63)))
    model = train(states, all_labels, config.model, tcfg)
    shown = canaries + base[:16]
    shown_labels = np.concatenate([labels, dataset.labels[:16]])
    draw_seed = int(rng.integers(2**63))
    got = evaluate_losses(eval_model(model, config.noise), shown, shown_labels,
                          np.random.default_rng(draw_seed))
    want = checks.reference_losses(model.params, QUBITS, REPS, shown, shown_labels,
                                   config.noise, np.random.default_rng(draw_seed))
    return checks.compare_losses(got, want, f"evaluate_losses under {config.noise.kind}")


def pool_rows_check(report, config, dataset, seed: int) -> list:
    """Serial run_trial reproduces the pooled rows (test_10's property)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(8,)))
    problems = []
    for i in rng.choice(config.n, POOL_CHECK_TRIALS, replace=False):
        x_row, y_row = run_trial(int(i), config, dataset)
        if not (np.array_equal(x_row, report.trials.x[i])
                and np.array_equal(y_row, report.trials.y[i])):
            problems.append(f"serial run_trial({i}) differs from the pooled rows")
    return problems


def _check_audit(report, config, dataset, first, seed: int) -> list:
    problems = checks.audit_report(report, config.n, config.K)
    if config.noise.kind == "measurement_shots":
        problems += checks.shot_ceiling(report)
        # epsilon_hat <= this ceiling does not hold on every seed; see the
        # FOUND line on _run_trial in CHANGES.md. Reported, not gated.
        eps, ceiling = report.estimate.epsilon_hat, report.theory.get("epsilon")
        if first is None and ceiling is not None and eps > ceiling:
            _note(f"note: epsilon_hat {eps:.4f} exceeds the finite-shot ceiling "
                  f"{ceiling:.4f}")
    if first is None:
        if config.noise.kind == "measurement_shots":
            problems += pool_rows_check(report, config, dataset, seed)
    else:
        problems += checks.same_outputs(first, report)
    return problems


def estimate_rate(report) -> float:
    """Calls per second of the estimate_epsilon call audit() ends with."""
    config = report.config
    args = (report.trials.x, report.trials.y, config.beta, config.resolved_delta(),
            config.estimator, report.theory.get("epsilon"))
    rates = []
    for _ in range(RATE_PASSES):
        t0 = time.perf_counter()
        for _ in range(RATE_CALLS):
            estimate_epsilon(*args)
        rates.append(RATE_CALLS / (time.perf_counter() - t0))
    return statistics.median(rates)


# ---------------------------------------------------------------------------
# end-to-end runs, tracing off

def run_audits(name: str, seed: int, seconds: float) -> dict:
    workload = AUDITS[name]
    config = workload.config(seed)
    dataset = load_iris_binary()
    workers = pool_size(workload.workers)
    problems = forward_check(workload, seed)

    times, first = [], None
    attempted = failed = 0
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < seconds:
        attempted += 1
        t0 = time.perf_counter()
        try:
            report = audit(config, dataset, workers=workers)
        except Exception as err:  # an operation that raises counts as failed
            failed += 1
            _note(f"audit raised {err!r}")
            continue
        times.append(time.perf_counter() - t0)
        last = report
        errors = _check_audit(report, config, dataset, first, seed)
        if errors:
            failed += 1
            _note("audit failed its checks: " + "; ".join(errors))
        elif first is None:
            first = report
    if not times:
        raise RuntimeError("no audit completed")

    rss = _maxrss_mb(resource.RUSAGE_SELF)
    if workers > 1:
        rss += workers * _maxrss_mb(resource.RUSAGE_CHILDREN)
    return {"problems": problems, "attempted": attempted, "failed": failed,
            "audit_s": statistics.median(times), "estimates_per_s": estimate_rate(last),
            "peak_rss_mb": rss}


def _harness_round(seed: int, index: int) -> tuple:
    """One round: coverage at both eps_true, trials to target at each K.

    Returns (estimate_epsilon calls, calls that raised, outputs to check).
    """
    calls = raised = 0
    outputs = []
    for slot, eps in enumerate(HARNESS_EPSILONS):
        ss = np.random.SeedSequence(seed, spawn_key=(index, slot))
        calls += 1
        try:
            est = audit_mod.simulate_known_mechanism(eps, HARNESS_N, HARNESS_K, BETA,
                                                     np.random.default_rng(ss))
        except Exception as err:  # an estimate that raises counts as failed
            raised += 1
            _note(f"simulate_known_mechanism raised {err!r}")
            continue
        outputs.append(("simulate", eps, ss, est))
    for slot, k in enumerate(HARNESS_KS, start=len(HARNESS_EPSILONS)):
        ss = np.random.SeedSequence(seed, spawn_key=(index, slot))
        try:
            n = audit_mod.trials_to_target(TARGET_EPSILON, LN3, k, BETA,
                                           np.random.default_rng(ss))
        except Exception as err:
            calls += 1
            raised += 1
            _note(f"trials_to_target raised {err!r}")
            continue
        # trials_to_target estimates once per doubling from n = 8
        calls += int(round(math.log2(n))) - 2
        outputs.append(("trials", k, ss, n))
    return calls, raised, outputs


class HarnessTally:
    """Checks harness outputs round by round, keeping only running sums."""

    def __init__(self):
        self.failed = 0
        self.problems = []
        self.at_zero = [0, 0]  # runs, runs with epsilon_hat > 0
        self.at_ln3 = [0, 0.0]  # runs, sum of epsilon_hat
        self.needed = {k: [0, 0] for k in HARNESS_KS}  # runs, sum of n
        self._replayed = False

    def add(self, outputs: list) -> None:
        for kind, param, ss, out in outputs:
            if kind == "trials":
                if out not in [8 * 2**j for j in range(10)]:
                    self.failed += 1
                    _note(f"trials_to_target returned {out}, off its doubling grid")
                self.needed[param][0] += 1
                self.needed[param][1] += out
                continue
            x, y = checks.replay_known_mechanism(param, HARNESS_N, HARNESS_K,
                                                 np.random.default_rng(ss))
            if not self._replayed:
                self.problems += checks.replay_matches(out, x, y, BETA)
                self._replayed = True
            errors = checks.bounds_within_means(out, x, y)
            if errors:
                self.failed += 1
                _note("harness estimate failed its checks: " + "; ".join(errors))
            if param == 0.0:
                self.at_zero[0] += 1
                self.at_zero[1] += out.epsilon_hat > 0.0
            else:
                self.at_ln3[0] += 1
                self.at_ln3[1] += out.epsilon_hat

    def finish(self) -> list:
        """Problems of the whole run: coverage, the ln 3 mean, K ordering."""
        problems = list(self.problems)
        runs, over = self.at_zero
        # a violation share this far above beta/2 has probability below 1e-6
        if checks.binomial_tail(over, runs, BETA / 2.0) < 1e-6:
            problems.append(f"epsilon_hat > 0 in {over}/{runs} runs at eps_true = 0")
        mean_ln3 = self.at_ln3[1] / self.at_ln3[0]
        if not 0.0 < mean_ln3 <= LN3:
            problems.append(f"mean estimate {mean_ln3} at eps_true = ln 3 not in (0, ln 3]")
        means = [total / runs for runs, total in self.needed.values()]
        if not means[0] >= means[1] >= means[2]:
            problems.append(f"mean trials to target {means} grow with K")
        return problems


def run_harness(seed: int, seconds: float) -> dict:
    tally, round_times = HarnessTally(), []
    attempted = failed = 0
    start = time.perf_counter()
    while not round_times or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        calls, raised, outputs = _harness_round(seed, len(round_times))
        round_times.append(time.perf_counter() - t0)
        attempted += calls
        failed += raised
        tally.add(outputs)
    return {"problems": tally.finish(), "attempted": attempted,
            "failed": failed + tally.failed,
            "audit_s": statistics.median(round_times),
            "estimates_per_s": attempted / sum(round_times),
            "peak_rss_mb": _maxrss_mb(resource.RUSAGE_SELF)}


def run_end_to_end(name: str, seed: int, seconds: float) -> dict:
    if name in AUDITS:
        return run_audits(name, seed, seconds)
    return run_harness(seed, seconds)


# ---------------------------------------------------------------------------
# traced runs

def _count_states(args, kwargs):
    return {"states": len(args[1] if len(args) > 1 else kwargs["states"])}


def _count_epochs(args, kwargs):
    cfg = args[3] if len(args) > 3 else kwargs["cfg"]
    return {"epochs": cfg.epochs}


def _install(tracer: Tracer) -> None:
    wrap = tracer.wrap
    wrap(audit_mod, "angle_encode", "encoding.encode")
    wrap(audit_mod, "angle_encode_offset", "encoding.encode")
    wrap(audit_mod, "train", "classifier.train", _count_epochs)
    wrap(audit_mod, "evaluate_losses", "classifier.evaluate", _count_states)
    wrap(audit_mod, "estimate_epsilon", "audit.estimate")
    wrap(audit_mod, "betting_lower", "audit.betting_lower")
    wrap(audit_mod, "simulate_known_mechanism", "harness.simulate")
    wrap(audit_mod, "trials_to_target", "harness.trials_to_target")
    wrap(audit_mod, "_run_trial", "audit.trial", required=False)
    wrap(classifier_mod, "apply_circuit_density", "circuits.density")


def _percentile_with_ten_beyond(values: list) -> float:
    """The highest percentile with at least ten samples above it."""
    ordered = sorted(values)
    if len(ordered) < 11:
        return ordered[-1]
    return ordered[len(ordered) - 11]


def _span_metrics(tracer: Tracer) -> dict:
    totals = tracer.totals()

    def total(name):
        return totals.get(name, (0.0, 0.0, 0))[0]

    def own(name):
        return totals.get(name, (0.0, 0.0, 0))[1]

    def calls(name):
        return totals.get(name, (0.0, 0.0, 0))[2]

    trials = tracer.durations("audit.trial")
    epochs = tracer.counts["epochs"]
    return {
        "encoding.encode_s": total("encoding.encode"),
        "encoding.states": calls("encoding.encode"),
        "classifier.train_s": total("classifier.train"),
        "classifier.train_calls": calls("classifier.train"),
        "classifier.epochs": epochs,
        "classifier.epoch_us": 1e6 * total("classifier.train") / epochs if epochs else 0.0,
        "classifier.evaluate_s": total("classifier.evaluate"),
        "classifier.evaluate_self_s": own("classifier.evaluate"),
        "classifier.evaluate_states": tracer.counts["states"],
        "circuits.density_s": total("circuits.density"),
        "circuits.density_calls": calls("circuits.density"),
        "audit.trial_s.p50": statistics.median(trials) if trials else 0.0,
        "audit.trial_s.p84": _percentile_with_ten_beyond(trials) if trials else 0.0,
        "audit.trial_self_s": own("audit.trial"),
        "audit.self_s": own("audit"),
        "audit.estimate_calls": calls("audit.estimate"),
        "audit.betting_lower_calls": calls("audit.betting_lower"),
        "trace.spans": len(tracer.spans),
    }


def traced_audits(name: str, seed: int) -> dict:
    """Untraced serial, pooled and traced serial audits of one config."""
    config = AUDITS[name].config(seed)
    dataset = load_iris_binary()
    workers = pool_size(2)
    attempted = failed = 0

    def timed(run):
        nonlocal attempted, failed
        attempted += 1
        t0 = time.perf_counter()
        try:
            out = run()
        except Exception as err:
            failed += 1
            _note(f"audit raised {err!r}")
            return None, 0.0
        return out, time.perf_counter() - t0

    serial, serial_s = timed(lambda: audit(config, dataset, workers=1))
    pooled, pooled_s = timed(lambda: audit(config, dataset, workers=workers))
    tracer = Tracer()
    _install(tracer)
    try:
        def traced_run():
            root = tracer.open("audit")
            try:
                return audit(config, dataset, workers=1)
            finally:
                tracer.close(root)
        traced, traced_s = timed(traced_run)
    finally:
        tracer.restore()
    reports = [r for r in (serial, pooled, traced) if r is not None]
    for r in reports:
        errors = checks.audit_report(r, config.n, config.K)
        if r is not serial and serial is not None:
            # wrappers and the pool must not change a single output bit
            errors += checks.same_outputs(serial, r)
        if errors:
            failed += 1
            _note("audit failed its checks: " + "; ".join(errors))
    metrics = _span_metrics(tracer)
    metrics.update({
        "audit.calibration_s": serial.timings["calibration_s"] if serial else 0.0,
        "audit.bounds_s": serial.timings["bounds_s"] if serial else 0.0,
        "pool.serial_audit_s": serial_s,
        "pool.pooled_audit_s": pooled_s,
        "pool.speedup": serial_s / pooled_s if pooled_s else 0.0,
        "trace.untraced_s": serial_s,
        "trace.traced_s": traced_s,
        "trace.overhead_pct": 100.0 * (traced_s / serial_s - 1.0) if serial_s else 0.0,
    })
    return {"problems": [], "attempted": attempted, "failed": failed,
            "metrics": metrics, "tracer": tracer}


def traced_harness(seed: int, seconds: float) -> dict:
    """The same harness rounds untraced, then traced, for the overhead."""
    untraced_s, plain = 0.0, []
    while not plain or untraced_s < seconds / 2.0:
        t0 = time.perf_counter()
        plain.append(_harness_round(seed, len(plain)))
        untraced_s += time.perf_counter() - t0
    tracer, results = Tracer(), []
    _install(tracer)
    try:
        traced_s = 0.0
        for index in range(len(plain)):
            t0 = time.perf_counter()
            root = tracer.open("harness.round")
            try:
                results.append(_harness_round(seed, index))
            finally:
                tracer.close(root)
            traced_s += time.perf_counter() - t0
    finally:
        tracer.restore()
    # checked with the originals back, so the checks add no spans or counts
    tally = HarnessTally()
    for _, _, outputs in results:
        tally.add(outputs)
    attempted = sum(calls for calls, _, _ in plain + results)
    failed = sum(raised for _, raised, _ in plain + results)
    for (calls, _, outputs), (_, _, again) in zip(plain, results):
        # the wrappers must not change a single output
        if [o[3] for o in outputs] != [o[3] for o in again]:
            failed += calls
            _note("a traced harness round differs from the untraced one")
    metrics = _span_metrics(tracer)
    metrics.update({
        "audit.calibration_s": 0.0, "audit.bounds_s": 0.0,
        "pool.serial_audit_s": 0.0, "pool.pooled_audit_s": 0.0, "pool.speedup": 0.0,
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_pct": 100.0 * (traced_s / untraced_s - 1.0),
    })
    return {"problems": tally.finish(), "attempted": attempted,
            "failed": failed + tally.failed, "metrics": metrics, "tracer": tracer}


def run_traced(name: str, seed: int, seconds: float) -> dict:
    out = traced_audits(name, seed) if name in AUDITS else traced_harness(seed, seconds)
    out["metrics"].update(layers.isolated(seed, AUDITS["shots-pool"].config(seed)))
    return out
