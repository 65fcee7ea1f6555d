"""Isolated calls into single layers, each reported as a median.

Each figure explains a traced one: encode100 the encoding spans,
forward/grad_step/train100 the training spans, evaluate16 the evaluation
spans under each noise kind, calibrate the shots audit's calibration and
estimate the bounds step.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from qcanary import (ModelSpec, NoiseSpec, TrainConfig, angle_encode,
                     angle_encode_offset, calibrate_kappa, estimate_epsilon,
                     eval_model, evaluate_losses, generate_canaries,
                     load_iris_binary, loss_gradient, mean_loss, sample_offsets,
                     train)
from qcanary.encoding import OffsetSpec

import checks

NOISES = {
    "none": NoiseSpec.none(),
    "global": NoiseSpec.depolarizing(0.05),
    "per_qubit": NoiseSpec.depolarizing(0.05, "per_qubit"),
    "shots": NoiseSpec.measurement(400),
}


def _median_s(call, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def isolated(seed: int, calibration_config) -> dict:
    dataset = load_iris_binary()
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(10,)))
    spec = ModelSpec(qubits=4, ansatz_reps=3)
    feats, labels = generate_canaries(dataset, 16, rng)
    spec_off = OffsetSpec(d=0.1)
    canaries = [angle_encode_offset(f, sample_offsets(spec_off, 4, rng)) for f in feats]
    base = [angle_encode(row) for row in dataset.features]
    states116 = base + canaries
    labels116 = np.concatenate([dataset.labels, labels])
    params = rng.uniform(-0.1, 0.1, spec.param_count)
    cfg = TrainConfig(epochs=100, seed=int(rng.integers(2**63)))
    model = train(states116, labels116, spec, cfg)
    draws = np.random.default_rng(seed)

    out = {
        "encoding.encode100_ms": 1e3 * _median_s(
            lambda: [angle_encode(row) for row in dataset.features], 15),
        "classifier.forward_us": 1e6 * _median_s(
            lambda: mean_loss(spec, params, base, dataset.labels), 101),
        "classifier.grad_step_us": 1e6 * _median_s(
            lambda: loss_gradient(spec, params, states116, labels116), 51),
        "classifier.train100_ms": 1e3 * _median_s(
            lambda: train(states116, labels116, spec, cfg), 9),
        "audit.calibrate_ms": 1e3 * _median_s(
            lambda: calibrate_kappa(dataset, calibration_config), 5),
    }
    for name, noise in NOISES.items():
        noisy = eval_model(model, noise)
        out[f"classifier.evaluate16_ms.{name}"] = 1e3 * _median_s(
            lambda: evaluate_losses(noisy, canaries, labels, draws),
            9 if name == "per_qubit" else 101)

    matrices = [checks.replay_known_mechanism(math.log(1.25), 64, 16, rng, p0=0.5)
                for _ in range(51)]
    for estimator in ("betting", "bernstein"):
        times = []
        for x, y in matrices:
            t0 = time.perf_counter()
            estimate_epsilon(x, y, 0.05, 0.0, estimator)
            times.append(time.perf_counter() - t0)
        out[f"audit.estimate_ms.{estimator}"] = 1e3 * statistics.median(times)
    return out
