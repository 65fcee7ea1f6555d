"""Audit the bundled iris classifier at two noise levels.

Runs the full canary membership audit twice: once with heavy
depolarizing noise at inference (the channel scrubs almost everything
the model knows) and once with light noise. Prints the measured lower
bound next to the closed-form ceiling for each run so the two can be
read side by side.
"""

import numpy as np

from qcanary import (
    AuditConfig, ModelSpec, NoiseSpec, TrainConfig,
    audit, load_iris_binary, theory_epsilon_depolarizing,
)


def run_one(p: float, dataset) -> None:
    config = AuditConfig(
        n=16, K=8, d=0.1,
        model=ModelSpec(qubits=4, ansatz_reps=3),
        train=TrainConfig(epochs=30, learning_rate=0.1),
        noise=NoiseSpec.depolarizing(p),
        seed=7,
    )
    report = audit(config, dataset)
    est = report.estimate
    ceiling = theory_epsilon_depolarizing(p, config.d, 2 ** config.model.qubits)
    print(f"p = {p:.2f}")
    print(f"  seen-canary hit rate    {float(np.mean(report.trial_means_x)):.3f}")
    print(f"  unseen-canary hit rate  {float(np.mean(report.trial_means_y)):.3f}")
    print(f"  epsilon_hat             {est.epsilon_hat:.4f}"
          f"  (p1 - p0 >= {est.gap_lower:.3f}, p0 <= {est.p0_upper:.3f})")
    print(f"  theory ceiling          {ceiling:.4f}")
    print(f"  median reference loss   {report.kappa:.4f}")
    print()


def main() -> None:
    dataset = load_iris_binary()
    print(f"dataset: {dataset.features.shape[0]} rows, "
          f"{dataset.features.shape[1]} features\n")
    for p in (0.9, 0.1):
        run_one(p, dataset)
    print("the hit rates match across noise levels because each canary is")
    print("compared with the same-seed reference under the same channel:")
    print("global depolarizing rescales every expectation by 1 - p, which")
    print("keeps the order of the two losses. what the channel does buy is")
    print("the ceiling: at p = 0.9 no adversary can extract more than")
    print("0.16 nats regardless of how many trials an audit invests")


if __name__ == "__main__":
    main()
