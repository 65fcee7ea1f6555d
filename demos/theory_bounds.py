"""Print the closed-form privacy bounds over a small parameter sweep.

No training happens here. The depolarizing table shows how fast the
guarantee tightens as the channel probability grows, and the
measurement table shows the shot-noise bound along with its closed-form
slack constant c. The last block demonstrates the domain check:
once N * d * r crowds out mu the mechanism offers no finite guarantee
and the function says so instead of returning a number.
"""

from qcanary import (
    DomainError,
    sample_complexity_estimate,
    theory_epsilon_depolarizing,
    theory_epsilon_measurement,
)


def depolarizing_table() -> None:
    print("depolarizing channel, d = 0.1, D = 16")
    print(f"  {'p':>6}  {'epsilon':>10}")
    for p in (0.01, 0.05, 0.2, 0.5, 0.9, 1.0):
        eps = theory_epsilon_depolarizing(p, 0.1, 16)
        print(f"  {p:6.2f}  {eps:10.4f}")
    print()


def measurement_table() -> None:
    print("finite measurement shots, d = 1e-4, r = 1, mu = 0.1, delta = 0.01")
    print(f"  {'N':>6}  {'epsilon':>10}  {'c':>10}")
    for shots in (100, 400, 1600, 6400):
        eps, c = theory_epsilon_measurement(shots, 1e-4, 1, 0.1, 0.01)
        print(f"  {shots:6d}  {eps:10.4f}  {c:10.6f}")
    print()


def domain_edge() -> None:
    print("domain check: N = 10000, d = 0.01, r = 1, mu = 0.1")
    try:
        theory_epsilon_measurement(10_000, 0.01, 1, 0.1, 0.01)
    except DomainError as err:
        print(f"  DomainError: {err}")
    print()


def planning() -> None:
    gap = 0.3
    for k in (1, 4, 16):
        n = sample_complexity_estimate(gap, 0.05, k)
        print(f"  K = {k:2d} canaries: ~{n} trials to resolve a "
              f"hit-rate gap of {gap}")


def main() -> None:
    depolarizing_table()
    measurement_table()
    domain_edge()
    print("trial-count planning at beta = 0.05")
    planning()


if __name__ == "__main__":
    main()
