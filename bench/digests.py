"""Print SHA-256 digests of every audit workload's outputs, one row per seed.

    python3 bench/digests.py

Rows are markdown table rows for bench/README.md: the first 16 hex digits
of the digests of x and y (uint8 bytes, C order), kappa and epsilon_hat
(little-endian float64). A change that keeps the audit's numbers keeps
these digests; one that changes them on purpose regenerates them here.
"""

import hashlib
import struct
import sys

import run

SEEDS = (0, 1, 2)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def main() -> int:
    if not run.use_sources():
        return 2
    import numpy as np
    import workloads
    from qcanary import audit, load_iris_binary

    dataset = load_iris_binary()
    print("| workload | seed | x | y | kappa | epsilon_hat | epsilon_hat value |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for name, workload in workloads.AUDITS.items():
        for seed in SEEDS:
            report = audit(workload.config(seed), dataset,
                           workers=workloads.pool_size(workload.workers))
            x, y = (np.ascontiguousarray(m, dtype=np.uint8).tobytes()
                    for m in (report.trials.x, report.trials.y))
            kappa = struct.pack("<d", report.kappa)
            eps = struct.pack("<d", report.estimate.epsilon_hat)
            print(f"| {name} | {seed} | {digest(x)} | {digest(y)} | {digest(kappa)} "
                  f"| {digest(eps)} | {report.estimate.epsilon_hat!r} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
