"""Run one benchmark workload and print its result as one JSON line.

    python3 bench/run.py --workload iris-memorize --seed 0 --seconds 15 --trace 0

With --trace 0 the result holds the end-to-end metrics, measured with no
tracing. With --trace 1 it holds the per-layer metrics from a separate
traced run, whose spans are written to bench/runs/. The program is
imported from src/ of the checkout this file sits in. Workloads, metrics
and their meaning are in bench/README.md.
"""

import os

# one BLAS thread here and in every process this one starts; numpy reads
# these when it loads, so they are set before anything imports it
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "runs"
SETUP_REPEATS = 7

SETUP_CODE = """
import json, time
t0 = time.perf_counter()
import qcanary
t1 = time.perf_counter()
if {load}:
    qcanary.load_iris_binary()
t2 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t1]))
"""


def use_sources() -> bool:
    """Import qcanary from this checkout's src/, here and in child processes."""
    if not (SRC / "qcanary" / "__init__.py").is_file():
        print(f"no qcanary package under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return True


def declared_units(trace: bool) -> dict:
    """{metric: unit} as BENCHMARK.json declares them for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure_setup(load: bool) -> tuple:
    """Median (import, load) seconds over fresh interpreter processes."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE.format(load=load)],
                              capture_output=True, text=True, check=True, timeout=120)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    totals = [i + d for i, d in samples]
    return (statistics.median(totals), statistics.median(i for i, _ in samples),
            statistics.median(d for _, d in samples))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not use_sources():
        return 2
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.NAMES)}")
    is_audit = args.workload in workloads.AUDITS

    if args.trace:
        out = workloads.run_traced(args.workload, args.seed, args.seconds)
        _, import_s, load_s = measure_setup(is_audit)
        values = dict(out["metrics"], **{"setup.import_s": import_s, "data.load_s": load_s})
        RUNS.mkdir(exist_ok=True)
        out["tracer"].dump(RUNS / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        out = workloads.run_end_to_end(args.workload, args.seed, args.seconds)
        values = {k: out[k] for k in ("audit_s", "estimates_per_s", "peak_rss_mb")}
        # after the RSS reading above, so these children do not enter it
        values["setup_s"] = measure_setup(is_audit)[0]

    units = declared_units(bool(args.trace))
    if set(values) != set(units):
        print(f"run.py: measured {sorted(set(values) ^ set(units))} differ from "
              "BENCHMARK.json", file=sys.stderr)
        return 3

    for problem in out["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not out["problems"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(values.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
