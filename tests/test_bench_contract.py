import importlib
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench_modules(monkeypatch):
    # the benchmark imports its siblings by bare name, as bench/run.py does
    monkeypatch.syspath_prepend(str(BENCH))
    for name in ("checks", "layers", "tracing", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    return importlib.import_module("workloads"), importlib.import_module("tracing")


def test_bench_imports_and_traced_names_exist(bench_modules):
    # a prune that drops a name the benchmark imports or traces fails here,
    # not later as a broken benchmark run
    workloads, tracing = bench_modules
    importlib.import_module("layers")
    original = workloads.audit_mod.train
    tracer = tracing.Tracer()
    try:
        workloads._install(tracer)
        assert workloads.audit_mod.train is not original
    finally:
        tracer.restore()
    assert workloads.audit_mod.train is original


def test_shot_ceiling_check_passes_on_a_shot_audit(bench_modules):
    # the benchmark recomputes the finite-shot ceiling from the report's
    # theory keys; a change that drops one of them fails here, not later as
    # a failed correctness check in a benchmark run
    from qcanary import (AuditConfig, ModelSpec, NoiseSpec, TrainConfig, audit,
                         load_iris_binary)

    checks = importlib.import_module("checks")
    config = AuditConfig(n=4, K=2, d=1e-4, model=ModelSpec(qubits=4),
                         train=TrainConfig(epochs=2), noise=NoiseSpec.measurement(400))
    assert checks.shot_ceiling(audit(config, load_iris_binary(), workers=1)) == []


def test_forward_check_passes_on_every_audit_workload(bench_modules):
    # the benchmark's forward check trains and reads through the public
    # calls and compares them with its own reference; a break fails here,
    # not in a benchmark run
    workloads, _ = bench_modules
    for name, workload in workloads.AUDITS.items():
        assert workloads.forward_check(workload, 0) == [], name
