"""Tests of the benchmark itself: span arithmetic, patching and restoring,
and a smoke size of every workload.

    PYTHONPATH=src python3 -m pytest -q fermibench
"""

import json
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import pytest  # noqa: E402

import layers  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402


def test_self_times_subtract_direct_children_only():
    spans = [
        Span(0, "a", 0.0, 10.0, None, 0, True),
        Span(1, "b", 1.0, 4.0, 0, 0, True),
        Span(2, "c", 2.0, 3.0, 1, 0, True),
        Span(3, "d", 5.0, 9.0, 0, 0, True),
    ]
    assert self_times(spans) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}


@pytest.fixture
def fake_package():
    """``fakepkg.a`` defines ``leaf``; ``fakepkg.b`` binds a copy of it, as
    ``from .a import leaf`` would, and calls it from ``outer``."""
    now = [0.0]
    pkg = types.ModuleType("fakepkg")
    mod_a = types.ModuleType("fakepkg.a")
    mod_b = types.ModuleType("fakepkg.b")
    mod_a.__dict__["now"] = now
    exec("def leaf():\n    now[0] += 1.0\n    return 1\n", mod_a.__dict__)
    mod_b.__dict__.update(now=now, leaf=mod_a.leaf)
    exec("def outer():\n    now[0] += 2.0\n    return leaf() + leaf()\n", mod_b.__dict__)
    pkg.leaf = mod_a.leaf
    modules = {"fakepkg": pkg, "fakepkg.a": mod_a, "fakepkg.b": mod_b}
    sys.modules.update(modules)
    yield modules, now
    for name in modules:
        sys.modules.pop(name)


def test_tracer_nested_call_self_time_and_restore(fake_package):
    modules, now = fake_package
    tracer = Tracer(clock=lambda: now[0])
    originals = {name: (m.__dict__.get("leaf"), m.__dict__.get("outer")) for name, m in modules.items()}
    tracer.install(
        "fakepkg",
        [
            ("fakepkg.a", "leaf", lambda fn: tracer.span("a.leaf", fn)),
            ("fakepkg.b", "outer", lambda fn: tracer.span("b.outer", fn)),
        ],
    )
    # every binding of leaf was replaced, not only the defining module's
    assert len(tracer.bindings) == 4
    assert modules["fakepkg.b"].outer() == 2

    by_name = {}
    selfs = self_times(tracer.spans)
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append((span.duration, selfs[span.id]))
    assert by_name == {"b.outer": [(4.0, 2.0)], "a.leaf": [(1.0, 1.0), (1.0, 1.0)]}
    outer = next(s for s in tracer.spans if s.name == "b.outer")
    assert all(s.parent == outer.id for s in tracer.spans if s.name == "a.leaf")

    assert tracer.uninstall()
    for name, module in modules.items():
        assert (module.__dict__.get("leaf"), module.__dict__.get("outer")) == originals[name]
        if "leaf" in module.__dict__:
            assert module.leaf is originals[name][0]


def test_counter_attributes_calls_to_the_open_span(fake_package):
    modules, now = fake_package
    tracer = Tracer(clock=lambda: now[0])
    tracer.install(
        "fakepkg",
        [
            ("fakepkg.a", "leaf", lambda fn: tracer.counter("a.leaf", fn)),
            ("fakepkg.b", "outer", lambda fn: tracer.span("b.outer", fn)),
        ],
    )
    modules["fakepkg.b"].outer()
    modules["fakepkg.a"].leaf()
    assert tracer.uninstall()
    assert tracer.counts["a.leaf"] == 3
    assert tracer.counts["a.leaf@b.outer"] == 2
    assert [s.name for s in tracer.spans] == ["b.outer"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_workload_passes_its_checks(workload):
    instances = workloads.build_instances(workload, seed=5, smoke=True)
    outcomes = [workloads.run_instance(inst) for inst in instances]
    assert [o.problems for o in outcomes] == [[] for _ in outcomes]
    assert any(o.digest for o in outcomes)
    rerun = [workloads.run_instance(inst).digest for inst in instances]
    assert rerun == [o.digest for o in outcomes]


def test_traced_smoke_run_restores_every_fermiopt_name():
    import fermiopt

    tracer = Tracer()
    tracer.install("fermiopt", layers.targets(tracer))
    try:
        instances = {}
        for workload in workloads.WORKLOADS:
            for inst in workloads.build_instances(workload, seed=6, smoke=True):
                tracer.instance = len(instances)
                instances[tracer.instance] = inst
                assert workloads.run_instance(inst).ok
    finally:
        restored = tracer.uninstall()
    assert restored
    for module, key, original in tracer.bindings:
        assert getattr(module, key) is original
    # copies made by ``from .x import f`` were patched as well
    patched = {(module.__name__, key) for module, key, _ in tracer.bindings}
    for module in ("fermiopt", "fermiopt.hamiltonian", "fermiopt.optimizer", "fermiopt.combinatorics"):
        assert (module, "sparsity_profile") in patched
    assert ("fermiopt.oracle", "expm") in patched
    assert fermiopt.sparsity_profile is fermiopt.hamiltonian.sparsity_profile

    metrics = layers.derive(tracer, instances, traced_wall=1.0, untraced_wall=1.0)
    assert list(metrics) == [m.name for m in layers.LAYER_METRICS]
    assert metrics["oracle.matvec.calls"] > 0
    assert metrics["combinatorics.is_diffuse.calls"] > 0
    assert metrics["gaussian.classify_consistency.calls"] > 0


def test_benchmark_json_lists_what_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == worker.E2E_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (m.name, m.unit) for m in layers.LAYER_METRICS
    ]
