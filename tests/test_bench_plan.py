"""The traced benchmark patches fermiopt by name (``fermibench/layers.py``,
``PLAN``).  A rename here that leaves one of those names dangling breaks the
traced run; this names the dangling binding without running a workload.
The workloads (``fermibench/workloads.py``) look up every other fermiopt
name they call at call time; those names are resolved here too.  The
benchmark's own tests run in the same suite (``testpaths`` lists
``fermibench``), but they see such a rename only as a failed traced run."""

import ast
import functools
import importlib
from pathlib import Path

import pytest

LAYERS = Path(__file__).parent.parent / "fermibench" / "layers.py"
WORKLOADS = Path(__file__).parent.parent / "fermibench" / "workloads.py"
# the fermiopt modules the workloads read their calls from at call time
WORKLOAD_MODULES = ("ensembles", "gaussian", "hamiltonian", "optimizer", "oracle")


def _plan_targets() -> list[tuple[str, str]]:
    tree = ast.parse(LAYERS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "PLAN" for t in node.targets
        ):
            return [(row.elts[0].value, row.elts[1].value) for row in node.value.elts]
    raise AssertionError("no PLAN in fermibench/layers.py")


@pytest.mark.parametrize("module,attr", _plan_targets(), )
def test_plan_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"fermiopt.{module}"), attr))


@pytest.mark.parametrize("module", ["fermiopt.optimizer", "fermiopt.combinatorics"])
def test_sparsity_profile_bound_where_the_trace_expects_it(module):
    from fermiopt.hamiltonian import sparsity_profile

    assert importlib.import_module(module).sparsity_profile is sparsity_profile


def _dotted(node: ast.expr) -> list[str] | None:
    """``["a", "b", "c"]`` for the expression ``a.b.c``; None for any other."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute) and (head := _dotted(node.value)) is not None:
        return [*head, node.attr]
    return None


def _workload_names() -> list[str]:
    tree = ast.parse(WORKLOADS.read_text())
    chains = {tuple(chain) for chain in map(_dotted, ast.walk(tree)) if chain and len(chain) > 1}
    return sorted(".".join(chain) for chain in chains if chain[0] in WORKLOAD_MODULES)


def test_workloads_read_some_fermiopt_names():
    assert {name.split(".")[0] for name in _workload_names()} == set(WORKLOAD_MODULES)


@pytest.mark.parametrize("name", _workload_names())
def test_workload_name_resolves(name):
    # the workloads look each name up at call time, so a fold that deletes
    # one shows up only as a traceback inside the smoke run
    module, *path = name.split(".")
    functools.reduce(getattr, path, importlib.import_module(f"fermiopt.{module}"))
