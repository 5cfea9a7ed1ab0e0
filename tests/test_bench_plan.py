"""The traced benchmark patches fermiopt by name (``fermibench/layers.py``,
``PLAN``).  A rename here that leaves one of those names dangling breaks the
traced run; this names the dangling binding without running a workload.
The benchmark's own tests run in the same suite (``testpaths`` lists
``fermibench``), but they see such a rename only as a failed traced run."""

import ast
import importlib
from pathlib import Path

import pytest

LAYERS = Path(__file__).parent.parent / "fermibench" / "layers.py"


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
