"""Smaller contract surfaces: options, failure paths, and checks that must
survive ``python -O``."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fermiopt
from fermiopt.cli import main
from fermiopt.combinatorics import DiracError, diffuse_matching, diffuse_partition
from fermiopt.ensembles import gen_mixed_24, gen_sparse_random, gen_syk_q
from fermiopt.gaussian import (
    CorrelationMatrix,
    correlation_from_matching,
    hamiltonian_expectation,
    matching_state_expectation,
    state_to_json,
)
from fermiopt.hamiltonian import InteractionTerm, MajoranaHamiltonian, total_strength
from fermiopt.optimizer import (
    _ranked_parts,
    _repair_two_mode_overlaps,
    lift_to_strict4,
    optimize_mixed_24,
    optimize_strict_q,
    pull_back,
)
from fermiopt.oracle import gaussian_numeric_max

from test_optimizer import hand_built_branch_states


def ham_of(n_modes, *index_sets, coeffs=None):
    coeffs = coeffs or [1.0] * len(index_sets)
    return MajoranaHamiltonian(
        n_modes=n_modes,
        terms=tuple(InteractionTerm(tuple(i), c) for i, c in zip(index_sets, coeffs)),
    )


def test_best_effort_when_every_part_fails():
    # both 4-term classes leave a residual pair forced inside the other term
    ham = ham_of(3, (0, 1, 2, 3), (2, 3, 4, 5), coeffs=[2.0, -1.0])
    for ids in ([0], [1]):
        with pytest.raises(DiracError):
            diffuse_matching(ham, ids)
    result = optimize_strict_q(ham)
    cert = result.certificate
    assert not cert.guarantee_holds
    assert any("best-effort" in note for note in cert.notes)
    assert result.matching.n_majoranas == 6  # a valid state is still returned


def test_cli_ssyk_pipeline_requires_k(tmp_path):
    h = tmp_path / "h.json"
    h.write_text(
        json.dumps({"n_modes": 4, "terms": [{"indices": [0, 1, 2, 3], "coeff": 1.0}]})
    )
    code = main(
        ["optimize", "--in", str(h), "--pipeline", "ssyk",
         "--out-state", str(tmp_path / "s.json"), "--out-cert", str(tmp_path / "c.json")]
    )
    assert code == 1


def test_declared_numpy_floor_has_bitwise_count():
    # the dense oracles call np.bitwise_count, which NumPy added in 2.0
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    floor = re.search(r'"numpy>=(\d+)\.(\d+)', text)
    assert floor is not None, "pyproject.toml declares no numpy floor"
    assert (int(floor[1]), int(floor[2])) >= (2, 0)
    assert hasattr(np, "bitwise_count")


def test_import_loads_no_sparse_matrix_module():
    # the certify path holds its graphs as numpy arrays; scipy.sparse is
    # imported only by the iterative oracle, on its first call
    env = dict(os.environ, PYTHONPATH=str(Path(fermiopt.__file__).resolve().parent.parent))
    probe = "import sys, fermiopt; print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))"
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


def test_package_has_no_bare_assert():
    # ``python -O`` strips asserts, so a check written as one would vanish
    found = []
    for path in sorted(Path(fermiopt.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"bare assert in fermiopt: {', '.join(found)}"


def test_package_has_no_builtin_sum_but_the_inversion_count():
    # from Python 3.12 on the builtin sum adds floats with compensation, so a
    # total built with it changes bits with the interpreter; term-order sums
    # go through hamiltonian._sum_in_order, and canonical_sign counts integers
    found = []
    for path in sorted(Path(fermiopt.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "canonical_sign":
                allowed.update(map(id, ast.walk(node)))
        for node in ast.walk(tree):
            call = isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            if call and node.func.id == "sum" and id(node) not in allowed:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"builtin sum in fermiopt: {', '.join(found)}"


# the views of a matching state that only the JSON edge may read in the package
VIEWS = ("pairs", "as_dict", "from_dict")
VIEW_READERS = {
    ("gaussian.py", name)
    for name in ("Matching", "SignAssignment", "state_to_json", "state_from_json")
}


def test_package_reads_matching_views_only_at_the_json_edge():
    # everything else reads the partner and sign arrays
    found = []
    for path in sorted(Path(fermiopt.__file__).parent.rglob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            if (path.name, getattr(top, "name", None)) in VIEW_READERS:
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr in VIEWS:
                    found.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert not found, f"matching views read outside the JSON edge: {', '.join(found)}"


def test_package_builds_no_term_objects_outside_the_hamiltonian_module():
    # every other module reads a Hamiltonian's index arrays
    found = []
    for path in sorted(Path(fermiopt.__file__).parent.rglob("*.py")):
        if path.name == "hamiltonian.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "terms":
                found.append(f"{path.name}:{node.lineno} .terms")
            if isinstance(node, ast.Call) and "InteractionTerm" in ast.unparse(node.func):
                found.append(f"{path.name}:{node.lineno} InteractionTerm(...)")
    assert not found, f"term objects outside hamiltonian.py: {', '.join(found)}"


# ------------------------------------------------- one term index per Hamiltonian


class _Unreadable(tuple):
    """Terms that refuse to be iterated or indexed; ``len`` still works."""

    def __iter__(self):
        raise RuntimeError("ham.terms read after its index was built")

    def __getitem__(self, item):
        raise RuntimeError("ham.terms read after its index was built")


def _guarded(ham):
    """A copy of ``ham`` that holds its built index and unreadable terms."""
    copy = MajoranaHamiltonian(n_modes=ham.n_modes, terms=ham.terms)
    copy.index
    object.__setattr__(copy, "terms", _Unreadable(ham.terms))
    return copy


def _random_pure_state(m, seed):
    basis, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((m, m)))
    reference = np.kron(np.eye(m // 2), [[0.0, 1.0], [-1.0, 0.0]])
    gamma = basis @ reference @ basis.T
    return CorrelationMatrix((gamma - gamma.T) / 2.0)


def _partition_rows(partition):
    fields = (partition.bound, partition.locality, partition.sparsity, partition.diffuse_flags)
    return [(key, ids.tolist()) for key, ids in partition.parts.items()], fields


def test_certify_and_wick_layers_read_only_the_term_index():
    strict = gen_sparse_random(40, 4, 2, "normal", seed=3)
    mixed = gen_mixed_24(10, 2, seed=1)
    heavy = MajoranaHamiltonian(
        n_modes=6,
        terms=(
            InteractionTerm((0, 1), 0.5),
            InteractionTerm((2, 3, 4, 5), -1.25),
            InteractionTerm((0, 2, 4, 6, 8, 10), 0.75),
            InteractionTerm(tuple(range(10)), 1.5),  # past the Pfaffian expansion
        ),
    )
    for ham in (strict, mixed, heavy):
        assert total_strength(_guarded(ham)) == total_strength(ham)

    for ham, optimize in ((strict, optimize_strict_q), (mixed, optimize_mixed_24)):
        guarded = _guarded(ham)
        partition = diffuse_partition(ham)
        assert _partition_rows(diffuse_partition(guarded)) == _partition_rows(partition)
        ranked = _ranked_parts(partition, ham)
        got = _ranked_parts(partition, guarded)
        assert [(k, ids.tolist(), w) for k, ids, w in got] == [
            (k, ids.tolist(), w) for k, ids, w in ranked
        ]
        expected, fallback = diffuse_matching(ham, ranked[0][1])
        got = diffuse_matching(guarded, ranked[0][1])
        assert np.array_equal(got[0].partner, expected.partner) and got[1] == fallback
        result = optimize(ham)
        state = (result.matching, result.signs)
        closed = matching_state_expectation(*state, ham)
        assert repr(matching_state_expectation(*state, guarded)) == repr(closed)
        corr = correlation_from_matching(*state)
        assert hamiltonian_expectation(corr, guarded) == hamiltonian_expectation(corr, ham)

    corr = _random_pure_state(heavy.n_majoranas, seed=5)
    assert hamiltonian_expectation(corr, _guarded(heavy)) == hamiltonian_expectation(corr, heavy)

    for ham, tilde_matching, tilde_signs in hand_built_branch_states():
        lifted = lift_to_strict4(ham)
        guarded = (_guarded(ham), _guarded(lifted))
        expected = pull_back(tilde_matching, tilde_signs, ham, lifted)
        got = pull_back(tilde_matching, tilde_signs, *guarded)
        assert state_to_json(*got) == state_to_json(*expected)
        repaired = _repair_two_mode_overlaps(*expected, guarded[0])
        assert repaired.signs.tolist() == _repair_two_mode_overlaps(*expected, ham).signs.tolist()

    small = gen_syk_q(4, 4, seed=1)
    expected = gaussian_numeric_max(small, restarts=2, seed=0)
    got = gaussian_numeric_max(_guarded(small), restarts=2, seed=0)
    assert repr(got.value) == repr(expected.value)
    assert got.corr.gamma.tobytes() == expected.corr.gamma.tobytes()
