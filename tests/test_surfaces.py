"""Smaller contract surfaces: options, failure paths, and checks that must
survive ``python -O``."""

import ast
import json
from pathlib import Path

import pytest

import fermiopt
from fermiopt.cli import main
from fermiopt.combinatorics import DiracError, diffuse_matching
from fermiopt.hamiltonian import InteractionTerm, MajoranaHamiltonian
from fermiopt.optimizer import optimize_strict_q


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


def test_package_has_no_bare_assert():
    # ``python -O`` strips asserts, so a check written as one would vanish
    found = []
    for path in sorted(Path(fermiopt.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"bare assert in fermiopt: {', '.join(found)}"


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
