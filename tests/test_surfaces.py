"""Smaller contract surfaces: options and failure paths."""

import json

import pytest

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
