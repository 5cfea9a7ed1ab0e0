"""Smaller contract surfaces: debug serializers, options, failure paths."""

import json

import numpy as np
import pytest

from fermiopt.cli import main
from fermiopt.combinatorics import DiracError, diffuse_matching, diffuse_partition
from fermiopt.gaussian import (
    CorrelationMatrix,
    correlation_from_matching,
    correlation_to_json,
    state_from_json,
    state_to_json,
)
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


def test_partition_debug_json():
    ham = ham_of(8, (0, 1, 2, 3), (8, 9, 10, 11))
    partition = diffuse_partition(ham)
    doc = json.loads(partition.to_json())
    assert doc["bound"] == partition.bound
    listed = sorted(i for ids in doc["parts"].values() for i in ids)
    assert listed == [0, 1]


def test_gamma_form_state_round_trip():
    matching_state = correlation_from_matching(
        *state_from_json(
            state_to_json(
                *state_from_json(
                    '{"n_modes": 2, "pairs": [[0, 2], [1, 3]], "signs": [1, -1]}'
                )
            )
        )
    )
    text = correlation_to_json(matching_state)
    parsed = state_from_json(text)
    assert isinstance(parsed, CorrelationMatrix)
    assert np.array_equal(parsed.gamma, matching_state.gamma)


def test_cli_verify_accepts_gamma_form(tmp_path, capsys):
    h = tmp_path / "h.json"
    h.write_text(
        json.dumps({"n_modes": 2, "terms": [{"indices": [0, 1], "coeff": 2.0}]})
    )
    corr = correlation_from_matching(
        *state_from_json('{"n_modes": 2, "pairs": [[0, 1], [2, 3]], "signs": [1, 1]}')
    )
    state = tmp_path / "gamma.json"
    state.write_text(correlation_to_json(corr))
    assert main(["verify", "--in", str(h), "--state", str(state)]) == 0
    assert "wick" in capsys.readouterr().out


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
