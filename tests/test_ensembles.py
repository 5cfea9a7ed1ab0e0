import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermiopt.ensembles import (
    SSYK_MAX_N,
    EnsembleSpec,
    gen_mixed_24,
    gen_sparse_random,
    gen_ssyk,
    gen_syk_q,
    gen_two_colored,
    generate,
)
from fermiopt.hamiltonian import serialize_hamiltonian, sparsity_profile


# ------------------------------------------------------------------ dense


def test_syk_minimal_instance():
    ham = gen_syk_q(2, 4, seed=1)
    assert len(ham.terms) == 1
    assert ham.terms[0].indices == (0, 1, 2, 3)


def test_syk_term_count_and_scale():
    ham = gen_syk_q(4, 4, seed=0)
    assert len(ham.terms) == math.comb(8, 4)


def test_syk_normalization_in_expectation():
    # E[sum J_I^2] = 1 after the binomial scaling; average over draws
    n, q = 3, 4
    count = math.comb(2 * n, q)
    values = []
    for seed in range(400):
        ham = gen_syk_q(n, q, seed=seed)
        values.append(sum(t.coeff**2 for t in ham.terms))
    assert np.mean(values) == pytest.approx(1.0, abs=0.1)
    del count


def test_syk_deterministic():
    a = gen_syk_q(5, 4, seed=77)
    b = gen_syk_q(5, 4, seed=77)
    assert serialize_hamiltonian(a) == serialize_hamiltonian(b)
    c = gen_syk_q(5, 4, seed=78)
    assert serialize_hamiltonian(c) != serialize_hamiltonian(a)


# ----------------------------------------------------------------- diluted


def test_ssyk_inclusion_probability_value():
    # n=4, k=2: p = 2 / binom(7,3) = 2/35
    assert 2 / math.comb(7, 3) == pytest.approx(2 / 35)


def test_ssyk_expected_term_count():
    # E[#terms] = p * binom(2n,4) = k*n/2; check within 3 sigma over draws
    n, k, draws = 100, 2, 300
    counts = [len(gen_ssyk(n, k, seed=s).terms) for s in range(draws)]
    expected = k * n / 2
    sigma = math.sqrt(expected) / math.sqrt(draws)  # Poisson-like spread
    assert np.mean(counts) == pytest.approx(expected, abs=4 * sigma)


def test_ssyk_degree_exceeds_k_at_scale():
    # the realized max degree drifts above the expected degree k
    exceed = 0
    for seed in range(20):
        profile = sparsity_profile(gen_ssyk(150, 2, seed=seed))
        if profile.max_degree > 2:
            exceed += 1
    assert exceed >= 18


def test_ssyk_coefficients_scaled():
    n, k = 50, 2
    ham = gen_ssyk(n, k, seed=5)
    # coefficients are N(0,1) / sqrt(2kn); their variance reflects the scale
    scale = 1 / math.sqrt(2 * k * n)
    values = np.array([t.coeff for t in ham.terms]) / scale
    assert np.std(values) == pytest.approx(1.0, abs=0.35)


def test_ssyk_size_limit_is_explicit():
    # binom(2n, 4) first reaches 2^63, the binomial draw's limit, at n = 60989
    assert SSYK_MAX_N == 60988
    assert math.comb(2 * SSYK_MAX_N, 4) < 2**63 <= math.comb(2 * SSYK_MAX_N + 2, 4)
    with pytest.raises(ValueError, match="n <= 60988"):
        gen_ssyk(SSYK_MAX_N + 1, 2, seed=0)


@pytest.mark.parametrize("n,k", [(10, 0), (10, -1), (2, 2), (10, math.comb(19, 3) + 1)])
def test_ssyk_rejects_k_outside_its_range(n, k, monkeypatch):
    # p = k / binom(2n-1, 3) must be a probability, and k = 0 divides by zero
    monkeypatch.setattr("fermiopt.rng.generator", _no_draw)
    with pytest.raises(ValueError, match="1 <= k <= binom"):
        gen_ssyk(n, k, seed=0)


def test_ssyk_accepts_the_ends_of_the_k_range():
    assert len(gen_ssyk(2, 1, seed=0).terms) == 1  # p = 1: the one quartet
    assert len(gen_ssyk(4, math.comb(7, 3), seed=0).terms) == math.comb(8, 4)


def _no_draw(*args, **kwargs):
    raise AssertionError("drew before the input was checked")


def test_ssyk_deterministic():
    a = gen_ssyk(60, 2, seed=3)
    b = gen_ssyk(60, 2, seed=3)
    assert serialize_hamiltonian(a) == serialize_hamiltonian(b)


# ------------------------------------------------------------------ sparse


def test_sparse_random_degree_budget():
    for seed in range(20):
        ham = gen_sparse_random(12, 4, 2, "normal", seed=seed)
        assert sparsity_profile(ham).max_degree <= 2


def test_sparse_random_k1_disjoint():
    ham = gen_sparse_random(12, 4, 1, "normal", seed=1)
    seen = set()
    for t in ham.terms:
        assert not (seen & set(t.indices))
        seen |= set(t.indices)


def test_sparse_random_pm1_coefficients():
    ham = gen_sparse_random(12, 4, 2, "pm1", seed=0)
    assert all(t.coeff in (-1.0, 1.0) for t in ham.terms)


def test_sparse_random_deterministic():
    a = gen_sparse_random(15, 4, 2, "normal", seed=9)
    b = gen_sparse_random(15, 4, 2, "normal", seed=9)
    assert serialize_hamiltonian(a) == serialize_hamiltonian(b)


def test_sparse_random_infeasible_target_errors():
    with pytest.raises(ValueError):
        gen_sparse_random(10, 4, 1, "normal", seed=0, n_terms=500)


def test_sparse_random_rejects_rank_counts_past_int64(monkeypatch):
    # binom(1200, 8) > 2^63: the rank draw and the unranker work in int64
    monkeypatch.setattr("fermiopt.rng.integers_below_streams", _no_draw)
    with pytest.raises(ValueError, match="below 2\\^63"):
        gen_sparse_random(600, 8, 1, "normal", seed=0)
    # at q = 8 the limit falls between n = 443 and 444
    assert math.comb(886, 8) < 2**63 <= math.comb(888, 8)
    with pytest.raises(ValueError, match="below 2\\^63"):
        gen_sparse_random(444, 8, 1, "normal", seed=0)
    monkeypatch.undo()
    assert len(gen_sparse_random(443, 8, 1, "normal", seed=0).terms) > 0


@pytest.mark.parametrize(
    "k,n_terms,message",
    [(0, None, "k >= 1"), (-1, None, "k >= 1"), (2, -3, "n_terms >= 0"), (2, -1, "n_terms >= 0")],
)
def test_sparse_random_rejects_budgets_it_cannot_honour(k, n_terms, message, monkeypatch):
    # k < 1 or a negative term count used to return an empty Hamiltonian
    monkeypatch.setattr("fermiopt.rng.integers_below_streams", _no_draw)
    with pytest.raises(ValueError, match=message):
        gen_sparse_random(20, 4, k, "normal", seed=0, n_terms=n_terms)


def test_mixed_24_weights_and_sparsity():
    ham = gen_mixed_24(12, 2, seed=0)
    assert sparsity_profile(ham).weights_present == {2, 4}
    assert sparsity_profile(ham).max_degree <= 2


@pytest.mark.parametrize("k", [1, 0, -3])
def test_mixed_24_rejects_k_below_2(k, monkeypatch):
    # k = 1, 0 and -3 used to be clamped to one draw of maximum degree 2
    monkeypatch.setattr("fermiopt.rng.integers_below_streams", _no_draw)
    with pytest.raises(ValueError, match="k >= 2"):
        gen_mixed_24(20, k, seed=0)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_mixed_24_splits_the_budget_between_weights(k):
    ham = gen_mixed_24(40, k, seed=k)
    assert sparsity_profile(ham).max_degree <= k
    for weight, budget in ((4, k // 2), (2, k - k // 2)):
        degree = np.zeros(80, dtype=int)
        for t in ham.terms:
            if t.weight == weight:
                degree[list(t.indices)] += 1
        assert 0 < degree.max() <= budget


# ------------------------------------------------------------- two-colored


def test_two_colored_minimal():
    ham, meta = gen_two_colored(3, 1, 4, seed=0)
    assert ham.n_terms == 1  # binom(3,3) subsets, one second-color mode
    assert ham.index.padded.tolist() == [[0, 1, 2, 3]]
    assert (meta.n1, meta.n2, meta.q, meta.couplings.shape) == (3, 1, 4, (1,))


def test_two_colored_term_structure():
    ham, meta = gen_two_colored(6, 2, 4, seed=4)
    n_subsets = math.comb(6, 3)
    assert ham.n_terms == 2 * n_subsets == meta.couplings.size
    assert (ham.index.weights == 4).all()
    # term j * n_subsets + s: the s-th first-color subset, then mode 6 + j
    rows = ham.index.padded
    subsets = [list(phi) for phi in itertools.combinations(range(6), 3)]
    assert rows[:, :3].tolist() == subsets * 2
    assert rows[:, 3].tolist() == [6] * n_subsets + [7] * n_subsets
    # coupling recoverable from the stored normalization
    norm = math.sqrt(2 * n_subsets)
    np.testing.assert_allclose(ham.index.coeffs * norm, meta.couplings, rtol=1e-12, atol=0)
    assert not meta.couplings.flags.writeable


def test_two_colored_rejects_bad_shapes():
    with pytest.raises(ValueError):
        gen_two_colored(2, 3, 4, seed=0)
    with pytest.raises(ValueError):
        gen_two_colored(6, 2, 3, seed=0)


# ----------------------------------------------------------------- generic


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["sykq", "ssyk", "sparse_random"]),
    st.integers(min_value=0, max_value=2**63 - 1),
)
def test_fuzzed_specs_emit_valid_hamiltonians(family, seed):
    if family == "sykq":
        spec = EnsembleSpec(family=family, seed=seed, n=4, q=4)
    elif family == "ssyk":
        spec = EnsembleSpec(family=family, seed=seed, n=12, k=2)
    else:
        spec = EnsembleSpec(family=family, seed=seed, n=12, q=4, k=2)
    ham = generate(spec)
    # constructors validate all invariants; serialization must round-trip
    from fermiopt.hamiltonian import parse_hamiltonian

    assert parse_hamiltonian(serialize_hamiltonian(ham)) == ham


@pytest.mark.parametrize(
    "fields,missing",
    [
        ({"family": "ssyk", "n": 10}, "k"),
        ({"family": "sykq", "q": 4}, "n"),
        ({"family": "sparse_random", "n": 10, "k": 2}, "q"),
        ({"family": "two_colored", "n1": 6, "q": 4}, "n2"),
    ],
)
def test_spec_names_missing_family_parameters(fields, missing):
    with pytest.raises(ValueError, match=f"needs {missing}"):
        EnsembleSpec(seed=0, **fields)


@pytest.mark.parametrize(
    "fields,unread",
    [
        ({"family": "sykq", "n": 4, "q": 4, "k": 9}, "k"),
        ({"family": "sykq", "n": 4, "q": 4, "n1": 3}, "n1"),
        ({"family": "ssyk", "n": 10, "k": 2, "q": 4}, "q"),
        ({"family": "sparse_random", "n": 10, "q": 4, "k": 2, "n2": 1}, "n2"),
        ({"family": "two_colored", "n1": 6, "n2": 2, "q": 4, "n": 8}, "n"),
    ],
)
def test_spec_rejects_a_field_its_family_does_not_read(fields, unread):
    message = f"^family {fields['family']!r} does not read field {unread!r}$"
    with pytest.raises(ValueError, match=message):
        EnsembleSpec(seed=0, **fields)
    doc = {"spec": {"seed": 0, **fields}}
    with pytest.raises(ValueError, match=message):
        EnsembleSpec.from_json(json.dumps(doc))


def test_spec_json_round_trip():
    spec = EnsembleSpec(family="ssyk", seed=7, n=100, k=2)
    assert EnsembleSpec.from_json(spec.to_json()) == spec
