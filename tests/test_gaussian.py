
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermiopt import gaussian
from fermiopt.gaussian import (
    CorrelationMatrix,
    Matching,
    PfaffianError,
    SignAssignment,
    assign_signs,
    classify_consistency,
    condition_on_dimer,
    correlation_from_matching,
    hamiltonian_expectation,
    matching_state_expectation,
    monomial_expectation,
    pfaffian,
)
from fermiopt.hamiltonian import InteractionTerm, MajoranaHamiltonian
from fermiopt.oracle import (
    dense_dimer_state,
    dense_expectation,
    dense_state_from_matching,
    dense_term,
)

from bruteforce import pfaffian_matching_sum, random_antisymmetric


def random_matching_state(rng, n_modes):
    modes = list(rng.permutation(2 * n_modes))
    pairs = tuple(
        (min(a, b), max(a, b)) for a, b in zip(modes[::2], modes[1::2])
    )
    matching = Matching(pairs)
    signs = SignAssignment.from_dict(
        {p: int(rng.choice([-1, 1])) for p in matching.pairs}
    )
    return matching, signs


def random_hamiltonian(rng, n_modes, n_terms, weights=(2, 4)):
    chosen = set()
    while len(chosen) < n_terms:
        w = int(rng.choice(weights))
        idx = tuple(sorted(rng.choice(2 * n_modes, size=w, replace=False).tolist()))
        chosen.add(idx)
    terms = tuple(InteractionTerm(idx, float(rng.standard_normal())) for idx in sorted(chosen))
    return MajoranaHamiltonian(n_modes=n_modes, terms=terms)


# ---------------------------------------------------------------- pfaffian


def test_pfaffian_2x2():
    assert pfaffian(np.array([[0.0, 2.5], [-2.5, 0.0]])) == 2.5


def test_pfaffian_4x4_closed_form():
    rng = np.random.default_rng(0)
    a, b, c, d, e, f = rng.standard_normal(6)
    mat = np.array(
        [
            [0, a, b, c],
            [-a, 0, d, e],
            [-b, -d, 0, f],
            [-c, -e, -f, 0],
        ]
    )
    assert np.isclose(pfaffian(mat), a * f - b * e + c * d, rtol=1e-12)


def test_pfaffian_odd_dimension_rejected():
    with pytest.raises(PfaffianError):
        pfaffian(np.zeros((3, 3)))


def test_pfaffian_asymmetry_rejected():
    with pytest.raises(PfaffianError):
        pfaffian(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_pfaffian_integer_8x8_matches_matching_sum():
    rng = np.random.default_rng(7)
    for _ in range(20):
        mat = random_antisymmetric(rng, 8, integer=True)
        assert pfaffian(mat) == pytest.approx(pfaffian_matching_sum(mat), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([2, 4, 6, 8, 10, 12, 14, 16]),
)
def test_pfaffian_squares_to_determinant(seed, m):
    rng = np.random.default_rng(seed)
    mat = random_antisymmetric(rng, m)
    pf = pfaffian(mat)
    det = np.linalg.det(mat)
    assert np.isclose(pf * pf, det, rtol=1e-8, atol=1e-10)


# ------------------------------------------------- matchings and matrices


def test_correlation_single_dimer():
    matching = Matching(((0, 1),))
    corr = correlation_from_matching(matching, SignAssignment.all_plus(matching))
    assert np.array_equal(corr.gamma, np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_correlation_two_dimers_placement():
    matching = Matching(((0, 2), (1, 3)))
    signs = SignAssignment.from_dict({(0, 2): 1, (1, 3): -1})
    corr = correlation_from_matching(matching, signs)
    expected = np.zeros((4, 4))
    expected[0, 2], expected[2, 0] = 1, -1
    expected[1, 3], expected[3, 1] = -1, 1
    assert np.array_equal(corr.gamma, expected)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=6))
def test_matching_correlation_is_orthogonal(seed, n_modes):
    rng = np.random.default_rng(seed)
    matching, signs = random_matching_state(rng, n_modes)
    corr = correlation_from_matching(matching, signs)
    assert np.array_equal(corr.gamma.T @ corr.gamma, np.eye(2 * n_modes))


def test_correlation_validation_rejects_overweight():
    bad = np.zeros((4, 4))
    bad[0, 1], bad[1, 0] = 1.5, -1.5
    with pytest.raises(ValueError):
        CorrelationMatrix(bad)


@pytest.mark.filterwarnings("ignore:invalid value encountered")  # inf - inf
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_correlation_validation_rejects_non_finite_entries(value):
    bad = np.zeros((4, 4))
    bad[0, 1], bad[1, 0] = value, -value
    with pytest.raises(ValueError, match="antisymmetry defect"):
        CorrelationMatrix(bad)


def test_correlation_validation_leaves_its_input_alone():
    raw = random_antisymmetric(np.random.default_rng(2), 6) / 10.0
    raw[0, 1] += 1e-13  # within the antisymmetry tolerance
    before = raw.copy()
    corr = CorrelationMatrix(raw)
    assert np.array_equal(raw, before)
    assert np.array_equal(corr.gamma, (before - before.T) / 2.0)


# ------------------------------------------------------------ expectations


def test_monomial_two_point():
    matching = Matching(((0, 1), (2, 3)))
    signs = SignAssignment.from_dict({(0, 1): -1, (2, 3): 1})
    corr = correlation_from_matching(matching, signs)
    assert monomial_expectation(corr, (0, 1)) == -1.0


def test_monomial_consistent_quartic_against_dense():
    matching = Matching(((0, 1), (2, 3)))
    signs = SignAssignment.all_plus(matching)
    corr = correlation_from_matching(matching, signs)
    value = monomial_expectation(corr, (0, 1, 2, 3))
    rho = dense_state_from_matching(matching, signs)
    dense = float(np.real(np.trace(dense_term((0, 1, 2, 3), 2) @ rho.matrix)))
    assert value == pytest.approx(1.0, abs=1e-12)
    assert value == pytest.approx(dense, abs=1e-10)


def test_monomial_unmatched_support_vanishes():
    matching = Matching(((0, 1), (2, 3)))
    corr = correlation_from_matching(matching, SignAssignment.all_plus(matching))
    assert monomial_expectation(corr, (0, 2)) == 0.0


def test_hamiltonian_expectation_maximally_mixed():
    corr = CorrelationMatrix(np.zeros((8, 8)))
    ham = random_hamiltonian(np.random.default_rng(3), 4, 5)
    assert hamiltonian_expectation(corr, ham) == 0.0


def test_hamiltonian_expectation_single_dimer_against_dense():
    ham = MajoranaHamiltonian(n_modes=1, terms=(InteractionTerm((0, 1), 2.0),))
    matching = Matching(((0, 1),))
    signs = SignAssignment.all_plus(matching)
    corr = correlation_from_matching(matching, signs)
    assert hamiltonian_expectation(corr, ham) == 2.0
    rho = dense_state_from_matching(matching, signs)
    assert dense_expectation(ham, rho) == pytest.approx(2.0, abs=1e-12)


def test_hamiltonian_expectation_takes_no_pfaffian_up_to_weight_eight(monkeypatch):
    def refuse(mat):
        raise AssertionError("per-term pfaffian called")

    monkeypatch.setattr("fermiopt.gaussian.pfaffian", refuse)
    rng = np.random.default_rng(8)
    ham = random_hamiltonian(rng, 5, n_terms=12, weights=(2, 4))
    basis, _ = np.linalg.qr(rng.standard_normal((10, 10)))
    gamma = basis @ correlation_from_matching(*random_matching_state(rng, 5)).gamma @ basis.T
    assert np.isfinite(hamiltonian_expectation(CorrelationMatrix((gamma - gamma.T) / 2), ham))
    matching, signs = random_matching_state(rng, 5)
    wick = hamiltonian_expectation(correlation_from_matching(matching, signs), ham)
    assert wick == matching_state_expectation(matching, signs, ham)


def test_gaussian_module_imports_neither_oracle_nor_scipy():
    # load fermiopt.gaussian under a bare package, without fermiopt/__init__.py
    package = str(Path(gaussian.__file__).parent)
    probe = (
        "import sys, types\n"
        f"pkg = types.ModuleType('fermiopt'); pkg.__path__ = [{package!r}]\n"
        "sys.modules['fermiopt'] = pkg\n"
        "import fermiopt.gaussian\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'fermiopt')))\n"
    )
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["fermiopt", "fermiopt.gaussian", "fermiopt.hamiltonian"]


@pytest.mark.parametrize("seed", range(25))
def test_three_route_agreement(seed):
    rng = np.random.default_rng(100 + seed)
    n_modes = int(rng.integers(2, 6))
    ham = random_hamiltonian(rng, n_modes, n_terms=int(rng.integers(2, 7)))
    matching, signs = random_matching_state(rng, n_modes)
    closed = matching_state_expectation(matching, signs, ham)
    wick = hamiltonian_expectation(correlation_from_matching(matching, signs), ham)
    dense = dense_expectation(ham, dense_state_from_matching(matching, signs))
    assert closed == wick  # identical sums: consistent terms give exact +-1 Pfaffians
    assert np.isclose(dense, closed, rtol=1e-9, atol=1e-12)


# ------------------------------------------------------------- consistency


def test_consistent_aligned_pairs():
    matching = Matching(((0, 1), (2, 3), (4, 5)))
    verdict = classify_consistency(matching, (0, 1, 2, 3))
    assert verdict.consistent and verdict.sign == 1
    assert verdict.inner_pairs == ((0, 1), (2, 3))


def test_inconsistent_when_partner_leaves_support():
    matching = Matching(((0, 4), (1, 2), (3, 5)))
    assert not classify_consistency(matching, (0, 1, 2, 3)).consistent


def test_consistent_crossed_pairs_sign():
    matching = Matching(((0, 2), (1, 3)))
    verdict = classify_consistency(matching, (0, 1, 2, 3))
    assert verdict.consistent and verdict.sign == -1
    # dense check: expectation equals sign * product of dimer signs
    signs = SignAssignment.from_dict({(0, 2): 1, (1, 3): 1})
    rho = dense_state_from_matching(matching, signs)
    dense = float(np.real(np.trace(dense_term((0, 1, 2, 3), 2) @ rho.matrix)))
    assert dense == pytest.approx(-1.0, abs=1e-10)


def test_all_inconsistent_gives_zero():
    matching = Matching(((0, 4), (1, 5), (2, 6), (3, 7)))
    signs = SignAssignment.all_plus(matching)
    ham = MajoranaHamiltonian(
        n_modes=4,
        terms=(InteractionTerm((0, 1, 2, 3), 2.0), InteractionTerm((4, 5), -1.0)),
    )
    assert matching_state_expectation(matching, signs, ham) == 0.0


# ------------------------------------------------------------ sign choice


def test_assign_signs_negative_quartic():
    ham = MajoranaHamiltonian(n_modes=2, terms=(InteractionTerm((0, 1, 2, 3), -5.0),))
    matching = Matching(((0, 1), (2, 3)))
    signs = assign_signs(matching, ham.terms)
    assert matching_state_expectation(matching, signs, ham) == 5.0
    rho = dense_state_from_matching(matching, signs)
    assert dense_expectation(ham, rho) == pytest.approx(5.0, abs=1e-10)


def test_assign_signs_positive_noop():
    matching = Matching(((0, 1), (2, 3)))
    signs = assign_signs(matching, (InteractionTerm((0, 1, 2, 3), 1.0),))
    assert all(s == 1 for _, s in signs.signs)


def test_assign_signs_two_disjoint_targets():
    terms = (InteractionTerm((0, 1, 2, 3), -2.0), InteractionTerm((4, 5, 6, 7), -7.0))
    ham = MajoranaHamiltonian(n_modes=4, terms=terms)
    matching = Matching(((0, 1), (2, 3), (4, 5), (6, 7)))
    signs = assign_signs(matching, terms)
    assert matching_state_expectation(matching, signs, ham) == 9.0
    rho = dense_state_from_matching(matching, signs)
    assert dense_expectation(ham, rho) == pytest.approx(9.0, abs=1e-10)


def test_assign_signs_rejects_overlap():
    matching = Matching(((0, 1), (2, 3)))
    with pytest.raises(ValueError, match="not disjoint"):
        assign_signs(
            matching,
            (InteractionTerm((0, 1), 1.0), InteractionTerm((0, 1, 2, 3), 1.0)),
        )


def test_assign_signs_rejects_inconsistent_target():
    matching = Matching(((0, 2), (1, 3), (4, 5)))
    with pytest.raises(ValueError, match="inconsistent"):
        assign_signs(matching, (InteractionTerm((0, 1), 1.0),))


# ----------------------------------------------------------- conditioning


def test_condition_product_state_certain_outcome():
    matching = Matching(((0, 1), (2, 3), (4, 5)))
    signs = SignAssignment.all_plus(matching)
    corr = correlation_from_matching(matching, signs)
    prob, reduced = condition_on_dimer(corr, 4, 5, 1)
    assert prob == 1.0
    assert np.array_equal(reduced.gamma, corr.gamma[:4, :4])
    with pytest.raises(ValueError, match="impossible"):
        condition_on_dimer(corr, 4, 5, -1)


def test_condition_cross_pairs_half_probability():
    # dimers (0,4) and (1,5): measuring (4,5) re-pairs (0,1)
    matching = Matching(((0, 4), (1, 5), (2, 3)))
    signs = SignAssignment.from_dict({(0, 4): 1, (1, 5): -1, (2, 3): 1})
    corr = correlation_from_matching(matching, signs)
    for outcome in (1, -1):
        prob, reduced = condition_on_dimer(corr, 4, 5, outcome)
        assert prob == pytest.approx(0.5, abs=1e-12)
        # conditional is the matching state with the induced pair (0,1)
        expected_sign = -outcome * 1 * -1
        expect = correlation_from_matching(
            Matching(((0, 1), (2, 3))),
            SignAssignment.from_dict({(0, 1): expected_sign, (2, 3): 1}),
        )
        assert np.array_equal(reduced.gamma, expect.gamma)


@pytest.mark.parametrize("seed", range(10))
def test_condition_total_probability_against_dense(seed):
    rng = np.random.default_rng(500 + seed)
    n_modes = int(rng.integers(3, 5))  # 2n+2 <= 10 Majoranas
    matching, signs = random_matching_state(rng, n_modes)
    # shrink dimers to exercise mixed states
    weights = {p: float(s) * float(rng.uniform(0.3, 1.0)) for p, s in signs.signs}
    gamma = np.zeros((2 * n_modes, 2 * n_modes))
    for (a, b), w in weights.items():
        gamma[a, b], gamma[b, a] = w, -w
    corr = CorrelationMatrix(gamma)
    rho = dense_dimer_state(n_modes, list(weights.items())).matrix

    measured = (2 * n_modes - 2, 2 * n_modes - 1)
    dimer = dense_term(measured, n_modes)
    observable = random_hamiltonian(rng, n_modes - 1, n_terms=3)

    mixture = 0.0
    for outcome in (1, -1):
        projector = (np.eye(rho.shape[0]) + outcome * dimer) / 2.0
        prob_dense = float(np.real(np.trace(projector @ rho)))
        if prob_dense < 1e-12:
            continue
        prob, reduced = condition_on_dimer(corr, *measured, outcome)
        assert prob == pytest.approx(prob_dense, abs=1e-10)
        conditional_dense = projector @ rho @ projector / prob_dense
        value_dense = float(
            np.real(
                np.trace(
                    dense_hamiltonian_embedded(observable, n_modes) @ conditional_dense
                )
            )
        )
        value_wick = hamiltonian_expectation(reduced, observable)
        assert value_wick == pytest.approx(value_dense, abs=1e-9)
        mixture += prob * value_wick
    marginal = hamiltonian_expectation(
        CorrelationMatrix(corr.gamma[:-2, :-2]), observable
    )
    assert mixture == pytest.approx(marginal, abs=1e-9)


def dense_hamiltonian_embedded(ham, n_modes):
    from fermiopt.hamiltonian import MajoranaHamiltonian as MH
    from fermiopt.oracle import dense_hamiltonian

    return dense_hamiltonian(MH(n_modes=n_modes, terms=ham.terms)).matrix
