
import json
import os
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
    state_from_json,
    state_to_json,
)
from fermiopt.hamiltonian import FormatError, InteractionTerm, MajoranaHamiltonian
from fermiopt.oracle import dense_dimer_state, dense_expectation, dense_state_from_matching

from bruteforce import bareiss_determinant, dense_term, pfaffian_matching_sum, random_antisymmetric


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


def test_bareiss_determinant_on_small_cases():
    assert bareiss_determinant([]) == 1
    assert bareiss_determinant([[0, 2], [-2, 0]]) == 4
    assert bareiss_determinant([[0, 1, 2], [3, 4, 5], [6, 7, 9]]) == -3
    assert bareiss_determinant([[1, 2], [2, 4]]) == 0


@pytest.mark.parametrize("m", range(10, 25, 2))
def test_integer_pfaffian_is_exact_up_to_24_majoranas(m):
    # entries |a| <= 3 take the exact rational route; the float route would
    # miss the exact determinant here by rounding
    rng = np.random.default_rng(m)
    for trial in range(4):
        upper = np.triu(rng.integers(-3, 4, size=(m, m)), 1)
        if trial == 3:
            upper[:, m // 2] = 0  # a singular draw: one Majorana uncoupled
        mat = upper - upper.T
        pf = pfaffian(mat.astype(float))
        assert pf == int(pf)
        assert int(pf) ** 2 == bareiss_determinant(mat.tolist())
    # signed matchings of shuffled Majoranas, the shape of a matching-state
    # submatrix: every elimination step meets a block already split off, and
    # a few coupled blocks make some steps update.  A pure matching has
    # Pf = +-1, which the float route at half scale gets with no rounding.
    for coupled in (0, 0, 2, 3):
        mat = np.zeros((m, m), dtype=np.int64)
        for a, b in rng.permutation(m).reshape(-1, 2):
            mat[a, b] = rng.choice([-1, 1])
            mat[b, a] = -mat[a, b]
        for a, b in rng.choice(m, size=(coupled, 2), replace=False):
            mat[a, b], mat[b, a] = 2, -2
        pf = pfaffian(mat.astype(float))
        assert int(pf) ** 2 == bareiss_determinant(mat.tolist())
        if not coupled:
            assert abs(pf) == 1.0 and pf == pfaffian(mat / 2.0) * 2.0 ** (m // 2)


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


# ------------------------------------------------- the state's two arrays


@pytest.mark.parametrize(
    "pairs",
    [((0, 0), (1, 2)), ((0, 1), (1, 2)), ((0, 1), (2, 4)), ((-1, 1), (0, 2)), ((0, 1, 2),)],
    ids=["fixed-point", "repeat", "gap", "negative", "not-pairs"],
)
def test_matching_rejects_what_is_not_a_perfect_pairing(pairs):
    with pytest.raises(ValueError):
        Matching(pairs)


def test_matching_holds_a_partner_array_and_derives_the_pairs():
    matching = Matching(np.array([[5, 2], [0, 4], [1, 3]]))
    assert matching.partner.tolist() == [4, 3, 5, 1, 0, 2]
    assert matching.pairs == ((0, 4), (1, 3), (2, 5))
    assert not matching.partner.flags.writeable
    signs = SignAssignment.from_dict({(5, 2): -1, (4, 0): 1, (1, 3): -1})
    assert signs.signs.tolist() == [1, -1, -1]  # in the order of the pairs' lower Majoranas
    assert signs.as_dict() == {(0, 4): 1, (1, 3): -1, (2, 5): -1}


@pytest.mark.parametrize(
    "build",
    [
        lambda m: SignAssignment.from_dict({(0, 1): 3, (2, 3): 1}),
        lambda m: SignAssignment(m, [1, 0]),
        lambda m: SignAssignment(m, [1.5, -1]),
        lambda m: SignAssignment(m, [1]),
        lambda m: SignAssignment(m, [1, -1, 1]),
    ],
    ids=["three", "zero", "fraction", "too-few", "too-many"],
)
def test_sign_assignment_takes_one_sign_of_plus_minus_one_per_dimer(build):
    # a sign of 3 on (0, 1) once made the closed form of 1.0 C_01 + 5.0 C_23
    # return 8.0, above sum |J| = 6.0
    with pytest.raises(ValueError, match=r"\+-1"):
        build(Matching(((0, 1), (2, 3))))


_READER_HAM = MajoranaHamiltonian(
    n_modes=2, terms=(InteractionTerm((0, 1), 1.0), InteractionTerm((2, 3), 5.0))
)
STATE_READERS = {
    "closed-form": lambda m, s: matching_state_expectation(m, s, _READER_HAM),
    "correlation": correlation_from_matching,
    "dense": lambda m, s: dense_state_from_matching(m, s, n_modes=_READER_HAM.n_modes),
    "state-json": state_to_json,
}


@pytest.mark.parametrize("reader", STATE_READERS.values(), ids=STATE_READERS)
@pytest.mark.parametrize(
    "sign_of",
    [{(0, 1): 1, (2, 3): 1, (4, 5): 1}, {(0, 1): 1}, {(0, 2): 1, (1, 3): 1}],
    ids=["pair-the-matching-lacks", "pair-without-sign", "other-pairing"],
)
def test_state_readers_reject_signs_of_another_matching(reader, sign_of):
    matching = Matching(((0, 1), (2, 3)))
    assert reader(matching, SignAssignment.all_plus(matching)) is not None
    with pytest.raises(ValueError, match="does not cover"):
        reader(matching, SignAssignment.from_dict(sign_of))


@pytest.mark.parametrize("reader", ["closed-form", "dense"])
def test_state_readers_reject_a_state_narrower_than_the_hamiltonian(reader):
    matching = Matching(((0, 1),))
    with pytest.raises(ValueError, match="Hamiltonian on 4 Majoranas, state on 2"):
        STATE_READERS[reader](matching, SignAssignment.all_plus(matching))


def test_dense_state_rejects_dimers_outside_its_modes():
    matching = Matching(((0, 1), (2, 3)))
    with pytest.raises(ValueError, match="outside"):
        dense_state_from_matching(matching, SignAssignment.all_plus(matching), n_modes=1)


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


def test_cli_and_strictq_optimize_load_no_scipy_linalg():
    # the oracle imports scipy's linear algebra where it calls it, so a
    # certify run never loads it
    probe = (
        "import sys\n"
        "import fermiopt.cli\n"
        "from fermiopt.ensembles import gen_sparse_random\n"
        "from fermiopt.optimizer import optimize\n"
        "optimize(gen_sparse_random(40, 4, 2, 'normal', seed=5), 'strictq')\n"
        "print(*[m for m in ('scipy.linalg', 'scipy.sparse.linalg') if m in sys.modules])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(gaussian.__file__).parent.parent))
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == []


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
    signs = assign_signs(matching, ham, [0])
    assert matching_state_expectation(matching, signs, ham) == 5.0
    rho = dense_state_from_matching(matching, signs)
    assert dense_expectation(ham, rho) == pytest.approx(5.0, abs=1e-10)


def test_assign_signs_positive_noop():
    matching = Matching(((0, 1), (2, 3)))
    ham = MajoranaHamiltonian(n_modes=2, terms=(InteractionTerm((0, 1, 2, 3), 1.0),))
    signs = assign_signs(matching, ham, [0])
    assert signs.signs.tolist() == [1, 1]


def test_assign_signs_two_disjoint_targets():
    terms = (InteractionTerm((0, 1, 2, 3), -2.0), InteractionTerm((4, 5, 6, 7), -7.0))
    ham = MajoranaHamiltonian(n_modes=4, terms=terms)
    matching = Matching(((0, 1), (2, 3), (4, 5), (6, 7)))
    signs = assign_signs(matching, ham, [0, 1])
    assert matching_state_expectation(matching, signs, ham) == 9.0
    rho = dense_state_from_matching(matching, signs)
    assert dense_expectation(ham, rho) == pytest.approx(9.0, abs=1e-10)


def test_assign_signs_rejects_overlap():
    matching = Matching(((0, 1), (2, 3)))
    terms = (InteractionTerm((0, 1), 1.0), InteractionTerm((0, 1, 2, 3), 1.0))
    with pytest.raises(ValueError, match="not disjoint"):
        assign_signs(matching, MajoranaHamiltonian(n_modes=2, terms=terms), [0, 1])


def test_assign_signs_rejects_inconsistent_target():
    matching = Matching(((0, 2), (1, 3), (4, 5)))
    with pytest.raises(ValueError, match="inconsistent"):
        assign_signs(matching, MajoranaHamiltonian(3, (InteractionTerm((0, 1), 1.0),)), [0])


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
    weights = {p: float(s) * float(rng.uniform(0.3, 1.0)) for p, s in signs.as_dict().items()}
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


# ------------------------------------------------------- the state writer


def _assert_state_text_is_json_dumps(matching, signs):
    reference = {
        "n_modes": matching.n_majoranas // 2,
        "pairs": matching.dimers.tolist(),
        "signs": signs.signs.tolist(),
    }
    text = state_to_json(matching, signs)
    assert text == json.dumps(reference, indent=1)
    again, again_signs = state_from_json(text)
    assert np.array_equal(again.partner, matching.partner)
    assert np.array_equal(again_signs.signs, signs.signs)


@pytest.mark.parametrize(
    "pairs,signs",
    [
        ((), ()),  # no modes: both lists empty
        (((0, 1),), (1,)),  # one dimer
        (((0, 3), (1, 2)), (-1, -1)),  # all minus
        (((4, 5), (0, 2), (1, 3)), (1, -1, 1)),
    ],
    ids=["empty", "one-dimer", "all-minus", "three-dimers"],
)
def test_state_writer_gives_the_json_dumps_text(pairs, signs):
    _assert_state_text_is_json_dumps(*gaussian.signed_matching(pairs, signs))


def _state_with_last_pair(n_modes, last):
    pairs = [[2 * i, 2 * i + 1] for i in range(n_modes - 1)] + [last]
    return json.dumps({"n_modes": n_modes, "pairs": pairs, "signs": [1] * n_modes})


@pytest.mark.parametrize(
    "last",
    [[1998, 2**63], [-(2**63) - 1, 1999], [1998, 2000], [1997, 1999]],
    ids=["past-int64", "below-int64", "out-of-range", "overlapping"],
)
def test_state_reader_rejects_a_bad_pair_as_malformed_in_short(last):
    with pytest.raises(FormatError) as info:
        state_from_json(_state_with_last_pair(1000, last))
    assert info.value.code == "malformed"
    assert len(str(info.value)) < 80


def test_matching_error_quotes_a_bounded_prefix_of_the_pairs():
    pairs = [(2 * i, 2 * i + 1) for i in range(999)] + [(1998, 2000)]
    with pytest.raises(ValueError, match="do not perfectly match") as info:
        Matching(pairs)
    assert len(str(info.value)) < 140


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 40).flatmap(lambda n: st.tuples(
    st.permutations(range(2 * n)), st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n)
)))
def test_state_writer_gives_the_json_dumps_text_on_random_states(drawn):
    order, signs = drawn
    pairs = np.sort(np.asarray(order, dtype=np.intp).reshape(-1, 2), axis=1)
    _assert_state_text_is_json_dumps(*gaussian.signed_matching(pairs, signs))
