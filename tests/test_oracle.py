import gc
import itertools
import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from fermiopt import oracle
from fermiopt.ensembles import gen_sparse_random, gen_syk_q, gen_two_colored
from fermiopt.gaussian import Matching, SignAssignment, _TermEvaluator
from fermiopt.hamiltonian import InteractionTerm, MajoranaHamiltonian
from fermiopt.oracle import (
    BudgetError,
    GaussianSearchResult,
    dense_dimer_state,
    dense_hamiltonian,
    dense_state_from_matching,
    gaussian_numeric_max,
    lambda_max_exact,
    rho_theta_sweep,
    sweep_slope,
)

from bruteforce import dense_term, quadratic_gaussian_max


def test_single_mode_majorana_is_first_pauli():
    assert np.array_equal(dense_term((0,), 1), np.array([[0, 1], [1, 0]], dtype=complex))


@pytest.mark.parametrize("n_modes", [1, 2, 3, 4])
def test_anticommutation_exhaustive(n_modes):
    ops = [dense_term((i,), n_modes) for i in range(2 * n_modes)]
    eye = np.eye(2**n_modes)
    for i, j in itertools.product(range(2 * n_modes), repeat=2):
        anti = ops[i] @ ops[j] + ops[j] @ ops[i]
        expected = 2 * eye if i == j else np.zeros_like(eye)
        assert np.allclose(anti, expected, atol=1e-12)


@pytest.mark.parametrize("n_modes", [2, 3, 4])
def test_monomials_traceless_hermitian_involutive(n_modes):
    rng = np.random.default_rng(n_modes)
    for _ in range(10):
        w = int(rng.choice([2, 4]))
        idx = tuple(sorted(rng.choice(2 * n_modes, size=w, replace=False).tolist()))
        mat = dense_term(idx, n_modes)
        assert abs(np.trace(mat)) < 1e-12
        assert np.allclose(mat, mat.conj().T, atol=1e-12)
        assert np.allclose(mat @ mat, np.eye(2**n_modes), atol=1e-12)


def test_all_nonempty_monomials_traceless_exhaustive():
    n_modes = 3
    for w in (2, 4, 6):
        for idx in itertools.combinations(range(2 * n_modes), w):
            assert abs(np.trace(dense_term(idx, n_modes))) < 1e-12


def test_lambda_max_single_dimer():
    ham = MajoranaHamiltonian(n_modes=2, terms=(InteractionTerm((0, 1), 3.0),))
    assert lambda_max_exact(ham) == pytest.approx(3.0, abs=1e-10)


def test_lambda_max_anticommuting_pair():
    # supports overlap on exactly one Majorana, so the terms anticommute
    ham = MajoranaHamiltonian(
        n_modes=3,
        terms=(InteractionTerm((0, 1), 3.0), InteractionTerm((0, 2, 3, 4), 4.0)),
    )
    assert lambda_max_exact(ham) == pytest.approx(5.0, rel=1e-10)


def random_anticommuting_family(rng, n_modes):
    """Monomials pairwise overlapping on exactly one shared Majorana."""
    pool = list(range(1, 2 * n_modes))
    rng.shuffle(pool)
    terms = []
    while len(pool) >= 1:
        block = int(rng.choice([1, 3]))
        if block > len(pool):
            block = 1
        chunk, pool = pool[:block], pool[block:]
        coeff = float(rng.standard_normal())
        terms.append(InteractionTerm(tuple(sorted([0] + chunk)), coeff))
        if len(terms) >= 4:
            break
    return MajoranaHamiltonian(n_modes=n_modes, terms=tuple(terms))


@pytest.mark.parametrize("seed", range(10))
def test_anticommuting_family_spectrum_identity(seed):
    rng = np.random.default_rng(900 + seed)
    ham = random_anticommuting_family(rng, n_modes=int(rng.integers(4, 7)))
    expected = math.sqrt(sum(t.coeff**2 for t in ham.terms))
    assert lambda_max_exact(ham) == pytest.approx(expected, rel=1e-8)


@pytest.mark.parametrize("seed", range(5))
def test_iterative_matches_dense(seed):
    ham = gen_sparse_random(9, 4, 2, "normal", seed=seed)
    dense = lambda_max_exact(ham, method="dense")
    iterative = lambda_max_exact(ham, method="iterative")
    assert iterative == pytest.approx(dense, rel=1e-8)


def test_lambda_max_budget_error():
    ham = MajoranaHamiltonian(n_modes=17, terms=(InteractionTerm((0, 1), 1.0),))
    with pytest.raises(BudgetError):
        lambda_max_exact(ham, method="iterative")
    with pytest.raises(BudgetError):
        lambda_max_exact(ham, method="dense")


def test_dense_matching_state_properties():
    rng = np.random.default_rng(1)
    for _ in range(5):
        modes = list(rng.permutation(8))
        pairs = tuple((min(a, b), max(a, b)) for a, b in zip(modes[::2], modes[1::2]))
        matching = Matching(pairs)
        signs = SignAssignment.from_dict({p: int(rng.choice([-1, 1])) for p in pairs})
        rho = dense_state_from_matching(matching, signs).matrix
        assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(rho, rho.conj().T, atol=1e-12)
        assert np.allclose(rho @ rho, rho, atol=1e-10)
        evals = np.linalg.eigvalsh(rho)
        assert evals.min() >= -1e-12


def test_rank_one_projector_single_mode():
    matching = Matching(((0, 1),))
    rho = dense_state_from_matching(matching, SignAssignment.all_plus(matching)).matrix
    assert np.linalg.matrix_rank(rho, tol=1e-10) == 1


@pytest.mark.parametrize(
    "dimers,message",
    [
        ([((1, 1), 1)], "repeats a Majorana"),
        ([((0, 1), 1), ((1, 2), 1)], "overlaps another dimer"),
        ([((2, 0), 1)], "is not ascending"),
        ([((-1, 2), 1)], "negative Majorana"),
        ([((0, 1), 3)], "outside \\[-1, 1\\]"),
        ([((0, 1), -1.5)], "outside \\[-1, 1\\]"),
    ],
)
def test_dense_dimer_state_rejects_bad_dimers(dimers, message):
    with pytest.raises(ValueError, match=message) as info:
        dense_dimer_state(2, dimers)
    assert "\n" not in str(info.value)


def test_dense_matching_state_peaks_near_one_state_in_memory():
    n_modes = 10
    rng = np.random.default_rng(3)
    modes = rng.permutation(2 * n_modes).tolist()
    matching = Matching(tuple(sorted(modes[i : i + 2]) for i in range(0, 2 * n_modes, 2)))
    signs = SignAssignment(matching, rng.choice([-1, 1], n_modes))
    state_bytes = 16 * 4**n_modes
    tracemalloc.start()
    try:
        rho = dense_state_from_matching(matching, signs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rho.matrix.nbytes == state_bytes
    assert peak < 1.25 * state_bytes


# ------------------------------------------------------------ numeric max


def test_quadratic_recovers_canonical_form_value():
    rng = np.random.default_rng(5)
    n_modes = 4
    pairs = list(itertools.combinations(range(2 * n_modes), 2))
    terms = tuple(
        InteractionTerm(p, float(rng.standard_normal())) for p in pairs if rng.random() < 0.6
    )
    ham = MajoranaHamiltonian(n_modes=n_modes, terms=terms)
    expected = quadratic_gaussian_max(2 * n_modes, [(t.indices, t.coeff) for t in terms])
    result = gaussian_numeric_max(ham, restarts=6, seed=11)
    assert result.value == pytest.approx(expected, rel=1e-6)
    # for quadratic Hamiltonians the Gaussian optimum is the true optimum
    assert lambda_max_exact(ham) == pytest.approx(expected, rel=1e-8)


def test_single_quartic_term_saturates():
    ham = MajoranaHamiltonian(n_modes=3, terms=(InteractionTerm((0, 1, 2, 3), 1.0),))
    result = gaussian_numeric_max(ham, restarts=4, seed=3)
    assert result.value == pytest.approx(1.0, rel=1e-7)


GRADIENT_CASES = [(seed, q) for q in (4, 2, 6) for seed in range(4)]


@pytest.mark.parametrize(
    "seed,q", GRADIENT_CASES, ids=[f"{s}" if q == 4 else f"{s}-q{q}" for s, q in GRADIENT_CASES]
)
def test_gradient_matches_finite_differences(seed, q):
    rng = np.random.default_rng(40 + seed)
    ham = gen_syk_q(4, q, seed=seed)
    basis, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    ref = np.zeros((8, 8))
    for j in range(0, 8, 2):
        ref[j, j + 1], ref[j + 1, j] = 1.0, -1.0
    gamma = basis @ ref @ basis.T
    evaluate = _TermEvaluator(ham.index.blocks, ham.index.coeffs, ham.n_majoranas)
    value, grad = evaluate(gamma)
    flow = rng.standard_normal((8, 8))
    flow = flow - flow.T
    eps = 1e-6
    from scipy.linalg import expm

    plus = expm(eps * flow) @ gamma @ expm(eps * flow).T
    minus = expm(-eps * flow) @ gamma @ expm(-eps * flow).T
    fd = (evaluate(plus)[0] - evaluate(minus)[0]) / (2 * eps)
    # directional derivative along the orbit flow dGamma = [flow, Gamma]
    analytic = 0.5 * float(np.sum(grad * (flow @ gamma - gamma @ flow)))
    assert analytic == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_sixth_order_terms_supported():
    ham = MajoranaHamiltonian(n_modes=4, terms=(InteractionTerm((0, 1, 2, 3, 4, 5), -2.0),))
    result = gaussian_numeric_max(ham, restarts=4, seed=9)
    assert result.value == pytest.approx(2.0, rel=1e-6)


def test_numeric_max_never_exceeds_lambda_max():
    for seed in range(4):
        ham = gen_syk_q(4, 4, seed=100 + seed)
        result = gaussian_numeric_max(ham, restarts=4, seed=seed)
        assert result.value <= lambda_max_exact(ham) + 1e-8


# ------------------------------------------------------------- the sweep


def test_sweep_zero_theta_is_zero_and_slope_positive():
    ham2, meta = gen_two_colored(6, 2, 4, seed=3)
    commutator, finite_difference = sweep_slope(ham2, meta)
    assert commutator == pytest.approx(finite_difference, rel=1e-6, abs=1e-8)
    curve = rho_theta_sweep(ham2, meta, theta_grid=np.array([1e-9]))
    assert curve[0][1] == pytest.approx(0.0, abs=1e-7)


def test_sweep_reference_state_checks():
    ham2, meta = gen_two_colored(6, 2, 4, seed=7)
    from fermiopt.oracle import _two_colored_dense

    pieces = _two_colored_dense(ham2, meta)
    # zero expectation in the reference state
    assert np.real(np.trace(pieces["h"] @ pieces["rho0"])) == pytest.approx(0.0, abs=1e-12)
    # the auxiliary quadratic model is optimized to sqrt(n2)
    n1, n2 = meta.n1, meta.n2
    n_modes = pieces["rho0"].shape[0].bit_length() - 1
    quad = np.zeros_like(pieces["h"])
    for j in range(n2):
        quad += (
            -1.0
            / math.sqrt(n2)
            * dense_term((n1 + j, n1 + n2 + j), n_modes)
        )
    assert np.real(np.trace(quad @ pieces["rho0"])) == pytest.approx(
        math.sqrt(n2), rel=1e-12
    )


@pytest.mark.parametrize("sweep", [sweep_slope, rho_theta_sweep])
def test_sweep_over_the_dense_budget_raises_before_any_matrix(monkeypatch, sweep):
    ham2, meta = gen_two_colored(20, 4, 4, seed=1)  # 14 modes

    def never(*args, **kwargs):
        raise AssertionError("built a dense matrix past the budget")

    monkeypatch.setattr("fermiopt.oracle._string_matrix", never)
    with pytest.raises(BudgetError, match="13 modes"):
        sweep(ham2, meta)


def _count_scaffold_builds(monkeypatch) -> list:
    builds = []
    build = oracle._two_colored_dense

    def counted(ham2, meta):
        builds.append(meta)
        return build(ham2, meta)

    monkeypatch.setattr(oracle, "_two_colored_dense", counted)
    return builds


def test_sweep_builds_one_scaffold_per_draw(monkeypatch):
    builds = _count_scaffold_builds(monkeypatch)
    ham2, meta = gen_two_colored(6, 2, 4, seed=3)
    commutator, finite_difference = sweep_slope(ham2, meta)
    curve = rho_theta_sweep(ham2, meta)
    assert len(builds) == 1
    fresh, fresh_meta = gen_two_colored(6, 2, 4, seed=3)
    assert sweep_slope(fresh, fresh_meta) == (commutator, finite_difference)
    assert rho_theta_sweep(fresh, fresh_meta) == curve


def test_sweep_rebuilds_for_another_meta_or_hamiltonian(monkeypatch):
    builds = _count_scaffold_builds(monkeypatch)
    ham2, meta = gen_two_colored(6, 2, 4, seed=3)
    other = replace(meta, couplings=-meta.couplings)
    slope = sweep_slope(ham2, meta)
    flipped = sweep_slope(ham2, other)
    assert len(builds) == 2 and builds[1] is other
    assert flipped[0] == pytest.approx(-slope[0], rel=1e-12)
    assert sweep_slope(ham2, meta) == slope  # the scaffold for meta is built again
    assert sweep_slope(ham2, meta) == slope and len(builds) == 3  # the same meta reuses it
    # the tag is the meta object itself: an equal but distinct one rebuilds
    twin = replace(meta)
    assert sweep_slope(ham2, twin) == slope and len(builds) == 4 and builds[3] is twin
    again, again_meta = gen_two_colored(6, 2, 4, seed=3)
    sweep_slope(again, again_meta)
    assert len(builds) == 5


def test_sweep_scaffold_is_freed_with_the_hamiltonian():
    ham2, meta = gen_two_colored(6, 2, 4, seed=3)
    rho_theta_sweep(ham2, meta)
    kernel = weakref.ref(oracle._sweep_scaffold(ham2, meta)[2])
    del ham2
    gc.collect()
    assert kernel() is None


def test_sweep_finds_positive_value():
    ham2, meta = gen_two_colored(8, 2, 4, seed=11)
    curve = rho_theta_sweep(ham2, meta)
    assert max(v for _, v in curve) > 0.0
