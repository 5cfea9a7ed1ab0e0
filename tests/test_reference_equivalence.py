"""The batched samplers and the indexed and sparse certify steps against
their plain-scan versions.

Each rewritten piece must give exactly the answer of the straightforward
algorithm it replaced (kept in ``bruteforce``): the same combinations for
a batch of ranks, the same terms and coefficient bits from each generator,
the same diffuse verdict, the same permitted edges and the same
Hamiltonian cycle.  The grouped Pauli sums of the exact oracles must give
the same dense matrices as the per-string builders, and products and the
sweep generator equal to within rounding.  The sweep's eigenbasis slope
must agree with a finite difference through ``expm`` to within rounding.
The ascent's matching-expansion evaluator must repeat the reference's bits
at weights 2 and 4 and agree with its Pfaffian cofactors to within
rounding above.  The batched Wick route must repeat the per-term Pfaffian
loop's bits on matching states and agree with it to within rounding on
any other state.  The mixed pull-back's conditioned states, built from the
matching form, must give exactly the Schur complement of the branch
state's correlation matrix at each outcome of the auxiliary dimer.
"""

import itertools
import math

import numpy as np
import pytest

from fermiopt import optimizer
from fermiopt.combinatorics import (
    DiffuseCheck,
    DiracError,
    build_conflict_graph,
    diffuse_partition,
    hamiltonian_cycle_dense,
    is_diffuse,
    permitted_graph,
)
from fermiopt.ensembles import (
    SSYK_MAX_N,
    _binomial_tables,
    _unrank_combination,
    gen_mixed_24,
    gen_sparse_random,
    gen_ssyk,
    gen_syk_q,
    gen_two_colored,
)
from fermiopt.gaussian import (
    CorrelationMatrix,
    _TermEvaluator,
    correlation_from_matching,
    hamiltonian_expectation,
)
from fermiopt.hamiltonian import InteractionTerm, MajoranaHamiltonian, total_strength
from fermiopt.optimizer import (
    lift_to_strict4,
    optimize_mixed_24,
    optimize_ssyk,
    optimize_strict_q,
    truncate_to_sparse,
)
from fermiopt.oracle import (
    DenseOperator,
    _majorana_string,
    _reference_gamma,
    _string_product,
    _two_colored_dense,
    dense_dimer_state,
    dense_expectation,
    dense_hamiltonian,
    gaussian_numeric_max,
    matvec_operator,
    sweep_slope,
    term_string,
)

from bruteforce import (
    CofactorTermEvaluator,
    conditioned_by_schur,
    conflict_adjacency_by_bridges,
    dense_permitted_adjacency,
    dense_sum_per_string,
    diffuse_verdict_scan,
    dimer_state_by_matmul,
    hamiltonian_cycle_sorted_neighbors,
    hamiltonian_expectation_per_term,
    matvec_per_string,
    normal_at,
    random_antisymmetric,
    slope_fd_by_expm,
    sparse_random_per_candidate,
    ssyk_terms_per_rank,
    truncation_marks_scan,
    unrank_combination_scan,
    zeta_by_tau_products,
)
from test_golden import _mixed24_quartic_x10
from test_optimizer import hand_built_branch_states


# ---------------------------------------------------------------- unranking


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 6])
def test_unrank_follows_itertools_order(size):
    for n_items in range(size, 13):
        expected = list(itertools.combinations(range(n_items), size))
        got = _unrank_combination(np.arange(len(expected)), n_items, size)
        assert got.shape == (len(expected), size)
        assert [tuple(row) for row in got.tolist()] == expected


@pytest.mark.parametrize("size", [2, 4, 6])
def test_unrank_rejects_ranks_outside_range(size):
    for n_items in range(size, 13):
        with pytest.raises(ValueError):
            _unrank_combination(np.array([0, -1]), n_items, size)
        with pytest.raises(ValueError):
            _unrank_combination(np.array([math.comb(n_items, size)]), n_items, size)


def test_unrank_rejects_counts_past_int64():
    # binom(2n, 4) first reaches 2^63 one mode above SSYK_MAX_N
    with pytest.raises(ValueError, match="2\\^63"):
        _unrank_combination(np.array([0]), 2 * SSYK_MAX_N + 2, 4)
    assert _unrank_combination(np.array([], dtype=np.int64), 12, 4).shape == (0, 4)


def test_unrank_tables_are_built_once_and_read_only():
    tables = _binomial_tables(12, 4)
    assert _binomial_tables(12, 4) is tables
    assert not any(table.flags.writeable for table in tables)
    ranks = np.arange(math.comb(12, 4))
    assert np.array_equal(_unrank_combination(ranks, 12, 4), _unrank_combination(ranks, 12, 4))


def test_unrank_matches_scan_at_large_sizes():
    rng = np.random.default_rng(20)
    for _ in range(300):
        n_items = int(rng.integers(8, 6000))
        size = int(rng.choice([2, 4, 6]))
        rank = int(rng.integers(0, 2**62)) % math.comb(n_items, size)
        if math.comb(n_items, size) >= 2**63:  # past the int64 ranks, e.g. C(5579, 6)
            with pytest.raises(ValueError):
                _unrank_combination(np.array([rank]), n_items, size)
            continue
        got = _unrank_combination(np.array([rank]), n_items, size)
        assert tuple(got[0].tolist()) == unrank_combination_scan(rank, n_items, size)


def test_unrank_matches_scan_at_the_ssyk_size_limit():
    n_items = 2 * SSYK_MAX_N
    last = math.comb(n_items, 4) - 1
    got = _unrank_combination(np.array([0, last, last - 1, last // 2]), n_items, 4)
    for row, rank in zip(got.tolist(), (0, last, last - 1, last // 2)):
        assert tuple(row) == unrank_combination_scan(rank, n_items, 4)
    assert got[1].tolist() == [n_items - 4, n_items - 3, n_items - 2, n_items - 1]


@pytest.mark.parametrize("size", [1, 2, 4, 6])
def test_unrank_with_allowed_items_drops_at_the_first_blocked_item(size):
    rng = np.random.default_rng(30 + size)
    n_items = 14
    ranks = np.arange(math.comb(n_items, size))
    full = _unrank_combination(ranks, n_items, size)
    for share in (0.0, 0.3, 0.7, 1.0):
        allowed = rng.random(n_items) < share
        got = _unrank_combination(ranks, n_items, size, allowed=allowed)
        for row, expected in zip(got.tolist(), full.tolist()):
            blocked = [p for p, item in enumerate(expected) if not allowed[item]]
            cut = blocked[0] if blocked else size
            assert row == expected[:cut] + [-1] * (size - cut)


# ----------------------------------------------------------------- samplers


def _pairs(ham):
    return [(t.indices, t.coeff) for t in ham.terms]


SPARSE_GRID = [
    (n, q, k, dist)
    for n, q, k in [(5, 2, 2), (9, 2, 2), (13, 6, 2), (20, 4, 2), (20, 2, 3), (30, 4, 3), (40, 6, 1)]
    for dist in ("normal", "pm1")
]


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
@pytest.mark.parametrize("n,q,k,dist", SPARSE_GRID)
def test_sparse_random_matches_per_candidate_loop(n, q, k, dist, seed):
    ham = gen_sparse_random(n, q, k, dist, seed=seed)
    assert _pairs(ham) == sparse_random_per_candidate(n, q, k, dist, seed)


@pytest.mark.parametrize("n_terms", [0, 3, 5, 6])
@pytest.mark.parametrize("seed", range(3))
def test_sparse_random_term_count_matches_per_candidate_loop(n_terms, seed):
    # n = 10, q = 4, k = 1 has room for at most 5 disjoint quartets
    expected = sparse_random_per_candidate(10, 4, 1, "normal", seed, n_terms)
    if expected is None:
        with pytest.raises(ValueError, match="could not place"):
            gen_sparse_random(10, 4, 1, "normal", seed=seed, n_terms=n_terms)
    else:
        assert _pairs(gen_sparse_random(10, 4, 1, "normal", seed=seed, n_terms=n_terms)) == expected


@pytest.mark.parametrize("seed", [0, 3, 2**64 - 1])
@pytest.mark.parametrize("n,k", [(2, 1), (3, 10), (12, 2), (60, 5), (400, 2)])
def test_ssyk_matches_per_rank_draws(n, k, seed):
    assert _pairs(gen_ssyk(n, k, seed=seed)) == ssyk_terms_per_rank(n, k, seed)


@pytest.mark.parametrize("n1,n2,q,seed", [(3, 1, 4, 0), (8, 4, 4, 3), (9, 3, 6, 2**64 - 1)])
def test_two_colored_couplings_match_per_rank_draws(n1, n2, q, seed):
    _, meta = gen_two_colored(n1, n2, q, seed=seed)
    assert [e.coupling for e in meta.entries] == [
        normal_at(seed, "twocolor-coeff", rank) for rank in range(len(meta.entries))
    ]


# ------------------------------------------------------------ conflict graph


@pytest.mark.parametrize(
    "ham",
    [
        *(gen_ssyk(n, 2, seed=seed) for n in (400, 1600) for seed in (3, 4, 5)),
        gen_mixed_24(120, 2, 8),
        *(gen_sparse_random(60, q, 3, "normal", seed=q) for q in (2, 4, 6)),
        MajoranaHamiltonian(3, ()),
    ],
    ids=lambda ham: f"{len(ham.terms)}-terms-n{ham.n_modes}",
)
def test_conflict_graph_equals_bridge_loop(ham):
    graph = build_conflict_graph(ham)
    assert graph.adjacency == conflict_adjacency_by_bridges(ham)
    assert graph.n_vertices == len(ham.terms)


# --------------------------------------------------------------- is_diffuse


def _verdict(check: DiffuseCheck):
    return check.ok, check.violated


@pytest.mark.parametrize("seed", range(6))
def test_is_diffuse_matches_all_pairs_scan(seed):
    ham = gen_sparse_random(30, 4, 2, "normal", seed=seed)
    rng = np.random.default_rng(seed)
    seen = set()
    for _ in range(300):
        size = int(rng.integers(1, 9))
        subset = [int(t) for t in rng.choice(len(ham.terms), size=size, replace=False)]
        for locality in (None, 4, 12):
            got = _verdict(is_diffuse(subset, ham, locality=locality))
            assert got == diffuse_verdict_scan(subset, ham, locality=locality)
            seen.add(got[1])
    assert {1, 2} <= seen  # random subsets of this size break both overlap rules


def test_is_diffuse_matches_scan_on_partition_parts():
    ham = gen_sparse_random(60, 4, 2, "normal", seed=4)
    partition = diffuse_partition(ham)
    verdicts = set()
    for ids in partition.parts.values():
        for subset in (ids, ids + ids[:1], ids[: len(ids) // 3]):
            got = _verdict(is_diffuse(subset, ham))
            assert got == diffuse_verdict_scan(subset, ham)
            verdicts.add(got)
    assert (True, None) in verdicts and (False, 1) in verdicts


def test_is_diffuse_matches_scan_on_support_bound():
    # four disjoint, unbridged quartics covering all 16 Majoranas of n = 8:
    # conditions 1 and 2 hold for every subset, condition 3 fails once the
    # united support reaches 2*4*8/5 = 12.8
    ham = MajoranaHamiltonian(
        8, tuple(InteractionTerm(tuple(range(4 * b, 4 * b + 4)), 1.0) for b in range(4))
    )
    for size in range(1, 5):
        for subset in itertools.combinations(range(4), size):
            got = _verdict(is_diffuse(subset, ham))
            assert got == diffuse_verdict_scan(subset, ham)
            assert got == ((False, 3) if size == 4 else (True, None))


# ----------------------------------------------------------- permitted graph


@pytest.mark.parametrize("seed", range(4))
def test_permitted_graph_equals_dense_complement(seed):
    if seed % 2:
        ham = gen_sparse_random(24, 4, 2, "normal", seed=seed)
    else:
        ham = gen_ssyk(40, 3, seed=seed)
    rng = np.random.default_rng(seed)
    excluded = {int(v) for v in rng.choice(ham.n_majoranas, size=12, replace=False)}
    graph = permitted_graph(ham, excluded)
    dense = dense_permitted_adjacency(ham, excluded)
    assert graph.vertices == tuple(sorted(dense))
    assert graph.min_degree() == min(len(a) for a in dense.values())
    for v in graph.vertices:
        assert len(graph.adjacency[v]) == len(dense[v])
        assert sorted(graph.adjacency[v]) == sorted(dense[v])
        assert graph.adjacency[v] == dense[v]
        for u in range(-1, ham.n_majoranas + 1):
            assert (u in graph.adjacency[v]) == (u in dense[v])
            assert graph.has_edge(v, u) == (u in dense[v])


# ------------------------------------------------------------ Hamiltonian cycle


class _DenseGraph:
    """A permitted graph held as explicit neighbor sets."""

    def __init__(self, adjacency):
        self.vertices = tuple(sorted(adjacency))
        self._adj = adjacency

    def neighbors(self, v):
        return self._adj[v]

    def has_edge(self, u, v):
        return v in self._adj[u]

    def min_degree(self):
        return min(len(a) for a in self._adj.values())


@pytest.mark.parametrize("seed", range(8))
def test_cycle_matches_sorted_neighbor_version(seed):
    ham = gen_ssyk(30 + 10 * seed, 2, seed=seed)
    excluded = set(ham.terms[0].indices) if ham.terms else set()
    graph = permitted_graph(ham, excluded)
    expected = hamiltonian_cycle_sorted_neighbors(graph)
    assert expected is not None
    assert hamiltonian_cycle_dense(graph) == expected
    dense = _DenseGraph(dense_permitted_adjacency(ham, excluded))
    assert hamiltonian_cycle_dense(dense) == expected


@pytest.mark.parametrize("seed", range(30))
def test_cycle_matches_reference_on_random_dense_graphs(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 16))
    p = float(rng.uniform(0.55, 0.95))
    adjacency = {v: set() for v in range(n)}
    for a, b in itertools.combinations(range(n), 2):
        if rng.random() < p:
            adjacency[a].add(b)
            adjacency[b].add(a)
    graph = _DenseGraph(adjacency)
    expected = hamiltonian_cycle_sorted_neighbors(graph)
    if expected is None:
        with pytest.raises(DiracError):
            hamiltonian_cycle_dense(graph)
    else:
        assert hamiltonian_cycle_dense(graph) == expected


# ---------------------------------------------------------------- truncation


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("k_prime", [1, 2, 5, 24])
def test_truncation_matches_running_count_scan(seed, k_prime):
    for ham in (gen_ssyk(60, 6, seed=seed), gen_sparse_random(30, 4, 6, "normal", seed=seed)):
        marked = truncation_marks_scan(ham, k_prime)
        core, residual = truncate_to_sparse(ham, k_prime)
        assert residual.terms == tuple(t for i, t in enumerate(ham.terms) if i in marked)
        assert core.terms == tuple(t for i, t in enumerate(ham.terms) if i not in marked)


# ------------------------------------------------------------- exact oracles


def _weighted_strings(ham):
    return [(term_string(t.indices, ham.n_modes), t.coeff) for t in ham.terms]


def _mixed_weight_draws():
    yield from (gen_mixed_24(n, 2, seed=n) for n in (6, 9, 10))
    for seed in range(2):
        terms = gen_syk_q(6, 2, seed=seed).terms + gen_syk_q(6, 6, seed=seed).terms
        yield MajoranaHamiltonian(n_modes=6, terms=terms)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
@pytest.mark.parametrize("seed", range(5))
def test_dense_hamiltonian_equals_per_string_scatter(n, seed):
    ham = gen_syk_q(n, 4, seed=seed)
    expected = dense_sum_per_string(_weighted_strings(ham), n)
    assert np.array_equal(dense_hamiltonian(ham).matrix, expected)


def test_dense_hamiltonian_equals_per_string_scatter_mixed_weights():
    for ham in _mixed_weight_draws():
        expected = dense_sum_per_string(_weighted_strings(ham), ham.n_modes)
        assert np.array_equal(dense_hamiltonian(ham).matrix, expected)


@pytest.mark.parametrize("n_modes,seed", [(3, 0), (6, 1), (9, 2)])
def test_dense_dimer_state_equals_matmul_product(n_modes, seed):
    rng = np.random.default_rng(seed)
    order = rng.permutation(2 * n_modes).tolist()
    pairs = [tuple(sorted(order[2 * i : 2 * i + 2])) for i in range(n_modes)]
    dimers = [(pair, int(sign)) for pair, sign in zip(pairs, rng.choice([-1, 1], n_modes))]
    for subset in (dimers, dimers[: n_modes // 2 + 1], []):
        strings = [(term_string(pair, n_modes), sign) for pair, sign in subset]
        expected = dimer_state_by_matmul(n_modes, strings)
        assert np.array_equal(dense_dimer_state(n_modes, subset).matrix, expected)


@pytest.mark.parametrize("n1,n2,q,seed", [(6, 2, 4, 7), (8, 4, 4, 3), (8, 3, 6, 5)])
def test_zeta_matches_tau_products(n1, n2, q, seed):
    ham2, meta = gen_two_colored(n1, n2, q, seed=seed)
    n_modes = n1 // 2 + n2
    scale = (1.0 / math.sqrt(math.comb(n1, q - 1))) * 1j ** (q // 2 - 1)
    tau_terms = []
    for entry in meta.entries:
        prod = (0, 0, 1.0 + 0.0j)
        for s in entry.phi:
            prod = _string_product(prod, _majorana_string(s, n_modes))
        tau_terms.append((entry.chi, prod, entry.coupling))
    sigmas = [_majorana_string(n1 + n2 + j, n_modes) for j in range(n2)]
    expected = zeta_by_tau_products(n_modes, scale, tau_terms, sigmas)
    zeta = _two_colored_dense(ham2, meta)["zeta"]
    assert np.allclose(zeta, expected, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n1,n2", [(6, 2), (6, 3), (8, 2), (8, 4)])
def test_sweep_slope_matches_expm_finite_difference(n1, n2, seed):
    ham2, meta = gen_two_colored(n1, n2, 4, seed=seed)
    pieces = _two_colored_dense(ham2, meta)
    commutator, finite_difference = sweep_slope(ham2, meta)
    assert commutator == pieces["slope"]
    expected = slope_fd_by_expm(pieces["zeta"], pieces["h"], pieces["rho0"])
    assert finite_difference == pytest.approx(expected, rel=1e-11, abs=1e-11)


@pytest.mark.parametrize(
    "ham", [gen_syk_q(9, 4, seed=1), gen_ssyk(11, 2, seed=4)], ids=["syk4-n9", "ssyk-n11"]
)
def test_matvec_matches_per_string_scatter(ham):
    rng = np.random.default_rng(0)
    dim = 2**ham.n_modes
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    vec /= np.linalg.norm(vec)  # a state vector, as the Lanczos solver passes
    expected = matvec_per_string(_weighted_strings(ham), vec)
    assert np.allclose(matvec_operator(ham).matvec(vec), expected, rtol=0.0, atol=1e-14)


def test_dense_expectation_matches_dense_trace():
    for ham in _mixed_weight_draws():
        n = ham.n_modes
        rng = np.random.default_rng(n)
        pairs = [(2 * j, 2 * j + 1) for j in range(n)]
        rho = dense_dimer_state(n, [(p, int(rng.choice([-1, 1]))) for p in pairs])
        expected = np.real(np.trace(dense_sum_per_string(_weighted_strings(ham), n) @ rho.matrix))
        assert dense_expectation(ham, rho) == pytest.approx(expected, rel=1e-12, abs=1e-12)
    with pytest.raises(ValueError):
        dense_expectation(gen_syk_q(4, 4, seed=0), DenseOperator(3, np.eye(8)))


# ------------------------------------------------------------ the Gaussian ascent


def _syk_sum(n, weights, seed):
    terms = sum((gen_syk_q(n, q, seed=seed + q).terms for q in weights), ())
    return MajoranaHamiltonian(n_modes=n, terms=terms)


def _evaluation_points(m, seed, count):
    """Random points of the pure-state orbit, then random antisymmetric matrices."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        basis, _ = np.linalg.qr(rng.standard_normal((m, m)))
        yield basis @ _reference_gamma(m) @ basis.T
    for _ in range(count // 5):
        yield random_antisymmetric(rng, m)


@pytest.mark.parametrize("weights", [(2,), (4,), (2, 4)])
@pytest.mark.parametrize("n", [6, 7, 8])
def test_ascent_evaluator_repeats_reference_bits(weights, n):
    hams = [_syk_sum(n, weights, seed=n)]
    if weights == (2, 4):
        hams.append(gen_mixed_24(n, 2, seed=n))  # interleaved weights, sparse supports
    for ham in hams:
        evaluate = _TermEvaluator(ham.terms, ham.n_majoranas)
        reference = CofactorTermEvaluator(ham.terms)
        for gamma in _evaluation_points(ham.n_majoranas, seed=n, count=50):
            energy, grad = evaluate(gamma)
            ref_energy, ref_grad = reference(gamma)
            assert repr(energy) == repr(ref_energy)
            assert grad.tobytes() == ref_grad.tobytes()


@pytest.mark.parametrize(
    "n,weights", [(5, (6,)), (4, (8,)), (5, (8,)), (5, (2, 4, 6)), (5, (4, 8))]
)
def test_ascent_evaluator_matches_cofactors_above_weight_four(n, weights):
    ham = _syk_sum(n, weights, seed=3)
    evaluate = _TermEvaluator(ham.terms, ham.n_majoranas)
    reference = CofactorTermEvaluator(ham.terms)
    for gamma in _evaluation_points(ham.n_majoranas, seed=n, count=5):
        energy, grad = evaluate(gamma)
        ref_energy, ref_grad = reference(gamma)
        assert energy == pytest.approx(ref_energy, rel=1e-12)
        assert np.allclose(grad, ref_grad, rtol=1e-12, atol=1e-12 * np.abs(ref_grad).max())


def test_ascent_evaluator_on_empty_hamiltonian():
    gamma = _reference_gamma(6)
    energy, grad = _TermEvaluator((), 6)(gamma)
    assert energy == 0.0
    assert grad.shape == (6, 6) and not grad.any()
    assert gaussian_numeric_max(MajoranaHamiltonian(n_modes=3, terms=()), restarts=2).value == 0.0


# ------------------------------------------------------------ the Wick route


def _certified_states():
    """Matching states from every pipeline, each with its Hamiltonian."""
    for seed in range(3):
        ham = gen_sparse_random(40, 4, 2, "normal", seed=seed)
        yield ham, optimize_strict_q(ham, k=2)
        ham = gen_sparse_random(30, 6, 1, "normal", seed=seed)
        yield ham, optimize_strict_q(ham, k=1)
        for n in (10, 40):  # at n = 10 the weight-4 branch wins some draws
            ham = gen_mixed_24(n, 2, seed=seed)
            yield ham, optimize_mixed_24(ham, k=2)
        ham = gen_ssyk(100, 2, seed=seed)
        yield ham, optimize_ssyk(ham, 2)


def test_wick_route_repeats_per_term_bits_on_matching_states():
    for ham, result in _certified_states():
        corr = correlation_from_matching(result.matching, result.signs)
        assert hamiltonian_expectation(corr, ham) == hamiltonian_expectation_per_term(corr, ham)


def _wick_states(m, seed):
    """Random pure states (orthogonal orbit) and mixed states: a pure state
    shrunk toward zero and a random antisymmetric matrix below norm one."""
    rng = np.random.default_rng(seed)
    for _ in range(3):
        basis, _ = np.linalg.qr(rng.standard_normal((m, m)))
        pure = basis @ _reference_gamma(m) @ basis.T
        yield CorrelationMatrix((pure - pure.T) / 2.0)
    yield CorrelationMatrix(0.6 * (pure - pure.T) / 2.0)
    raw = random_antisymmetric(rng, m)
    yield CorrelationMatrix(0.9 * raw / np.linalg.norm(raw, 2))


@pytest.mark.parametrize(
    "n,weights", [(5, (2,)), (5, (4,)), (5, (6,)), (5, (2, 4, 6)), (4, (4, 8)), (5, (10,))]
)
def test_wick_route_matches_per_term_pfaffians(n, weights):
    ham = _syk_sum(n, weights, seed=11)  # at weight 10: one term, past the expansion
    scale = total_strength(ham)
    for corr in _wick_states(ham.n_majoranas, seed=n + len(weights)):
        reference = hamiltonian_expectation_per_term(corr, ham)
        assert hamiltonian_expectation(corr, ham) == pytest.approx(
            reference, rel=1e-12, abs=1e-12 * scale
        )


def test_wick_route_rejects_a_hamiltonian_wider_than_the_state():
    ham = MajoranaHamiltonian(n_modes=3, terms=(InteractionTerm((0, 1), 1.0),))
    with pytest.raises(ValueError, match="6 Majoranas"):
        hamiltonian_expectation(CorrelationMatrix(_reference_gamma(4)), ham)


def test_correlation_matrix_takes_the_svd_past_unit_row_sums():
    rng = np.random.default_rng(4)
    basis, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    pure = basis @ _reference_gamma(8) @ basis.T
    pure = (pure - pure.T) / 2.0
    assert np.abs(pure).sum(axis=1).max() > 1.5  # the row-sum test cannot pass it
    CorrelationMatrix(pure)
    with pytest.raises(ValueError, match="singular value"):
        CorrelationMatrix(1.01 * pure)


# --------------------------------------------------------- the mixed pull-back


@pytest.fixture
def weight4_pull_backs(monkeypatch):
    """Each ``pull_back`` call's branch state with the conditioned states it
    hands to the overlap repair, in outcome order (1, -1)."""
    calls = []
    pull_back, repair = optimizer.pull_back, optimizer._repair_two_mode_overlaps

    def recording_pull_back(tilde_matching, tilde_signs, ham, lifted):
        calls.append((tilde_matching, tilde_signs, []))
        return pull_back(tilde_matching, tilde_signs, ham, lifted)

    def recording_repair(matching, signs, ham):
        calls[-1][2].append((matching, signs))
        return repair(matching, signs, ham)

    monkeypatch.setattr(optimizer, "pull_back", recording_pull_back)
    monkeypatch.setattr(optimizer, "_repair_two_mode_overlaps", recording_repair)
    return calls


def _assert_schur_agreement(calls) -> int:
    """Compare per outcome, not as a set: when both outcomes tie in energy
    the first is returned, so the labels decide the state's bytes."""
    weight4 = [call for call in calls if call[2]]
    for tilde_matching, tilde_signs, conditioned in weight4:
        reference = conditioned_by_schur(tilde_matching, tilde_signs)
        assert [prob for prob, _ in reference] == [0.5, 0.5]
        assert len(conditioned) == 2
        for (matching, signs), (_, gamma) in zip(conditioned, reference):
            assert np.array_equal(correlation_from_matching(matching, signs).gamma, gamma)
    return len(weight4)


def test_pull_back_matches_schur_on_hand_built_branch_states(weight4_pull_backs):
    for ham, tilde_matching, tilde_signs in hand_built_branch_states():
        optimizer.pull_back(tilde_matching, tilde_signs, ham, lift_to_strict4(ham))
    assert _assert_schur_agreement(weight4_pull_backs) == 5


def test_pull_back_matches_schur_on_small_mixed_draws(weight4_pull_backs):
    winners = 0
    for seed in range(40):
        result = optimize_mixed_24(gen_mixed_24(10, 2, seed=seed))
        winners += any("weight 4" in note for note in result.certificate.notes)
    assert winners == 11
    assert _assert_schur_agreement(weight4_pull_backs) == winners


def test_pull_back_matches_schur_on_the_scaled_fixture(weight4_pull_backs):
    _, result = _mixed24_quartic_x10(200, 2, 1)
    assert any("weight 4" in note for note in result.certificate.notes)
    assert _assert_schur_agreement(weight4_pull_backs) == 1
