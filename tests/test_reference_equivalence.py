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
state's correlation matrix at each outcome of the auxiliary dimer.  On
matching states drawn by ``hypothesis``, the array closed form must repeat
the per-term loop's bits, and the array sign choice, overlap repair and
pull-back the state bytes of the dict-based code they replaced.
"""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermiopt import gaussian, optimizer
from fermiopt.combinatorics import (
    DiffuseCheck,
    DiracError,
    build_conflict_graph,
    diffuse_partition,
    greedy_color,
    hamiltonian_cycle_dense,
    is_diffuse,
    permitted_graph,
)
from fermiopt.ensembles import (
    SSYK_MAX_N,
    _SPARSE_STAGE_CAP,
    _binomial_tables,
    _sparse_stages,
    _unrank_combination,
    gen_mixed_24,
    gen_sparse_random,
    gen_ssyk,
    gen_syk_q,
    gen_two_colored,
)
from fermiopt.gaussian import (
    CorrelationMatrix,
    Matching,
    SignAssignment,
    _TermEvaluator,
    assign_signs,
    correlation_from_matching,
    hamiltonian_expectation,
    matching_state_expectation,
    signed_matching,
    state_to_json,
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
    _UNITS,
    DenseOperator,
    _hamiltonian_sum,
    _pauli_sum,
    _reference_gamma,
    _string_matrix,
    _strings,
    _two_colored_dense,
    dense_dimer_state,
    dense_state_from_matching,
    dense_expectation,
    dense_hamiltonian,
    gaussian_numeric_max,
    matvec_operator,
    sweep_slope,
)

from bruteforce import (
    CofactorTermEvaluator,
    assign_signs_by_dict,
    closed_form_per_term,
    conditioned_by_schur,
    conflict_adjacency_by_bridges,
    conflict_adjacency_two_hop_sets,
    dense_permitted_adjacency,
    dense_sum_per_string,
    diffuse_verdict_by_mode_walk,
    diffuse_verdict_scan,
    dimer_state_by_matmul,
    dimer_state_full_gather,
    greedy_color_by_sets,
    hamiltonian_cycle_sorted_neighbors,
    hamiltonian_expectation_per_term,
    majorana_product_string,
    majorana_string,
    matvec_per_string,
    normal_at,
    pauli_sum_per_term,
    pull_back_by_dict,
    random_antisymmetric,
    repair_two_mode_overlaps_by_dict,
    repair_two_mode_overlaps_per_quartic,
    slope_fd_by_expm,
    sparse_random_per_batch,
    sparse_random_per_candidate,
    ssyk_terms_per_rank,
    string_product,
    term_string,
    truncation_marks_scan,
    unrank_combination_scan,
    unrank_combination_searchsorted,
    zeta_by_tau_products,
)
from test_golden import CASES as GOLDEN_CASES
from test_golden import _mixed24_quartic_x10
from test_optimizer import hand_built_branch_states


# ---------------------------------------------------------------- unranking


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 6])
def test_unrank_follows_itertools_order(size):
    # every rank of every n_items up to 22, in one batch per n_items
    for n_items in range(size, 23):
        expected = np.array(list(itertools.combinations(range(n_items), size)))
        got = _unrank_combination(np.arange(len(expected)), n_items, size)
        assert got.shape == (len(expected), size)
        assert np.array_equal(got, expected), n_items


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


def _boundary_ranks(n_items: int, size: int) -> np.ndarray:
    """Ranks 0, 1, total - 2 and total - 1, and at every position ``p`` the
    ranks whose remaining dual sits at ``C(b, r) - 1``, ``C(b, r)`` and
    ``C(b, r) + 1`` for every ``b``, with ``r = size - p`` elements left:
    under the prefix ``0, ..., p - 1``, whose remainder spans all of
    ``[0, C(n_items - p, r))``, and under a middle prefix for about 600
    ``b``."""
    total = math.comb(n_items, size)
    duals = [np.array([0, 1, total - 2, total - 1], dtype=np.int64)]
    for p in range(size):
        r = size - p
        span = n_items - p
        bounds = np.array([math.comb(b, r) for b in range(r - 1, span + 1)], dtype=np.int64)
        near = (bounds[:, None] + np.array([-1, 0, 1])).ravel()
        lowest = sum(math.comb(n_items - 1 - j, size - j) for j in range(p))
        duals.append(lowest + near[(0 <= near) & (near < math.comb(span, r))])
        # the middle prefix: items spaced evenly over the first half
        middle = [j * (n_items // (2 * size)) + j for j in range(p)]
        rest = n_items - 1 - (middle[-1] if middle else -1)
        offset = sum(math.comb(n_items - 1 - c, size - j) for j, c in enumerate(middle))
        some = near[(0 <= near) & (near < math.comb(rest, r))]
        duals.append(offset + some[:: max(1, len(some) // 600)])
    dual = np.unique(np.concatenate(duals))
    assert dual.min() >= 0 and dual.max() < total
    return (total - 1) - dual


UNRANK_EDGE_SIZES = [
    (q, n_items)
    for q, largest in ((2, 121976), (4, 121976), (6, 4337))
    for n_items in (q + 3, 480, largest)
]


@pytest.mark.parametrize("size,n_items", UNRANK_EDGE_SIZES)
def test_unrank_at_every_binomial_boundary(size, n_items):
    # 121,976 items is 2 * SSYK_MAX_N; C(4338, 6) passes 2^63
    ranks = _boundary_ranks(n_items, size)
    assert ranks.size >= 2 * (n_items - size)
    got = _unrank_combination(ranks, n_items, size)
    assert np.array_equal(got, unrank_combination_searchsorted(ranks, n_items, size))
    total = math.comb(n_items, size)
    for rank in (0, 1, total - 2, total - 1):
        row = got[np.flatnonzero(ranks == rank)[0]].tolist()
        dual = sum(math.comb(n_items - 1 - item, size - j) for j, item in enumerate(row))
        assert 0 <= row[0] and row == sorted(set(row)) and row[-1] < n_items
        assert total - 1 - dual == rank
    allowed = np.random.default_rng(n_items + size).random(n_items) < 0.8
    assert np.array_equal(
        _unrank_combination(ranks, n_items, size, allowed=allowed),
        unrank_combination_searchsorted(ranks, n_items, size, allowed=allowed),
    )


def test_unrank_last_rank_at_480_items():
    # a single float-root step once gave [477, 477, 478, 479] here
    last = math.comb(480, 4) - 1
    assert _unrank_combination(np.array([last, last - 1]), 480, 4).tolist() == [
        [476, 477, 478, 479],
        [475, 477, 478, 479],
    ]


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


# every (n, q, k) with n > q*k over sizes where a draw stops early (small n)
# and where it runs all 60 batches (n >= 120)
STAGED_GRID = [
    (n, q, k)
    for n in (9, 13, 20, 40, 77, 120, 240, 600)
    for q in (2, 4, 6)
    for k in (1, 2, 3)
    if n > q * k
]


@pytest.mark.parametrize("dist", ["normal", "pm1"])
@pytest.mark.parametrize("n,q,k", STAGED_GRID, ids=[f"n{n}-q{q}-k{k}" for n, q, k in STAGED_GRID])
def test_sparse_random_stages_match_per_batch_loop(n, q, k, dist):
    seed = 1000 * n + 10 * q + k
    assert _pairs(gen_sparse_random(n, q, k, dist, seed=seed)) == sparse_random_per_batch(
        n, q, k, dist, seed
    )


@pytest.mark.parametrize("batch", [64, 960, 4681, 4682, 2**16, 2**17, 2**17 + 1, 2**20])
def test_sparse_stages_cover_every_batch_in_runs_under_the_cap(batch):
    runs = list(_sparse_stages(batch))
    assert [start for start, _ in runs] == [0] + [stop for _, stop in runs[:-1]]
    assert runs[-1][1] == 60
    assert all((stop - start) * batch <= _SPARSE_STAGE_CAP or stop - start == 1 for start, stop in runs)


@pytest.mark.parametrize("cap", [1, 1000, 5000])
@pytest.mark.parametrize("n,q,k", [(40, 4, 2), (120, 4, 2), (240, 2, 1), (77, 6, 1)])
def test_sparse_random_capped_stages_match_per_batch_loop(n, q, k, cap, monkeypatch):
    # a small cap cuts the stages into runs of one or a few batches here
    monkeypatch.setattr("fermiopt.ensembles._SPARSE_STAGE_CAP", cap)
    seed = 7 * n + q + k
    assert _pairs(gen_sparse_random(n, q, k, "normal", seed=seed)) == sparse_random_per_batch(
        n, q, k, "normal", seed
    )


def test_sparse_random_large_batch_is_drawn_in_capped_runs():
    # 4 * 9600 = 38400 candidates per batch: every stage past the third
    # exceeds the cap and runs three batches at a time
    n, q, k = 3200, 2, 3
    assert _SPARSE_STAGE_CAP // 38400 == 3
    assert list(_sparse_stages(38400))[-3:] == [(53, 56), (56, 59), (59, 60)]
    assert _pairs(gen_sparse_random(n, q, k, "normal", seed=1)) == sparse_random_per_batch(
        n, q, k, "normal", 1
    )


@pytest.mark.parametrize("n_terms", [0, 1, 10, 20, 25, 28])
def test_sparse_random_term_count_stages_match_per_batch_loop(n_terms):
    # at most 30 disjoint quartets fit on 120 Majoranas; this seed places 10
    # terms inside batch 0, 20 in batch 3 and 25 in batch 19, and cannot
    # place 28 in 60 batches
    expected = sparse_random_per_batch(60, 4, 1, "normal", 3, n_terms)
    if expected is None:
        with pytest.raises(ValueError, match="could not place"):
            gen_sparse_random(60, 4, 1, "normal", seed=3, n_terms=n_terms)
    else:
        assert _pairs(gen_sparse_random(60, 4, 1, "normal", seed=3, n_terms=n_terms)) == expected


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
    labels = _two_colored_labels(n1, n2, q, meta)
    assert [coupling for _, _, coupling in labels] == [
        normal_at(seed, "twocolor-coeff", rank) for rank in range(len(labels))
    ]


def _two_colored_labels(n1, n2, q, meta) -> list[tuple[int, tuple[int, ...], float]]:
    """``(chi, phi, coupling)`` per term of a two-colored draw: the labels
    rebuilt in the generator's documented order, not read from its rows."""
    labels = itertools.product(range(n2), itertools.combinations(range(n1), q - 1))
    return [(chi, phi, c) for (chi, phi), c in zip(labels, meta.couplings.tolist(), strict=True)]


# ------------------------------------------------------------ conflict graph


@pytest.mark.parametrize(
    "ham",
    [
        *(gen_ssyk(n, 2, seed=seed) for n in (400, 1600) for seed in (3, 4, 5)),
        gen_mixed_24(120, 2, 8),
        *(gen_sparse_random(60, q, 3, "normal", seed=q) for q in (2, 4, 6)),
        MajoranaHamiltonian(3, ()),
        # small draws, down to a single term
        gen_sparse_random(40, 4, 2, "normal", seed=5),
        gen_mixed_24(40, 2, 7),
        gen_mixed_24(10, 2, 1),
        gen_sparse_random(5, 2, 2, "normal", seed=0),
        gen_sparse_random(13, 6, 2, "normal", seed=0),
        MajoranaHamiltonian(3, [InteractionTerm((0, 2, 3, 5), 0.5)]),
    ],
    ids=lambda ham: f"{len(ham.terms)}-terms-n{ham.n_modes}",
)
def test_conflict_graph_equals_bridge_loop(ham):
    # a term's row lists the holders of each of its Majoranas in turn; its
    # conflicts are the terms within two steps on those rows
    graph = build_conflict_graph(ham)
    expected = conflict_adjacency_by_bridges(ham)
    assert conflict_adjacency_two_hop_sets(ham) == expected
    assert graph.n_vertices == len(expected) == len(ham.terms)
    assert graph.indptr[0] == 0 and graph.indptr[-1] == graph.indices.size
    holders: dict[int, list[int]] = {}
    for u, term in enumerate(ham.terms):
        for c in term.indices:
            holders.setdefault(c, []).append(u)
    for t, neighbors in enumerate(expected):
        row = [u for c in ham.terms[t].indices for u in holders[c]]
        assert graph.neighbors(t).tolist() == row
        rows = [graph.neighbors(u).tolist() for u in graph.neighbors(t).tolist()]
        assert set(itertools.chain.from_iterable(rows)) - {t} == neighbors


@pytest.mark.parametrize(
    "ham",
    [
        *(gen_ssyk(n, 2, seed=seed) for n in (400, 1600) for seed in (3, 4)),
        gen_mixed_24(120, 2, 8),
        *(gen_sparse_random(60, q, 3, "normal", seed=q) for q in (2, 4, 6)),
        MajoranaHamiltonian(3, ()),
    ],
    ids=lambda ham: f"{len(ham.terms)}-terms-n{ham.n_modes}",
)
def test_coloring_equals_set_based_greedy(ham):
    # the mask coloring must keep the vertex order (index tuples) exactly
    expected = greedy_color_by_sets(conflict_adjacency_two_hop_sets(ham), ham)
    assert greedy_color(build_conflict_graph(ham)) == expected


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
        for subset in (ids, np.append(ids, ids[:1]), ids[: len(ids) // 3]):
            got = _verdict(is_diffuse(subset, ham))
            assert got == diffuse_verdict_scan(subset, ham)
            verdicts.add(got)
    assert (True, None) in verdicts and (False, 1) in verdicts


@pytest.mark.parametrize(
    "ham",
    [
        gen_ssyk(60, 3, seed=1),
        gen_mixed_24(40, 3, 2),
        gen_sparse_random(20, 6, 2, "normal", seed=3),
    ],
    ids=["ssyk", "mixed24", "strictq-q6"],
)
def test_is_diffuse_matches_set_based_walk(ham):
    rng = np.random.default_rng(len(ham.terms))
    subsets = [[], list(range(len(ham.terms)))]
    subsets += [list(ids) for ids in diffuse_partition(ham).parts.values()]
    for _ in range(200):
        size = int(rng.integers(1, 7))
        subsets.append([int(t) for t in rng.choice(len(ham.terms), size=size)])  # repeats too
    verdicts = set()
    for subset in subsets:
        for locality in (None, 4, 40):
            got = _verdict(is_diffuse(subset, ham, locality=locality))
            assert got == diffuse_verdict_by_mode_walk(subset, ham, locality=locality)
            assert got == diffuse_verdict_scan(subset, ham, locality=locality)
            verdicts.add(got)
    assert {(True, None), (False, 1), (False, 2)} <= verdicts


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


def test_permitted_graph_equals_dense_complement_on_mixed_weights():
    ham = gen_mixed_24(30, 3, 5)
    rng = np.random.default_rng(5)
    for excluded in (set(), set(range(ham.n_majoranas - 3)), set(rng.choice(60, size=20).tolist())):
        graph = permitted_graph(ham, excluded)
        dense = dense_permitted_adjacency(ham, excluded)
        assert graph.vertices == tuple(sorted(dense))
        assert graph.min_degree() == min(len(a) for a in dense.values())
        assert graph.adjacency == dense
        for v in graph.vertices:
            assert [graph.has_edge(v, u) for u in range(-1, 61)] == [
                u in dense[v] for u in range(-1, 61)
            ]


def test_permitted_graph_without_forbidden_pairs():
    # no pair of one term survives the exclusion: the sorted key array is empty
    empty = MajoranaHamiltonian(n_modes=3, terms=())
    ham = gen_sparse_random(12, 4, 1, "normal", seed=0)
    touched = {i for t in ham.terms for i in t.indices}
    for case, excluded in ((empty, set()), (empty, {0, 5}), (ham, touched)):
        graph = permitted_graph(case, excluded)
        dense = dense_permitted_adjacency(case, excluded)
        assert graph.vertices == tuple(sorted(dense))
        assert graph.adjacency == dense


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
    for chi, phi, coupling in _two_colored_labels(n1, n2, q, meta):
        prod = (0, 0, 1.0 + 0.0j)
        for s in phi:
            prod = string_product(prod, majorana_string(s, n_modes))
        tau_terms.append((chi, prod, coupling))
    sigmas = [majorana_string(n1 + n2 + j, n_modes) for j in range(n2)]
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


# ------------------------------------ array-built Pauli sums and dimer states


def _same_pauli_sum(got, expected):
    assert len(got) == len(expected)
    for (cols, coef), (ref_cols, ref_coef) in zip(got, expected):
        assert np.array_equal(cols, ref_cols)
        assert coef.tobytes() == ref_coef.tobytes()


@st.composite
def mixed_hamiltonians(draw):
    """Up to 40 distinct terms of weights 2, 4 and 6 on 1 to 10 modes.  About
    half are products of on-site pairs ``(2j, 2j + 1)``, whose strings share
    the X mask 0, so that groups hold many terms in a drawn order."""
    n = draw(st.integers(1, 10))
    weights = [w for w in (2, 4, 6) if w <= 2 * n]
    coeffs = st.floats(-1e3, 1e3, allow_subnormal=False) | st.sampled_from([0.0, -0.0])
    terms = {}
    for _ in range(draw(st.integers(0, 40))):
        w = draw(st.sampled_from(weights))
        if draw(st.booleans()):
            sites = draw(st.lists(st.integers(0, n - 1), min_size=w // 2, max_size=w // 2, unique=True))
            idx = tuple(sorted(i for j in sites for i in (2 * j, 2 * j + 1)))
        else:
            modes = st.lists(st.integers(0, 2 * n - 1), min_size=w, max_size=w, unique=True)
            idx = tuple(sorted(draw(modes)))
        terms[idx] = InteractionTerm(idx, draw(coeffs))
    return MajoranaHamiltonian(n, tuple(terms.values()))


@settings(max_examples=200, deadline=None)
@given(mixed_hamiltonians())
def test_pauli_sum_repeats_the_per_term_loop_on_drawn_hamiltonians(ham):
    expected = pauli_sum_per_term(_weighted_strings(ham), ham.n_modes)
    _same_pauli_sum(_hamiltonian_sum(ham), expected)


def _on_site_products(n, seed):
    """Every product of 1, 2 or 3 on-site pairs: one X mask, more terms than
    one phase block holds at n = 10."""
    rng = np.random.default_rng(seed)
    terms = [
        InteractionTerm(tuple(i for j in sites for i in (2 * j, 2 * j + 1)), rng.standard_normal())
        for r in (1, 2, 3)
        for sites in itertools.combinations(range(n), r)
    ]
    return MajoranaHamiltonian(n, tuple(terms))


@pytest.mark.parametrize(
    "ham",
    [
        gen_syk_q(9, 4, seed=1),
        gen_syk_q(7, 6, seed=2),
        gen_ssyk(11, 2, seed=3),
        gen_sparse_random(10, 2, 3, "normal", seed=4),
        gen_mixed_24(8, 2, seed=5),
        _on_site_products(10, seed=6),
        MajoranaHamiltonian(3, ()),
    ],
    ids=["syk4-n9", "syk6-n7", "ssyk-n11", "strictq2-n10", "mixed24-n8", "on-site-n10", "empty"],
)
def test_pauli_sum_repeats_the_per_term_loop_on_ensembles(ham):
    expected = pauli_sum_per_term(_weighted_strings(ham), ham.n_modes)
    _same_pauli_sum(_hamiltonian_sum(ham), expected)


@pytest.mark.parametrize("n1,n2,q,seed", [(6, 2, 4, 1), (8, 4, 4, 2), (6, 3, 6, 3), (8, 2, 6, 4)])
def test_zeta_sum_repeats_the_per_term_loop(n1, n2, q, seed):
    ham2, meta = gen_two_colored(n1, n2, q, seed=seed)
    n_modes = n1 // 2 + n2
    scale = (1.0 / math.sqrt(math.comb(n1, q - 1))) * 1j ** (q // 2 - 1)
    labels = _two_colored_labels(n1, n2, q, meta)
    rows = [phi + (n1 + n2 + chi,) for chi, phi, _ in labels]
    strings = [
        (majorana_product_string(row, n_modes), scale * c) for row, (_, _, c) in zip(rows, labels)
    ]
    x, z, power = _strings(np.array(rows))
    scalars = scale * meta.couplings * _UNITS[power & 3]
    expected = pauli_sum_per_term(strings, n_modes)
    _same_pauli_sum(_pauli_sum(x, z, scalars, n_modes), expected)
    zeta = _two_colored_dense(ham2, meta)["zeta"]
    assert zeta.tobytes() == _string_matrix(expected, n_modes).tobytes()


@st.composite
def dimer_sets(draw):
    """Disjoint ascending dimers on 1 to 9 modes, weights +-1 or in [-1, 1]."""
    n = draw(st.integers(1, 9))
    modes = draw(st.permutations(range(2 * n)))
    weights = st.sampled_from([-1, 1]) | st.floats(-1.0, 1.0)
    count = draw(st.integers(0, n))
    return n, [(tuple(sorted(modes[2 * i : 2 * i + 2])), draw(weights)) for i in range(count)]


@settings(max_examples=100, deadline=None)
@given(dimer_sets())
def test_dense_dimer_state_repeats_the_full_gather(case):
    n, dimers = case
    expected = dimer_state_full_gather(n, dimers)
    assert dense_dimer_state(n, dimers).matrix.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [9, 10])
@pytest.mark.parametrize("seed", range(6))
def test_optimized_dense_states_repeat_the_full_gather(n, seed):
    ham = gen_sparse_random(n, 4, 2, "normal", seed=seed)
    result = optimize_strict_q(ham, k=2)
    dimers = list(zip(result.matching.dimers.tolist(), result.signs.signs.tolist()))
    expected = dimer_state_full_gather(n, dimers)
    rho = dense_state_from_matching(result.matching, result.signs, n_modes=n)
    assert rho.matrix.tobytes() == expected.tobytes()


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
        evaluate = _TermEvaluator(ham.index.blocks, ham.index.coeffs, ham.n_majoranas)
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
    evaluate = _TermEvaluator(ham.index.blocks, ham.index.coeffs, ham.n_majoranas)
    reference = CofactorTermEvaluator(ham.terms)
    for gamma in _evaluation_points(ham.n_majoranas, seed=n, count=5):
        energy, grad = evaluate(gamma)
        ref_energy, ref_grad = reference(gamma)
        assert energy == pytest.approx(ref_energy, rel=1e-12)
        assert np.allclose(grad, ref_grad, rtol=1e-12, atol=1e-12 * np.abs(ref_grad).max())


def test_ascent_evaluator_on_empty_hamiltonian():
    gamma = _reference_gamma(6)
    energy, grad = _TermEvaluator((), np.zeros(0), 6)(gamma)
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


# ---------------------------------------------------------- the closed form


def _random_matching_state(rng, n_modes):
    modes = rng.permutation(2 * n_modes).tolist()
    matching = Matching(tuple(zip(modes[::2], modes[1::2])))
    signs = SignAssignment.from_dict({p: int(rng.choice([-1, 1])) for p in matching.pairs})
    return matching, signs


def _terms_around(rng, matching, weights, n_terms, n_majoranas):
    """Up to ``n_terms`` distinct terms, whose supports are unions of dimers
    half the time (consistent ones) and random otherwise; coefficients are
    normal, +0.0 or -0.0."""
    chosen = {}
    for _ in range(n_terms):
        w = int(rng.choice(weights))
        if rng.random() < 0.5:
            picked = rng.choice(len(matching.pairs), size=w // 2, replace=False)
            idx = tuple(sorted(i for k in picked.tolist() for i in matching.pairs[k]))
        else:
            idx = tuple(sorted(rng.choice(n_majoranas, size=w, replace=False).tolist()))
        coeff = float(rng.choice([rng.standard_normal(), 0.0, -0.0], p=[0.8, 0.1, 0.1]))
        chosen[idx] = InteractionTerm(idx, coeff)
    return tuple(chosen.values())


@pytest.mark.parametrize("weights", [(2,), (4,), (6,), (2, 4)], ids=str)
def test_closed_form_repeats_per_term_loop_on_random_states(weights):
    rng = np.random.default_rng(sum(weights))
    consistent = 0
    for _ in range(60):
        n = int(rng.integers(max(weights) // 2, 9))
        matching, signs = _random_matching_state(rng, n)
        terms = _terms_around(rng, matching, weights, int(rng.integers(1, 25)), 2 * n)
        ham = MajoranaHamiltonian(n_modes=n, terms=terms)
        closed = matching_state_expectation(matching, signs, ham)
        assert repr(closed) == repr(closed_form_per_term(matching, signs, ham))
        consistent += closed != 0.0
    assert consistent > 30


def test_closed_form_of_zero_coefficients_is_positive_zero():
    matching = Matching(((0, 1), (2, 3)))
    signs = SignAssignment.from_dict({(0, 1): -1, (2, 3): 1})
    terms = (InteractionTerm((0, 1), 0.0), InteractionTerm((0, 1, 2, 3), -0.0))
    ham = MajoranaHamiltonian(2, terms)
    assert repr(matching_state_expectation(matching, signs, ham)) == "0.0"
    assert repr(closed_form_per_term(matching, signs, ham)) == "0.0"


def test_closed_form_repeats_per_term_loop_on_certified_states():
    for ham, result in _certified_states():
        closed = matching_state_expectation(result.matching, result.signs, ham)
        assert repr(closed) == repr(closed_form_per_term(result.matching, result.signs, ham))


def test_closed_form_takes_nothing_from_the_pfaffian_expansion(monkeypatch):
    # the closed form and the Wick route must stay independent: the closed
    # form reads neither the signed matchings nor the expansion evaluator
    states = list(_certified_states())

    def refuse(*args, **kwargs):
        raise RuntimeError("the closed form used the Pfaffian expansion")

    monkeypatch.setattr(gaussian, "_signed_matchings", refuse)
    monkeypatch.setattr(gaussian, "_TermEvaluator", refuse)
    for ham, result in states:
        closed = matching_state_expectation(result.matching, result.signs, ham)
        assert repr(closed) == repr(closed_form_per_term(result.matching, result.signs, ham))
        assert closed == result.certificate.achieved


# ------------------------------------- drawn states against the dict references


@st.composite
def matching_states(draw, min_modes=1, max_modes=7, n_modes=None):
    """A matching drawn as a permutation, its pairs in either orientation,
    with a drawn sign per pair."""
    n = draw(st.integers(min_modes, max_modes)) if n_modes is None else n_modes
    modes = draw(st.permutations(range(2 * n)))
    pairs = list(zip(modes[::2], modes[1::2]))
    signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    return Matching(pairs), SignAssignment.from_dict(dict(zip(pairs, signs)))


def _same_outcome(run, reference):
    """Both raise the same error, or both return the same state bytes."""
    try:
        expected = reference()
    except (ValueError, optimizer.PullBackError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            run()
        return
    got = run()
    assert state_to_json(*got) == state_to_json(*expected)
    assert np.array_equal(got[1].signs, expected[1].signs)


def _drawn_hamiltonian(seed, matching, weights):
    m = matching.n_majoranas
    rng = np.random.default_rng(seed)
    usable = tuple(w for w in weights if w <= m)
    return MajoranaHamiltonian(m // 2, _terms_around(rng, matching, usable, 12, m))


@settings(max_examples=150, deadline=None)
@given(matching_states(min_modes=2), st.integers(0, 2**32 - 1))
def test_closed_form_repeats_per_term_loop_on_drawn_states(state, seed):
    matching, signs = state
    ham = _drawn_hamiltonian(seed, matching, (2, 4, 6))
    closed = matching_state_expectation(matching, signs, ham)
    assert repr(closed) == repr(closed_form_per_term(matching, signs, ham))


COEFFS = st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.75, 3.0])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_assign_signs_repeats_the_dict_reference_on_drawn_targets(data):
    matching, _ = data.draw(matching_states())
    # each dimer joins target 1, 2 or 3, or none (0): disjoint consistent targets
    n = matching.n_majoranas // 2
    label = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    targets = []
    for group in (1, 2, 3):
        idx = sorted(i for pair, g in zip(matching.pairs, label) if g == group for i in pair)
        if idx:
            targets.append(InteractionTerm(tuple(idx), data.draw(COEFFS)))
    ham = MajoranaHamiltonian(n_modes=n, terms=targets)
    _same_outcome(
        lambda: (matching, assign_signs(matching, ham, range(ham.n_terms))),
        lambda: (matching, assign_signs_by_dict(matching, targets)),
    )


# The overlap repair reads the closed form's per-weight gather; the per-quartic
# verdict loop it replaced must give the same state bytes or the same error.
repair = optimizer._repair_two_mode_overlaps


def _same_repair(matching, signs, ham):
    _same_outcome(
        lambda: (matching, repair(matching, signs, ham)),
        lambda: (matching, repair_two_mode_overlaps_per_quartic(matching, signs, ham)),
    )


@settings(max_examples=150, deadline=None)
@given(matching_states(min_modes=2), st.integers(0, 2**32 - 1))
def test_overlap_repair_repeats_the_dict_reference_on_drawn_states(state, seed):
    matching, signs = state
    ham = _drawn_hamiltonian(seed, matching, (2, 4))
    _same_outcome(
        lambda: (matching, repair(matching, signs, ham)),
        lambda: (matching, repair_two_mode_overlaps_by_dict(matching, signs, ham)),
    )
    _same_repair(matching, signs, ham)


@st.composite
def branch_states(draw):
    """A state on 2n + 2 Majoranas for a Hamiltonian on 2n; half the draws
    hold the auxiliary pair (2n, 2n + 1) as a dimer."""
    n = draw(st.integers(2, 6))
    if draw(st.booleans()):
        inner, inner_signs = draw(matching_states(n_modes=n))
        tilde = signed_matching(
            np.vstack((inner.dimers, [(2 * n, 2 * n + 1)])),
            np.append(inner_signs.signs, draw(st.sampled_from([-1, 1]))),
        )
    else:
        tilde = draw(matching_states(n_modes=n + 1))
    return n, tilde


@settings(max_examples=200, deadline=None)
@given(branch_states(), st.integers(0, 2**32 - 1))
def test_pull_back_repeats_the_dict_reference_on_drawn_states(branch, seed):
    n, (tilde_matching, tilde_signs) = branch
    rng = np.random.default_rng(seed)
    half = Matching([(2 * j, 2 * j + 1) for j in range(n)])  # for the term draw only
    ham = MajoranaHamiltonian(n, _terms_around(rng, half, (2, 4), 10, 2 * n))
    lifted = lift_to_strict4(ham)
    args = (tilde_matching, tilde_signs, ham, lifted)
    _same_outcome(lambda: optimizer.pull_back(*args), lambda: pull_back_by_dict(*args))


@settings(max_examples=150, deadline=None)
@given(branch_states(), st.integers(0, 2**32 - 1))
def test_overlap_repair_repeats_the_per_quartic_reference_in_drawn_pull_backs(branch, seed):
    n, (tilde_matching, tilde_signs) = branch
    rng = np.random.default_rng(seed)
    half = Matching([(2 * j, 2 * j + 1) for j in range(n)])  # for the term draw only
    ham = MajoranaHamiltonian(n, _terms_around(rng, half, (2, 4), 10, 2 * n))
    handed = []

    def recording(matching, signs, ham):
        handed.append((matching, signs))
        return repair(matching, signs, ham)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimizer, "_repair_two_mode_overlaps", recording)
        try:
            optimizer.pull_back(tilde_matching, tilde_signs, ham, lift_to_strict4(ham))
        except (ValueError, optimizer.PullBackError):
            pass
    for matching, signs in handed:
        _same_repair(matching, signs, ham)


def test_overlap_repair_rejects_quartics_sharing_a_dimer():
    matching, signs = signed_matching([(0, 1), (2, 3), (4, 5)], [1, -1, 1])
    terms = (InteractionTerm((0, 1, 2, 3), 1.0), InteractionTerm((0, 1, 4, 5), -2.0))
    ham = MajoranaHamiltonian(n_modes=3, terms=terms)
    with pytest.raises(ValueError, match="share a dimer"):
        repair(matching, signs, ham)
    _same_repair(matching, signs, ham)


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
    assert winners == 7
    assert _assert_schur_agreement(weight4_pull_backs) == winners


@pytest.mark.parametrize(
    "case_id", ["mixed24-k2-n10-weight4", "mixed24-quartic-x10-n200-weight4"]
)
def test_overlap_repair_repeats_the_per_quartic_reference_on_golden_states(
    weight4_pull_backs, case_id
):
    ham, _ = next(case[1] for case in GOLDEN_CASES if case[0] == case_id)()
    handed = [state for call in weight4_pull_backs for state in call[2]]
    assert len(handed) == 2  # one weight-4 pull-back, both outcomes
    for matching, signs in handed:
        _same_repair(matching, signs, ham)


def test_pull_back_matches_schur_on_the_scaled_fixture(weight4_pull_backs):
    _, result = _mixed24_quartic_x10(200, 2, 1)
    assert any("weight 4" in note for note in result.certificate.notes)
    assert _assert_schur_agreement(weight4_pull_backs) == 1
