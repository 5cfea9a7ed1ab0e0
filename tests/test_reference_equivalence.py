"""The indexed and sparse certify steps against their plain-scan versions.

Each rewritten piece must give exactly the answer of the straightforward
algorithm it replaced (kept in ``bruteforce``): the same combination for a
rank, the same diffuse verdict, the same permitted edges and the same
Hamiltonian cycle.
"""

import itertools
import math

import numpy as np
import pytest

from fermiopt.combinatorics import (
    DiffuseCheck,
    DiracError,
    diffuse_partition,
    hamiltonian_cycle_dense,
    is_diffuse,
    permitted_graph,
)
from fermiopt.ensembles import _unrank_combination, gen_sparse_random, gen_ssyk
from fermiopt.hamiltonian import InteractionTerm, MajoranaHamiltonian
from fermiopt.optimizer import truncate_to_sparse

from bruteforce import (
    dense_permitted_adjacency,
    diffuse_verdict_scan,
    hamiltonian_cycle_sorted_neighbors,
    truncation_marks_scan,
    unrank_combination_scan,
)


# ---------------------------------------------------------------- unranking


@pytest.mark.parametrize("size", [2, 4, 6])
def test_unrank_follows_itertools_order(size):
    for n_items in range(size, 13):
        for rank, combo in enumerate(itertools.combinations(range(n_items), size)):
            assert _unrank_combination(rank, n_items, size) == combo


@pytest.mark.parametrize("size", [2, 4, 6])
def test_unrank_rejects_ranks_outside_range(size):
    for n_items in range(size, 13):
        with pytest.raises(ValueError):
            _unrank_combination(-1, n_items, size)
        with pytest.raises(ValueError):
            _unrank_combination(math.comb(n_items, size), n_items, size)


def test_unrank_matches_scan_at_large_sizes():
    rng = np.random.default_rng(20)
    for _ in range(300):
        n_items = int(rng.integers(8, 6000))
        size = int(rng.choice([2, 4, 6]))
        rank = int(rng.integers(0, 2**62)) % math.comb(n_items, size)
        assert _unrank_combination(rank, n_items, size) == unrank_combination_scan(
            rank, n_items, size
        )


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
