import dataclasses
import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermiopt.combinatorics import (
    ContractError,
    DiracError,
    build_conflict_graph,
    conflict_degree_bound,
    diffuse_matching,
    diffuse_partition,
    greedy_color,
    hamiltonian_cycle_dense,
    is_diffuse,
    part_bound,
    permitted_graph,
    validate_cycle,
)
from fermiopt.gaussian import classify_consistency
from fermiopt.hamiltonian import InteractionTerm, MajoranaHamiltonian
from fermiopt.ensembles import gen_mixed_24, gen_sparse_random, gen_ssyk

from bruteforce import (
    conflict_adjacency_by_bridges,
    conflict_adjacency_two_hop_sets,
    enumerate_hamiltonian_cycles,
)


def ham_of(n_modes, *index_sets, coeffs=None):
    coeffs = coeffs or [1.0] * len(index_sets)
    return MajoranaHamiltonian(
        n_modes=n_modes,
        terms=tuple(InteractionTerm(tuple(i), c) for i, c in zip(index_sets, coeffs)),
    )


# -------------------------------------------------------------- is_diffuse


def test_singleton_depends_on_support_bound():
    ham = ham_of(8, (0, 1, 2, 3))
    assert is_diffuse([0], ham).ok  # 4 < 2*4*8/5
    tiny = ham_of(2, (0, 1, 2, 3))
    check = is_diffuse([0], tiny)
    assert not check.ok and check.violated == 3  # 4 >= 2*4*2/5


def test_shared_mode_violates_condition_one():
    ham = ham_of(8, (0, 1, 2, 3), (3, 4, 5, 6))
    check = is_diffuse([0, 1], ham)
    assert not check.ok and check.violated == 1


def test_bridge_violates_condition_two():
    ham = ham_of(12, (0, 1, 2, 3), (8, 9, 10, 11), (3, 5, 6, 8))
    check = is_diffuse([0, 1], ham)
    assert not check.ok and check.violated == 2


# ---------------------------------------------------------- conflict graph


def conflicts(graph, v):
    """The terms within two steps of ``v`` on the overlap rows, less ``v``."""
    return set(np.concatenate([graph.neighbors(u) for u in graph.neighbors(v)]).tolist()) - {v}


def test_disjoint_unbridged_terms_have_no_edge():
    ham = ham_of(12, (0, 1, 2, 3), (8, 9, 10, 11))
    graph = build_conflict_graph(ham)
    assert 1 not in conflicts(graph, 0) and 0 not in conflicts(graph, 1)


def test_shared_mode_gives_edge():
    ham = ham_of(8, (0, 1, 2, 3), (3, 4, 5, 6))
    graph = build_conflict_graph(ham)
    assert 1 in conflicts(graph, 0) and 0 in conflicts(graph, 1)


def test_bridge_gives_edge():
    ham = ham_of(12, (0, 1, 2, 3), (8, 9, 10, 11), (3, 5, 6, 8))
    graph = build_conflict_graph(ham)
    assert 1 in conflicts(graph, 0) and 0 in conflicts(graph, 1)
    assert 1 not in graph.neighbors(0).tolist()  # a bridge, not an overlap


@pytest.mark.parametrize("seed", range(10))
def test_conflict_degree_bound_sparse_quartic(seed):
    ham = gen_sparse_random(12, 4, 2, "normal", seed=seed)
    degree = max(map(len, conflict_adjacency_two_hop_sets(ham)), default=0)
    assert degree <= build_conflict_graph(ham).bound <= conflict_degree_bound(4, 2) == 16


# --------------------------------------------------------- greedy coloring


def edgeless_graph(n):
    return build_conflict_graph(
        ham_of(4 * n, *[(4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3) for i in range(n)])
    )


def test_edgeless_graph_one_color():
    colors = greedy_color(edgeless_graph(4))
    assert set(colors) == {0}


def test_path_two_colors():
    # terms chained by shared modes: 0-1 and 1-2 conflict, 0-2 conflict via bridge 1
    ham = ham_of(16, (0, 1, 2, 3), (3, 4, 5, 6), (6, 7, 8, 9))
    graph = build_conflict_graph(ham)
    colors = greedy_color(graph)
    # conflicts: (0,1), (1,2) direct; (0,2) bridged -> triangle needs 3
    assert len(set(colors)) == 3


def test_true_path_two_colors():
    # far-apart terms conflicting only pairwise through a long chain
    ham = ham_of(
        20,
        (0, 1, 2, 3),
        (3, 4, 5, 6),
        (10, 11, 12, 13),
    )
    graph = build_conflict_graph(ham)
    colors = greedy_color(graph)
    assert colors[0] != colors[1] and len(set(colors)) == 2


def test_clique_forces_maxdeg_plus_one():
    # five terms all sharing mode 0: K5
    ham = ham_of(
        16,
        (0, 1, 2, 3),
        (0, 4, 5, 6),
        (0, 7, 8, 9),
        (0, 10, 11, 12),
        (0, 13, 14, 15),
    )
    graph = build_conflict_graph(ham)
    colors = greedy_color(graph)
    assert len(set(colors)) == 5


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_greedy_coloring_is_proper(seed):
    ham = gen_sparse_random(14, 4, 2, "normal", seed=seed)
    graph = build_conflict_graph(ham)
    colors = greedy_color(graph)
    adjacency = conflict_adjacency_two_hop_sets(ham)
    for v, neighbors in enumerate(adjacency):
        for u in neighbors:
            assert colors[u] != colors[v]
    assert len(set(colors)) <= max(map(len, adjacency), default=0) + 1 <= graph.bound + 1


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from([2, 4, 6]),
    st.integers(1, 6),
    st.integers(1, 12),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_coloring_at_higher_degree_is_proper_and_within_its_bound(q, k, extra, seed):
    ham = gen_sparse_random(q * k + extra, q, k, "normal", seed=seed)
    graph = build_conflict_graph(ham)
    colors = greedy_color(graph)
    for v, neighbors in enumerate(conflict_adjacency_by_bridges(ham)):
        assert all(colors[u] != colors[v] for u in neighbors)
    top = max(colors, default=0)
    assert top <= graph.bound
    if top:
        with pytest.raises(ContractError):
            greedy_color(dataclasses.replace(graph, bound=top - 1))


# -------------------------------------------------------- diffuse partition


def test_part_bound_printed_values():
    assert part_bound(4, 2) == 18
    assert part_bound(2, 2) == 6
    assert part_bound(4, 1) == 2


def test_single_term_single_part():
    ham = ham_of(8, (0, 1, 2, 3))
    partition = diffuse_partition(ham)
    assert list(partition.parts.values()) == [(0,)]
    assert partition.all_diffuse


@pytest.mark.parametrize("seed", range(40))
def test_partition_parts_pass_diffuse_check(seed):
    ham = gen_sparse_random(16, 4, 2, "normal", seed=seed)
    partition = diffuse_partition(ham)
    covered = []
    for key, ids in partition.parts.items():
        covered.extend(ids)
        assert is_diffuse(ids, ham, locality=4).ok
    assert sorted(covered) == list(range(len(ham.terms)))
    assert partition.within_bound()
    assert partition.bound == 18


def test_partition_mixed_weights_split_by_weight():
    ham = ham_of(12, (0, 1), (2, 3, 4, 5), (6, 7), (8, 9, 10, 11))
    partition = diffuse_partition(ham, locality=4)
    weights = {2 * qh for (qh, _a) in partition.parts}
    assert weights == {2, 4}
    for (qh, _a), ids in partition.parts.items():
        for t in ids:
            assert ham.terms[t].weight == 2 * qh


def test_partition_support_halving_applies():
    # one color class covering nearly everything forces the halving step
    ham = ham_of(4, (0, 1), (2, 3), (4, 5), (6, 7))
    partition = diffuse_partition(ham, locality=2)
    # 8 of 8 Majoranas covered by disjoint pairs: single class violates the
    # support bound (8 >= 2*2*4/3), so it must have been halved
    assert len(partition.parts) >= 2
    assert partition.all_diffuse


@pytest.mark.parametrize("n,seed", [(6, 2), (9, 29), (12, 4)])
def test_partition_halves_every_support_violator(n, seed):
    # all three weight-2 color classes of these draws breach the support
    # bound; each is halved into a color of its own
    ham = gen_sparse_random(n, 2, 2, "normal", seed=seed)
    n_colors = max(greedy_color(build_conflict_graph(ham))) + 1
    partition = diffuse_partition(ham, locality=2, sparsity=2)
    assert sorted(partition.parts) == [(1, c) for c in range(2 * n_colors)]
    covered = sorted(i for ids in partition.parts.values() for i in ids)
    assert covered == list(range(len(ham.terms)))
    for ids in partition.parts.values():
        assert is_diffuse(ids, ham, locality=2).ok
    assert partition.all_diffuse and partition.within_bound()


# (draw, partition arguments, sha256 of repr([(key, ids) ...]) over sorted keys),
# recorded when the parts were still tuples of ints, the first three re-pinned
# when the coloring moved to index-tuple order; the last three are the draws
# of test_partition_halves_every_support_violator
PART_DRAWS = [
    (lambda: gen_sparse_random(120, 4, 2, "normal", 3), {"sparsity": 2},
     "587e970b742b8b5024101f268165d73d250a8a1a8ece1657a9b35d887a9f89e3"),
    (lambda: gen_mixed_24(120, 2, 4), {"locality": 4, "sparsity": 2},
     "7aafcf703368dce5699b55e25b746d25d1d23bf963e2062ae0df7f6bb7693647"),
    (lambda: gen_ssyk(400, 2, 1), {"sparsity": 24},
     "edbe5c57ed3ab1fd717ad0f9ebd337eb248ef1ce91d3d7b396ff72e96da7dc25"),
    (lambda: gen_sparse_random(6, 2, 2, "normal", 2), {"locality": 2, "sparsity": 2},
     "1637327bb063e804b404cff8eff1ded4a6a3cd6f24d065575a41ee0c35b4e0a1"),
    (lambda: gen_sparse_random(9, 2, 2, "normal", 29), {"locality": 2, "sparsity": 2},
     "42a326e2d92a2c2fe8fb5b545993ce4467d636f59341f0b6ba6a0e7f93f9f699"),
    (lambda: gen_sparse_random(12, 2, 2, "normal", 4), {"locality": 2, "sparsity": 2},
     "c1e6657c15260b41a4371f9dedeec0016961f3ee5f4f6c55f6ad2337911f5309"),
]


@pytest.mark.parametrize(
    "build,kwargs,digest",
    PART_DRAWS,
    ids=["strictq-n120", "mixed24-n120", "ssyk-n400", "split-n6", "split-n9", "split-n12"],
)
def test_parts_are_read_only_id_arrays_in_lex_order(build, kwargs, digest):
    ham = build()
    partition = diffuse_partition(ham, **kwargs)
    for ids in partition.parts.values():
        assert isinstance(ids, np.ndarray) and ids.dtype == np.intp and ids.ndim == 1
        assert not ids.flags.writeable
        assert (np.diff(ham.index.lex_rank[ids]) > 0).all()
    covered = np.concatenate(list(partition.parts.values()))
    assert np.array_equal(np.bincount(covered, minlength=ham.n_terms), np.ones(ham.n_terms))
    rows = [(key, partition.parts[key].tolist()) for key in sorted(partition.parts)]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


@pytest.mark.parametrize("n,seed", [(6, 2), (16, 0), (40, 3)])
def test_partition_checks_each_class_once(monkeypatch, n, seed):
    # one is_diffuse call per color class, plus one per half of a split class
    from fermiopt import combinatorics

    calls = []
    original = combinatorics.is_diffuse

    def counting(ids, ham, locality=None):
        calls.append(tuple(ids))
        return original(ids, ham, locality=locality)

    monkeypatch.setattr(combinatorics, "is_diffuse", counting)
    q = 2 if n == 6 else 4
    ham = gen_sparse_random(n, q, 2, "normal", seed=seed)
    colors = greedy_color(build_conflict_graph(ham))
    n_classes = len(set(colors))
    partition = diffuse_partition(ham, locality=q)
    splits = len(partition.parts) - n_classes
    assert len(calls) == n_classes + 2 * splits


# ------------------------------------------------------- hamiltonian cycle


class ToyGraph:
    def __init__(self, vertices, edges):
        self.vertices = tuple(vertices)
        self._adj = {v: set() for v in vertices}
        for a, b in edges:
            self._adj[a].add(b)
            self._adj[b].add(a)

    def neighbors(self, v):
        return self._adj[v]

    def has_edge(self, u, v):
        return v in self._adj[u]

    def min_degree(self):
        return min(len(self._adj[v]) for v in self.vertices)


def complete_graph(n):
    return ToyGraph(range(n), itertools.combinations(range(n), 2))


def test_cycle_on_k4():
    cycle = hamiltonian_cycle_dense(complete_graph(4))
    assert sorted(cycle) == [0, 1, 2, 3]


def test_cycle_on_c6_plus_chords():
    ring = [(i, (i + 1) % 6) for i in range(6)]
    chords = [(i, (i + 2) % 6) for i in range(6)]  # degree 4 > 3
    graph = ToyGraph(range(6), ring + chords)
    cycle = hamiltonian_cycle_dense(graph)
    validate_cycle(cycle, graph)
    found = set(map(tuple, enumerate_hamiltonian_cycles(range(6), graph.has_edge)))
    assert found  # brute force agrees a cycle exists


def test_cycle_rejects_thin_graph():
    ring = ToyGraph(range(6), [(i, (i + 1) % 6) for i in range(6)])  # degree 2
    with pytest.raises(DiracError):
        hamiltonian_cycle_dense(ring)


@pytest.mark.parametrize(
    "cycle", [[0, 1, 2, 3, 4], [0, 2, 1, 3, 4, 5]], ids=["misses-a-vertex", "uses-a-non-edge"]
)
def test_validate_cycle_raises_on_a_bad_cycle(cycle):
    ring = ToyGraph(range(6), [(i, (i + 1) % 6) for i in range(6)])
    with pytest.raises(ContractError):
        validate_cycle(cycle, ring)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=5, max_value=10))
def test_cycle_on_random_dirac_graphs(seed, n):
    rng = np.random.default_rng(seed)
    while True:
        edges = [
            (a, b)
            for a, b in itertools.combinations(range(n), 2)
            if rng.random() < 0.75
        ]
        graph = ToyGraph(range(n), edges)
        if graph.min_degree() > n / 2:
            break
    cycle = hamiltonian_cycle_dense(graph)
    validate_cycle(cycle, graph)
    assert sorted(cycle) == list(range(n))


# -------------------------------------------------------- diffuse matching


def test_inner_pairing_is_consecutive():
    ham = ham_of(8, (0, 1, 2, 3))
    matching, fallback = diffuse_matching(ham, [0])
    assert {(0, 1), (2, 3)} <= set(matching.pairs)
    assert not fallback


def test_degenerate_two_vertex_residual():
    # residual {4,5} is a single forced pair, permitted since no term holds both
    ham = ham_of(3, (0, 1, 2, 3))
    matching, fallback = diffuse_matching(ham, [0])
    assert (4, 5) in set(matching.pairs)
    assert not fallback


def test_forced_pair_inside_interaction_raises():
    # residual {4,5} lies inside the non-targeted term (2,3,4,5)
    ham = ham_of(3, (0, 1, 2, 3), (2, 3, 4, 5))
    with pytest.raises(DiracError):
        diffuse_matching(ham, [0])


@pytest.mark.parametrize("seed", range(60))
def test_matching_consistency_verdicts(seed):
    ham = gen_sparse_random(16, 4, 2, "normal", seed=1000 + seed)
    partition = diffuse_partition(ham)
    key = sorted(partition.parts)[seed % len(partition.parts)]
    ids = partition.parts[key]
    try:
        matching, _ = diffuse_matching(ham, ids)
    except DiracError:
        pytest.skip("thin permitted graph for this draw")
    weight = ham.terms[ids[0]].weight
    for t_id, term in enumerate(ham.terms):
        verdict = classify_consistency(matching, term.indices)
        if t_id in ids:
            assert verdict.consistent
        elif term.weight >= weight or not set(term.indices) <= set(
            i for tid in ids for i in ham.terms[tid].indices
        ):
            assert not verdict.consistent


def test_permitted_graph_blocks_co_membership():
    ham = ham_of(4, (0, 1, 2, 3), (4, 5, 6, 7))
    graph = permitted_graph(ham, excluded=(0, 1, 2, 3))
    assert graph.vertices == (4, 5, 6, 7)
    assert not graph.has_edge(4, 5)
    for u, v in [(4, 5), (5, 6), (6, 7)]:
        assert not graph.has_edge(u, v)


def test_matching_is_perfect_on_everything():
    for seed in range(10):
        ham = gen_sparse_random(20, 4, 2, "normal", seed=seed)
        partition = diffuse_partition(ham)
        key = max(partition.parts)
        matching, _ = diffuse_matching(ham, partition.parts[key])
        assert matching.n_majoranas == ham.n_majoranas
