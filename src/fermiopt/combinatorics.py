"""Splitting interaction sets and matching their supports.

The pipeline shape: terms that crowd each other (shared modes, or a common
neighbor term) conflict; a greedy coloring of the conflict graph splits the
interaction set into well-separated ("diffuse") classes per weight; a chosen
class is then matched internally, and the leftover Majoranas are matched
along a Hamiltonian cycle of the permitted-edge graph so that no leftover
dimer sits inside any interaction.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from collections.abc import Set as AbstractSet
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse

from .gaussian import Matching
from .hamiltonian import MajoranaHamiltonian, sparsity_profile


class DiracError(RuntimeError):
    """The permitted graph is too thin for the cycle construction."""


class ContractError(RuntimeError):
    """A check that a certificate relies on failed.  Raised, never
    asserted, so that it also runs under ``python -O``."""


def conflict_degree_bound(q: int, k: int) -> int:
    """Largest possible conflict-graph degree for a k-sparse q-local set."""
    return q * (q - 1) * (k - 1) ** 2 + q * (k - 1)


def part_bound(q: int, k: int) -> int:
    """Bound on the number of classes per weight: the coloring bound plus
    one class for a support-size split.  A draw that needs more splits can
    exceed it; ``DiffusePartition.within_bound`` then withholds the
    guarantee."""
    return conflict_degree_bound(q, k) + 2


@dataclass(frozen=True, eq=False)
class ConflictGraph:
    """Terms as vertices; edges mark pairs that cannot share a diffuse set.

    A CSR graph: the neighbors of ``v`` are ``indices[indptr[v]:indptr[v + 1]]``,
    ascending.  ``term_rank[v]`` is the rank of term ``v``'s index tuple
    among all terms.
    """

    n_vertices: int
    indptr: np.ndarray
    indices: np.ndarray
    term_rank: np.ndarray

    @property
    def max_degree(self) -> int:
        return int(np.diff(self.indptr).max(initial=0))

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors(u)
        at = int(np.searchsorted(row, v))
        return at < row.size and row[at] == v


def build_conflict_graph(ham: MajoranaHamiltonian) -> ConflictGraph:
    """Connect terms that overlap or are bridged by a third term: the
    pattern of ``(A A^T)^2`` less its diagonal, ``A`` being the term x
    Majorana incidence matrix (``A A^T`` has an entry wherever two terms
    share a Majorana, its square wherever they do or a third term bridges
    them), built as one sparse product."""
    index = ham.index
    n_terms, m = ham.n_terms, ham.n_majoranas
    ones = np.ones(index.modes.size, dtype=np.int32)
    incidence = sparse.csr_matrix((ones, index.modes, index.term_ptr), (n_terms, m))
    # the mode -> terms CSR is A^T in CSR form already
    transposed = sparse.csr_matrix((ones, index.mode_term_ids, index.mode_ptr), (m, n_terms))
    overlap = incidence @ transposed
    # the square is symmetric, and converting its transpose back to CSR
    # lays each row out in ascending order, which is cheaper than sorting it
    two_hop = (overlap @ overlap).T.tocsr()
    two_hop.sort_indices()
    # every row holds its diagonal entry (a term overlaps itself): drop it
    rows = np.repeat(np.arange(n_terms), np.diff(two_hop.indptr))
    indices = two_hop.indices[two_hop.indices != rows]
    indptr = two_hop.indptr - np.arange(n_terms + 1)
    graph = ConflictGraph(
        n_vertices=n_terms,
        indptr=indptr.astype(np.intp),
        indices=indices.astype(np.intp),
        term_rank=index.lex_rank,
    )
    profile = sparsity_profile(ham)
    if ham.n_terms:
        q = max(profile.weights_present)
        bound = conflict_degree_bound(q, max(profile.max_degree, 1))
        if graph.max_degree > bound:
            raise ContractError(f"conflict degree {graph.max_degree} exceeds its bound {bound}")
    return graph


def greedy_color(graph: ConflictGraph) -> list[int]:
    """Proper coloring with at most ``max_degree + 1`` colors.

    Vertices are processed by descending conflict degree, ties broken by
    the term's index tuple, so the result is deterministic.
    """
    n = graph.n_vertices
    degree = np.diff(graph.indptr)
    order = np.lexsort((graph.term_rank, -degree))
    position = np.empty(n, dtype=np.intp)
    position[order] = np.arange(n)
    # only the neighbors that come earlier in the order are colored when a
    # vertex is reached: keep those, row by row
    rows = np.repeat(np.arange(n), degree)
    earlier = position[graph.indices] < position[rows]
    ptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows[earlier], minlength=n), out=ptr[1:])
    ptr, neighbors = ptr.tolist(), graph.indices[earlier].tolist()
    colors = [-1] * n
    for v in order.tolist():
        taken = {colors[u] for u in neighbors[ptr[v] : ptr[v + 1]]}
        c = 0
        while c in taken:
            c += 1
        colors[v] = c
    if any(c < 0 for c in colors) or max(colors, default=-1) > graph.max_degree:
        raise ContractError(f"coloring exceeds max degree + 1 = {graph.max_degree + 1} colors")
    return colors


@dataclass(frozen=True)
class DiffuseCheck:
    ok: bool
    violated: int | None = None  # first failed condition: 1, 2 or 3


def is_diffuse(
    subset_ids: Sequence[int],
    ham: MajoranaHamiltonian,
    locality: int | None = None,
) -> DiffuseCheck:
    """Check the three separation conditions of a candidate subset.

    1. members have pairwise disjoint supports;
    2. no interaction of the full set touches two distinct members;
    3. the united support covers fewer than ``2*q*n/(q+1)`` Majoranas,
       ``q`` being the ambient locality (max term weight unless given).
    """
    padded = ham.index.padded
    members = np.asarray(subset_ids, dtype=np.intp).reshape(-1)
    rows = padded[members]
    support = rows[rows >= 0]
    # owner[c]: who claimed Majorana c; the extra last slot takes the -1
    # padding.  A Majorana claimed twice keeps only one of its claims.
    owner = np.full(ham.n_majoranas + 1, -1, dtype=np.intp)
    claim = np.arange(support.size)
    owner[support] = claim
    if (owner[support] != claim).any():
        return DiffuseCheck(False, 1)
    # Condition 1 holds from here on, so every Majorana of the united
    # support belongs to exactly one member: a term touches two distinct
    # members exactly when the owners of its Majoranas differ
    owner[rows] = members[:, None]
    owner[-1] = -1
    owners = owner[padded]
    last = owners.max(axis=1)
    first = np.where(owners < 0, last[:, None], owners).min(axis=1)
    if (first != last).any():
        return DiffuseCheck(False, 2)
    if ham.n_terms:
        q = locality if locality is not None else max(sparsity_profile(ham).weights_present)
        if support.size >= 2 * q * ham.n_modes / (q + 1):
            return DiffuseCheck(False, 3)
    return DiffuseCheck(True, None)


@dataclass(frozen=True)
class DiffusePartition:
    """Disjoint cover of the term set by per-weight diffuse classes.

    Keys are ``(half_weight, color)``; values are term-id tuples.  ``bound``
    is the printed class-count bound per weight, ``part_bound(locality,
    sparsity)``: the (q, k) resolved once here, which the routes also read
    for their size thresholds.  ``diffuse_flags`` records the per-part
    separation verdicts (all true above the size thresholds).
    """

    parts: dict[tuple[int, int], tuple[int, ...]]
    bound: int
    locality: int
    sparsity: int
    diffuse_flags: dict[tuple[int, int], bool] = field(default_factory=dict)

    @property
    def all_diffuse(self) -> bool:
        return all(self.diffuse_flags.values())

    def within_bound(self) -> bool:
        per_weight: dict[int, int] = {}
        for (q_half, _alpha) in self.parts:
            per_weight[q_half] = per_weight.get(q_half, 0) + 1
        return all(count <= self.bound for count in per_weight.values())


def diffuse_partition(
    ham: MajoranaHamiltonian,
    locality: int | None = None,
    sparsity: int | None = None,
) -> DiffusePartition:
    """Split all terms into per-weight diffuse classes.

    Greedy-color the conflict graph, split classes by exact weight, then fix
    the support-size condition: every class that violates it is halved by
    term count (in index order), the second half taking a new color.  Most
    draws have at most one violator per weight; small or crowded ones can
    have several, and the class count may then exceed ``bound``.  Each class
    is checked once, and only the halves of a split class again.
    """
    profile = sparsity_profile(ham)
    q = locality if locality is not None else max(profile.weights_present, default=2)
    k = max(sparsity if sparsity is not None else profile.max_degree, 1)
    bound = part_bound(q, k)

    graph = build_conflict_graph(ham)
    colors = greedy_color(graph)
    classes: dict[tuple[int, int], list[int]] = {}
    for t_id, key in enumerate(zip((ham.index.weights // 2).tolist(), colors)):
        classes.setdefault(key, []).append(t_id)

    n_colors = max(colors, default=-1) + 1
    rank = ham.index.lex_rank.tolist()
    parts: dict[tuple[int, int], tuple[int, ...]] = {}
    by_weight: dict[int, list[tuple[int, int]]] = {}
    for key, ids in classes.items():
        ids.sort(key=rank.__getitem__)
        parts[key] = tuple(ids)
        by_weight.setdefault(key[0], []).append(key)

    flags: dict[tuple[int, int], bool] = {}
    for q_half, keys in by_weight.items():
        # conditions 1-2 hold per coloring; a class that breaches the
        # support bound is halved, each violator into its own new color
        for key in keys:
            check = is_diffuse(parts[key], ham, locality=q)
            if check.violated != 3:
                flags[key] = check.ok
                continue
            ids = parts[key]
            parts[key] = ids[: len(ids) // 2]
            parts[(q_half, n_colors)] = ids[len(ids) // 2 :]
            for half in (key, (q_half, n_colors)):
                if parts[half]:
                    flags[half] = is_diffuse(parts[half], ham, locality=q).ok
            n_colors += 1

    parts = {key: ids for key, ids in parts.items() if ids}
    return DiffusePartition(
        parts=parts, bound=bound, locality=q, sparsity=k, diffuse_flags=flags
    )


class _Complement(AbstractSet[int]):
    """Neighbors of ``v`` in a permitted graph: the vertex set (the keys of
    ``graph_forbidden``) minus ``v`` and its forbidden partners.  Membership
    and size are O(1) in the vertex count; iteration yields the neighbors
    in ascending order."""

    __slots__ = ("_v", "_order", "_graph_forbidden", "_forbidden")

    def __init__(self, v: int, order: tuple[int, ...], graph_forbidden: dict[int, tuple[int, ...]]):
        self._v = v
        self._order = order
        self._graph_forbidden = graph_forbidden
        self._forbidden = graph_forbidden[v]

    def __contains__(self, u) -> bool:
        return u != self._v and u in self._graph_forbidden and u not in self._forbidden

    def __len__(self) -> int:
        return len(self._order) - 1 - len(self._forbidden)

    def __iter__(self) -> Iterator[int]:
        v, forbidden = self._v, self._forbidden
        return (u for u in self._order if u != v and u not in forbidden)

    @classmethod
    def _from_iterable(cls, it) -> frozenset[int]:
        return frozenset(it)


@dataclass(frozen=True)
class PermittedGraph:
    """Graph on leftover Majoranas; edges avoid co-membership in any term.

    Only the forbidden partners are stored, ``forbidden[v]`` ascending, so
    the graph costs memory in the number of terms, not in the square of
    the vertex count; its keys are the vertex set.  ``adjacency[v]`` is a
    set view of the complement.
    """

    vertices: tuple[int, ...]
    forbidden: dict[int, tuple[int, ...]]

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @cached_property
    def adjacency(self) -> dict[int, AbstractSet[int]]:
        return {v: _Complement(v, self.vertices, self.forbidden) for v in self.vertices}

    def neighbors(self, v: int) -> AbstractSet[int]:
        return self.adjacency[v]

    def has_edge(self, u: int, v: int) -> bool:
        return v != u and v in self.forbidden and v not in self.forbidden[u]

    def min_degree(self) -> int:
        if not self.vertices:
            return 0
        return len(self.vertices) - 1 - max(map(len, self.forbidden.values()))


def permitted_graph(ham: MajoranaHamiltonian, excluded: Iterable[int]) -> PermittedGraph:
    """Permitted-edge graph on the Majoranas outside ``excluded``."""
    m = ham.n_majoranas
    inside = np.ones(m, dtype=bool)
    dropped = np.fromiter(excluded, dtype=np.intp)
    inside[dropped[(dropped >= 0) & (dropped < m)]] = False
    # forbidden: ordered pairs of distinct Majoranas of one term, both inside
    keys = [np.zeros(0, dtype=np.intp)]
    for w, _, rows in ham.index.blocks:
        first, second = np.nonzero(~np.eye(w, dtype=bool))
        a, b = rows[:, first].ravel(), rows[:, second].ravel()
        both = inside[a] & inside[b]
        keys.append(a[both] * m + b[both])
    # sorted distinct keys: a sort and a neighbour mask, cheaper than np.unique
    keys = np.sort(np.concatenate(keys))
    fresh = np.ones(keys.size, dtype=bool)
    fresh[1:] = keys[1:] != keys[:-1]
    heads, tails = np.divmod(keys[fresh], m)
    bounds = np.searchsorted(heads, np.arange(m + 1)).tolist()
    tails = tails.tolist()
    verts = tuple(np.flatnonzero(inside).tolist())
    forbidden = {v: tuple(tails[bounds[v] : bounds[v + 1]]) for v in verts}
    return PermittedGraph(vertices=verts, forbidden=forbidden)


def _close_path_to_cycle(path: list[int], graph) -> list[int]:
    """Close a maximal path into a cycle via the pigeonhole crossing pair."""
    head, tail = path[0], path[-1]
    if graph.has_edge(head, tail):
        return list(path)
    for i in range(len(path) - 1):
        if graph.has_edge(head, path[i + 1]) and graph.has_edge(path[i], tail):
            return path[: i + 1] + list(reversed(path[i + 1 :]))
    raise DiracError("Dirac condition unmet: no crossing pair on a maximal path")


def validate_cycle(cycle: Sequence[int], graph) -> None:
    if sorted(cycle) != sorted(graph.vertices):
        raise ContractError("cycle must visit every vertex once")
    for i, v in enumerate(cycle):
        if not graph.has_edge(v, cycle[(i + 1) % len(cycle)]):
            raise ContractError("cycle uses a non-edge")


def _take_first_neighbor(end: int, outside: list[int], graph) -> int | None:
    """Remove and return the smallest vertex of ``outside`` adjacent to
    ``end``.  ``outside`` is kept in descending order, so the scan starts at
    its tail and a removal there moves little."""
    for j in range(len(outside) - 1, -1, -1):
        if graph.has_edge(end, outside[j]):
            return outside.pop(j)
    return None


def hamiltonian_cycle_dense(graph) -> list[int]:
    """Hamiltonian cycle of a graph with min degree > |V|/2 (Dirac regime).

    Deterministic path extension with rotations: grow a path greedily at
    both ends (smallest eligible vertex first), close a maximal path into a
    cycle through a crossing pair, then absorb an outside vertex and keep
    going.  Needs only ``vertices``, ``has_edge`` and ``min_degree``: each
    step scans the vertices not yet on the path in ascending order, which
    in the Dirac regime finds an eligible one after a few probes.
    """
    verts = sorted(graph.vertices)
    nv = len(verts)
    if nv < 3 or graph.min_degree() <= nv / 2:
        raise DiracError("Dirac condition unmet")
    path = [verts[0]]
    outside = verts[:0:-1]  # descending: the smallest candidate sits at the end
    while True:
        while outside:
            u = _take_first_neighbor(path[-1], outside, graph)
            if u is not None:
                path.append(u)
                continue
            u = _take_first_neighbor(path[0], outside, graph)
            if u is None:
                break
            path.insert(0, u)
        cycle = _close_path_to_cycle(path, graph)
        if len(cycle) == nv:
            validate_cycle(cycle, graph)
            return cycle
        attach = None
        for j in range(len(outside) - 1, -1, -1):
            w = outside[j]
            i = next((i for i, v in enumerate(cycle) if graph.has_edge(w, v)), None)
            if i is not None:
                attach = (j, i)
                break
        if attach is None:
            raise DiracError("Dirac condition unmet: cycle cannot be extended")
        j, i = attach
        path = [outside.pop(j)] + cycle[i:] + cycle[:i]


def _backtrack_matching(vertices: list[int], graph) -> list[tuple[int, int]] | None:
    if not vertices:
        return []
    head, rest = vertices[0], vertices[1:]
    for partner in sorted(graph.neighbors(head)):
        if partner not in rest:
            continue
        remaining = [v for v in rest if v != partner]
        sub = _backtrack_matching(remaining, graph)
        if sub is not None:
            return [(head, partner)] + sub
    return None


FALLBACK_VERTEX_LIMIT = 16


def diffuse_matching(
    ham: MajoranaHamiltonian, subset_ids: Sequence[int]
) -> tuple[Matching, bool]:
    """Perfect matching consistent with the subset, inconsistent elsewhere.

    Member supports are paired internally (consecutive index pairs); all
    leftover Majoranas are paired along a Hamiltonian cycle of the permitted
    graph.  Returns the matching and whether the exhaustive small-residual
    fallback was needed in place of the cycle construction.
    """
    rows = ham.index.padded[np.asarray(subset_ids, dtype=np.intp)]
    support = rows[rows >= 0]  # member by member, each in increasing order
    taken = np.bincount(support, minlength=ham.n_majoranas)
    if taken.max(initial=0) > 1:
        raise ValueError("subset supports overlap; not a diffuse set")
    inner = support.reshape(-1, 2)  # consecutive index pairs of each member

    residual = np.flatnonzero(taken == 0).tolist()
    if not residual:
        return Matching(inner), False
    graph = permitted_graph(ham, support)
    used_fallback = False
    if len(residual) == 2:
        if not graph.has_edge(residual[0], residual[1]):
            raise DiracError("Dirac condition unmet: forced residual pair is forbidden")
        outer = [(residual[0], residual[1])]
    elif len(residual) >= 3 and graph.min_degree() > len(residual) / 2:
        cycle = hamiltonian_cycle_dense(graph)
        outer = [(cycle[2 * l], cycle[2 * l + 1]) for l in range(len(cycle) // 2)]
    elif len(residual) <= FALLBACK_VERTEX_LIMIT:
        found = _backtrack_matching(residual, graph)
        if found is None:
            raise DiracError("Dirac condition unmet and no permitted matching exists")
        outer = found
        used_fallback = True
    else:
        raise DiracError("Dirac condition unmet")
    return Matching(np.vstack((inner, outer))), used_fallback
