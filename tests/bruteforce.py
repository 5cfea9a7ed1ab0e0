"""Independent brute-force oracles used only by the test suite.

Everything here is deliberately naive: enumeration, inversion counting,
exhaustive search.  Nothing imports the algorithms it is meant to check;
``dense_term`` alone reads the oracle's array string builders, because the
Majorana-algebra tests that use it check exactly those, and
``closed_form_per_term`` and the dict-based sign and pull-back references
read ``classify_consistency``, the per-term verdict that the array closed
form replaced.
The reference samplers draw through the package's single-stream
primitives (``rng.stream_key``, ``rng.integers_below``, ``rng.generator``),
one stream per value, and replace only the batched draws.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.linalg import expm

from fermiopt import rng
from fermiopt.gaussian import condition_on_dimer, correlation_from_matching, pfaffian
from fermiopt.oracle import _UNITS, _pauli_sum, _string_matrix, _strings


def sign_by_inversions(seq) -> int:
    """Permutation parity by counting inversions pairwise."""
    inversions = 0
    seq = list(seq)
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inversions += 1
    return -1 if inversions % 2 else 1


def all_pairings(items):
    """Every partition of the items into unordered pairs."""
    items = list(items)
    if not items:
        yield []
        return
    head = items[0]
    for i in range(1, len(items)):
        rest = items[1:i] + items[i + 1 :]
        for sub in all_pairings(rest):
            yield [(head, items[i])] + sub


def pfaffian_matching_sum(mat: np.ndarray) -> float:
    """Pfaffian as the signed sum over perfect matchings.

    Each pairing {(a1,b1),...} of 0..m-1 (with a < b inside each pair)
    contributes sign(a1 b1 a2 b2 ...) * prod A[a,b].
    """
    mat = np.asarray(mat)
    m = mat.shape[0]
    assert m % 2 == 0
    if m == 0:
        return 1.0
    total = 0.0
    for pairing in all_pairings(range(m)):
        flat = [v for pair in pairing for v in pair]
        prod = 1.0
        for a, b in pairing:
            prod *= mat[a, b]
        total += sign_by_inversions(flat) * prod
    return total


def hamiltonian_expectation_per_term(corr, ham) -> float:
    """Tr(H rho) = sum_I J_I Pf(gamma_I), one ``pfaffian`` per term, summed
    in term order."""
    total = 0.0
    for t in ham.terms:
        idx = list(t.indices)
        total += t.coeff * pfaffian(corr.gamma[np.ix_(idx, idx)])
    return total


def enumerate_hamiltonian_cycles(vertices, has_edge):
    """All Hamiltonian cycles of a small graph, up to rotation/reflection."""
    vertices = sorted(vertices)
    first = vertices[0]
    for perm in itertools.permutations(vertices[1:]):
        cycle = (first,) + perm
        if all(has_edge(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))):
            yield cycle


def quadratic_gaussian_max(n_majoranas: int, terms) -> float:
    """Exact Gaussian optimum of a quadratic Hamiltonian: half the sum of
    the singular values of its antisymmetric coefficient matrix."""
    coeff = np.zeros((n_majoranas, n_majoranas))
    for (a, b), j in terms:
        coeff[a, b] += j
        coeff[b, a] -= j
    return 0.5 * float(np.sum(np.linalg.svd(coeff, compute_uv=False)))


def bareiss_determinant(rows) -> int:
    """Exact determinant of a square integer matrix (a list of rows) by
    fraction-free elimination: Bareiss, every division exact."""
    a = [[int(v) for v in row] for row in rows]
    n, sign, previous = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // previous
        previous = a[k][k]
    return sign * a[-1][-1] if n else 1


def random_antisymmetric(rng, m: int, integer: bool = False) -> np.ndarray:
    if integer:
        upper = rng.integers(-4, 5, size=(m, m)).astype(float)
    else:
        upper = rng.standard_normal((m, m))
    return np.triu(upper, 1) - np.triu(upper, 1).T


# -------------------------------------------------------------------------
# Straightforward versions of the combinatorial certify steps.  The package
# replaced each of them with an indexed or sparse form that must give the
# same answers; these keep the plain scans around to compare against.  They
# read Hamiltonians only through ``terms[i].indices``, ``n_modes`` and
# ``mode_terms`` below, and graphs only through ``vertices``, ``has_edge``
# and ``neighbors``.


def unrank_combination_scan(rank: int, n_items: int, size: int) -> tuple[int, ...]:
    """Lexicographic unranking by a linear scan over candidates."""
    out = []
    start = 0
    remaining = size
    while remaining:
        for candidate in range(start, n_items):
            block = math.comb(n_items - candidate - 1, remaining - 1)
            if rank < block:
                out.append(candidate)
                start = candidate + 1
                remaining -= 1
                break
            rank -= block
        else:
            raise ValueError("rank out of range")
    return tuple(out)


def normal_at(seed: int, tag: str, index: int) -> float:
    """One standard normal from a fresh Philox bit generator on the
    substream ``(seed, tag, index)``."""
    return float(rng.normals(seed, tag, 1, index=index)[0])


def sign_at(seed: int, tag: str, index: int) -> float:
    """+1 or -1 from the first uniform of the substream ``(seed, tag, index)``."""
    return 1.0 if rng.uniforms(seed, tag, 1, index=index)[0] < 0.5 else -1.0


def ssyk_terms_per_rank(n: int, k: int, seed: int) -> list[tuple[tuple[int, ...], float]]:
    """The diluted quartic draw one rank at a time: distinct ranks kept in
    stream order through a set, then a scan unranking and one ``normal_at``
    per kept quartet.  Returns ``(indices, coeff)`` in rank order."""
    total = math.comb(2 * n, 4)
    p = k / math.comb(2 * n - 1, 3)
    count = int(rng.generator(seed, "ssyk-count").binomial(total, p))
    ranks: list[int] = []
    seen: set[int] = set()
    position = 0
    while len(ranks) < count:
        need = count - len(ranks)
        batch = rng.integers_below(seed, "ssyk-select", need + 8, total, index=position)
        position += 1
        for r in batch:
            r = int(r)
            if r not in seen:
                seen.add(r)
                ranks.append(r)
                if len(ranks) == count:
                    break
    scale = 1.0 / math.sqrt(2 * k * n)
    return [
        (unrank_combination_scan(r, 2 * n, 4), scale * normal_at(seed, "ssyk-coeff", r))
        for r in sorted(ranks)
    ]


def sparse_random_per_candidate(
    n: int, q: int, k: int, coeff_dist: str, seed: int, n_terms: int | None = None
) -> list[tuple[tuple[int, ...], float]] | None:
    """The greedy degree-budget placement one candidate at a time: every
    streamed rank is remembered, unranked by a scan and kept while all its
    Majoranas are below ``k``.  Returns ``(indices, coeff)`` in rank order,
    or None when ``n_terms`` terms could not be placed."""
    total = math.comb(2 * n, q)
    target = n_terms if n_terms is not None else (2 * n * k) // q
    degree = [0] * (2 * n)
    chosen: list[int] = []
    seen: set[int] = set()
    position = 0
    while len(chosen) < target and position < 60:
        batch = rng.integers_below(seed, "sparse-select", max(4 * target, 64), total, index=position)
        position += 1
        for r in batch:
            r = int(r)
            if r in seen:
                continue
            seen.add(r)
            idx = unrank_combination_scan(r, 2 * n, q)
            if any(degree[i] >= k for i in idx):
                continue
            for i in idx:
                degree[i] += 1
            chosen.append(r)
            if len(chosen) == target:
                break
    if n_terms is not None and len(chosen) < n_terms:
        return None
    draw = normal_at if coeff_dist == "normal" else sign_at
    return [
        (unrank_combination_scan(r, 2 * n, q), draw(seed, "sparse-coeff", r))
        for r in sorted(chosen)
    ]


def unrank_combination_searchsorted(
    ranks: np.ndarray, n_items: int, size: int, allowed: np.ndarray | None = None
) -> np.ndarray:
    """The package's unranking before its float root: with ``r`` elements
    still to place, one ``searchsorted`` per position on the exact table of
    ``C(a, r)``.  Same result and ``allowed`` convention as
    ``ensembles._unrank_combination``."""
    total = math.comb(n_items, size)
    tables = [np.ones(n_items - size, dtype=np.int64)]
    for _ in range(size):
        tables.append(np.concatenate(([0], np.cumsum(tables[-1]))))
    ranks = np.asarray(ranks, dtype=np.int64)
    dual = (total - 1) - ranks
    out = np.full((ranks.size, size), -1, dtype=np.int64)
    alive = np.arange(ranks.size)
    for position, remaining in enumerate(range(size, 0, -1)):
        table = tables[remaining]
        a = np.searchsorted(table, dual, side="right") - 1
        item = n_items - 1 - a
        dual = dual - table[a]
        if allowed is not None:
            keep = allowed[item]
            alive, item, dual = alive[keep], item[keep], dual[keep]
        out[alive, position] = item
    return out


def sparse_random_per_batch(
    n: int, q: int, k: int, coeff_dist: str, seed: int, n_terms: int | None = None
) -> list[tuple[tuple[int, ...], float]] | None:
    """The greedy degree-budget placement one batch at a time, as the
    package drew it before its batches were staged: each of up to 60
    batches is drawn from its own stream, unranked under the loads at the
    start of the batch (``unrank_combination_searchsorted``), and its
    survivors checked in order.  Returns ``(indices, coeff)`` in rank
    order, or None when ``n_terms`` terms could not be placed."""
    total = math.comb(2 * n, q)
    target = n_terms if n_terms is not None else (2 * n * k) // q
    load = [0] * (2 * n)
    kept: dict[int, tuple[int, ...]] = {}
    position = 0
    while len(kept) < target and position < 60:
        ranks = rng.integers_below(
            seed, "sparse-select", max(4 * target, 64), total, index=position
        )
        position += 1
        rows = unrank_combination_searchsorted(ranks, 2 * n, q, allowed=np.array(load) < k)
        open_ = rows[:, -1] >= 0
        for r, idx in zip(ranks[open_].tolist(), rows[open_].tolist()):
            if r in kept or any(load[i] >= k for i in idx):
                continue
            for i in idx:
                load[i] += 1
            kept[r] = tuple(idx)
            if len(kept) == target:
                break
    if n_terms is not None and len(kept) < n_terms:
        return None
    draw = normal_at if coeff_dist == "normal" else sign_at
    return [(kept[r], draw(seed, "sparse-coeff", r)) for r in sorted(kept)]


def mode_terms(ham) -> tuple[tuple[int, ...], ...]:
    """For each Majorana, the ids of the terms containing it, ascending: the
    mode -> terms CSR of ``ham.index`` as tuples."""
    ptr = ham.index.mode_ptr.tolist()
    ids = ham.index.mode_term_ids.tolist()
    return tuple(tuple(ids[a:b]) for a, b in zip(ptr, ptr[1:]))


def diffuse_verdict_scan(subset_ids, ham, locality=None) -> tuple[bool, int | None]:
    """The three separation conditions by an all-pairs scan: (ok, violated)."""
    members = [set(ham.terms[i].indices) for i in subset_ids]
    support: set[int] = set()
    for m in members:
        if support & m:
            return False, 1
        support |= m
    member_ids = set(subset_ids)
    for t_id, term in enumerate(ham.terms):
        if t_id in member_ids:
            continue
        touched = sum(1 for m in members if m & set(term.indices))
        if touched >= 2:
            return False, 2
    if ham.terms:
        q = locality if locality is not None else max(len(t.indices) for t in ham.terms)
        if len(support) >= 2 * q * ham.n_modes / (q + 1):
            return False, 3
    return True, None


def conflict_adjacency_by_bridges(ham) -> tuple[frozenset[int], ...]:
    """Conflict-graph neighbor sets: direct overlaps, then every pair of
    terms around each bridge term joined by a double loop."""
    n_terms = len(ham.terms)
    direct: list[set[int]] = [set() for _ in range(n_terms)]
    for members in mode_terms(ham):
        for a in members:
            for b in members:
                if a != b:
                    direct[a].add(b)
    adjacency = [set(direct[t]) for t in range(n_terms)]
    for bridge in range(n_terms):
        around = sorted(direct[bridge])
        for i, a in enumerate(around):
            for b in around[i + 1 :]:
                adjacency[a].add(b)
                adjacency[b].add(a)
    return tuple(frozenset(a) for a in adjacency)


def conflict_adjacency_two_hop_sets(ham) -> tuple[frozenset[int], ...]:
    """Conflict-graph neighbor sets as the set-based builder made them: with
    ``near[t]`` the terms sharing a Majorana with ``t`` (``t`` included),
    the union of ``near[b]`` over ``near[t]``, less ``t``."""
    near: list[set[int]] = [set() for _ in ham.terms]
    for members in mode_terms(ham):
        for t in members:
            near[t].update(members)
    return tuple(
        frozenset(set().union(*(near[b] for b in around)) - {t}) for t, around in enumerate(near)
    )


def greedy_color_by_sets(adjacency, ham) -> list[int]:
    """Greedy coloring over neighbor sets: vertices by the term's index
    tuple, each taking the least color its neighbors leave free."""
    order = sorted(range(len(adjacency)), key=lambda v: ham.terms[v].indices)
    colors = [-1] * len(adjacency)
    for v in order:
        taken = {colors[u] for u in adjacency[v] if colors[u] >= 0}
        c = 0
        while c in taken:
            c += 1
        colors[v] = c
    return colors


def diffuse_verdict_by_mode_walk(subset_ids, ham, locality=None) -> tuple[bool, int | None]:
    """The three separation conditions as the set-based check decided them:
    (ok, violated).  Condition 2 walks each member's Majoranas through
    ``mode_terms``, remembering the first member that reached each term."""
    support: set[int] = set()
    for t_id in subset_ids:
        term_support = set(ham.terms[t_id].indices)
        if not support.isdisjoint(term_support):
            return False, 1
        support |= term_support
    member_ids = set(subset_ids)
    reached_from: dict[int, int] = {}
    by_mode = mode_terms(ham)
    for m_id in subset_ids:
        for mode in ham.terms[m_id].indices:
            for t_id in by_mode[mode]:
                if t_id not in member_ids and reached_from.setdefault(t_id, m_id) != m_id:
                    return False, 2
    if ham.terms:
        q = locality if locality is not None else max(len(t.indices) for t in ham.terms)
        if len(support) >= 2 * q * ham.n_modes / (q + 1):
            return False, 3
    return True, None


def closed_form_per_term(matching, signs, ham) -> float:
    """Tr(H rho(M, signs)) one term at a time: ``classify_consistency`` per
    term, the verdict's parity times the dimer signs of its inner pairs,
    times J, summed in term order over the consistent terms."""
    from fermiopt.gaussian import classify_consistency

    sd = signs.as_dict()
    total = 0.0
    for t in ham.terms:
        verdict = classify_consistency(matching, t.indices)
        if not verdict.consistent:
            continue
        value = float(verdict.sign)
        for pair in verdict.inner_pairs:
            value *= sd[pair]
        total += t.coeff * value
    return total


# -------------------------------------------------------------------------
# The dict-based sign choice and mixed pull-back that the array builders
# replaced: signs live in a ``{(a, b): sign}`` dict, every verdict comes from
# ``classify_consistency`` and every energy from ``closed_form_per_term``.


def assign_signs_by_dict(matching, targets):
    """Start from +1 on every pair; per target, flip its lowest pair when the
    product of its dimer signs times its parity disagrees with the sign of J."""
    from fermiopt.gaussian import SignAssignment, classify_consistency

    sd = {p: 1 for p in matching.pairs}
    used: set[int] = set()
    for term in targets:
        if used & set(term.indices):
            raise ValueError("targets not disjoint")
        used.update(term.indices)
        verdict = classify_consistency(matching, term.indices)
        if not verdict.consistent:
            raise ValueError(f"target {term.indices} is inconsistent with the matching")
        if term.coeff == 0.0:
            continue
        desired = verdict.sign * (1 if term.coeff > 0 else -1)
        current = 1
        for pair in verdict.inner_pairs:
            current *= sd[pair]
        if current != desired:
            first = verdict.inner_pairs[0]
            sd[first] = -sd[first]
    return SignAssignment.from_dict(sd)


def repair_two_mode_overlaps_by_dict(matching, signs, ham):
    """Double-flip the two dimers of each consistent quartic whose riding
    weight-2 terms sum below zero."""
    from fermiopt.gaussian import SignAssignment, classify_consistency

    sd = signs.as_dict()
    term_id = {t.indices: t_id for t_id, t in enumerate(ham.terms)}

    def riding(pair):
        t_id = term_id.get(pair)
        return 0.0 if t_id is None else ham.terms[t_id].coeff * sd[pair]

    seen_pairs = set()
    for term in ham.terms:
        if term.weight != 4:
            continue
        verdict = classify_consistency(matching, term.indices)
        if not verdict.consistent:
            continue
        e1, e2 = verdict.inner_pairs
        if e1 in seen_pairs or e2 in seen_pairs:
            raise ValueError("consistent quartics share a dimer; not a branch state")
        seen_pairs.update((e1, e2))
        if riding(e1) + riding(e2) < 0.0:
            sd[e1] = -sd[e1]
            sd[e2] = -sd[e2]
    return SignAssignment.from_dict(sd)


def repair_two_mode_overlaps_per_quartic(matching, signs, ham):
    """The array sign repair as it was before it read the closed form's
    gather: ``classify_consistency`` per quartic in term order, the riding
    weight-2 coefficients looked up by index tuple."""
    from fermiopt.gaussian import SignAssignment, classify_consistency

    values = signs.signs.copy()
    lows = matching.dimers[:, 0]
    term_id = {t.indices: t_id for t_id, t in enumerate(ham.terms)}

    def riding(pair: tuple[int, int], dimer: int) -> float:
        t_id = term_id.get(pair)
        return 0.0 if t_id is None else ham.terms[t_id].coeff * int(values[dimer])

    seen: set[int] = set()
    for term in ham.terms:
        if term.weight != 4:
            continue
        verdict = classify_consistency(matching, term.indices)
        if not verdict.consistent:
            continue
        e1, e2 = verdict.inner_pairs
        d1, d2 = np.searchsorted(lows, (e1[0], e2[0])).tolist()
        if d1 in seen or d2 in seen:
            raise ValueError("consistent quartics share a dimer; not a branch state")
        seen.update((d1, d2))
        if riding(e1, d1) + riding(e2, d2) < 0.0:
            values[[d1, d2]] *= -1
    return SignAssignment(matching, values)


def pull_back_by_dict(tilde_matching, tilde_signs, ham, lifted):
    """Drop the auxiliary dimer if the state has it; else re-pair the two
    Majoranas on the auxiliaries, once per outcome of the auxiliary dimer,
    repair, and keep the better outcome (the first on a tie).  Raises
    ``PullBackError`` when the result falls below the branch state."""
    from fermiopt.gaussian import Matching, SignAssignment
    from fermiopt.hamiltonian import total_strength
    from fermiopt.optimizer import CONTRACT_SLACK, PullBackError

    aux_pair = (ham.n_majoranas, ham.n_majoranas + 1)
    tilde_value = closed_form_per_term(tilde_matching, tilde_signs, lifted)
    slack = CONTRACT_SLACK * total_strength(ham)
    sd = tilde_signs.as_dict()
    if aux_pair in set(tilde_matching.pairs):
        pairs = tuple(p for p in tilde_matching.pairs if p != aux_pair)
        candidates = [(Matching(pairs), SignAssignment.from_dict({p: sd[p] for p in pairs}))]
    else:
        partner = {b: a for a, b in tilde_matching.pairs if b in aux_pair}
        i1, i2 = partner[aux_pair[0]], partner[aux_pair[1]]
        lam1, lam2 = sd[(i1, aux_pair[0])], sd[(i2, aux_pair[1])]
        base_pairs = [p for p in tilde_matching.pairs if p[1] not in aux_pair]
        new_pair = (min(i1, i2), max(i1, i2))
        orient = -1 if i1 < i2 else 1
        matching = Matching(tuple(base_pairs) + (new_pair,))
        candidates = []
        for outcome in (1, -1):
            cond_signs = {p: sd[p] for p in base_pairs}
            cond_signs[new_pair] = orient * outcome * lam1 * lam2
            signs = SignAssignment.from_dict(cond_signs)
            candidates.append((matching, repair_two_mode_overlaps_by_dict(matching, signs, ham)))
    best = None
    for matching, signs in candidates:
        value = closed_form_per_term(matching, signs, ham)
        if best is None or value > best[0]:
            best = (value, matching, signs)
    value, matching, signs = best
    if value < tilde_value - slack:
        raise PullBackError(f"pull-back lost energy: {value} < {tilde_value}")
    return matching, signs


def dense_permitted_adjacency(ham, excluded) -> dict[int, frozenset[int]]:
    """Permitted-edge graph as the explicit complement of term co-membership."""
    verts = set(range(2 * ham.n_modes)) - set(excluded)
    forbidden = {v: set() for v in verts}
    for term in ham.terms:
        inside = [i for i in term.indices if i in verts]
        for a in inside:
            for b in inside:
                if a != b:
                    forbidden[a].add(b)
    return {v: frozenset(verts - forbidden[v] - {v}) for v in verts}


def hamiltonian_cycle_sorted_neighbors(graph) -> list[int] | None:
    """Path extension with rotations, smallest neighbor first, picking each
    step's vertex by sorting the endpoint's neighbor set.  None where the
    construction gets stuck (including outside the Dirac regime)."""
    verts = sorted(graph.vertices)
    nv = len(verts)
    if nv < 3 or min(len(graph.neighbors(v)) for v in verts) <= nv / 2:
        return None
    path = [verts[0]]
    in_path = {verts[0]}
    while True:
        extended = True
        while extended and len(path) < nv:
            extended = False
            for end, place in ((path[-1], len(path)), (path[0], 0)):
                for u in sorted(graph.neighbors(end)):
                    if u not in in_path:
                        path.insert(place, u)
                        in_path.add(u)
                        extended = True
                        break
                if extended:
                    break
        head, tail = path[0], path[-1]
        if graph.has_edge(head, tail):
            cycle = list(path)
        else:
            for i in range(len(path) - 1):
                if graph.has_edge(head, path[i + 1]) and graph.has_edge(path[i], tail):
                    cycle = path[: i + 1] + list(reversed(path[i + 1 :]))
                    break
            else:
                return None
        if len(cycle) == nv:
            return cycle
        attach = next(
            (
                (w, i)
                for w in verts
                if w not in in_path
                for i, v in enumerate(cycle)
                if graph.has_edge(w, v)
            ),
            None,
        )
        if attach is None:
            return None
        w, i = attach
        path = [w] + cycle[i:] + cycle[:i]
        in_path = set(path)


def truncation_marks_scan(ham, k_prime: int) -> set[int]:
    """Term ids past the first ``k_prime`` on some Majorana, walking all
    terms in lexicographic order with a running count per Majorana."""
    counts = [0] * (2 * ham.n_modes)
    marked: set[int] = set()
    for t_id in sorted(range(len(ham.terms)), key=lambda t: ham.terms[t].indices):
        for mode in ham.terms[t_id].indices:
            if counts[mode] >= k_prime:
                marked.add(t_id)
            counts[mode] += 1
    return marked


# ------------------------------------------------ per-string operator builders
#
# A Pauli string is ``(x_mask, z_mask, scalar)``, acting on ``|b>`` by
# ``scalar * (-1)^{popcount(b & z)} |b ^ x>``.  These builders take one
# string at a time and recompute its phases each time, with no grouping by
# X mask.


def _string_phase(idx: np.ndarray, z: int) -> np.ndarray:
    return 1.0 - 2.0 * (np.bitwise_count(idx & np.uint32(z)) & 1).astype(np.float64)


def dense_sum_per_string(weighted_strings, n_modes: int) -> np.ndarray:
    """Dense ``sum weight * string``, scattering one string at a time."""
    dim = 2**n_modes
    idx = np.arange(dim, dtype=np.uint32)
    mat = np.zeros((dim, dim), dtype=complex)
    for (x, z, s), weight in weighted_strings:
        mat[idx ^ np.uint32(x), idx] += (weight * s) * _string_phase(idx, z)
    return mat


def matvec_per_string(weighted_strings, vec: np.ndarray) -> np.ndarray:
    """``(sum weight * string) @ vec``, scattering one string at a time."""
    idx = np.arange(vec.shape[0], dtype=np.uint32)
    out = np.zeros(vec.shape[0], dtype=complex)
    for (x, z, s), weight in weighted_strings:
        out[idx ^ np.uint32(x)] += (weight * s) * _string_phase(idx, z) * vec
    return out


def dimer_state_by_matmul(n_modes: int, signed_strings) -> np.ndarray:
    """``(1/2^n) prod (I + sign * D)`` by dense products, one dimer string
    ``D`` at a time: ``rho = rho + sign * (D @ rho)``."""
    dim = 2**n_modes
    rho = np.eye(dim, dtype=complex) / dim
    for string, sign in signed_strings:
        rho = rho + sign * (dense_sum_per_string([(string, 1.0)], n_modes) @ rho)
    return rho


def dense_term(indices, n_modes: int) -> np.ndarray:
    """Dense matrix of the Hermitian monomial ``C_I`` (or of the single
    Majorana ``c_i``), read from the oracle's own array string and Pauli-sum
    builders, which the Majorana-algebra tests check."""
    x, z, power = _strings(np.array([indices]))
    scalars = _UNITS[(power + len(indices) // 2) & 3]
    return _string_matrix(_pauli_sum(x, z, scalars, n_modes), n_modes)


def majorana_string(i: int, n_modes: int) -> tuple[int, int, complex]:
    """Pauli string of Majorana ``c_i`` under the Jordan-Wigner mapping."""
    qubit, parity = divmod(i, 2)
    x = 1 << qubit
    z = (1 << qubit) - 1
    scalar: complex = 1.0
    if parity:
        z |= 1 << qubit
        scalar = 1j
    return x, z, scalar


def string_product(
    first: tuple[int, int, complex], second: tuple[int, int, complex]
) -> tuple[int, int, complex]:
    """Product ``first * second`` of two Pauli strings."""
    x1, z1, s1 = first
    x2, z2, s2 = second
    sign = -1.0 if bin(z1 & x2).count("1") % 2 else 1.0
    return x1 ^ x2, z1 ^ z2, s1 * s2 * sign


def majorana_product_string(indices, n_modes: int) -> tuple[int, int, complex]:
    """Pauli string of ``c_{i1} ... c_{iq}``, one string product per factor."""
    acc = (0, 0, 1.0 + 0.0j)
    for i in indices:
        acc = string_product(acc, majorana_string(i, n_modes))
    return acc


def term_string(indices, n_modes: int) -> tuple[int, int, complex]:
    """Pauli string of the Hermitian monomial ``C_I = i^{q/2} c_{i1}...c_{iq}``."""
    x, z, s = majorana_product_string(indices, n_modes)
    return x, z, s * (1j ** (len(indices) // 2))


def pauli_sum_per_term(weighted_strings, n_modes: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Group ``((x, z, s), weight)`` strings by X mask in first-seen order,
    adding one term's phase vector to its group's coefficients at a time."""
    rows = np.arange(2**n_modes, dtype=np.uint32)
    groups: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for (x, z, s), weight in weighted_strings:
        if x not in groups:
            groups[x] = (rows ^ np.uint32(x), np.zeros(rows.shape[0], dtype=complex))
        cols, coef = groups[x]
        coef += (weight * s) * _string_phase(cols, z)
    return list(groups.values())


def dimer_state_full_gather(n_modes: int, dimers) -> np.ndarray:
    """``(1/2^n) prod (I + w * C_(a,b))``, each dimer applied in place by
    one gather of the whole matrix: ``rho += C_(a,b) rho``."""
    dim = 2**n_modes
    rho = np.eye(dim, dtype=complex) / dim
    for (a, b), weight in dimers:
        ((cols, coef),) = pauli_sum_per_term([(term_string((a, b), n_modes), weight)], n_modes)
        gathered = rho[cols]
        gathered *= coef[:, None]
        rho += gathered
    return rho


def slope_fd_by_expm(zeta: np.ndarray, hmat: np.ndarray, rho0: np.ndarray) -> float:
    """Central finite difference at t = +-1e-5 of ``Tr(H exp(-t zeta) rho0
    exp(t zeta))``, by scipy's ``expm`` and dense products."""
    eps = 1e-5
    values = []
    for t in (eps, -eps):
        rot = expm(-t * zeta)
        values.append(float(np.real(np.trace(hmat @ (rot @ rho0 @ rot.conj().T)))))
    return (values[0] - values[1]) / (2 * eps)


def zeta_by_tau_products(n_modes: int, scale: complex, tau_terms, sigma_strings) -> np.ndarray:
    """``zeta = sum_j tau_j @ sigma_j`` with one dense ``tau_j`` per second-color
    mode: ``tau_j = scale * sum coupling * P_phi`` over the ``(chi, P_phi,
    coupling)`` entries with ``chi = j``, and ``sigma_j`` the j-th auxiliary
    Majorana string."""
    dim = 2**n_modes
    taus = [np.zeros((dim, dim), dtype=complex) for _ in sigma_strings]
    for chi, string, coupling in tau_terms:
        taus[chi] += coupling * dense_sum_per_string([(string, 1.0)], n_modes)
    zeta = np.zeros((dim, dim), dtype=complex)
    for tau, sigma in zip(taus, sigma_strings):
        zeta += (scale * tau) @ dense_sum_per_string([(sigma, 1.0)], n_modes)
    return zeta


# -------------------------------------------------------------------------
# The Gaussian ascent's energy and gradient, term by term: batched index
# paths at weights 2 and 4 in the ascent's scatter order, and a cofactor
# loop above, on the package's ``pfaffian`` (itself checked against
# ``pfaffian_matching_sum``).


def _pair_positions(weight: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(weight) for b in range(a + 1, weight)]


class CofactorTermEvaluator:
    """E = sum_I J_I Pf(gamma_I) with its gradient.

    Weight-2 and weight-4 terms take batched index paths; higher weights go
    through a per-term cofactor loop.  Gradients use
    d Pf(A)/d A_{ij} = (-1)^{i+j+1} Pf(A with rows/cols i,j removed).
    """

    def __init__(self, terms):
        quadratic = [t for t in terms if t.weight == 2]
        quartic = [t for t in terms if t.weight == 4]
        self.other = tuple(t for t in terms if t.weight not in (2, 4))
        self.idx2 = (
            np.array([t.indices for t in quadratic], dtype=int) if quadratic else None
        )
        self.c2 = np.array([t.coeff for t in quadratic]) if quadratic else None
        self.idx4 = (
            np.array([t.indices for t in quartic], dtype=int) if quartic else None
        )
        self.c4 = np.array([t.coeff for t in quartic]) if quartic else None

    def __call__(self, gamma: np.ndarray) -> tuple[float, np.ndarray]:
        grad = np.zeros_like(gamma)
        energy = 0.0
        if self.idx2 is not None:
            a, b = self.idx2[:, 0], self.idx2[:, 1]
            energy += float(self.c2 @ gamma[a, b])
            np.add.at(grad, (a, b), self.c2)
        if self.idx4 is not None:
            i0, i1, i2, i3 = (self.idx4[:, c] for c in range(4))
            g01, g23 = gamma[i0, i1], gamma[i2, i3]
            g02, g13 = gamma[i0, i2], gamma[i1, i3]
            g03, g12 = gamma[i0, i3], gamma[i1, i2]
            energy += float(self.c4 @ (g01 * g23 - g02 * g13 + g03 * g12))
            np.add.at(grad, (i0, i1), self.c4 * g23)
            np.add.at(grad, (i2, i3), self.c4 * g01)
            np.add.at(grad, (i0, i2), -self.c4 * g13)
            np.add.at(grad, (i1, i3), -self.c4 * g02)
            np.add.at(grad, (i0, i3), self.c4 * g12)
            np.add.at(grad, (i1, i2), self.c4 * g03)
        for t in self.other:
            idx = list(t.indices)
            q = len(idx)
            sub = gamma[np.ix_(idx, idx)]
            energy += t.coeff * pfaffian(sub)
            for a, b in _pair_positions(q):
                keep = [p for p in range(q) if p not in (a, b)]
                minor = pfaffian(sub[np.ix_(keep, keep)]) if keep else 1.0
                sign = -1.0 if (a + b + 1) % 2 else 1.0
                grad[idx[a], idx[b]] += t.coeff * sign * minor
        return energy, grad - grad.T


# -------------------------------------------------------------------------
# The mixed pull-back's conditioned states by the skew Schur complement:
# measure the auxiliary dimer of a weight-4 branch state on its dense
# correlation matrix.  The pull-back's matching-form signs must give these
# matrices exactly.


def conditioned_by_schur(tilde_matching, tilde_signs) -> list[tuple[float, np.ndarray]]:
    """``(probability, conditioned gamma)`` at outcomes 1 and -1 of the dimer
    on the two highest Majoranas (the auxiliaries)."""
    corr = correlation_from_matching(tilde_matching, tilde_signs)
    m = corr.n_majoranas
    out = []
    for outcome in (1, -1):
        prob, reduced = condition_on_dimer(corr, m - 2, m - 1, outcome)
        out.append((prob, reduced.gamma))
    return out


# -------------------------------------------------------------------------
# The checks a Hamiltonian's terms went through one term at a time, before
# the terms became arrays: each term's own checks when it was built, then
# the mode count, then per term its range and whether an earlier term has
# its index set.


def own_term_fault(indices, coeff) -> tuple[str, str] | None:
    """``(code, message)`` of a term's own first fault, or None."""
    idx = tuple(indices)
    if len(idx) == 0 or len(idx) % 2 != 0:
        return "odd-weight", f"term weight must be even and >= 2, got {idx}"
    if any(b <= a for a, b in zip(idx, idx[1:])):
        if len(set(idx)) != len(idx):
            return "repeated-majorana", f"repeated Majorana in {idx}"
        return "malformed", f"indices must be strictly increasing, got {idx}"
    if idx[0] < 0:
        return "index-range", f"negative Majorana index in {idx}"
    if not math.isfinite(coeff):
        return "malformed", f"non-finite coefficient {float(coeff)}"
    return None


def first_fault_per_term(n_modes: int, terms) -> tuple[str, str] | None:
    """``(code, message)`` of the first fault of ``(indices, coeff)`` pairs
    on ``n_modes`` modes, in the order the per-term checks found it."""
    for indices, coeff in terms:
        fault = own_term_fault(indices, coeff)
        if fault is not None:
            return fault
    if n_modes < 1:
        return "malformed", f"n_modes must be positive, got {n_modes}"
    seen = set()
    for indices, _ in terms:
        idx = tuple(indices)
        if idx[-1] >= 2 * n_modes:
            return "index-range", f"index {idx[-1]} out of range for {2 * n_modes} Majoranas"
        if idx in seen:
            return "duplicate-term", f"duplicate index set {idx}"
        seen.add(idx)
    return None
