"""Seeded random Hamiltonian families.

All generators are pure functions of their parameters and a 64-bit seed.
Coefficients are drawn from per-term-rank Philox substreams (see ``rng``),
so coefficient assignment never depends on iteration order; subset ranks
follow the lexicographic order of ``itertools.combinations``.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from . import rng
from .hamiltonian import InteractionTerm, MajoranaHamiltonian, dataclass_fields_from_json

FAMILIES = ("sykq", "ssyk", "sparse_random", "two_colored")

# the parameters each family's generator reads from an EnsembleSpec
_FAMILY_PARAMS = {
    "sykq": ("n", "q"),
    "ssyk": ("n", "k"),
    "sparse_random": ("n", "q", "k"),
    "two_colored": ("n1", "n2", "q"),
}

# largest n with binom(2n, 4) < 2^63, the trial-count limit of gen_ssyk's draw
SSYK_MAX_N = 60988


@dataclass(frozen=True)
class EnsembleSpec:
    """Provenance record for a generated Hamiltonian."""

    family: str
    seed: int
    n: int | None = None
    q: int | None = None
    k: int | None = None
    n1: int | None = None
    n2: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        missing = [name for name in _FAMILY_PARAMS[self.family] if getattr(self, name) is None]
        if missing:
            raise ValueError(f"family {self.family!r} needs {', '.join(missing)}")

    def to_json(self) -> str:
        doc = {"spec": {key: val for key, val in asdict(self).items() if val is not None}}
        return json.dumps(doc, indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EnsembleSpec":
        doc = json.loads(text)
        spec = doc.get("spec") if isinstance(doc, dict) else None
        return cls(**dataclass_fields_from_json(cls, spec, ("seed", "n", "q", "k", "n1", "n2")))


@functools.lru_cache(maxsize=8)
def _binomial_tables(n_items: int, size: int) -> tuple[np.ndarray, ...]:
    """``tables[r][a] = C(a, r)`` for ``a`` up to ``n_items - size + r - 1``,
    the largest ``a`` unranking visits with ``r`` elements still to place.

    Pascal's rule as cumulative sums keeps every entry exact.  Built once
    per ``(n_items, size)``; the arrays are read-only because every caller
    shares them.
    """
    tables = [np.ones(n_items - size, dtype=np.int64)]
    for _ in range(size):
        tables.append(np.concatenate(([0], np.cumsum(tables[-1]))))
    for table in tables:
        table.flags.writeable = False
    return tuple(tables)


def _unrank_combination(
    ranks: np.ndarray, n_items: int, size: int, allowed: np.ndarray | None = None
) -> np.ndarray:
    """Inverse of the lexicographic rank of ``size``-combinations of
    ``range(n_items)``: row ``i`` of the ``(len(ranks), size)`` result is
    the combination of rank ``ranks[i]`` in ``itertools.combinations``
    order.

    Works on the dual rank ``C(n_items, size) - 1 - rank``: with ``r``
    elements still to place, the next element is ``n_items - 1 - a`` for
    the largest ``a`` with ``C(a, r) <= dual``, found for the whole batch
    by one ``searchsorted`` on the exact table of ``C(a, r)``.

    With ``allowed``, a boolean mask over the items, a combination is
    dropped at its first item outside the mask: only the survivors go on
    to the next position, and a dropped row holds -1 from there on, so it
    ends in -1.
    """
    total = math.comb(n_items, size)
    if total >= 2**63:
        raise ValueError(
            f"C({n_items}, {size}) = {total} is not below 2^63, the limit of int64 ranks"
        )
    ranks = np.asarray(ranks, dtype=np.int64)
    if ranks.size and not (0 <= ranks.min() and ranks.max() < total):
        raise ValueError(f"ranks outside [0, {total})")
    tables = _binomial_tables(n_items, size)
    dual = (total - 1) - ranks
    out = np.full((ranks.size, size), -1, dtype=np.int64)
    alive = slice(None) if allowed is None else np.arange(ranks.size)
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


def gen_syk_q(n: int, q: int, seed: int) -> MajoranaHamiltonian:
    """All-to-all model: every weight-q monomial, i.i.d. normal couplings
    scaled by ``binom(2n, q)^{-1/2}`` so E[Tr(H^2)] = 2^n."""
    if q % 2 != 0 or q < 2:
        raise ValueError("q must be even and >= 2")
    if 2 * n < q:
        raise ValueError("need at least q Majoranas")
    count = math.comb(2 * n, q)
    scale = count**-0.5
    draws = rng.normals(seed, "sykq-coeff", count)
    terms = tuple(
        InteractionTerm(idx, scale * float(draws[r]))
        for r, idx in enumerate(itertools.combinations(range(2 * n), q))
    )
    return MajoranaHamiltonian(n_modes=n, terms=terms)


def gen_ssyk(n: int, k: int, seed: int) -> MajoranaHamiltonian:
    """Diluted quartic model: each quartet kept with p = k / binom(2n-1, 3),
    kept couplings i.i.d. normal scaled by ``1/sqrt(2kn)``.

    The kept set is sampled as a binomial count followed by a uniform
    distinct-rank draw, which is distributionally identical to independent
    per-quartet trials but runs in O(#kept) instead of O(binom(2n, 4)).

    Size limits: ``1 <= k <= binom(2n-1, 3)``, so that p is a probability.
    The binomial count takes a 64-bit trial count and ranks are unranked in
    int64, so ``binom(2n, 4)`` must stay below 2^63, i.e. ``n <= 60988``.
    Ranks come from ``rng.integers_below``, which scales 53-bit uniforms;
    above ``n = 10782`` ``binom(2n, 4)`` exceeds 2^53 and not every quartet
    rank is reachable, so the draw is only approximately uniform there.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    total = math.comb(2 * n, 4)
    if total >= 2**63:
        raise ValueError(
            f"gen_ssyk supports n <= {SSYK_MAX_N}: binom(2n, 4) = {total} "
            "is not below 2^63, the limit of the binomial count draw"
        )
    per_majorana = math.comb(2 * n - 1, 3)
    if not 1 <= k <= per_majorana:
        raise ValueError(f"need 1 <= k <= binom(2n-1, 3) = {per_majorana}, got k = {k}")
    count = int(rng.generator(seed, "ssyk-count").binomial(total, k / per_majorana))
    # the first ``count`` distinct ranks in stream order, batch by batch
    kept = np.empty(0, dtype=np.int64)
    position = 0
    while kept.size < count:
        need = count - kept.size
        batch = rng.integers_below(seed, "ssyk-select", need + 8, total, index=position)
        position += 1
        first = np.sort(np.unique(batch, return_index=True)[1])
        fresh = batch[first]
        fresh = fresh[~np.isin(fresh, kept)]
        kept = np.concatenate((kept, fresh[:need]))
    ranks = np.sort(kept)
    scale = 1.0 / math.sqrt(2 * k * n)
    rows = _unrank_combination(ranks, 2 * n, 4).tolist()
    coeffs = (scale * rng.normals_at(seed, "ssyk-coeff", ranks)).tolist()
    terms = tuple(InteractionTerm(tuple(idx), c) for idx, c in zip(rows, coeffs))
    return MajoranaHamiltonian(n_modes=n, terms=terms)


def gen_sparse_random(
    n: int,
    q: int,
    k: int,
    coeff_dist: str = "normal",
    seed: int = 0,
    n_terms: int | None = None,
) -> MajoranaHamiltonian:
    """Strictly q-local instance with per-Majorana degree at most k.

    Candidate supports stream in uniformly at random and are kept greedily
    while they respect the degree budget; coefficients are normal or +-1.

    Size limits: candidate ranks are drawn and unranked in int64, so
    ``binom(2n, q)`` must stay below 2^63 (``n <= 60988`` at q = 4).  They
    come from ``rng.integers_below``, which scales 53-bit uniforms, so above
    ``binom(2n, q) = 2^53`` not every support is reachable.
    """
    if q % 2 != 0 or q < 2:
        raise ValueError("q must be even and >= 2")
    if n <= q * k:
        raise ValueError(f"need n > q*k = {q * k} for a comfortable instance")
    if coeff_dist not in ("normal", "pm1"):
        raise ValueError(f"unknown coefficient distribution {coeff_dist!r}")
    total = math.comb(2 * n, q)
    if total >= 2**63:
        raise ValueError(
            f"gen_sparse_random needs binom(2n, q) below 2^63, the limit of its "
            f"rank draw; binom({2 * n}, {q}) = {total}"
        )
    target = n_terms if n_terms is not None else (2 * n * k) // q
    load = [0] * (2 * n)
    kept: dict[int, tuple[int, ...]] = {}
    max_batches = 60
    position = 0
    while len(kept) < target and position < max_batches:
        ranks = rng.integers_below(
            seed, "sparse-select", max(4 * target, 64), total, index=position
        )
        position += 1
        # loads only grow, so a candidate that touches a full Majorana now
        # would be rejected in order too: it is dropped while unranking, and
        # only kept ranks need remembering
        rows = _unrank_combination(ranks, 2 * n, q, allowed=np.array(load) < k)
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
        raise ValueError(f"could not place {n_terms} terms after bounded retries")
    ranks = np.array(sorted(kept), dtype=np.int64)
    if coeff_dist == "normal":
        coeffs = rng.normals_at(seed, "sparse-coeff", ranks)
    else:
        coeffs = np.where(rng.uniforms_at(seed, "sparse-coeff", ranks) < 0.5, 1.0, -1.0)
    terms = tuple(InteractionTerm(kept[r], c) for r, c in zip(ranks.tolist(), coeffs.tolist()))
    return MajoranaHamiltonian(n_modes=n, terms=terms)


def gen_mixed_24(n: int, k: int, seed: int) -> MajoranaHamiltonian:
    """k-sparse instance with weight-2 and weight-4 terms (degree budget
    split between the two weights); convenience input for the mixed
    pipeline."""
    k4 = max(1, k // 2)
    k2 = max(1, k - k4)
    quartic = gen_sparse_random(n, 4, k4, "normal", seed)
    quadratic = gen_sparse_random(n, 2, k2, "normal", seed + 1)
    return MajoranaHamiltonian(
        n_modes=n, terms=tuple(quartic.terms) + tuple(quadratic.terms)
    )


@dataclass(frozen=True)
class TwoColoredEntry:
    """One coupling of the two-colored model: first-color subset, the
    second-color index it multiplies, and the raw normal coupling."""

    phi: tuple[int, ...]
    chi: int
    coupling: float


@dataclass(frozen=True)
class TwoColoredMeta:
    n1: int
    n2: int
    q: int
    entries: tuple[TwoColoredEntry, ...]


def gen_two_colored(
    n1: int, n2: int, q: int, seed: int
) -> tuple[MajoranaHamiltonian, TwoColoredMeta]:
    """Two-colored model: all weight-q terms made of q-1 first-color modes
    and one second-color mode, normalized by ``sqrt(n2 * binom(n1, q-1))``.

    Mode layout: first color occupies ``0..n1-1``, second color
    ``n1..n1+n2-1``.  The metadata keeps the (subset, index) labels and raw
    couplings for the rotated-state construction.
    """
    if q % 2 != 0 or q < 4:
        raise ValueError("q must be even and >= 4")
    if not 1 <= n2 <= n1:
        raise ValueError("need 1 <= n2 <= n1")
    subsets = list(itertools.combinations(range(n1), q - 1))
    norm = 1.0 / math.sqrt(n2 * math.comb(n1, q - 1))
    couplings = rng.normals_at(seed, "twocolor-coeff", np.arange(n2 * len(subsets))).tolist()
    terms = []
    entries = []
    for (j, subset), coupling in zip(itertools.product(range(n2), subsets), couplings):
        entries.append(TwoColoredEntry(phi=subset, chi=j, coupling=coupling))
        terms.append(InteractionTerm(subset + (n1 + j,), norm * coupling))
    n_modes = (n1 + n2 + 1) // 2
    ham = MajoranaHamiltonian(n_modes=n_modes, terms=tuple(terms))
    return ham, TwoColoredMeta(n1=n1, n2=n2, q=q, entries=tuple(entries))


def generate(spec: EnsembleSpec):
    """Dispatch on the family; returns the Hamiltonian (plus metadata for
    the two-colored family)."""
    if spec.family == "sykq":
        return gen_syk_q(spec.n, spec.q, spec.seed)
    if spec.family == "ssyk":
        return gen_ssyk(spec.n, spec.k, spec.seed)
    if spec.family == "sparse_random":
        return gen_sparse_random(spec.n, spec.q, spec.k, "normal", spec.seed)
    if spec.family == "two_colored":
        return gen_two_colored(spec.n1, spec.n2, spec.q, spec.seed)
    raise ValueError(f"unknown family {spec.family!r}")
