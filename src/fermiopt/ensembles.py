"""Seeded random Hamiltonian families.

All generators are pure functions of their parameters and a 64-bit seed.
Coefficients are drawn from per-term-rank Philox substreams (see ``rng``),
so coefficient assignment never depends on iteration order; subset ranks
follow the lexicographic order of ``itertools.combinations``.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from . import rng
from .hamiltonian import InteractionTerm, MajoranaHamiltonian

FAMILIES = ("sykq", "ssyk", "sparse_random", "two_colored")

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

    def to_json(self) -> str:
        doc = {"spec": {key: val for key, val in asdict(self).items() if val is not None}}
        return json.dumps(doc, indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EnsembleSpec":
        return cls(**json.loads(text)["spec"])


def _unrank_combination(rank: int, n_items: int, size: int) -> tuple[int, ...]:
    """Inverse of the lexicographic rank of a ``size``-combination of
    ``range(n_items)``.

    Works on the dual rank ``C(n_items, size) - 1 - rank``: the smallest
    next element ``c`` is the first one with ``C(n_items - 1 - c, r) <=
    dual`` (``r`` elements still to place), found by binary search since
    the left side falls as ``c`` grows.
    """
    total = math.comb(n_items, size)
    if not 0 <= rank < total:
        raise ValueError(f"rank {rank} outside [0, {total})")
    dual = total - 1 - rank
    out = []
    low = 0
    for remaining in range(size, 0, -1):
        # C(remaining - 1, remaining) = 0 <= dual, so ``high`` always qualifies
        high = n_items - remaining
        while low < high:
            mid = (low + high) // 2
            if math.comb(n_items - 1 - mid, remaining) <= dual:
                high = mid
            else:
                low = mid + 1
        out.append(low)
        dual -= math.comb(n_items - 1 - low, remaining)
        low += 1
    return tuple(out)


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

    Size limits: the binomial count takes a 64-bit trial count, so
    ``binom(2n, 4)`` must stay below 2^63, i.e. ``n <= 60988``.  Ranks come
    from ``rng.integers_below``, which scales 53-bit uniforms; above
    ``n = 10782`` ``binom(2n, 4)`` exceeds 2^53 and not every quartet rank
    is reachable, so the draw is only approximately uniform there.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    total = math.comb(2 * n, 4)
    if total >= 2**63:
        raise ValueError(
            f"gen_ssyk supports n <= {SSYK_MAX_N}: binom(2n, 4) = {total} "
            "is not below 2^63, the limit of the binomial count draw"
        )
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
    ranks.sort()
    scale = 1.0 / math.sqrt(2 * k * n)
    terms = tuple(
        InteractionTerm(
            _unrank_combination(r, 2 * n, 4),
            scale * rng.normal_at(seed, "ssyk-coeff", r),
        )
        for r in ranks
    )
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
    """
    if q % 2 != 0 or q < 2:
        raise ValueError("q must be even and >= 2")
    if n <= q * k:
        raise ValueError(f"need n > q*k = {q * k} for a comfortable instance")
    if coeff_dist not in ("normal", "pm1"):
        raise ValueError(f"unknown coefficient distribution {coeff_dist!r}")
    total = math.comb(2 * n, q)
    target = n_terms if n_terms is not None else (2 * n * k) // q
    degree = np.zeros(2 * n, dtype=int)
    chosen: list[int] = []
    seen: set[int] = set()
    max_batches = 60
    position = 0
    while len(chosen) < target and position < max_batches:
        batch = rng.integers_below(
            seed, "sparse-select", max(4 * target, 64), total, index=position
        )
        position += 1
        for r in batch:
            r = int(r)
            if r in seen:
                continue
            seen.add(r)
            idx = _unrank_combination(r, 2 * n, q)
            if any(degree[i] >= k for i in idx):
                continue
            for i in idx:
                degree[i] += 1
            chosen.append(r)
            if len(chosen) == target:
                break
    if n_terms is not None and len(chosen) < n_terms:
        raise ValueError(f"could not place {n_terms} terms after bounded retries")
    chosen.sort()
    terms = []
    for r in chosen:
        idx = _unrank_combination(r, 2 * n, q)
        if coeff_dist == "normal":
            coeff = rng.normal_at(seed, "sparse-coeff", r)
        else:
            coeff = 1.0 if rng.uniforms(seed, "sparse-coeff", 1, index=r)[0] < 0.5 else -1.0
        terms.append(InteractionTerm(idx, coeff))
    return MajoranaHamiltonian(n_modes=n, terms=tuple(terms))


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
    terms = []
    entries = []
    rank = 0
    for j in range(n2):
        for subset in subsets:
            coupling = rng.normal_at(seed, "twocolor-coeff", rank)
            rank += 1
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
