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
from .hamiltonian import MajoranaHamiltonian, _load_json, dataclass_fields_from_json

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
        doc = _load_json(text)
        spec = doc.get("spec") if isinstance(doc, dict) else None
        return cls(**dataclass_fields_from_json(cls, spec, ("seed", "n", "q", "k", "n1", "n2")))


def _of_rows(n_modes: int, rows: np.ndarray, coeffs) -> MajoranaHamiltonian:
    """The Hamiltonian whose term ``t`` is row ``t`` of ``rows``."""
    ptr = np.arange(0, rows.size + 1, rows.shape[1])
    return MajoranaHamiltonian.from_arrays(n_modes, ptr, rows.ravel(), coeffs)


@functools.lru_cache(maxsize=8)
def _binomial_tables(n_items: int, size: int) -> tuple[np.ndarray, ...]:
    """``tables[r][a] = C(a, r)`` for ``a`` up to ``n_items - size + r``, one
    past the largest ``a`` unranking visits with ``r`` elements still to
    place, so ``a + 1`` is always a valid index.

    Pascal's rule as cumulative sums keeps every entry exact; no entry
    exceeds ``C(n_items, size)``.  Built once per ``(n_items, size)``; the
    arrays are read-only because every caller shares them.
    """
    tables = [np.ones(n_items - size + 1, dtype=np.int64)]
    for _ in range(size):
        tables.append(np.concatenate(([0], np.cumsum(tables[-1]))))
    for table in tables:
        table.flags.writeable = False
    return tuple(tables)


def _largest_at_most(table: np.ndarray, dual: np.ndarray, r: int) -> np.ndarray:
    """For each entry of ``dual``, the largest ``a`` with ``table[a] =
    C(a, r) <= dual``.

    A float root of ``C(a, r) ~ (a - (r-1)/2)^r / r!`` lands within a few
    places; integer steps against the exact table then move every entry
    until none moves, so the float error never reaches the result.
    """
    last = len(table) - 2  # the largest a any dual can reach
    root = (dual * float(math.factorial(r))) ** (1.0 / r) + (r - 1) / 2
    a = np.clip(root, r - 1, last).astype(np.int64)
    while True:
        step = (table[a + 1] <= dual).view(np.int8) - (table[a] > dual).view(np.int8)
        if not step.any():
            return a
        a += step


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
    at once by ``_largest_at_most`` on the exact table of ``C(a, r)``.

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
        a = _largest_at_most(table, dual, remaining)
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
    flat = itertools.chain.from_iterable(itertools.combinations(range(2 * n), q))
    rows = np.fromiter(flat, np.intp, count=count * q).reshape(count, q)
    return _of_rows(n, rows, scale * draws)


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
    rows = _unrank_combination(ranks, 2 * n, 4)
    return _of_rows(n, rows, scale * rng.normals_at(seed, "ssyk-coeff", ranks))


# The 60 candidate batches of gen_sparse_random, drawn and unranked a stage
# at a time: batches [start, stop) per stage.  Each stage costs a fixed
# number of numpy calls however many batches it holds, and a draw that
# reaches its target early stops after a small stage.
_SPARSE_BATCHES = 60
_SPARSE_STAGES = ((0, 1), (1, 2), (2, 4), (4, 8), (8, 16), (16, 32), (32, _SPARSE_BATCHES))
# candidates one stage may hold at once; a longer stage is cut into runs of
# whole batches, so the working set stays bounded at large n
_SPARSE_STAGE_CAP = 2**17


def _sparse_stages(batch: int):
    """``_SPARSE_STAGES`` with every stage cut into runs of at most
    ``_SPARSE_STAGE_CAP`` candidates (at least one batch per run)."""
    per_run = max(1, _SPARSE_STAGE_CAP // batch)
    for start, stop in _SPARSE_STAGES:
        for lo in range(start, stop, per_run):
            yield lo, min(lo + per_run, stop)


def least_k(pipeline: str | None = None) -> int:
    """The smallest degree budget a sparse draw can honour: 1, or 2 for the
    mixed pipeline, whose generator splits k between two weights."""
    return 2 if pipeline == "mixed24" else 1


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
    The stream is 60 batches of ``max(4 * target, 64)`` ranks, batch ``i``
    from the substream ``(seed, "sparse-select", i)``, read in order until
    ``target`` terms are kept.  The batches are drawn and unranked in the
    stages of ``_SPARSE_STAGES``, a stage of more than ``_SPARSE_STAGE_CAP``
    candidates in several runs; the kept terms do not depend on the stages.

    Size limits: candidate ranks are drawn and unranked in int64, so
    ``binom(2n, q)`` must stay below 2^63 (``n <= 60988`` at q = 4).  They
    come from ``rng.integers_below_streams``, which scales 53-bit uniforms
    as ``rng.integers_below`` does, so above
    ``binom(2n, q) = 2^53`` not every support is reachable.
    """
    if q % 2 != 0 or q < 2:
        raise ValueError("q must be even and >= 2")
    if k < least_k():
        raise ValueError(f"need a degree budget k >= {least_k()}, got k = {k}")
    if n_terms is not None and n_terms < 0:
        raise ValueError(f"need n_terms >= 0, got n_terms = {n_terms}")
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
    batch = max(4 * target, 64)
    load = [0] * (2 * n)
    kept: dict[int, tuple[int, ...]] = {}
    for start, stop in _sparse_stages(batch):
        if len(kept) == target:
            break
        ranks = rng.integers_below_streams(
            seed, "sparse-select", batch, total, np.arange(start, stop)
        ).ravel()
        # loads only grow, so a candidate that touches a Majorana full at the
        # start of the stage would be rejected in order too: it is dropped
        # while unranking, and only kept ranks need remembering
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
    rows = np.array([kept[r] for r in ranks.tolist()], dtype=np.intp).reshape(-1, q)
    return _of_rows(n, rows, coeffs)


def gen_mixed_24(n: int, k: int, seed: int) -> MajoranaHamiltonian:
    """k-sparse instance with weight-2 and weight-4 terms (degree budget
    split between the two weights, ``k // 2`` to the quartic part and the
    rest to the quadratic part); convenience input for the mixed pipeline.
    Needs ``k >= 2`` so that each weight gets a budget of at least 1."""
    if k < least_k("mixed24"):
        raise ValueError(
            f"gen_mixed_24 needs k >= {least_k('mixed24')}, a budget for each weight; got k = {k}"
        )
    k4 = k // 2
    four = gen_sparse_random(n, 4, k4, "normal", seed).index
    two = gen_sparse_random(n, 2, k - k4, "normal", seed + 1).index
    ptr = np.concatenate((four.term_ptr, four.term_ptr[-1] + two.term_ptr[1:]))
    modes = np.concatenate((four.modes, two.modes))
    return MajoranaHamiltonian.from_arrays(n, ptr, modes, np.concatenate((four.coeffs, two.coeffs)))


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
    couplings = rng.normals_at(seed, "twocolor-coeff", np.arange(n2 * len(subsets)))
    labels = list(itertools.product(range(n2), subsets))
    entries = tuple(TwoColoredEntry(phi, j, c) for (j, phi), c in zip(labels, couplings.tolist()))
    rows = np.array([phi + (n1 + j,) for j, phi in labels], dtype=np.intp).reshape(-1, q)
    ham = _of_rows((n1 + n2 + 1) // 2, rows, norm * couplings)
    return ham, TwoColoredMeta(n1=n1, n2=n2, q=q, entries=entries)


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
