"""Majorana monomials, interaction sets and sparse fermionic Hamiltonians.

A system of ``2n`` Majorana operators ``c_0, ..., c_{2n-1}`` (0-based
throughout) hosts Hamiltonians of the form ``H = sum_I J_I C_I`` where each
``C_I = i^{|I|/2} c_{i_1} ... c_{i_q}`` is a Hermitian monomial over a
strictly increasing, even-sized index set ``I``.  This module provides the
term/Hamiltonian containers, locality and sparsity bookkeeping, reordering
signs, and the JSON wire format.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence


class FormatError(ValueError):
    """Raised when a document or term violates the schema.

    ``code`` is a stable machine-readable tag: one of ``"malformed"``,
    ``"odd-weight"``, ``"index-range"``, ``"duplicate-term"``,
    ``"repeated-majorana"``.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def canonical_sign(indices: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Sort Majorana indices, returning the parity sign of the permutation.

    Parameters
    ----------
    indices:
        Pairwise-distinct mode indices in any order.

    Returns
    -------
    (sorted_indices, sign) where ``sign`` is +1 for an even sorting
    permutation and -1 for an odd one.
    """
    seq = list(indices)
    if len(set(seq)) != len(seq):
        raise FormatError("repeated-majorana", f"repeated Majorana in {seq}")
    sign = 1
    # insertion sort; input sizes are term weights (tiny)
    for i in range(1, len(seq)):
        j = i
        while j > 0 and seq[j - 1] > seq[j]:
            seq[j - 1], seq[j] = seq[j], seq[j - 1]
            sign = -sign
            j -= 1
    return tuple(seq), sign


@dataclass(frozen=True)
class InteractionTerm:
    """A coefficient-weighted Majorana monomial ``J * C_I``.

    ``indices`` must be strictly increasing, of even length >= 2, and
    ``coeff`` finite.  Instances are immutable and hashable on ``indices``.
    """

    indices: tuple[int, ...]
    coeff: float

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "coeff", float(self.coeff))
        if len(idx) == 0 or len(idx) % 2 != 0:
            raise FormatError("odd-weight", f"term weight must be even and >= 2, got {idx}")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            if len(set(idx)) != len(idx):
                raise FormatError("repeated-majorana", f"repeated Majorana in {idx}")
            raise FormatError("malformed", f"indices must be strictly increasing, got {idx}")
        if any(i < 0 for i in idx):
            raise FormatError("index-range", f"negative Majorana index in {idx}")
        if not math.isfinite(self.coeff):
            raise FormatError("malformed", f"non-finite coefficient {self.coeff}")

    @property
    def weight(self) -> int:
        return len(self.indices)

    @cached_property
    def support(self) -> frozenset[int]:
        return frozenset(self.indices)


@dataclass(frozen=True)
class MajoranaHamiltonian:
    """A traceless Hamiltonian ``sum_I J_I C_I`` on ``2 * n_modes`` Majoranas.

    Index sets are pairwise distinct; all indices lie in ``[0, 2*n_modes)``.
    """

    n_modes: int
    terms: tuple[InteractionTerm, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if self.n_modes < 1:
            raise FormatError("malformed", f"n_modes must be positive, got {self.n_modes}")
        seen = set()
        for t in self.terms:
            if t.indices[-1] >= 2 * self.n_modes:
                raise FormatError(
                    "index-range",
                    f"index {t.indices[-1]} out of range for {2 * self.n_modes} Majoranas",
                )
            if t.indices in seen:
                raise FormatError("duplicate-term", f"duplicate index set {t.indices}")
            seen.add(t.indices)

    @property
    def n_majoranas(self) -> int:
        return 2 * self.n_modes

    @cached_property
    def mode_terms(self) -> tuple[tuple[int, ...], ...]:
        """For each Majorana, the ids of the terms containing it, ascending."""
        out: list[list[int]] = [[] for _ in range(self.n_majoranas)]
        for t_id, term in enumerate(self.terms):
            for mode in term.indices:
                out[mode].append(t_id)
        return tuple(tuple(ids) for ids in out)

    def weights(self) -> set[int]:
        return {t.weight for t in self.terms}


@dataclass(frozen=True)
class SparsityProfile:
    """Per-Majorana interaction counts of a Hamiltonian.

    ``max_degree`` is the smallest ``k`` for which the Hamiltonian is
    k-sparse (no Majorana occurs in more than ``k`` terms).
    """

    degree: Mapping[int, int]
    max_degree: int
    weights_present: frozenset[int] = field(default_factory=frozenset)


def sparsity_profile(ham: MajoranaHamiltonian) -> SparsityProfile:
    """Count, for every Majorana mode, the number of terms containing it."""
    degree = {i: 0 for i in range(ham.n_majoranas)}
    for t in ham.terms:
        for i in t.indices:
            degree[i] += 1
    max_degree = max(degree.values()) if degree else 0
    return SparsityProfile(
        degree=degree,
        max_degree=max_degree,
        weights_present=frozenset(t.weight for t in ham.terms),
    )


def total_strength(ham: MajoranaHamiltonian) -> float:
    """Sum of |J_I| over all terms; an upper bound on the largest eigenvalue."""
    return float(sum(abs(t.coeff) for t in ham.terms))


def strength(terms: Iterable[InteractionTerm]) -> float:
    """Sum of |J_I| over an arbitrary collection of terms."""
    return float(sum(abs(t.coeff) for t in terms))


def parse_hamiltonian(text: str) -> MajoranaHamiltonian:
    """Parse the Hamiltonian JSON document.

    Schema: ``{"n_modes": int, "terms": [{"indices": [int...], "coeff": float}...]}``
    with strictly increasing, even-length index lists.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError("malformed", f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "n_modes" not in doc or "terms" not in doc:
        raise FormatError("malformed", "document must carry 'n_modes' and 'terms'")
    n_modes = doc["n_modes"]
    if not isinstance(n_modes, int) or isinstance(n_modes, bool):
        raise FormatError("malformed", f"n_modes must be an integer, got {n_modes!r}")
    raw_terms = doc["terms"]
    if not isinstance(raw_terms, list):
        raise FormatError("malformed", "'terms' must be a list")
    terms = []
    for entry in raw_terms:
        if not isinstance(entry, dict) or "indices" not in entry or "coeff" not in entry:
            raise FormatError("malformed", f"bad term entry {entry!r}")
        terms.append(InteractionTerm(tuple(entry["indices"]), float(entry["coeff"])))
    return MajoranaHamiltonian(n_modes=n_modes, terms=tuple(terms))


def serialize_hamiltonian(ham: MajoranaHamiltonian) -> str:
    """Serialize to the JSON wire format (stable key order, round-trip safe)."""
    doc = {
        "n_modes": ham.n_modes,
        "terms": [
            {"indices": list(t.indices), "coeff": t.coeff} for t in ham.terms
        ],
    }
    return json.dumps(doc, indent=1, sort_keys=False)
