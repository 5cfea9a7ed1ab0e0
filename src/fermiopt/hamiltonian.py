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
import operator
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property
from types import MappingProxyType
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
        idx = tuple(map(int, self.indices))
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "coeff", float(self.coeff))
        if len(idx) == 0 or len(idx) % 2 != 0:
            raise FormatError("odd-weight", f"term weight must be even and >= 2, got {idx}")
        if any(map(operator.le, idx[1:], idx)):
            if len(set(idx)) != len(idx):
                raise FormatError("repeated-majorana", f"repeated Majorana in {idx}")
            raise FormatError("malformed", f"indices must be strictly increasing, got {idx}")
        if idx[0] < 0:  # strictly increasing, so the first index is the least
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
class SparsityProfile:
    """Per-Majorana interaction counts of a Hamiltonian.

    ``max_degree`` is the smallest ``k`` for which the Hamiltonian is
    k-sparse (no Majorana occurs in more than ``k`` terms).
    """

    degree: Mapping[int, int]
    max_degree: int
    weights_present: frozenset[int] = field(default_factory=frozenset)


@dataclass(frozen=True)
class MajoranaHamiltonian:
    """A traceless Hamiltonian ``sum_I J_I C_I`` on ``2 * n_modes`` Majoranas.

    Index sets are pairwise distinct; all indices lie in ``[0, 2*n_modes)``.
    It is its own read-only index, built once: ``term_id`` (index tuple ->
    term id), ``mode_terms`` and the profile behind ``sparsity_profile``.
    """

    n_modes: int
    terms: tuple[InteractionTerm, ...]
    term_id: Mapping[tuple[int, ...], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if self.n_modes < 1:
            raise FormatError("malformed", f"n_modes must be positive, got {self.n_modes}")
        term_id: dict[tuple[int, ...], int] = {}
        for t_id, t in enumerate(self.terms):
            if t.indices[-1] >= 2 * self.n_modes:
                raise FormatError(
                    "index-range",
                    f"index {t.indices[-1]} out of range for {2 * self.n_modes} Majoranas",
                )
            if term_id.setdefault(t.indices, t_id) != t_id:
                raise FormatError("duplicate-term", f"duplicate index set {t.indices}")
        object.__setattr__(self, "term_id", MappingProxyType(term_id))

    def __reduce__(self):  # the index is derived: pickle the terms alone
        return (MajoranaHamiltonian, (self.n_modes, self.terms))

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

    @cached_property
    def _profile(self) -> SparsityProfile:
        degree = MappingProxyType({mode: len(ids) for mode, ids in enumerate(self.mode_terms)})
        return SparsityProfile(
            degree=degree,
            max_degree=max(degree.values()),
            weights_present=frozenset(t.weight for t in self.terms),
        )


def sparsity_profile(ham: MajoranaHamiltonian) -> SparsityProfile:
    """Per-mode degrees, max degree and weight set; built once, shared read-only."""
    return ham._profile


def total_strength(ham: MajoranaHamiltonian) -> float:
    """Sum of |J_I| over all terms; an upper bound on the largest eigenvalue."""
    return float(sum(abs(t.coeff) for t in ham.terms))


def strength(terms: Iterable[InteractionTerm]) -> float:
    """Sum of |J_I| over an arbitrary collection of terms."""
    return float(sum(abs(t.coeff) for t in terms))


def _is_int(value) -> bool:
    # a JSON bool is a Python int; the schema does not accept it as one
    return isinstance(value, int) and not isinstance(value, bool)


def dataclass_fields_from_json(cls, doc, int_fields: Iterable[str]) -> dict:
    """Return the JSON object ``doc`` once ``cls(**doc)`` is safe: every key
    a field of the dataclass ``cls``, every field without a default present,
    and a JSON integer in each of ``int_fields``.  Else a ``ValueError``."""
    if not isinstance(doc, dict):
        raise ValueError(f"{cls.__name__} document must be a JSON object")
    known = {f.name: f for f in fields(cls)}
    for name, value in doc.items():
        if name not in known:
            raise ValueError(f"unknown field {name!r}")
        if name in int_fields and not _is_int(value):
            raise ValueError(f"field {name!r} must be an integer, got {value!r}")
    for name, f in known.items():
        if f.default is MISSING and name not in doc:
            raise ValueError(f"missing field {name!r}")
    return doc


def parse_hamiltonian(text: str) -> MajoranaHamiltonian:
    """Parse the Hamiltonian JSON document.

    Schema: ``{"n_modes": int, "terms": [{"indices": [int...], "coeff": float}...]}``
    with strictly increasing, even-length index lists.  Counts and indices
    must be JSON integers and coefficients JSON numbers; bools, strings and
    fractional indices are rejected, never coerced, and ``n_modes`` is at
    most ``2**17``.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:  # also integers past Python's digit limit
        raise FormatError("malformed", f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "n_modes" not in doc or "terms" not in doc:
        raise FormatError("malformed", "document must carry 'n_modes' and 'terms'")
    n_modes = doc["n_modes"]
    if not _is_int(n_modes):
        raise FormatError("malformed", f"n_modes must be an integer, got {n_modes!r}")
    # 2**17 is above every generator's range (gen_ssyk stops at 60,988
    # modes) and bounds the ~1 KB per mode that the pipelines allocate
    if n_modes > 2**17:
        raise FormatError("malformed", f"n_modes exceeds {2**17}")
    raw_terms = doc["terms"]
    if not isinstance(raw_terms, list):
        raise FormatError("malformed", "'terms' must be a list")
    terms = []
    for entry in raw_terms:
        if not isinstance(entry, dict) or "indices" not in entry or "coeff" not in entry:
            raise FormatError("malformed", f"bad term entry {entry!r}")
        indices, coeff = entry["indices"], entry["coeff"]
        if not isinstance(indices, list) or not all(_is_int(i) for i in indices):
            raise FormatError("malformed", f"indices must be a list of integers, got {indices!r}")
        if not (_is_int(coeff) or isinstance(coeff, float)):
            raise FormatError("malformed", f"coefficient must be a number, got {coeff!r}")
        try:
            coeff = float(coeff)
        except OverflowError:
            raise FormatError("malformed", "coefficient out of float range") from None
        terms.append(InteractionTerm(tuple(indices), coeff))
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
