"""Majorana monomials, interaction sets and sparse fermionic Hamiltonians.

A system of ``2n`` Majorana operators ``c_0, ..., c_{2n-1}`` (0-based
throughout) hosts Hamiltonians of the form ``H = sum_I J_I C_I`` where each
``C_I = i^{|I|/2} c_{i_1} ... c_{i_q}`` is a Hermitian monomial over a
strictly increasing, even-sized index set ``I``.  This module provides the
Hamiltonian container, which holds its terms as one read-only array index,
one validator for every way of building it, locality and sparsity
bookkeeping, reordering signs, and the JSON wire format.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np


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
    """Sort pairwise-distinct Majorana indices: ``(sorted_indices, sign)``,
    ``sign`` +1 for an even sorting permutation and -1 for an odd one."""
    seq = list(indices)
    if len(set(seq)) != len(seq):
        raise FormatError("repeated-majorana", f"repeated Majorana in {seq}")
    # the parity of the inversions; input sizes are term weights (tiny)
    inversions = sum(a > b for i, a in enumerate(seq) for b in seq[i + 1 :])
    return tuple(sorted(seq)), 1 - 2 * (inversions & 1)


@dataclass(frozen=True)
class InteractionTerm:
    """A coefficient-weighted Majorana monomial ``J * C_I``: one entry of
    ``MajoranaHamiltonian.terms``.  The Hamiltonian checks its terms; a term
    on its own is not checked."""

    indices: tuple[int, ...]
    coeff: float

    @property
    def weight(self) -> int:
        return len(self.indices)


@dataclass(frozen=True, eq=False)
class SparsityProfile:
    """Per-Majorana interaction counts: ``degree[c]`` (read-only) terms
    contain Majorana ``c``, and ``max_degree`` is the smallest ``k`` for
    which the Hamiltonian is k-sparse."""

    degree: np.ndarray
    max_degree: int
    weights_present: frozenset[int]


def _read_only(array: np.ndarray, *more: np.ndarray) -> np.ndarray:
    for each in (array, *more):
        each.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class TermIndex:
    """A Hamiltonian's terms as read-only arrays: the one copy it holds.

    ``modes[term_ptr[t]:term_ptr[t + 1]]`` are the Majoranas of term ``t``
    in increasing order, ``coeffs`` and ``weights`` are per term, and
    ``mode_term_ids[mode_ptr[c]:mode_ptr[c + 1]]`` are the ids of the terms
    containing Majorana ``c``, ascending.
    """

    _n_majoranas: int
    term_ptr: np.ndarray
    modes: np.ndarray
    coeffs: np.ndarray
    weights: np.ndarray

    @cached_property
    def mode_ptr(self) -> np.ndarray:
        degree = np.bincount(self.modes, minlength=self._n_majoranas)
        return _read_only(np.concatenate(([0], np.cumsum(degree))))

    @cached_property
    def mode_term_ids(self) -> np.ndarray:
        owner = np.repeat(np.arange(self.weights.size), self.weights)
        return _read_only(owner[np.argsort(self.modes, kind="stable")])

    @cached_property
    def padded(self) -> np.ndarray:
        """``padded[t]``: term ``t``'s Majoranas in increasing order, then -1
        up to the largest weight (at least one column, for lexsort)."""
        n_terms = self.weights.size
        out = np.full((n_terms, int(self.weights.max(initial=1))), -1, dtype=np.intp)
        owner = np.repeat(np.arange(n_terms), self.weights)
        out[owner, np.arange(self.modes.size) - self.term_ptr[owner]] = self.modes
        return _read_only(out)

    @cached_property
    def lex_rank(self) -> np.ndarray:
        """Each term's position when the terms are sorted by index tuple:
        the -1 padding puts a prefix first, as with tuples."""
        rank = np.empty(self.weights.size, dtype=np.intp)
        rank[np.lexsort(self.padded.T[::-1])] = np.arange(self.weights.size)
        return _read_only(rank)

    @cached_property
    def blocks(self) -> tuple[tuple[int, np.ndarray, np.ndarray], ...]:
        """Per weight ``w``, ascending: ``(w, ids, rows)`` with ``ids`` the
        ids of the weight-``w`` terms and ``rows[i]`` the Majoranas of term
        ``ids[i]``."""
        out = []
        for w in np.unique(self.weights).tolist():
            ids = np.flatnonzero(self.weights == w)
            rows = self.modes[self.term_ptr[ids][:, None] + np.arange(w)]
            _read_only(ids, rows)
            out.append((w, ids, rows))
        return tuple(out)


def _check_terms(term_ptr, modes, coeffs):
    """Copies ``(term_ptr, weights, modes, coeffs)`` of a term list with no
    term at fault on its own (odd or zero weight, indices not increasing,
    negative index, non-finite coefficient); else the first term's first
    fault.  An index past int64 keeps ``modes`` an exact object array."""
    term_ptr, coeffs = np.array(term_ptr, dtype=np.intp), np.array(coeffs, dtype=float)
    try:
        modes = np.array(modes, dtype=np.intp)
    except OverflowError:
        modes = np.array(modes, dtype=object)
    weights, n_terms = np.diff(term_ptr), coeffs.size
    ends = term_ptr[:1].tolist() == [0] and term_ptr[-1] == modes.size and modes.ndim == 1
    if not (ends and weights.shape == coeffs.shape and (weights >= 0).all()):
        raise FormatError("malformed", "term_ptr, modes and coeffs do not list one set of terms")
    owner = np.repeat(np.arange(n_terms), weights)
    odd = (weights % 2 == 1) | (weights == 0)
    drop = (modes[1:] <= modes[:-1]) & (owner[1:] == owner[:-1])
    unsorted = np.bincount(owner[1:], drop, minlength=n_terms) > 0
    negative = np.bincount(owner, modes < 0, minlength=n_terms) > 0  # any, when increasing
    bad = odd | unsorted | negative | ~np.isfinite(coeffs)
    if not bad.any():
        return term_ptr, weights, modes, coeffs
    t = int(bad.argmax())
    idx = tuple(modes[term_ptr[t] : term_ptr[t + 1]].tolist())
    if odd[t]:
        raise FormatError("odd-weight", f"term weight must be even and >= 2, got {idx}")
    if unsorted[t] and len(set(idx)) != len(idx):
        raise FormatError("repeated-majorana", f"repeated Majorana in {idx}")
    if unsorted[t]:
        raise FormatError("malformed", f"indices must be strictly increasing, got {idx}")
    if negative[t]:
        raise FormatError("index-range", f"negative Majorana index in {idx}")
    raise FormatError("malformed", f"non-finite coefficient {coeffs[t]}")


def _checked_index(n_modes: int, term_ptr, modes, coeffs) -> TermIndex:
    """A read-only ``TermIndex`` of copies of the arrays, or the first fault
    that reading the terms one by one finds: each term's own, then the mode
    count, then term by term an index out of range or a repeated index set,
    then a sum of |J| past the float range."""
    term_ptr, weights, modes, coeffs = _check_terms(term_ptr, modes, coeffs)
    if n_modes < 1:
        raise FormatError("malformed", f"n_modes must be positive, got {n_modes}")
    m, n_terms = 2 * n_modes, weights.size
    # every index is now >= 0; clipped at m, only the out-of-range terms
    # change, and a duplicate among terms before the first of them is exact
    index = TermIndex(m, term_ptr, np.minimum(modes, m).astype(np.intp), coeffs, weights)
    _read_only(index.term_ptr, index.modes, coeffs, weights)
    first_out = int(np.append(index.modes[term_ptr[1:] - 1] == m, True).argmax())  # n_terms: none
    by_tuple = np.argsort(index.lex_rank)  # equal index sets in term order
    rows = index.padded[by_tuple]
    repeats = by_tuple[1:][(rows[1:] == rows[:-1]).all(axis=1)]
    first_repeat = int(repeats.min(initial=n_terms))
    if first_out < n_terms and first_out <= first_repeat:
        last = modes[term_ptr[first_out + 1] - 1]
        raise FormatError("index-range", f"index {last} out of range for {m} Majoranas")
    if first_repeat < n_terms:
        idx = tuple(index.padded[first_repeat][: weights[first_repeat]].tolist())
        raise FormatError("duplicate-term", f"duplicate index set {idx}")
    with np.errstate(over="ignore"):  # summed as total_strength sums it
        if not np.isfinite(_sum_in_order(np.abs(coeffs))):
            raise FormatError("malformed", "the sum of |J| overflows the float range")
    return index


@dataclass(frozen=True, eq=False, init=False)
class MajoranaHamiltonian:
    """A traceless Hamiltonian ``sum_I J_I C_I`` on ``2 * n_modes`` Majoranas.

    Index sets are pairwise distinct; all indices lie in ``[0, 2*n_modes)``.
    The terms are held once, as the read-only arrays of ``index`` that every
    layer reads, built by ``from_arrays`` and its one validator, into which
    ``MajoranaHamiltonian(n_modes, terms)`` flattens ``InteractionTerm``s.
    ``terms`` is that tuple again, built on first read, for tests and tools.
    """

    n_modes: int
    index: TermIndex

    def __init__(self, n_modes: int, terms: Iterable[InteractionTerm] = ()):
        terms = tuple(terms)
        ptr = np.cumsum([0, *(len(t.indices) for t in terms)])
        modes, coeffs = [i for t in terms for i in t.indices], [t.coeff for t in terms]
        self.__dict__.update(self.from_arrays(n_modes, ptr, modes, coeffs).__dict__)

    @classmethod
    def from_arrays(cls, n_modes: int, term_ptr, modes, coeffs) -> "MajoranaHamiltonian":
        """Term ``t`` is ``modes[term_ptr[t]:term_ptr[t + 1]]`` (increasing)
        with coefficient ``coeffs[t]``; the arrays are copied and checked."""
        ham = cls.__new__(cls)
        index = _checked_index(n_modes, term_ptr, modes, coeffs)
        ham.__dict__.update(n_modes=n_modes, index=index)
        return ham

    def _args(self) -> tuple:
        """The ``from_arrays`` arguments that build this Hamiltonian again."""
        return self.n_modes, self.index.term_ptr, self.index.modes, self.index.coeffs

    def __eq__(self, other):
        if not isinstance(other, MajoranaHamiltonian):
            return NotImplemented
        return all(map(np.array_equal, self._args(), other._args()))

    def __reduce__(self):  # the arrays alone; the derived ones are rebuilt
        return (MajoranaHamiltonian.from_arrays, self._args())

    @property
    def n_majoranas(self) -> int:
        return 2 * self.n_modes

    @property
    def n_terms(self) -> int:
        return self.index.coeffs.size

    @cached_property
    def terms(self) -> tuple[InteractionTerm, ...]:
        ptr, modes, coeffs = (array.tolist() for array in self._args()[1:])
        return tuple(InteractionTerm(tuple(modes[a:b]), c) for a, b, c in zip(ptr, ptr[1:], coeffs))

    @cached_property
    def _profile(self) -> SparsityProfile:
        degree = _read_only(np.diff(self.index.mode_ptr))
        weights = frozenset(np.unique(self.index.weights).tolist())
        return SparsityProfile(degree, int(degree.max()), weights)


def sparsity_profile(ham: MajoranaHamiltonian) -> SparsityProfile:
    """Per-mode degrees, max degree and weight set; built once, shared read-only."""
    return ham._profile


def _sum_in_order(values: np.ndarray) -> float | list[float]:
    """Left-to-right sums from 0.0 along the last axis, a ``+=`` loop's bits on every
    Python (the builtin ``sum`` compensates from 3.12): a float, or a list of them."""
    zero = np.zeros((*values.shape[:-1], 1))
    return np.cumsum(np.concatenate((zero, values), axis=-1), axis=-1)[..., -1].tolist()


def total_strength(ham: MajoranaHamiltonian) -> float:
    """Sum of |J_I| over all terms; an upper bound on the largest eigenvalue."""
    return _sum_in_order(np.abs(ham.index.coeffs))


def _load_json(text: str):
    """``json.loads`` for every reader; any failure, deep nesting too, is malformed."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also integers past the digit limit
        raise FormatError("malformed", f"not valid JSON: {exc}") from exc


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
    """Parse ``{"n_modes": int, "terms": [{"indices": [int...], "coeff": float}...]}``
    with strictly increasing, even-length index lists.  Counts and indices
    must be JSON integers and coefficients JSON numbers; bools, strings and
    fractional indices are rejected, never coerced, and ``n_modes`` is at
    most ``2**17``."""
    doc = _load_json(text)
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
    term_ptr, modes, coeffs = [0], [], []

    def malformed(message: str) -> FormatError:
        # the entries before this one were read first: their own faults come first
        _check_terms(term_ptr, modes, coeffs)
        return FormatError("malformed", message)

    for entry in raw_terms:
        if not isinstance(entry, dict) or "indices" not in entry or "coeff" not in entry:
            raise malformed(f"bad term entry {entry!r}")
        indices, coeff = entry["indices"], entry["coeff"]
        if not isinstance(indices, list) or not all(_is_int(i) for i in indices):
            raise malformed(f"indices must be a list of integers, got {indices!r}")
        if not (_is_int(coeff) or isinstance(coeff, float)):
            raise malformed(f"coefficient must be a number, got {coeff!r}")
        try:
            coeffs.append(float(coeff))
        except OverflowError:
            raise malformed("coefficient out of float range") from None
        modes.extend(indices)
        term_ptr.append(len(modes))
    return MajoranaHamiltonian.from_arrays(n_modes, term_ptr, modes, coeffs)


def _json_list(items: list[str], depth: int) -> str:
    """The text ``json.dumps(..., indent=1)`` gives a list at nesting
    ``depth`` whose items are already written: ``[]`` when it is empty."""
    inner, outer = "\n" + " " * (depth + 1), "\n" + " " * depth
    return "[" + inner + ("," + inner).join(items) + outer + "]" if items else "[]"


def serialize_hamiltonian(ham: MajoranaHamiltonian) -> str:
    """Serialize to the JSON wire format: exactly the text of
    ``json.dumps(doc, indent=1)``, a float written as its ``repr``."""
    ptr, coeffs = ham.index.term_ptr.tolist(), ham.index.coeffs.tolist()
    modes, sep = list(map(str, ham.index.modes.tolist())), ",\n    "
    terms = [
        f'{{\n   "indices": [\n    {sep.join(modes[a:b])}\n   ],\n   "coeff": {c!r}\n  }}'
        for a, b, c in zip(ptr, ptr[1:], coeffs)
    ]
    return f'{{\n "n_modes": {ham.n_modes},\n "terms": {_json_list(terms, 1)}\n}}'
