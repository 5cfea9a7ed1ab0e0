"""Gaussian states as correlation matrices and dimer matchings.

Every Gaussian state is handled through its real antisymmetric correlation
matrix ``gamma`` with ``gamma_ij = (i/2) Tr(rho [c_i, c_j])``; monomial
expectations are Pfaffians of submatrices (Wick's theorem).  Pure matching
states -- a perfect pairing of the ``2n`` Majoranas with a +-1 sign per
dimer -- additionally admit a closed-form expectation rule through the
consistency of the matching with each interaction's support.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .hamiltonian import (
    FormatError,
    InteractionTerm,
    MajoranaHamiltonian,
    _is_int,
    canonical_sign,
)

ANTISYM_TOL = 1e-12
SINGVAL_TOL = 1e-9
# heaviest term weight whose Pfaffian is expanded over its (q-1)!! matchings:
# 105 at q=8, 945 at q=10 and about 2 million at q=16
EXPANSION_MAX_WEIGHT = 8


class PfaffianError(ValueError):
    pass


@dataclass(frozen=True)
class Matching:
    """A perfect pairing of ``[0, 2n)``; pairs are ordered ``a < b``."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        pairs = tuple(sorted((min(a, b), max(a, b)) for a, b in self.pairs))
        object.__setattr__(self, "pairs", pairs)
        flat = [i for p in pairs for i in p]
        if sorted(flat) != list(range(len(flat))):
            raise ValueError(f"pairs {pairs} do not perfectly match [0, {len(flat)})")

    @property
    def n_majoranas(self) -> int:
        return 2 * len(self.pairs)

    @cached_property
    def _partners(self) -> dict[int, int]:
        # built once per matching; read-only, every closed-form term reads it
        out = {}
        for a, b in self.pairs:
            out[a] = b
            out[b] = a
        return out


@dataclass(frozen=True)
class SignAssignment:
    """A +-1 sign per dimer of a matching."""

    signs: tuple[tuple[tuple[int, int], int], ...]

    @classmethod
    def from_dict(cls, d: dict[tuple[int, int], int]) -> "SignAssignment":
        return cls(tuple(sorted((pair, int(s)) for pair, s in d.items())))

    @classmethod
    def all_plus(cls, matching: Matching) -> "SignAssignment":
        return cls.from_dict({p: 1 for p in matching.pairs})

    def as_dict(self) -> dict[tuple[int, int], int]:
        return {pair: s for pair, s in self.signs}


@dataclass(frozen=True)
class ConsistencyVerdict:
    """Whether a matching restricted to a support is a perfect pairing of it.

    For a consistent verdict, ``inner_pairs`` is the induced pairing of the
    support and ``sign`` the parity of the permutation that brings the
    sorted support into pair-adjacent order.
    """

    consistent: bool
    inner_pairs: tuple[tuple[int, int], ...] = ()
    sign: int = 0


class CorrelationMatrix:
    """The 2n x 2n real antisymmetric correlation matrix of a Gaussian state.

    Inputs are symmetrized (``(g - g.T) / 2``) after checking that the
    antisymmetry defect stays below ``1e-12``.  Validity requires all
    singular values <= 1 and the Frobenius bound ``sum_{i<j} g_ij^2 <= n``.
    For antisymmetric ``g`` the largest singular value is at most the
    largest absolute row sum, so the SVD runs only when that sum exceeds
    ``1 + 1e-9``: matching states and their conditioned states pass in
    O(n^2), while a rotated pure state still gets the SVD.
    """

    def __init__(self, gamma: np.ndarray):
        gamma = np.asarray(gamma, dtype=float)
        if gamma.ndim != 2 or gamma.shape[0] != gamma.shape[1]:
            raise ValueError(f"correlation matrix must be square, got {gamma.shape}")
        if gamma.shape[0] % 2 != 0:
            raise ValueError("correlation matrix needs an even number of Majoranas")
        # gamma.T is read once and the passes reuse its buffer: at m in the
        # hundreds a strided read or a fresh temporary costs more than the arithmetic
        transposed = gamma.T.copy()
        scratch = gamma + transposed
        defect = np.abs(scratch, out=scratch).max() if gamma.size else 0.0
        if not defect <= ANTISYM_TOL:  # NaN fails too
            raise ValueError(f"antisymmetry defect {defect:g} exceeds {ANTISYM_TOL:g}")
        gamma = np.subtract(gamma, transposed, out=scratch)
        gamma /= 2.0
        # ||g||_1 = ||g||_inf for antisymmetric g, so sigma_max <= max row sum
        if gamma.size and np.abs(gamma, out=transposed).sum(axis=1).max() > 1.0 + SINGVAL_TOL:
            svals = np.linalg.svd(gamma, compute_uv=False)
            if svals[0] > 1.0 + SINGVAL_TOL:
                raise ValueError(f"singular value {svals[0]:.12g} exceeds 1")
        n = gamma.shape[0] // 2
        del transposed  # before the Frobenius pass takes its own buffer
        upper = np.triu(gamma, 1)
        frob = float(np.sum(np.square(upper, out=upper)))
        if frob > n + SINGVAL_TOL:
            raise ValueError(f"Frobenius weight {frob:g} exceeds n={n}")
        self.gamma = gamma

    @property
    def n_majoranas(self) -> int:
        return self.gamma.shape[0]


def _signed_matchings(q: int) -> list[tuple[float, tuple[tuple[int, int], ...]]]:
    """The ``(q-1)!!`` perfect matchings of positions ``0..q-1`` with their
    Pfaffian signs, position 0 paired with 1, 2, ... in turn."""
    if q == 0:
        return [(1.0, ())]
    out = []
    for j in range(1, q):
        rest = [p for p in range(1, q) if p != j]
        for sign, pairs in _signed_matchings(q - 2):
            matched = tuple((rest[a], rest[b]) for a, b in pairs)
            out.append(((-1.0) ** (j - 1) * sign, ((0, j), *matched)))
    return out


def _block_pfaffians(signs: np.ndarray, g: np.ndarray) -> np.ndarray:
    """One Pfaffian per term from its gathered entries ``g`` (matching, pair,
    term): ``sum_M sgn(M) prod_{(a,b) in M} gamma_ab``."""
    return (signs * g.prod(axis=1)).sum(axis=0)


class _TermEvaluator:
    """E = sum_T J_T Pf(gamma_T) with its gradient, for terms of any even weight.

    ``Pf(gamma_T) = sum_M sgn(M) prod_{(a,b) in M} gamma_ab`` over the perfect
    matchings M of T, so ``d Pf / d gamma_ab`` is ``sgn(M)`` times the product
    over M's other pairs, finite where Pf vanishes.  Per weight, every pair of
    every matching of every term is one flat index into gamma: a call gathers
    each weight once and scatters the whole gradient with one bincount, in
    the order (weight, matching, pair, term).  ``pfaffians`` is the same
    gather without the gradient, one value per term in term order.
    """

    def __init__(self, terms: tuple[InteractionTerm, ...], n_majoranas: int):
        self.m = n_majoranas
        self.n_terms = len(terms)
        self.blocks = []
        for q in sorted({t.weight for t in terms}):
            where = np.array([i for i, t in enumerate(terms) if t.weight == q], dtype=np.intp)
            idx = np.array([terms[i].indices for i in where], dtype=np.intp)
            coeff = np.array([terms[i].coeff for i in where])
            signs, pairs = zip(*_signed_matchings(q))
            signs = np.array(signs)[:, None]
            pos = np.array(pairs)  # (matching, pair, 2) positions in a term
            flat = (idx[:, pos[..., 0]] * self.m + idx[:, pos[..., 1]]).transpose(1, 2, 0)
            half = range(q // 2)
            others = np.array([[j for j in half if j != k] for k in half], dtype=np.intp)
            self.blocks.append((flat, coeff, signs, signs * coeff, others, where))
        self.flat = np.concatenate([b[0].ravel() for b in self.blocks] + [np.zeros(0, np.intp)])

    def pfaffians(self, gamma: np.ndarray) -> np.ndarray:
        """``Pf(gamma_T)`` for every term, in term order: one gather per weight."""
        out = np.empty(self.n_terms)
        for flat, _, signs, _, _, where in self.blocks:
            out[where] = _block_pfaffians(signs, gamma.take(flat))
        return out

    def __call__(self, gamma: np.ndarray) -> tuple[float, np.ndarray]:
        energy = 0.0
        weights = np.empty(self.flat.size)
        start = 0
        for flat, coeff, signs, signed_coeff, others, _ in self.blocks:
            g = gamma.take(flat)  # (matching, pair, term)
            # signs before coefficients: at weight 4 this is the arithmetic of
            # c @ (g01*g23 - g02*g13 + g03*g12), bit for bit
            energy += float(coeff @ _block_pfaffians(signs, g))
            partner = g[:, others].prod(axis=2)  # product over the matching's other pairs
            weights[start : start + g.size] = (signed_coeff[:, None, :] * partner).ravel()
            start += g.size
        grad = np.bincount(self.flat, weights=weights, minlength=self.m * self.m)
        grad = grad.reshape(self.m, self.m)
        return energy, grad - grad.T


def _pfaffian_exact_int(mat: np.ndarray) -> float:
    """Same elimination over exact rationals; for integer-valued inputs."""
    from fractions import Fraction

    m = mat.shape[0]
    a = [[Fraction(int(v)) for v in row] for row in np.rint(mat).astype(np.int64)]
    value = Fraction(1)
    for k in range(0, m - 2, 2):
        kp = max(range(k + 1, m), key=lambda r: abs(a[r][k]))
        if a[kp][k] == 0:
            return 0.0
        if kp != k + 1:
            a[k + 1], a[kp] = a[kp], a[k + 1]
            for row in a:
                row[k + 1], row[kp] = row[kp], row[k + 1]
            value = -value
        pivot = a[k][k + 1]
        value *= pivot
        tau = [a[i][k] / pivot for i in range(k + 2, m)]
        coupling = [a[i][k + 1] for i in range(k + 2, m)]
        for i in range(k + 2, m):
            ci, ti = coupling[i - k - 2], tau[i - k - 2]
            if ci == 0 and ti == 0:
                continue
            for j in range(k + 2, m):
                a[i][j] += ci * tau[j - k - 2] - ti * coupling[j - k - 2]
    return float(value * a[m - 2][m - 1])


def pfaffian(mat: np.ndarray) -> float:
    """Pfaffian of a real antisymmetric matrix of even dimension.

    Skew-symmetric tridiagonalization with partial pivoting; each 2x2
    elimination block contributes one factor, row/column swaps flip the
    sign.  ``Pf(A)^2 = det(A)``.  Integer-valued inputs take an exact
    rational path, so e.g. matching-state submatrices evaluate exactly.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise PfaffianError(f"matrix must be square, got {mat.shape}")
    m = mat.shape[0]
    if m % 2 != 0:
        raise PfaffianError(f"Pfaffian needs even dimension, got {m}")
    if m == 0:
        return 1.0
    scale = np.max(np.abs(mat)) or 1.0
    if np.max(np.abs(mat + mat.T)) > 100 * ANTISYM_TOL * scale:
        raise PfaffianError("matrix is not antisymmetric")
    if m <= 24 and scale <= 2**26 and np.all(mat == np.rint(mat)):
        return _pfaffian_exact_int(mat)
    a = (mat - mat.T) / 2.0
    value = 1.0
    for k in range(0, m - 2, 2):
        col = np.abs(a[k + 1 :, k])
        kp = k + 1 + int(np.argmax(col))
        if a[kp, k] == 0.0:
            return 0.0
        if kp != k + 1:
            a[[k + 1, kp], :] = a[[kp, k + 1], :]
            a[:, [k + 1, kp]] = a[:, [kp, k + 1]]
            value = -value
        pivot = a[k, k + 1]
        value *= pivot
        tail = a[k + 2 :, k]
        coupling = a[k + 2 :, k + 1]
        tau = tail / pivot
        # rank-2 skew update of the trailing block (congruence by the
        # eliminating Gauss transform, unit determinant)
        a[k + 2 :, k + 2 :] += np.outer(coupling, tau) - np.outer(tau, coupling)
    return float(value * a[m - 2, m - 1])


def correlation_from_matching(
    matching: Matching, signs: SignAssignment
) -> CorrelationMatrix:
    """Correlation matrix of the pure matching state: ``gamma_ab = sign(a,b)``."""
    m = matching.n_majoranas
    gamma = np.zeros((m, m))
    sd = signs.as_dict()
    if set(sd) != set(matching.pairs):
        raise ValueError("sign assignment does not cover the matching")
    for (a, b), s in sd.items():
        gamma[a, b] = s
        gamma[b, a] = -s
    return CorrelationMatrix(gamma)


def monomial_expectation(corr: CorrelationMatrix, indices: Sequence[int]) -> float:
    """Tr(C_I rho) = Pf of the submatrix of gamma on the ordered support I."""
    idx = sorted(int(i) for i in indices)
    if len(idx) % 2 != 0:
        raise PfaffianError(f"monomial support must be even, got {idx}")
    if len(set(idx)) != len(idx):
        raise FormatError("repeated-majorana", f"repeated Majorana in {idx}")
    if len(idx) == 0:
        return 1.0
    sub = corr.gamma[np.ix_(idx, idx)]
    return pfaffian(sub)


def hamiltonian_expectation(corr: CorrelationMatrix, ham: MajoranaHamiltonian) -> float:
    """Tr(H rho) = sum_I J_I Pf(gamma_I), summed in term order.

    Terms up to weight ``EXPANSION_MAX_WEIGHT`` take their Pfaffians from
    the matching expansion, one gather per weight; heavier terms take
    ``pfaffian`` one at a time.
    """
    if ham.n_majoranas > corr.n_majoranas:
        raise ValueError(
            f"Hamiltonian on {ham.n_majoranas} Majoranas, state on {corr.n_majoranas}"
        )
    expanded = tuple(t for t in ham.terms if t.weight <= EXPANSION_MAX_WEIGHT)
    pfs = iter(_TermEvaluator(expanded, corr.n_majoranas).pfaffians(corr.gamma).tolist())
    total = 0.0
    for t in ham.terms:
        if t.weight <= EXPANSION_MAX_WEIGHT:
            total += t.coeff * next(pfs)
        else:
            total += t.coeff * monomial_expectation(corr, t.indices)
    return total


def classify_consistency(matching: Matching, indices: Sequence[int]) -> ConsistencyVerdict:
    """Check whether the matching pairs the support ``I`` within itself.

    If it does, return the induced inner pairing and the parity sign of the
    permutation taking sorted ``I`` to pair-adjacent order.
    """
    idx = sorted(int(i) for i in indices)
    if len(idx) % 2 != 0:
        raise ValueError(f"support must have even size, got {idx}")
    support = set(idx)
    partner = matching._partners
    inner = []
    for i in idx:
        j = partner.get(i)
        if j is None or j not in support:
            return ConsistencyVerdict(consistent=False)
        if i < j:
            inner.append((i, j))
    # permutation of positions within sorted(I): pair-adjacent order
    pos = {v: p for p, v in enumerate(idx)}
    flattened = [pos[v] for pair in inner for v in pair]
    _, sign = canonical_sign(flattened)
    return ConsistencyVerdict(consistent=True, inner_pairs=tuple(inner), sign=sign)


def matching_state_expectation(
    matching: Matching, signs: SignAssignment, ham: MajoranaHamiltonian
) -> float:
    """Tr(H rho(M, signs)) via the closed form over consistent terms.

    Inconsistent terms vanish identically; a consistent term contributes
    ``J * sign(pi) * prod(dimer signs on its support)``.
    """
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


def assign_signs(matching: Matching, targets: Iterable[InteractionTerm]) -> SignAssignment:
    """Pick dimer signs so every target term contributes ``+|J|``.

    Target supports must be pairwise disjoint and each consistent with the
    matching; at most one dimer per target is flipped (its lowest pair).
    Pairs not touched by any target keep the sign +1.
    """
    sd = SignAssignment.all_plus(matching).as_dict()
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


def state_to_json(matching: Matching, signs: SignAssignment) -> str:
    """Matching-form state document: pairs with their dimer signs."""
    sd = signs.as_dict()
    doc = {
        "n_modes": matching.n_majoranas // 2,
        "pairs": [list(p) for p in matching.pairs],
        "signs": [sd[p] for p in matching.pairs],
    }
    return json.dumps(doc, indent=1)


def state_from_json(text: str) -> tuple[Matching, SignAssignment]:
    """Parse what ``state_to_json`` writes: a JSON integer ``n_modes``, pairs
    of JSON integers in increasing order and one sign per pair, the integer
    1 or -1 (a bool is not an integer here); else ``FormatError("malformed")``."""
    doc = json.loads(text)
    if not (
        isinstance(doc, dict)
        and _is_int(n_modes := doc.get("n_modes"))
        and isinstance(pairs := doc.get("pairs"), list)
        and isinstance(signs := doc.get("signs"), list)
        and len(pairs) == len(signs)
        and all(isinstance(p, list) and len(p) == 2 and all(map(_is_int, p)) for p in pairs)
        and all(p[0] < p[1] for p in pairs)
        and all(_is_int(s) and s in (-1, 1) for s in signs)
    ):
        raise FormatError("malformed", "a state needs integer n_modes, pairs a<b, one sign +-1 each")
    matching = Matching(tuple(map(tuple, pairs)))
    if matching.n_majoranas != 2 * n_modes:
        raise FormatError("malformed", "pairs do not cover the declared mode count")
    return matching, SignAssignment.from_dict(dict(zip(map(tuple, pairs), signs)))


def condition_on_dimer(
    corr: CorrelationMatrix, a: int, b: int, outcome: int
) -> tuple[float, CorrelationMatrix]:
    """Measure the dimer ``i c_a c_b`` and condition on the outcome.

    ``a, b`` must be the two highest modes.  Returns the outcome probability
    ``(1 + s*gamma_ab)/2`` and the conditional Gaussian state on the
    remaining Majoranas via the skew Schur-complement update
    ``gamma' = A - s/(2p) * B Omega B^T``.
    """
    if outcome not in (-1, 1):
        raise ValueError(f"outcome must be +-1, got {outcome}")
    m = corr.n_majoranas
    if {a, b} != {m - 2, m - 1}:
        raise ValueError(f"measured dimer must be the two highest Majoranas, got {(a, b)}")
    a, b = m - 2, m - 1
    g = corr.gamma
    d = g[a, b]
    prob = (1.0 + outcome * d) / 2.0
    if prob <= 1e-14:
        raise ValueError("impossible outcome")
    block = g[: m - 2, : m - 2]
    coupling = g[: m - 2, [a, b]]
    omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
    update = coupling @ omega @ coupling.T
    conditional = block - (outcome / (2.0 * prob)) * update
    conditional = (conditional - conditional.T) / 2.0
    return float(prob), CorrelationMatrix(conditional)
