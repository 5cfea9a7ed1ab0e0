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
    canonical_sign,
)

ANTISYM_TOL = 1e-12
SINGVAL_TOL = 1e-9


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

    def partner_map(self) -> dict[int, int]:
        return dict(self._partners)


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
    """

    def __init__(self, gamma: np.ndarray):
        gamma = np.asarray(gamma, dtype=float)
        if gamma.ndim != 2 or gamma.shape[0] != gamma.shape[1]:
            raise ValueError(f"correlation matrix must be square, got {gamma.shape}")
        if gamma.shape[0] % 2 != 0:
            raise ValueError("correlation matrix needs an even number of Majoranas")
        defect = np.max(np.abs(gamma + gamma.T)) if gamma.size else 0.0
        if defect > ANTISYM_TOL:
            raise ValueError(f"antisymmetry defect {defect:g} exceeds {ANTISYM_TOL:g}")
        gamma = (gamma - gamma.T) / 2.0
        svals = np.linalg.svd(gamma, compute_uv=False)
        if svals.size and svals[0] > 1.0 + SINGVAL_TOL:
            raise ValueError(f"singular value {svals[0]:.12g} exceeds 1")
        n = gamma.shape[0] // 2
        frob = float(np.sum(np.triu(gamma, 1) ** 2))
        if frob > n + SINGVAL_TOL:
            raise ValueError(f"Frobenius weight {frob:g} exceeds n={n}")
        self.gamma = gamma

    @property
    def n_majoranas(self) -> int:
        return self.gamma.shape[0]

    @property
    def n_modes(self) -> int:
        return self.gamma.shape[0] // 2


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


def pfaffian(mat: np.ndarray, overwrite: bool = False) -> float:
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
    a = mat if overwrite else mat.copy()
    a = (a - a.T) / 2.0
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
    return pfaffian(sub, overwrite=True)


def hamiltonian_expectation(corr: CorrelationMatrix, ham: MajoranaHamiltonian) -> float:
    """Tr(H rho) = sum_I J_I Pf(gamma_I)."""
    total = 0.0
    for t in ham.terms:
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


def assign_signs(
    matching: Matching,
    targets: Iterable[InteractionTerm],
    base: SignAssignment | None = None,
) -> SignAssignment:
    """Pick dimer signs so every target term contributes ``+|J|``.

    Target supports must be pairwise disjoint and each consistent with the
    matching; at most one dimer per target is flipped (its lowest pair).
    Pairs not touched by any target keep their ``base`` sign (default +1).
    """
    sd = SignAssignment.all_plus(matching).as_dict() if base is None else base.as_dict()
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


def correlation_to_json(corr: CorrelationMatrix) -> str:
    """General-form state document: the full correlation matrix, row-major."""
    doc = {
        "n_modes": corr.n_modes,
        "gamma": [[float(v) for v in row] for row in corr.gamma],
    }
    return json.dumps(doc, indent=1)


def state_from_json(text: str):
    """Parse either state form.

    Returns ``(matching, signs)`` for the matching form and a
    ``CorrelationMatrix`` for the general form.
    """
    doc = json.loads(text)
    if "pairs" in doc:
        matching = Matching(tuple(tuple(p) for p in doc["pairs"]))
        signs = SignAssignment.from_dict(
            {tuple(p): int(s) for p, s in zip(doc["pairs"], doc["signs"])}
        )
        if matching.n_majoranas != 2 * doc["n_modes"]:
            raise ValueError("pairs do not cover the declared mode count")
        return matching, signs
    if "gamma" in doc:
        return CorrelationMatrix(np.array(doc["gamma"], dtype=float))
    raise ValueError("state document carries neither 'pairs' nor 'gamma'")


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
