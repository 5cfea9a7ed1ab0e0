"""Gaussian states as correlation matrices and dimer matchings.

Every Gaussian state is handled through its real antisymmetric correlation
matrix ``gamma`` with ``gamma_ij = (i/2) Tr(rho [c_i, c_j])``; monomial
expectations are Pfaffians of submatrices (Wick's theorem).  Pure matching
states -- a perfect pairing of the ``2n`` Majoranas with a +-1 sign per
dimer -- additionally admit a closed-form expectation rule through the
consistency of the matching with each interaction's support.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .hamiltonian import FormatError, MajoranaHamiltonian, _is_int, _json_list, _load_json
from .hamiltonian import _sum_in_order, canonical_sign

ANTISYM_TOL = 1e-12
SINGVAL_TOL = 1e-9
# heaviest term weight whose Pfaffian is expanded over its (q-1)!! matchings:
# 105 at q=8, 945 at q=10 and about 2 million at q=16
EXPANSION_MAX_WEIGHT = 8


class PfaffianError(ValueError):
    pass


class Matching:
    """A perfect pairing of ``[0, 2n)`` as one read-only array, ``partner[a]``
    the Majorana paired with ``a``; built from pairs in any order, a tuple or
    an (n, 2) array.  Dimer ``d`` is ``dimers[d] = (a, b)``, ``a < b``, in
    increasing ``a``; ``pairs`` lists them as tuples for the JSON edge."""

    __slots__ = ("partner",)

    def __init__(self, pairs):
        pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
        flat, m = pairs.ravel(), pairs.size
        # m values in [0, m), each once: a permutation, so no fixed points either
        if m and not (flat.min() >= 0 and flat.max() < m and (np.bincount(flat) == 1).all()):
            raise ValueError(f"pairs {pairs.tolist()!r:.80} do not perfectly match [0, {m})")
        partner = np.empty(m, dtype=np.intp)
        partner[pairs[:, 0]], partner[pairs[:, 1]] = pairs[:, 1], pairs[:, 0]
        partner.flags.writeable = False
        self.partner = partner

    @property
    def n_majoranas(self) -> int:
        return self.partner.size

    @property
    def dimers(self) -> np.ndarray:
        low = np.flatnonzero(self.partner > np.arange(self.partner.size))
        return np.stack((low, self.partner[low]), axis=1)

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(map(tuple, self.dimers.tolist()))


class SignAssignment:
    """A +-1 sign per dimer of a matching, held as one read-only array:
    ``signs[d]`` is the sign of ``matching.dimers[d]``."""

    __slots__ = ("matching", "signs")

    def __init__(self, matching: Matching, signs):
        raw, n = np.asarray(signs), matching.n_majoranas // 2
        if raw.shape != (n,) or not np.isin(raw, (-1, 1)).all():
            raise ValueError(f"{n} dimers need a sign of +-1 each, got {raw.tolist()!r:.80}")
        self.matching = matching
        self.signs = raw.astype(np.int64)
        self.signs.flags.writeable = False

    @classmethod
    def from_dict(cls, d: dict[tuple[int, int], int]) -> "SignAssignment":
        """The signs ``{(a, b): sign}`` of a perfect pairing, in any order."""
        return signed_matching(list(d), list(d.values()))[1]

    @classmethod
    def all_plus(cls, matching: Matching) -> "SignAssignment":
        return cls(matching, np.ones(matching.n_majoranas // 2, dtype=np.int64))

    def as_dict(self) -> dict[tuple[int, int], int]:
        return dict(zip(self.matching.pairs, self.signs.tolist()))


def signed_matching(pairs, signs) -> tuple[Matching, SignAssignment]:
    """The matching state with these pairs, in any order, and one sign per pair."""
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    matching = Matching(pairs)
    return matching, SignAssignment(matching, np.asarray(signs)[np.argsort(pairs.min(axis=1))])


def _check_state(matching: Matching, signs: SignAssignment, width: int = 0) -> None:
    """The one check of every matching-state reader: ``signs`` signs exactly
    the dimers of ``matching``, and the state spans the reader's ``width``
    Majoranas (a Hamiltonian's, or the modes of a dense state)."""
    if not np.array_equal(signs.matching.partner, matching.partner):
        raise ValueError("sign assignment does not cover the matching")
    if width > matching.n_majoranas:
        raise ValueError(f"Hamiltonian on {width} Majoranas, state on {matching.n_majoranas}")


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
    gather without the gradient, one value per term in term order.  The
    terms are ``TermIndex.blocks`` (or some of them) with the index's
    per-term ``coeffs``.
    """

    def __init__(self, blocks, coeffs: np.ndarray, n_majoranas: int):
        self.m = n_majoranas
        self.n_terms = coeffs.size
        self.blocks = []
        for q, where, idx in blocks:
            coeff = coeffs[where]
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


def pfaffian(mat: np.ndarray) -> float:
    """Pfaffian of a real antisymmetric matrix of even dimension.

    Skew-symmetric tridiagonalization with partial pivoting (Parlett-Reid):
    each 2x2 elimination block gives one factor, each swap flips the sign;
    ``Pf(A)^2 = det(A)``.  Integer-valued inputs run the same elimination over
    exact rationals, so e.g. matching-state submatrices evaluate exactly.
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
    a = (mat - mat.T) / 2
    if m <= 24 and scale <= 2**26 and np.all(mat == np.rint(mat)):
        a = np.frompyfunc(lambda v: Fraction(v) if v else 0, 1, 1)(a)  # zeros: a cheap int 0
    # written so that floats take the float arithmetic bit for bit
    value = 1
    for k in range(0, m - 2, 2):
        kp = k + 1 + int(np.argmax(np.abs(a[k + 1 :, k])))
        if a[kp, k] == 0:
            return 0.0
        if kp != k + 1:
            a[[k + 1, kp], :] = a[[kp, k + 1], :]
            a[:, [k + 1, kp]] = a[:, [kp, k + 1]]
            value = -value
        pivot = a[k, k + 1]
        value *= pivot
        tau = a[k + 2 :, k] / pivot
        coupling = a[k + 2 :, k + 1]
        # the rank-2 skew update of the trailing block (a unit-determinant congruence)
        # is zero if either factor is, as at every step on a matching-state submatrix;
        # floats add it anyway, since its +-0.0 terms can change the sign of a zero
        if a.dtype == object and not (tau.any() and coupling.any()):
            continue
        a[k + 2 :, k + 2 :] += np.outer(coupling, tau) - np.outer(tau, coupling)
    return float(value * a[m - 2, m - 1])


def correlation_from_matching(
    matching: Matching, signs: SignAssignment
) -> CorrelationMatrix:
    """Correlation matrix of the pure matching state: ``gamma_ab = sign(a,b)``."""
    _check_state(matching, signs)
    m = matching.n_majoranas
    gamma = np.zeros((m, m))
    low, high = matching.dimers.T
    gamma[low, high] = signs.signs
    gamma[high, low] = -signs.signs
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
    return pfaffian(corr.gamma[np.ix_(idx, idx)])


def hamiltonian_expectation(corr: CorrelationMatrix, ham: MajoranaHamiltonian) -> float:
    """Tr(H rho) = sum_I J_I Pf(gamma_I), summed in term order.

    Terms up to weight ``EXPANSION_MAX_WEIGHT`` take their Pfaffians from
    the matching expansion, one gather per weight block of ``ham.index``;
    heavier terms take ``pfaffian`` one at a time.
    """
    if ham.n_majoranas > corr.n_majoranas:
        raise ValueError(f"Hamiltonian on {ham.n_majoranas} Majoranas, state on {corr.n_majoranas}")
    index = ham.index
    expanded = [block for block in index.blocks if block[0] <= EXPANSION_MAX_WEIGHT]
    pfs = _TermEvaluator(expanded, index.coeffs, corr.n_majoranas).pfaffians(corr.gamma)
    for t in np.flatnonzero(index.weights > EXPANSION_MAX_WEIGHT).tolist():
        pfs[t] = monomial_expectation(corr, index.padded[t, : index.weights[t]])
    return _sum_in_order(index.coeffs * pfs)


def classify_consistency(matching: Matching, indices: Sequence[int]) -> ConsistencyVerdict:
    """Check whether the matching pairs the support ``I`` within itself.

    If it does, return the induced inner pairing and the parity sign of the
    permutation taking sorted ``I`` to pair-adjacent order.
    """
    idx = sorted(int(i) for i in indices)
    if len(idx) % 2 != 0:
        raise ValueError(f"support must have even size, got {idx}")
    if idx and not 0 <= idx[0] <= idx[-1] < matching.n_majoranas:
        return ConsistencyVerdict(consistent=False)
    support = set(idx)
    inner = []
    for i, j in zip(idx, matching.partner[idx].tolist()):
        if j not in support:
            return ConsistencyVerdict(consistent=False)
        if i < j:
            inner.append((i, j))
    # permutation of positions within sorted(I): pair-adjacent order
    pos = {v: p for p, v in enumerate(idx)}
    flattened = [pos[v] for pair in inner for v in pair]
    _, sign = canonical_sign(flattened)
    return ConsistencyVerdict(consistent=True, inner_pairs=tuple(inner), sign=sign)


def _inner_pairs(partner: np.ndarray, ids: np.ndarray, rows: np.ndarray):
    """The terms of one ``TermIndex`` weight block that the matching pairs
    within themselves, as ``(ids, rows, opener, closer)``: the inner pairs
    of term ``ids[t]`` are its Majoranas at positions ``opener[t, p] <
    closer[t, p]``, in increasing ``opener``.  One gather of the partner
    array decides the whole block."""
    w = rows.shape[1]
    # at[t, i, j]: the partner of the term's i-th Majorana is its j-th
    at = partner[rows][:, :, None] == rows[:, None, :]
    ok = at.any(axis=2).all(axis=1)
    position = at[ok].argmax(axis=2)
    opener = np.nonzero(position > np.arange(w))[1].reshape(-1, w // 2)
    return ids[ok], rows[ok], opener, np.take_along_axis(position, opener, axis=1)


def matching_state_expectation(
    matching: Matching, signs: SignAssignment, ham: MajoranaHamiltonian
) -> float:
    """Tr(H rho(M, signs)) via the closed form over consistent terms.

    Inconsistent terms vanish identically; a consistent term contributes
    ``J * sign(pi) * prod(dimer signs on its support)``.  Per weight, one
    gather of the partner and dimer-sign arrays decides every term: a term
    is consistent when each of its Majoranas' partners lies in the term,
    and ``sign(pi)`` is the parity of the inversions of the pair-adjacent
    order of its positions.  The contributions, each exactly ``+-J``, are
    summed one after another in term order.
    """
    _check_state(matching, signs, ham.n_majoranas)
    partner = matching.partner
    # each dimer's sign at its lower Majorana, the one a term's gather reads
    dimer_sign = np.zeros(partner.size, dtype=np.int64)
    dimer_sign[partner > np.arange(partner.size)] = signs.signs

    index = ham.index
    contribution = np.zeros(index.coeffs.size)  # +0.0 leaves a running sum's bits alone
    for w, ids, rows in index.blocks:
        ids, rows, opener, closer = _inner_pairs(partner, ids, rows)
        order = np.stack((opener, closer), axis=2).reshape(-1, w)
        later = np.triu(np.ones((w, w), dtype=bool), 1)
        inversions = ((order[:, :, None] > order[:, None, :]) & later).sum(axis=(1, 2))
        sign = dimer_sign[np.take_along_axis(rows, opener, axis=1)]
        value = (1 - 2 * (inversions & 1)) * sign.prod(axis=1)
        contribution[ids] = index.coeffs[ids] * value
    return _sum_in_order(contribution)


def assign_signs(matching: Matching, ham: MajoranaHamiltonian, ids) -> SignAssignment:
    """Pick dimer signs so every target term ``ids`` of ``ham`` gives ``+|J|``.

    Target supports must be pairwise disjoint and each consistent with the
    matching; at most one dimer per target is flipped (its lowest pair).
    Pairs not touched by any target keep the sign +1; a target finds its
    dimers at +1, so it flips when its parity and the sign of J disagree.
    """
    index, ids = ham.index, np.asarray(ids, dtype=np.intp).reshape(-1)
    used: set[int] = set()
    flipped = []  # the lower Majorana of each flipped dimer
    for row, coeff in zip(index.padded[ids].tolist(), index.coeffs[ids].tolist()):
        indices = tuple(i for i in row if i >= 0)
        if used & set(indices):
            raise ValueError("targets not disjoint")
        used.update(indices)
        verdict = classify_consistency(matching, indices)
        if not verdict.consistent:
            raise ValueError(f"target {indices} is inconsistent with the matching")
        if coeff != 0.0 and verdict.sign * (1 if coeff > 0 else -1) < 0:
            flipped.append(verdict.inner_pairs[0][0])
    values = np.ones(matching.n_majoranas // 2, dtype=np.int64)
    values[np.searchsorted(matching.dimers[:, 0], flipped)] = -1
    return SignAssignment(matching, values)


def state_to_json(matching: Matching, signs: SignAssignment) -> str:
    """Matching-form state document: pairs with their dimer signs."""
    _check_state(matching, signs)
    # the text of json.dumps(doc, indent=1), written directly
    pairs = _json_list([f"[\n   {a},\n   {b}\n  ]" for a, b in matching.dimers.tolist()], 1)
    signs_text = _json_list(list(map(str, signs.signs.tolist())), 1)
    n_modes = matching.n_majoranas // 2
    return f'{{\n "n_modes": {n_modes},\n "pairs": {pairs},\n "signs": {signs_text}\n}}'


def state_from_json(text: str) -> tuple[Matching, SignAssignment]:
    """Parse what ``state_to_json`` writes: a JSON integer ``n_modes`` and that
    many pairs ``a < b`` of JSON integers, pairing ``[0, 2 n_modes)``, each with
    a sign, the integer 1 or -1 (not a bool); else ``FormatError("malformed")``."""
    doc = _load_json(text)
    if not (
        isinstance(doc, dict)
        and _is_int(n_modes := doc.get("n_modes"))
        and isinstance(pairs := doc.get("pairs"), list)
        and isinstance(signs := doc.get("signs"), list)
        and len(pairs) == len(signs) == n_modes
        and all(isinstance(p, list) and len(p) == 2 and all(map(_is_int, p)) for p in pairs)
        and all(p[0] < p[1] for p in pairs)
        and all(_is_int(s) and s in (-1, 1) for s in signs)
    ):
        raise FormatError("malformed", "a state needs n_modes pairs a<b of integers, signs +-1")
    try:  # an index past int64, or pairs that are not one pairing
        return signed_matching(pairs, signs)
    except (OverflowError, ValueError):
        raise FormatError("malformed", f"pairs do not pair [0, {2 * n_modes}) perfectly") from None


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
