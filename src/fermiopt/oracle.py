"""Exact brute-force backends: grouped Pauli sums, eigenvalues, sweeps.

Everything here works at matrix level and exists to check the closed-form
machinery elsewhere in the package.  Majorana operators are realized as
Jordan-Wigner Pauli strings; a string is held as ``(x_mask, z_mask, scalar)``
acting on basis state ``|b>`` by ``scalar * (-1)^{popcount(b & z)} |b ^ x>``.
Every operator is built as one Pauli sum: its strings computed by array
operations, grouped by X mask, with each group's phases summed once into a
coefficient vector.  Dense matrices, matrix-free products, dimer states and
traces all read that one form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import CorrelationMatrix, Matching, SignAssignment, _check_state, _TermEvaluator
from .hamiltonian import MajoranaHamiltonian, _sum_in_order

DENSE_OP_MODE_BUDGET = 13
DENSE_EIG_MODE_BUDGET = 10
ITER_EIG_MODE_BUDGET = 16

_UNITS = np.array([1, 1j, -1, -1j])  # i^p for p = 0..3
_BLOCK_ELEMENTS = 1 << 16  # bound on the (terms x rows) phase block of one group
_DIMER_BLOCK = 64  # rows per aligned block updated at once by dense_dimer_state


class BudgetError(ValueError):
    """The requested dense/iterative computation exceeds the size budget."""


@dataclass(frozen=True)
class DenseOperator:
    """A dense matrix realization on ``2**n_modes`` dimensions."""

    n_modes: int
    matrix: np.ndarray


def _strings(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pauli strings of the Majorana products ``c_{r0} c_{r1} ...``, one per
    row of the ``(m, w)`` index array: X masks, Z masks and powers of i.

    ``c_i`` is ``X`` on qubit ``i // 2`` (times ``i`` for odd ``i``) after a
    ``Z`` string on the qubits below.  Each factor picks up a sign for every
    earlier Z that it meets on its qubit.
    """
    qubit = rows >> 1
    odd = rows & 1
    bit = 1 << qubit
    z_each = (bit - 1) | (odd << qubit)
    z_prefix = np.bitwise_xor.accumulate(z_each, axis=1)
    flips = ((z_prefix[:, :-1] >> qubit[:, 1:]) & 1).sum(axis=1)
    return np.bitwise_xor.reduce(bit, axis=1), z_prefix[:, -1], odd.sum(axis=1) + 2 * flips


def _pauli_sum(x, z, scalars, n_modes: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Group the strings ``(x[t], z[t], scalars[t])`` by X mask.

    Returns one ``(cols, coef)`` pair per distinct mask, in first-seen order:
    row ``r`` of the operator holds ``coef[r]`` in column ``cols[r] = r ^ x``.
    Each group adds its terms' phase rows in term order, one after another,
    so a coefficient is the same running sum as a per-term loop.
    """
    rows = np.arange(2**n_modes, dtype=np.uint32)
    masks, first, group = np.unique(x, return_index=True, return_inverse=True)
    members = np.argsort(group, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(group, minlength=masks.size))))
    z = np.asarray(z, dtype=np.uint32)
    chunk = max(1, _BLOCK_ELEMENTS // rows.size)
    out = []
    for g in np.argsort(first).tolist():
        cols = rows ^ np.uint32(masks[g])
        coef = np.zeros(rows.size, dtype=complex)
        ids = members[bounds[g] : bounds[g + 1]]
        for lo in range(0, ids.size, chunk):
            part = ids[lo : lo + chunk]
            parity = np.bitwise_count(cols & z[part, None]) & 1
            block = np.empty((part.size + 1, rows.size), dtype=complex)
            block[0] = coef
            np.multiply(scalars[part, None], 1.0 - 2.0 * parity.astype(np.float64), out=block[1:])
            # over axis 0 of a C-contiguous block numpy adds row by row (it
            # sums pairwise only along the contiguous axis): the running sum
            coef = np.add.reduce(block, axis=0)
        out.append((cols, coef))
    return out


def _hamiltonian_sum(ham: MajoranaHamiltonian) -> list[tuple[np.ndarray, np.ndarray]]:
    """Pauli sum of ``sum_I J_I C_I``, strings built one weight block at a time."""
    index = ham.index
    x, z, power = (np.zeros(ham.n_terms, dtype=np.int64) for _ in range(3))
    for w, ids, rows in index.blocks:
        x[ids], z[ids], power[ids] = _strings(rows)
        power[ids] += w // 2  # C_I = i^{q/2} c_{i1} ... c_{iq}
    return _pauli_sum(x, z, index.coeffs * _UNITS[power & 3], ham.n_modes)


def _string_matrix(pauli_sum, n_modes: int) -> np.ndarray:
    """Dense matrix of a Pauli sum on ``n_modes`` qubits."""
    dim = 2**n_modes
    rows = np.arange(dim)
    mat = np.zeros((dim, dim), dtype=complex)
    for cols, coef in pauli_sum:
        mat[rows, cols] = coef
    return mat


def _apply_string(pauli_sum, vec: np.ndarray, out: np.ndarray) -> None:
    """``out += P @ vec`` for the Pauli sum ``P``, one gather per X mask.

    Each gather is a copy taken before ``out`` changes, so a one-group sum
    may update ``vec`` in place.
    """
    for cols, coef in pauli_sum:
        out += vec[cols] * coef


def dense_hamiltonian(ham: MajoranaHamiltonian) -> DenseOperator:
    """Dense matrix of the full Hamiltonian."""
    if ham.n_modes > DENSE_OP_MODE_BUDGET:
        raise BudgetError(f"dense path capped at {DENSE_OP_MODE_BUDGET} modes")
    return DenseOperator(ham.n_modes, _string_matrix(_hamiltonian_sum(ham), ham.n_modes))


def expm(mat: np.ndarray) -> np.ndarray:
    """scipy's matrix exponential, imported on the first call: importing this
    module loads neither ``scipy.linalg`` nor ``scipy.sparse.linalg``."""
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(mat)


def matvec_operator(ham: MajoranaHamiltonian):
    """Matrix-free action of H on state vectors, from one Pauli sum built up
    front, as a scipy ``LinearOperator``."""
    from scipy.sparse.linalg import LinearOperator

    dim = 2**ham.n_modes
    pauli_sum = _hamiltonian_sum(ham)

    def matvec(vec: np.ndarray) -> np.ndarray:
        out = np.zeros(dim, dtype=complex)
        _apply_string(pauli_sum, np.asarray(vec, dtype=complex).reshape(dim), out)
        return out

    return LinearOperator((dim, dim), matvec=matvec, dtype=complex)


def lambda_max_exact(ham: MajoranaHamiltonian, method: str = "auto") -> float:
    """Largest eigenvalue of H, dense (<=10 modes) or Lanczos (<=16 modes)."""
    if not ham.n_terms:
        return 0.0
    if method == "auto":
        method = "dense" if ham.n_modes <= DENSE_EIG_MODE_BUDGET else "iterative"
    if method == "dense":
        if ham.n_modes > DENSE_EIG_MODE_BUDGET:
            raise BudgetError(
                f"dense eigensolver capped at {DENSE_EIG_MODE_BUDGET} modes; "
                "use method='iterative'"
            )
        mat = dense_hamiltonian(ham).matrix
        return float(np.linalg.eigvalsh(mat)[-1])
    if method == "iterative":
        if ham.n_modes > ITER_EIG_MODE_BUDGET:
            raise BudgetError(f"iterative eigensolver capped at {ITER_EIG_MODE_BUDGET} modes")
        from scipy.sparse.linalg import eigsh

        op = matvec_operator(ham)
        rng = np.random.default_rng(12345)
        v0 = rng.standard_normal(op.shape[0]) + 1j * rng.standard_normal(op.shape[0])
        vals = eigsh(op, k=1, which="LA", v0=v0, tol=1e-11, return_eigenvectors=False)
        return float(vals[0])
    raise ValueError(f"unknown method {method!r}")


def _check_dimers(n_modes: int, dimers) -> None:
    """One-line ``ValueError`` unless every dimer is an ascending pair of
    distinct Majoranas in range, no two share a Majorana, and |weight| <= 1."""
    seen: set[int] = set()
    for (a, b), weight in dimers:
        if min(a, b) < 0:
            raise ValueError(f"dimer {(a, b)} has a negative Majorana")
        if a == b:
            raise ValueError(f"dimer {(a, b)} repeats a Majorana")
        if a > b:
            raise ValueError(f"dimer {(a, b)} is not ascending")
        if b >= 2 * n_modes:
            raise ValueError(f"a dimer lies outside the {2 * n_modes} Majoranas of {n_modes} modes")
        if a in seen or b in seen:
            raise ValueError(f"dimer {(a, b)} overlaps another dimer")
        if not abs(weight) <= 1:
            raise ValueError(f"dimer {(a, b)} has weight {weight}, outside [-1, 1]")
        seen.update((a, b))


def dense_dimer_state(
    n_modes: int, dimers: list[tuple[tuple[int, int], float]]
) -> DenseOperator:
    """State ``(1/2^n) prod (I + w * C_(a,b))`` for disjoint ascending dimers
    with weights ``w`` in [-1, 1].

    A perfect set of dimers with weights +-1 gives a pure matching state;
    fewer dimers leave the untouched Majoranas maximally mixed.
    """
    if n_modes > DENSE_OP_MODE_BUDGET:
        raise BudgetError(f"dense path capped at {DENSE_OP_MODE_BUDGET} modes")
    _check_dimers(n_modes, dimers)
    dim = 2**n_modes
    rho = np.zeros((dim, dim), dtype=complex)
    rho.flat[:: dim + 1] = 1.0 / dim
    x, z, power = _strings(np.array([pair for pair, _ in dimers], dtype=np.int64).reshape(-1, 2))
    scalars = np.array([w for _, w in dimers]) * _UNITS[(power + 1) & 3]
    block = min(dim, _DIMER_BLOCK)
    for d in range(len(dimers)):
        ((_, coef),) = _pauli_sum(x[d : d + 1], z[d : d + 1], scalars[d : d + 1], n_modes)
        # rho += C rho in place: row r gains coef[r] * rho[r ^ x].  The rows of
        # an aligned block take their partners from one aligned block, in the
        # order perm; both blocks are gathered before either is updated.
        mask = int(x[d])
        perm = np.arange(block) ^ (mask & (block - 1))
        for a in range(0, dim, block):
            b = a ^ (mask & -block)
            if b < a:
                continue
            pairs = ((a, b), (b, a)) if b != a else ((a, a),)
            gathered = [rho[src : src + block][perm] for _, src in pairs]
            for (dst, _), rows in zip(pairs, gathered):
                rows *= coef[dst : dst + block, None]
                rho[dst : dst + block] += rows
            del gathered, rows  # free before the next gather
    return DenseOperator(n_modes, rho)


def dense_state_from_matching(
    matching: Matching, signs: SignAssignment, n_modes: int | None = None
) -> DenseOperator:
    """Dense density matrix of the pure matching state."""
    n_modes = matching.n_majoranas // 2 if n_modes is None else n_modes
    _check_state(matching, signs, 2 * n_modes)
    return dense_dimer_state(n_modes, list(zip(matching.dimers.tolist(), signs.signs.tolist())))


def dense_expectation(ham: MajoranaHamiltonian, rho: DenseOperator) -> float:
    """``Tr(H rho)``, one gathered diagonal per X mask of H; no dense H is built."""
    if rho.n_modes != ham.n_modes:
        raise ValueError(f"state on {rho.n_modes} modes, Hamiltonian on {ham.n_modes}")
    rows = np.arange(2**ham.n_modes)
    traces = [coef @ rho.matrix[cols, rows] for cols, coef in _hamiltonian_sum(ham)]
    return _sum_in_order(np.real(traces))  # the real parts add on their own


# ---------------------------------------------------------------------------
# Two-colored sweep: rotate the quadratic optimizer toward the quartic model.
# ---------------------------------------------------------------------------


def _two_colored_dense(ham2: MajoranaHamiltonian, meta) -> dict:
    """Dense scaffolding shared by the sweep and the slope checks.

    Majorana layout: the ``n1`` first-color modes, then the ``n2``
    second-color modes, then ``n2`` fresh auxiliary Majoranas paired with
    the second color in the reference state.  ``zeta`` is the Pauli sum of
    the ``coupling * P_phi * sigma_chi`` strings, and ``slope`` is the
    first-order response ``Tr([zeta, H] rho0)``.  ``evals`` and ``kernel``
    hold every rotated expectation (see ``_rotated_value``).  ``meta`` must be
    ``ham2``'s own: its sizes, and its couplings scaled bit for bit as drawn.
    """
    n1, n2, q = meta.n1, meta.n2, meta.q
    count = n2 * math.comb(n1, q - 1)
    if not (
        ham2.n_modes == (n1 + n2 + 1) // 2
        and ham2.n_terms == meta.couplings.size == count > 0
        and ((1.0 / math.sqrt(count)) * meta.couplings).tobytes() == ham2.index.coeffs.tobytes()
    ):
        raise ValueError("meta does not describe ham2: another two-colored draw")
    if n1 % 2 != 0:
        raise ValueError("sweep needs an even first-color count")
    n_modes = (n1 + 2 * n2) // 2
    if n_modes > DENSE_OP_MODE_BUDGET:
        raise BudgetError(f"dense path capped at {DENSE_OP_MODE_BUDGET} modes")

    scale = (1.0 / math.sqrt(math.comb(n1, q - 1))) * 1j ** (q // 2 - 1)
    rows = ham2.index.padded.copy()
    rows[:, -1] += n2  # each second-color mode moves onto its auxiliary partner
    x, z, power = _strings(rows)
    scalars = scale * meta.couplings * _UNITS[power & 3]
    zeta = _string_matrix(_pauli_sum(x, z, scalars, n_modes), n_modes)

    # the model Hamiltonian acts on the first n1 + n2 Majoranas only
    embedded = MajoranaHamiltonian.from_arrays(n_modes, *ham2._args()[1:])
    hmat = dense_hamiltonian(embedded).matrix

    dimers = [((n1 + j, n1 + n2 + j), -1) for j in range(n2)]
    rho0 = dense_dimer_state(n_modes, dimers).matrix
    slope = float(np.real(np.trace((zeta @ hmat - hmat @ zeta) @ rho0)))

    # zeta is anti-Hermitian: diagonalize i*zeta once, rotations are diagonal
    evals, basis = np.linalg.eigh(1j * zeta)
    h_rot = basis.conj().T @ hmat @ basis
    rho_rot = basis.conj().T @ rho0 @ basis
    kernel = h_rot.T * rho_rot  # Tr(H E rho E^+) = sum_ab kernel_ab d_a conj(d_b)
    return dict(zeta=zeta, h=hmat, rho0=rho0, slope=slope, evals=evals, kernel=kernel)


def _rotated_value(evals: np.ndarray, kernel: np.ndarray, t: float) -> float:
    """``Tr(H exp(-t zeta) rho0 exp(t zeta))`` on the eigen-data of ``i*zeta``."""
    d = np.exp(1j * t * evals)
    return float(np.real(d @ kernel @ d.conj()))


def _sweep_scaffold(ham2: MajoranaHamiltonian, meta) -> tuple[float, np.ndarray, np.ndarray]:
    """``slope``, ``evals`` and ``kernel`` of ``_two_colored_dense``, built
    once per ``(ham2, meta)``: kept in ``ham2.__dict__``, as ``cached_property``
    keeps ``ham2.index``, tagged with ``meta`` and freed with ``ham2``."""
    kept = ham2.__dict__.get("_sweep_scaffold")
    if kept is None or kept[0] is not meta:
        pieces = _two_colored_dense(ham2, meta)
        pieces["evals"].flags.writeable = pieces["kernel"].flags.writeable = False
        kept = (meta, pieces["slope"], pieces["evals"], pieces["kernel"])
        ham2.__dict__["_sweep_scaffold"] = kept
    return kept[1:]


def sweep_slope(ham2: MajoranaHamiltonian, meta) -> tuple[float, float]:
    """First-order response at theta = 0: commutator form and a central
    finite difference of the rotated expectation."""
    slope, evals, kernel = _sweep_scaffold(ham2, meta)
    eps = 1e-5
    plus, minus = (_rotated_value(evals, kernel, t) for t in (eps, -eps))
    return slope, (plus - minus) / (2 * eps)


def rho_theta_sweep(
    ham2: MajoranaHamiltonian, meta, theta_grid: np.ndarray | None = None
) -> list[tuple[float, float]]:
    """Expectation of the two-colored Hamiltonian along the rotated family.

    The reference state optimizes the auxiliary quadratic model; rotating it
    by ``exp(-theta * zeta)`` trades second-order cost for a first-order
    gain.  The sign of theta is fixed by the measured first-order response
    (a parity rule in ``q/2`` up to operator-ordering conventions), so the
    swept direction always starts uphill.  Returns the (theta, value) curve
    over ``theta_grid``, by default 64 points geometric in ``[1e-3, 2]``.
    """
    slope, evals, kernel = _sweep_scaffold(ham2, meta)
    if theta_grid is None:
        theta_grid = np.geomspace(1e-3, 2.0, 64)
    grid = np.asarray(theta_grid, dtype=float)
    orientation = 1.0 if slope >= 0 else -1.0
    return [(float(t), _rotated_value(evals, kernel, t)) for t in grid * orientation]


# ---------------------------------------------------------------------------
# Numeric search for the best Gaussian expectation (lower bound).
# ---------------------------------------------------------------------------


@dataclass
class GaussianSearchResult:
    corr: CorrelationMatrix
    value: float
    converged: bool


def _reference_gamma(m: int) -> np.ndarray:
    gamma = np.zeros((m, m))
    for j in range(0, m, 2):
        gamma[j, j + 1] = 1.0
        gamma[j + 1, j] = -1.0
    return gamma


def gaussian_numeric_max(
    ham: MajoranaHamiltonian, restarts: int = 8, seed: int = 0
) -> GaussianSearchResult:
    """Ascend Tr(H rho_Gamma) over pure correlation matrices.

    Pure states form the orthogonal orbit of a reference dimer matrix; the
    ascent conjugates by ``exp(eta * W)`` along the Riemannian gradient
    ``W = [Gamma, G]`` with backtracking, restarted from random orbit
    points.  The result is a certified *lower* bound on the Gaussian
    maximum (the iterate is always a valid pure state).
    """
    m = ham.n_majoranas
    rng = np.random.default_rng(seed)
    evaluate = _TermEvaluator(ham.index.blocks, ham.index.coeffs, m)
    starts = [_reference_gamma(m)]
    while len(starts) < restarts:
        basis, _ = np.linalg.qr(rng.standard_normal((m, m)))
        starts.append(basis @ _reference_gamma(m) @ basis.T)

    best_gamma = None
    best_value = -np.inf
    converged_any = False
    for gamma in starts:
        value, grad = evaluate(gamma)
        eta = 0.1
        converged = False
        for _ in range(400):  # iterations per restart
            direction = gamma @ grad - grad @ gamma  # [Gamma, G]
            slope = 0.5 * float(np.sum(direction * direction))  # dE/deta at eta=0
            if slope <= 1e-9 * max(1.0, abs(value)):  # gradient tolerance
                converged = True
                break
            stepped = False
            for _ in range(40):
                rot = expm(eta * direction)
                cand = rot @ gamma @ rot.T
                cand = (cand - cand.T) / 2.0
                cand_value, cand_grad = evaluate(cand)
                if cand_value > value + 0.25 * eta * slope:
                    gamma, value, grad = cand, cand_value, cand_grad
                    eta = min(eta * 2.0, 1.0)
                    stepped = True
                    break
                eta *= 0.5
            if not stepped:
                converged = True
                break
        converged_any = converged_any or converged
        if value > best_value:
            best_value = value
            best_gamma = gamma
    # orbit drift is below validation tolerances at these sizes; re-orthogonalize
    u, _, vt = np.linalg.svd(best_gamma)
    best_gamma = u @ vt
    best_gamma = (best_gamma - best_gamma.T) / 2.0
    best_value = float(evaluate(best_gamma)[0])
    return GaussianSearchResult(CorrelationMatrix(best_gamma), best_value, converged_any)
