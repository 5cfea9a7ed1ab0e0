"""Exact brute-force backends: grouped Pauli sums, eigenvalues, sweeps.

Everything here works at matrix level and exists to check the closed-form
machinery elsewhere in the package.  Majorana operators are realized as
Jordan-Wigner Pauli strings; a string is held as ``(x_mask, z_mask, scalar)``
acting on basis state ``|b>`` by ``scalar * (-1)^{popcount(b & z)} |b ^ x>``.
Every operator is built as one Pauli sum: its strings grouped by X mask, with
each group's phases summed once into a coefficient vector.  Dense matrices,
matrix-free products, dimer states and traces all read that one form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.sparse.linalg import LinearOperator, eigsh

from .gaussian import CorrelationMatrix, Matching, SignAssignment, _TermEvaluator
from .hamiltonian import MajoranaHamiltonian

DENSE_OP_MODE_BUDGET = 13
DENSE_EIG_MODE_BUDGET = 10
ITER_EIG_MODE_BUDGET = 16
SWEEP_DIM_BUDGET = 2**13


class BudgetError(ValueError):
    """The requested dense/iterative computation exceeds the size budget."""


@dataclass(frozen=True)
class DenseOperator:
    """A dense matrix realization on ``2**n_modes`` dimensions."""

    n_modes: int
    matrix: np.ndarray


def _majorana_string(i: int, n_modes: int) -> tuple[int, int, complex]:
    """Pauli string of Majorana ``c_i`` under the Jordan-Wigner mapping."""
    qubit, parity = divmod(i, 2)
    x = 1 << qubit
    z = (1 << qubit) - 1
    scalar: complex = 1.0
    if parity:
        z |= 1 << qubit
        scalar = 1j
    return x, z, scalar


def _string_product(
    first: tuple[int, int, complex], second: tuple[int, int, complex]
) -> tuple[int, int, complex]:
    """Product ``first * second`` of two Pauli strings."""
    x1, z1, s1 = first
    x2, z2, s2 = second
    sign = -1.0 if bin(z1 & x2).count("1") % 2 else 1.0
    return x1 ^ x2, z1 ^ z2, s1 * s2 * sign


def term_string(indices, n_modes: int) -> tuple[int, int, complex]:
    """Pauli string of the Hermitian monomial ``C_I = i^{q/2} c_{i1}...c_{iq}``."""
    acc = (0, 0, 1.0 + 0.0j)
    for i in indices:
        acc = _string_product(acc, _majorana_string(i, n_modes))
    x, z, s = acc
    return x, z, s * (1j ** (len(indices) // 2))


def _pauli_sum(weighted_strings, n_modes: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Group ``((x, z, s), weight)`` strings by X mask.

    Returns one ``(cols, coef)`` pair per distinct mask, in first-seen order:
    row ``r`` of the operator holds ``coef[r]`` in column ``cols[r] = r ^ x``.
    """
    rows = np.arange(2**n_modes, dtype=np.uint32)
    groups: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for (x, z, s), weight in weighted_strings:
        if x not in groups:
            groups[x] = (rows ^ np.uint32(x), np.zeros(rows.shape[0], dtype=complex))
        cols, coef = groups[x]
        phase = 1.0 - 2.0 * (np.bitwise_count(cols & np.uint32(z)) & 1).astype(np.float64)
        coef += (weight * s) * phase
    return list(groups.values())


def _hamiltonian_sum(ham: MajoranaHamiltonian) -> list[tuple[np.ndarray, np.ndarray]]:
    n = ham.n_modes
    return _pauli_sum(((term_string(t.indices, n), t.coeff) for t in ham.terms), n)


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

    ``vec`` may be a matrix, acted on from the left.  Each gather is a copy
    taken before ``out`` changes, so a one-group sum may update ``vec`` in place.
    """
    for cols, coef in pauli_sum:
        gathered = vec[cols]
        gathered *= coef if vec.ndim == 1 else coef[:, None]
        out += gathered


def dense_term(indices, n_modes: int) -> np.ndarray:
    """Dense matrix of the Hermitian monomial ``C_I``."""
    if n_modes > DENSE_OP_MODE_BUDGET:
        raise BudgetError(f"dense path capped at {DENSE_OP_MODE_BUDGET} modes")
    return _string_matrix(_pauli_sum([(term_string(indices, n_modes), 1.0)], n_modes), n_modes)


def dense_hamiltonian(ham: MajoranaHamiltonian) -> DenseOperator:
    """Dense matrix of the full Hamiltonian."""
    if ham.n_modes > DENSE_OP_MODE_BUDGET:
        raise BudgetError(f"dense path capped at {DENSE_OP_MODE_BUDGET} modes")
    return DenseOperator(ham.n_modes, _string_matrix(_hamiltonian_sum(ham), ham.n_modes))


def matvec_operator(ham: MajoranaHamiltonian) -> LinearOperator:
    """Matrix-free action of H on state vectors, from one Pauli sum built up front."""
    dim = 2**ham.n_modes
    pauli_sum = _hamiltonian_sum(ham)

    def matvec(vec: np.ndarray) -> np.ndarray:
        out = np.zeros(dim, dtype=complex)
        _apply_string(pauli_sum, np.asarray(vec, dtype=complex).reshape(dim), out)
        return out

    return LinearOperator((dim, dim), matvec=matvec, dtype=complex)


def lambda_max_exact(ham: MajoranaHamiltonian, method: str = "auto") -> float:
    """Largest eigenvalue of H, dense (<=10 modes) or Lanczos (<=16 modes)."""
    if not ham.terms:
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
        op = matvec_operator(ham)
        rng = np.random.default_rng(12345)
        v0 = rng.standard_normal(op.shape[0]) + 1j * rng.standard_normal(op.shape[0])
        vals = eigsh(op, k=1, which="LA", v0=v0, tol=1e-11, return_eigenvectors=False)
        return float(vals[0])
    raise ValueError(f"unknown method {method!r}")


def dense_dimer_state(
    n_modes: int, dimers: list[tuple[tuple[int, int], int]]
) -> DenseOperator:
    """State ``(1/2^n) prod (I + sign * C_(a,b))`` for disjoint dimers.

    A perfect set of dimers gives a pure matching state; fewer dimers leave
    the untouched Majoranas maximally mixed.
    """
    if n_modes > DENSE_OP_MODE_BUDGET:
        raise BudgetError(f"dense path capped at {DENSE_OP_MODE_BUDGET} modes")
    dim = 2**n_modes
    rho = np.eye(dim, dtype=complex) / dim
    for (a, b), sign in dimers:
        # rho += sign * C_(a,b) rho in place: one row gather, no dense C_(a,b)
        _apply_string(_pauli_sum([(term_string((a, b), n_modes), sign)], n_modes), rho, rho)
    return DenseOperator(n_modes, rho)


def dense_state_from_matching(
    matching: Matching, signs: SignAssignment, n_modes: int | None = None
) -> DenseOperator:
    """Dense density matrix of the pure matching state."""
    n_modes = matching.n_majoranas // 2 if n_modes is None else n_modes
    dimers = [(pair, signs.as_dict()[pair]) for pair in matching.pairs]
    return dense_dimer_state(n_modes, dimers)


def dense_expectation(ham: MajoranaHamiltonian, rho: DenseOperator) -> float:
    """``Tr(H rho)``, one gathered diagonal per X mask of H; no dense H is built."""
    if rho.n_modes != ham.n_modes:
        raise ValueError(f"state on {rho.n_modes} modes, Hamiltonian on {ham.n_modes}")
    rows = np.arange(2**ham.n_modes)
    total = sum(coef @ rho.matrix[cols, rows] for cols, coef in _hamiltonian_sum(ham))
    return float(np.real(total))


# ---------------------------------------------------------------------------
# Two-colored sweep: rotate the quadratic optimizer toward the quartic model.
# ---------------------------------------------------------------------------


def _two_colored_dense(ham2: MajoranaHamiltonian, meta) -> dict:
    """Dense scaffolding shared by the sweep and the slope checks.

    Majorana layout: the ``n1`` first-color modes, then the ``n2``
    second-color modes, then ``n2`` fresh auxiliary Majoranas paired with
    the second color in the reference state.  ``zeta`` is the Pauli sum of
    the ``coupling * P_phi * sigma_chi`` strings, and ``slope`` is the
    first-order response ``Tr([zeta, H] rho0)``.
    """
    n1, n2, q = meta.n1, meta.n2, meta.q
    if n1 % 2 != 0:
        raise ValueError("sweep needs an even first-color count")
    total = n1 + 2 * n2
    n_modes = total // 2
    if 2**n_modes > SWEEP_DIM_BUDGET:
        raise BudgetError(f"sweep capped at {SWEEP_DIM_BUDGET} dimensions")

    scale = (1.0 / math.sqrt(math.comb(n1, q - 1))) * 1j ** (q // 2 - 1)
    strings = []
    for entry in meta.entries:
        prod = (0, 0, 1.0 + 0.0j)
        for s in (*entry.phi, n1 + n2 + entry.chi):
            prod = _string_product(prod, _majorana_string(s, n_modes))
        strings.append((prod, scale * entry.coupling))
    zeta = _string_matrix(_pauli_sum(strings, n_modes), n_modes)

    # the model Hamiltonian acts on the first n1 + n2 Majoranas only
    embedded = MajoranaHamiltonian(n_modes=n_modes, terms=ham2.terms)
    hmat = dense_hamiltonian(embedded).matrix

    dimers = [((n1 + j, n1 + n2 + j), -1) for j in range(n2)]
    rho0 = dense_dimer_state(n_modes, dimers).matrix
    slope = float(np.real(np.trace((zeta @ hmat - hmat @ zeta) @ rho0)))
    return {"zeta": zeta, "h": hmat, "rho0": rho0, "slope": slope}


def sweep_slope(ham2: MajoranaHamiltonian, meta) -> tuple[float, float]:
    """First-order response at theta = 0: commutator form and a central
    finite difference of the rotated expectation."""
    pieces = _two_colored_dense(ham2, meta)
    zeta, hmat, rho0 = pieces["zeta"], pieces["h"], pieces["rho0"]
    eps = 1e-5
    values = []
    for t in (eps, -eps):
        rot = expm(-t * zeta)
        rho_t = rot @ rho0 @ rot.conj().T
        values.append(float(np.real(np.trace(hmat @ rho_t))))
    return pieces["slope"], (values[0] - values[1]) / (2 * eps)


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
    pieces = _two_colored_dense(ham2, meta)
    zeta, hmat, rho0 = pieces["zeta"], pieces["h"], pieces["rho0"]
    if theta_grid is None:
        theta_grid = np.geomspace(1e-3, 2.0, 64)
    grid = np.asarray(theta_grid, dtype=float)
    orientation = 1.0 if pieces["slope"] >= 0 else -1.0

    # zeta is anti-Hermitian: diagonalize i*zeta once, rotations are diagonal
    evals, basis = np.linalg.eigh(1j * zeta)
    h_rot = basis.conj().T @ hmat @ basis
    rho_rot = basis.conj().T @ rho0 @ basis
    kernel = h_rot.T * rho_rot  # Tr(H E rho E^+) = sum_ab kernel_ab d_a conj(d_b)

    curve = []
    for theta in grid:
        d = np.exp(1j * theta * orientation * evals)
        value = float(np.real(d @ kernel @ d.conj()))
        curve.append((float(theta * orientation), value))
    return curve


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
    evaluate = _TermEvaluator(ham.terms, m)
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
