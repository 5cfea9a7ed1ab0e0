"""Exact brute-force backends: Jordan-Wigner matrices, eigenvalues, sweeps.

Everything here works at matrix level and exists to check the closed-form
machinery elsewhere in the package.  Majorana operators are realized as
Pauli strings; a string is held as ``(x_mask, z_mask, scalar)`` acting on
basis state ``|b>`` by ``scalar * (-1)^{popcount(b & z)} |b ^ x>``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm
from scipy.sparse.linalg import LinearOperator, eigsh

from .gaussian import (
    CorrelationMatrix,
    Matching,
    SignAssignment,
    correlation_from_matching,
    pfaffian,
)
from .hamiltonian import InteractionTerm, MajoranaHamiltonian

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

    @property
    def dim(self) -> int:
        return 2**self.n_modes


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


def _apply_string(
    string: tuple[int, int, complex], vec: np.ndarray, out: np.ndarray, weight: complex
) -> None:
    x, z, s = string
    dim = vec.shape[0]
    idx = np.arange(dim, dtype=np.uint32)
    phase = 1.0 - 2.0 * (np.bitwise_count(idx & np.uint32(z)) & 1).astype(np.float64)
    # idx ^ x is a permutation, so plain fancy indexing accumulates correctly
    out[idx ^ np.uint32(x)] += (weight * s) * phase * vec


def _string_matrix(string: tuple[int, int, complex], n_modes: int) -> np.ndarray:
    x, z, s = string
    dim = 2**n_modes
    idx = np.arange(dim, dtype=np.uint32)
    phase = 1.0 - 2.0 * (np.bitwise_count(idx & np.uint32(z)) & 1).astype(np.float64)
    mat = np.zeros((dim, dim), dtype=complex)
    mat[idx ^ np.uint32(x), idx] = s * phase
    return mat


def jordan_wigner(i: int, n_modes: int) -> DenseOperator:
    """Dense matrix of Majorana ``c_i`` on ``n_modes`` qubits."""
    if n_modes > DENSE_OP_MODE_BUDGET:
        raise BudgetError(
            f"dense path capped at {DENSE_OP_MODE_BUDGET} modes; use the iterative path"
        )
    if not 0 <= i < 2 * n_modes:
        raise ValueError(f"Majorana index {i} out of range for {n_modes} modes")
    return DenseOperator(n_modes, _string_matrix(_majorana_string(i, n_modes), n_modes))


def dense_term(indices, n_modes: int) -> np.ndarray:
    """Dense matrix of the Hermitian monomial ``C_I``."""
    if n_modes > DENSE_OP_MODE_BUDGET:
        raise BudgetError(f"dense path capped at {DENSE_OP_MODE_BUDGET} modes")
    return _string_matrix(term_string(indices, n_modes), n_modes)


def dense_hamiltonian(ham: MajoranaHamiltonian) -> DenseOperator:
    """Dense matrix of the full Hamiltonian."""
    if ham.n_modes > DENSE_OP_MODE_BUDGET:
        raise BudgetError(f"dense path capped at {DENSE_OP_MODE_BUDGET} modes")
    dim = 2**ham.n_modes
    mat = np.zeros((dim, dim), dtype=complex)
    idx = np.arange(dim, dtype=np.uint32)
    for t in ham.terms:
        x, z, s = term_string(t.indices, ham.n_modes)
        phase = 1.0 - 2.0 * (np.bitwise_count(idx & np.uint32(z)) & 1).astype(np.float64)
        mat[idx ^ np.uint32(x), idx] += (t.coeff * s) * phase
    return DenseOperator(ham.n_modes, mat)


def matvec_operator(ham: MajoranaHamiltonian) -> LinearOperator:
    """Matrix-free action of H on state vectors, one Pauli string per term."""
    dim = 2**ham.n_modes
    strings = [(term_string(t.indices, ham.n_modes), t.coeff) for t in ham.terms]

    def matvec(vec: np.ndarray) -> np.ndarray:
        vec = np.asarray(vec, dtype=complex).reshape(dim)
        out = np.zeros(dim, dtype=complex)
        for string, coeff in strings:
            _apply_string(string, vec, out, coeff)
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
        rho = rho + sign * (dense_term((a, b), n_modes) @ rho)
    return DenseOperator(n_modes, rho)


def dense_state_from_matching(
    matching: Matching, signs: SignAssignment, n_modes: int | None = None
) -> DenseOperator:
    """Dense density matrix of the pure matching state."""
    n_modes = matching.n_majoranas // 2 if n_modes is None else n_modes
    dimers = [(pair, signs.as_dict()[pair]) for pair in matching.pairs]
    return dense_dimer_state(n_modes, dimers)


def dense_expectation(ham: MajoranaHamiltonian, rho: DenseOperator) -> float:
    return float(np.real(np.trace(dense_hamiltonian(ham).matrix @ rho.matrix)))


# ---------------------------------------------------------------------------
# Two-colored sweep: rotate the quadratic optimizer toward the quartic model.
# ---------------------------------------------------------------------------


def default_theta_grid(points: int = 64, low: float = 1e-3, high: float = 2.0) -> np.ndarray:
    return np.geomspace(low, high, points)


def _two_colored_dense(ham2: MajoranaHamiltonian, meta) -> dict:
    """Dense scaffolding shared by the sweep and the slope checks.

    Majorana layout: the ``n1`` first-color modes, then the ``n2``
    second-color modes, then ``n2`` fresh auxiliary Majoranas paired with
    the second color in the reference state.
    """
    n1, n2, q = meta.n1, meta.n2, meta.q
    if n1 % 2 != 0:
        raise ValueError("sweep needs an even first-color count")
    total = n1 + 2 * n2
    n_modes = total // 2
    if 2**n_modes > SWEEP_DIM_BUDGET:
        raise BudgetError(f"sweep capped at {SWEEP_DIM_BUDGET} dimensions")
    dim = 2**n_modes

    norm = 1.0 / math.sqrt(math.comb(n1, q - 1))
    tau_scalar = 1j ** (q // 2 - 1)
    taus = []
    for j in range(n2):
        tau = np.zeros((dim, dim), dtype=complex)
        for entry in meta.entries:
            if entry.chi != j:
                continue
            prod = (0, 0, 1.0 + 0.0j)
            for s in entry.phi:
                prod = _string_product(prod, _majorana_string(s, n_modes))
            tau += entry.coupling * _string_matrix(prod, n_modes)
        taus.append(norm * tau_scalar * tau)

    zeta = np.zeros((dim, dim), dtype=complex)
    for j in range(n2):
        sigma = _string_matrix(_majorana_string(n1 + n2 + j, n_modes), n_modes)
        zeta += taus[j] @ sigma

    # the model Hamiltonian acts on the first n1 + n2 Majoranas only
    embedded = MajoranaHamiltonian(n_modes=n_modes, terms=ham2.terms)
    hmat = dense_hamiltonian(embedded).matrix

    dimers = [((n1 + j, n1 + n2 + j), -1) for j in range(n2)]
    rho0 = dense_dimer_state(n_modes, dimers).matrix
    return {"zeta": zeta, "h": hmat, "rho0": rho0, "n_modes": n_modes}


def sweep_slope(ham2: MajoranaHamiltonian, meta) -> tuple[float, float]:
    """First-order response at theta = 0: commutator form and a central
    finite difference of the rotated expectation."""
    pieces = _two_colored_dense(ham2, meta)
    zeta, hmat, rho0 = pieces["zeta"], pieces["h"], pieces["rho0"]
    commutator = float(np.real(np.trace((zeta @ hmat - hmat @ zeta) @ rho0)))
    eps = 1e-5
    values = []
    for t in (eps, -eps):
        rot = expm(-t * zeta)
        rho_t = rot @ rho0 @ rot.conj().T
        values.append(float(np.real(np.trace(hmat @ rho_t))))
    finite_difference = (values[0] - values[1]) / (2 * eps)
    return commutator, finite_difference


def rho_theta_sweep(
    ham2: MajoranaHamiltonian, meta, theta_grid: np.ndarray | None = None
) -> list[tuple[float, float]]:
    """Expectation of the two-colored Hamiltonian along the rotated family.

    The reference state optimizes the auxiliary quadratic model; rotating it
    by ``exp(-theta * zeta)`` trades second-order cost for a first-order
    gain.  The sign of theta is fixed by the measured first-order response
    (a parity rule in ``q/2`` up to operator-ordering conventions), so the
    swept direction always starts uphill.  Returns the (theta, value) curve.
    """
    pieces = _two_colored_dense(ham2, meta)
    zeta, hmat, rho0 = pieces["zeta"], pieces["h"], pieces["rho0"]
    grid = default_theta_grid() if theta_grid is None else np.asarray(theta_grid, dtype=float)
    slope = float(np.real(np.trace((zeta @ hmat - hmat @ zeta) @ rho0)))
    orientation = 1.0 if slope >= 0 else -1.0

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
    restarts: int
    notes: list[str] = field(default_factory=list)


def _pair_positions(weight: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(weight) for b in range(a + 1, weight)]


class _TermEvaluator:
    """Vectorized E = sum_I J_I Pf(gamma_I) with its gradient.

    Weight-2 and weight-4 terms take batched index paths; higher weights go
    through a per-term cofactor loop.  Gradients use
    d Pf(A)/d A_{ij} = (-1)^{i+j+1} Pf(A with rows/cols i,j removed),
    which stays finite where Pf vanishes (the resolvent form does not).
    """

    def __init__(self, terms: tuple[InteractionTerm, ...]):
        quadratic = [t for t in terms if t.weight == 2]
        quartic = [t for t in terms if t.weight == 4]
        self.other = tuple(t for t in terms if t.weight not in (2, 4))
        self.idx2 = (
            np.array([t.indices for t in quadratic], dtype=int) if quadratic else None
        )
        self.c2 = np.array([t.coeff for t in quadratic]) if quadratic else None
        self.idx4 = (
            np.array([t.indices for t in quartic], dtype=int) if quartic else None
        )
        self.c4 = np.array([t.coeff for t in quartic]) if quartic else None

    def __call__(self, gamma: np.ndarray) -> tuple[float, np.ndarray]:
        grad = np.zeros_like(gamma)
        energy = 0.0
        if self.idx2 is not None:
            a, b = self.idx2[:, 0], self.idx2[:, 1]
            energy += float(self.c2 @ gamma[a, b])
            np.add.at(grad, (a, b), self.c2)
        if self.idx4 is not None:
            i0, i1, i2, i3 = (self.idx4[:, c] for c in range(4))
            g01, g23 = gamma[i0, i1], gamma[i2, i3]
            g02, g13 = gamma[i0, i2], gamma[i1, i3]
            g03, g12 = gamma[i0, i3], gamma[i1, i2]
            energy += float(self.c4 @ (g01 * g23 - g02 * g13 + g03 * g12))
            np.add.at(grad, (i0, i1), self.c4 * g23)
            np.add.at(grad, (i2, i3), self.c4 * g01)
            np.add.at(grad, (i0, i2), -self.c4 * g13)
            np.add.at(grad, (i1, i3), -self.c4 * g02)
            np.add.at(grad, (i0, i3), self.c4 * g12)
            np.add.at(grad, (i1, i2), self.c4 * g03)
        for t in self.other:
            idx = list(t.indices)
            q = len(idx)
            sub = gamma[np.ix_(idx, idx)]
            energy += t.coeff * pfaffian(sub)
            for a, b in _pair_positions(q):
                keep = [p for p in range(q) if p not in (a, b)]
                minor = pfaffian(sub[np.ix_(keep, keep)]) if keep else 1.0
                sign = -1.0 if (a + b + 1) % 2 else 1.0
                grad[idx[a], idx[b]] += t.coeff * sign * minor
        return energy, grad - grad.T


def _reference_gamma(m: int) -> np.ndarray:
    gamma = np.zeros((m, m))
    for j in range(0, m, 2):
        gamma[j, j + 1] = 1.0
        gamma[j + 1, j] = -1.0
    return gamma


def gaussian_numeric_max(
    ham: MajoranaHamiltonian,
    restarts: int = 8,
    seed: int = 0,
    initial: list[CorrelationMatrix] | None = None,
    max_iters: int = 400,
    grad_tol: float = 1e-9,
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
    evaluate = _TermEvaluator(ham.terms)
    starts: list[np.ndarray] = []
    if initial:
        starts.extend(c.gamma.copy() for c in initial)
    starts.append(_reference_gamma(m))
    while len(starts) < max(restarts, 1 + (1 if initial else 0)):
        basis, _ = np.linalg.qr(rng.standard_normal((m, m)))
        starts.append(basis @ _reference_gamma(m) @ basis.T)

    best_gamma = None
    best_value = -np.inf
    converged_any = False
    notes: list[str] = []
    for gamma in starts:
        value, grad = evaluate(gamma)
        eta = 0.1
        converged = False
        for _ in range(max_iters):
            direction = gamma @ grad - grad @ gamma  # [Gamma, G]
            slope = 0.5 * float(np.sum(direction * direction))  # dE/deta at eta=0
            if slope <= grad_tol * max(1.0, abs(value)):
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
    if not converged_any:
        notes.append("no restart reached the gradient tolerance")
    # orbit drift is below validation tolerances at these sizes; re-orthogonalize
    u, _, vt = np.linalg.svd(best_gamma)
    best_gamma = u @ vt
    best_gamma = (best_gamma - best_gamma.T) / 2.0
    best_value = float(evaluate(best_gamma)[0])
    return GaussianSearchResult(
        corr=CorrelationMatrix(best_gamma),
        value=best_value,
        converged=converged_any,
        restarts=len(starts),
        notes=notes,
    )
