"""The three benchmark workloads: seeded instance lists and the
call-and-check body of one instance.

Every fermiopt function is looked up on its module at call time, so the
traced run sees the calls the benchmark makes as well as those fermiopt
makes internally.  Each instance checks its own outputs and appends a
message per failed check; a certified instance also returns a sha256 over
its state and certificate documents.
"""

from __future__ import annotations

import hashlib
import math
import traceback
from dataclasses import dataclass, field

from fermiopt import ensembles, gaussian, hamiltonian, optimizer, oracle

WORKLOADS = ("ssyk_certify", "sparse_study", "oracle_desk")

SSYK_K = 2
SPARSE_Q = 4
SPARSE_K = 2
SYK_Q = 4
ASCENT_RESTARTS = 6
DENSE_CHECK_Q = 2
DENSE_CHECK_K = 2

# relative tolerances, scaled by (1 + |reference|)
CLOSED_FORM_TOL = 1e-9
LANCZOS_TOL = 1e-8
SLOPE_TOL = 1e-5


@dataclass
class Instance:
    kind: str
    size: int  # mode count, the x axis of the per-span scaling fits
    seed: int
    n2: int = 0  # second-color count of a theta-sweep instance
    prepared: tuple | None = None  # (ham, certified result) built during set-up


@dataclass
class Outcome:
    problems: list[str] = field(default_factory=list)
    digest: str | None = None
    guarantee: bool | None = None  # None when the instance carries no certificate

    @property
    def ok(self) -> bool:
        return not self.problems


def instance_seed(workload_seed: int, workload: str, label: str) -> int:
    """Deterministic 63-bit instance seed derived from the workload seed."""
    text = f"{workload}/{workload_seed}/{label}".encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "big") >> 1


def _interleave(*groups: list[Instance]) -> list[Instance]:
    """Round-robin merge, so a burst of outside load during a pass is shared
    by every kind of instance instead of hitting one kind's whole block."""
    out = []
    for round_ in range(max(len(g) for g in groups)):
        out.extend(g[round_] for g in groups if round_ < len(g))
    return out


def build_instances(workload: str, seed: int, smoke: bool = False) -> list[Instance]:
    """Fixed instance list of a workload; the first instance is the
    warm-up, so it is a small one.

    Instance costs vary with the draw, so the size where the median
    instance sits runs several distinct draws; trial counts are set so a
    pass takes 20 to 30 s on a 2-core x86 box.
    ``smoke`` swaps in small sizes that run the same code paths in seconds.
    """

    def trials(kind: str, size: int, count: int, **extra) -> list[Instance]:
        return [
            Instance(kind, size, instance_seed(seed, workload, f"{kind}/{size}/{t}"), **extra)
            for t in range(count)
        ]

    if workload == "ssyk_certify":
        if smoke:
            return trials("ssyk", 400, 1)
        # most draws at the top of the ladder, where the median instance sits
        return _interleave(trials("ssyk", 400, 1), trials("ssyk", 800, 1), trials("ssyk", 1600, 3))
    if workload == "sparse_study":
        if smoke:
            return trials("strictq", 40, 1) + trials("mixed24", 40, 1)
        # many mid-size draws, where the median instance sits
        return _interleave(
            *(
                trials(kind, n, count)
                for n, count in ((40, 1), (120, 7), (240, 1))
                for kind in ("strictq", "mixed24")
            )
        )
    if workload == "oracle_desk":
        if smoke:
            out = trials("ratio_decay", 4, 1) + trials("theta_sweep", 4, 1, n2=2)
            out += trials("lanczos_dense", 6, 1) + trials("lanczos_diluted", 8, 1)
            out += trials("dense_check", 8, 1)
        else:
            # the n=9 Lanczos solves stay near a third of a pass; the
            # heavy-tailed diluted solves are small and many
            out = _interleave(
                trials("ratio_decay", 6, 3) + trials("ratio_decay", 7, 3) + trials("ratio_decay", 8, 3),
                trials("theta_sweep", 8, 12, n2=4),
                trials("lanczos_diluted", 11, 12),
                trials("dense_check", 10, 2),
                trials("lanczos_dense", 9, 2),
            )
        for inst in out:
            if inst.kind == "dense_check":
                # certification is combinatorics, which this workload leaves out
                ham = ensembles.gen_sparse_random(
                    inst.size, DENSE_CHECK_Q, DENSE_CHECK_K, "normal", inst.seed
                )
                inst.prepared = (ham, optimizer.optimize_strict_q(ham, k=DENSE_CHECK_K))
        return out
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def _near(value: float, reference: float, tol: float) -> bool:
    return abs(value - reference) <= tol * (1.0 + abs(reference))


def _default_state(ham):
    matching = gaussian.Matching(tuple((2 * j, 2 * j + 1) for j in range(ham.n_modes)))
    return matching, gaussian.SignAssignment.all_plus(matching)


def _check_certificate(ham, result, pipeline: str, out: Outcome) -> float:
    """Certificate checks shared by every certified instance; returns the
    closed-form energy of the state on the full Hamiltonian."""
    cert = result.certificate
    closed = gaussian.matching_state_expectation(result.matching, result.signs, ham)
    upper = hamiltonian.total_strength(ham)
    if cert.pipeline != pipeline:
        out.problems.append(f"pipeline {cert.pipeline!r}, expected {pipeline!r}")
    if not math.isclose(cert.achieved, closed, rel_tol=CLOSED_FORM_TOL, abs_tol=1e-12 * upper):
        out.problems.append(f"achieved {cert.achieved!r} != closed form {closed!r}")
    if cert.upper_bound != upper:
        out.problems.append(f"upper_bound {cert.upper_bound!r} != total strength {upper!r}")
    if cert.guarantee_holds and cert.achieved < cert.guaranteed_ratio * upper - 1e-9 * upper:
        out.problems.append("guarantee_holds but achieved is below the certified floor")
    document = gaussian.state_to_json(result.matching, result.signs) + cert.to_json()
    out.digest = hashlib.sha256(document.encode()).hexdigest()
    out.guarantee = cert.guarantee_holds
    return closed


def _run_ssyk(inst: Instance, out: Outcome) -> None:
    ham = ensembles.gen_ssyk(inst.size, SSYK_K, inst.seed)
    result = optimizer.optimize_ssyk(ham, SSYK_K)
    _check_certificate(ham, result, "ssyk", out)


def _run_sparse(inst: Instance, out: Outcome) -> None:
    if inst.kind == "strictq":
        ham = ensembles.gen_sparse_random(inst.size, SPARSE_Q, SPARSE_K, "normal", inst.seed)
        result = optimizer.optimize_strict_q(ham, k=SPARSE_K)
    else:
        ham = ensembles.gen_mixed_24(inst.size, SPARSE_K, inst.seed)
        result = optimizer.optimize_mixed_24(ham, k=SPARSE_K)
    closed = _check_certificate(ham, result, inst.kind, out)
    corr = gaussian.correlation_from_matching(result.matching, result.signs)
    wick = gaussian.hamiltonian_expectation(corr, ham)
    if not _near(wick, closed, CLOSED_FORM_TOL):
        out.problems.append(f"Wick {wick!r} != closed form {closed!r}")


def _run_ratio_decay(inst: Instance, out: Outcome) -> None:
    ham = ensembles.gen_syk_q(inst.size, SYK_Q, inst.seed)
    search = oracle.gaussian_numeric_max(ham, restarts=ASCENT_RESTARTS, seed=inst.seed)
    lam = oracle.lambda_max_exact(ham, method="dense")
    energy = gaussian.matching_state_expectation(*_default_state(ham), ham)
    for label, value in (("ascent value", search.value), ("matching-state energy", energy)):
        if value > lam + CLOSED_FORM_TOL * (1.0 + abs(lam)):
            out.problems.append(f"{label} {value!r} exceeds lambda_max {lam!r}")


def _run_theta_sweep(inst: Instance, out: Outcome) -> None:
    ham2, meta = ensembles.gen_two_colored(inst.size, inst.n2, SYK_Q, inst.seed)
    commutator, finite_difference = oracle.sweep_slope(ham2, meta)
    curve = oracle.rho_theta_sweep(ham2, meta)
    if not _near(finite_difference, commutator, SLOPE_TOL):
        out.problems.append(f"slope {commutator!r} != finite difference {finite_difference!r}")
    bound = hamiltonian.total_strength(ham2)
    if not all(math.isfinite(v) and abs(v) <= bound * (1 + 1e-9) for _, v in curve):
        out.problems.append("sweep value outside [-sum|J|, sum|J|]")


def _run_lanczos_dense(inst: Instance, out: Outcome) -> None:
    ham = ensembles.gen_syk_q(inst.size, SYK_Q, inst.seed)
    lanczos = oracle.lambda_max_exact(ham, method="iterative")
    dense = oracle.lambda_max_exact(ham, method="dense")
    if not _near(lanczos, dense, LANCZOS_TOL):
        out.problems.append(f"Lanczos {lanczos!r} != dense {dense!r}")


def _run_lanczos_diluted(inst: Instance, out: Outcome) -> None:
    ham = ensembles.gen_ssyk(inst.size, SSYK_K, inst.seed)
    lam = oracle.lambda_max_exact(ham, method="iterative")
    energy = gaussian.matching_state_expectation(*_default_state(ham), ham)
    upper = hamiltonian.total_strength(ham)
    slack = LANCZOS_TOL * (1.0 + abs(lam))
    if not energy - slack <= lam <= upper + slack:
        out.problems.append(f"lambda_max {lam!r} outside [{energy!r}, {upper!r}]")


def _run_dense_check(inst: Instance, out: Outcome) -> None:
    ham, result = inst.prepared
    closed = _check_certificate(ham, result, "strictq", out)
    rho = oracle.dense_state_from_matching(result.matching, result.signs, n_modes=ham.n_modes)
    dense = oracle.dense_expectation(ham, rho)
    if not _near(dense, closed, CLOSED_FORM_TOL):
        out.problems.append(f"dense energy {dense!r} != closed form {closed!r}")


_RUNNERS = {
    "ssyk": _run_ssyk,
    "strictq": _run_sparse,
    "mixed24": _run_sparse,
    "ratio_decay": _run_ratio_decay,
    "theta_sweep": _run_theta_sweep,
    "lanczos_dense": _run_lanczos_dense,
    "lanczos_diluted": _run_lanczos_diluted,
    "dense_check": _run_dense_check,
}


def run_instance(inst: Instance) -> Outcome:
    """Run and check one instance.  An exception is returned as a problem,
    so one failing instance does not end the run."""
    out = Outcome()
    try:
        _RUNNERS[inst.kind](inst, out)
    except Exception:  # the run reports the failure and goes on
        out.problems.append(traceback.format_exc())
    return out
