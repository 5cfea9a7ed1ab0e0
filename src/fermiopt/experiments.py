"""Batch studies: concentration checks, certificate benches, ratio decay.

Every study is a pure function of its config; trial seeds derive from
``base_seed XOR trial_index`` so runs are reproducible and order
independent.  Results are CSV tables (one row per trial) with a JSON
sidecar echoing the config and the aggregate summary.  Empirical
frequencies always carry Wilson confidence intervals.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict, field, fields

import numpy as np

from . import ensembles
from .hamiltonian import _is_int, _load_json, dataclass_fields_from_json, total_strength
from .optimizer import optimize, truncate_to_sparse
from .oracle import (
    ITER_EIG_MODE_BUDGET,
    gaussian_numeric_max,
    lambda_max_exact,
    rho_theta_sweep,
    sweep_slope,
)

# per study: the sizes its draws need, checked before any draw, then the
# other fields it reads besides the ones all studies read; a config that
# sets any other field away from its default is rejected, so the sidecar
# records only inputs (every sidecar lists the default restarts, which a
# document may therefore repeat)
_STUDY_FIELDS = {
    "ssyk_concentration": (("n", "k"), ("k_prime",)),
    "ratio_bench": (("n", "k"), ("pipeline", "q")),
    "syk_scaling": ((), ("q", "size_grid", "restarts")),
    "theta_sweep": (("n1", "n2"), ("q",)),
}
_COMMON_FIELDS = ("study", "trials", "base_seed", "out")
STUDIES = tuple(_STUDY_FIELDS)


@dataclass(frozen=True)
class StudyConfig:
    study: str
    trials: int
    base_seed: int
    out: str | None = None
    pipeline: str | None = None
    n: int | None = None
    q: int | None = None
    k: int | None = None
    k_prime: int | None = None
    n1: int | None = None
    n2: int | None = None
    size_grid: tuple[int, ...] | None = None
    restarts: int = 6

    def __post_init__(self):
        if self.study not in STUDIES:
            raise ValueError(f"unknown study {self.study!r}")
        sizes, others = _STUDY_FIELDS[self.study]
        for f in fields(self):
            if getattr(self, f.name) != f.default and f.name not in _COMMON_FIELDS + sizes + others:
                raise ValueError(f"study {self.study!r} does not read field {f.name!r}")
        missing = [name for name in sizes if getattr(self, name) is None]
        if missing:
            raise ValueError(f"study {self.study!r} needs {', '.join(map(repr, missing))}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.pipeline not in (None, "strictq", "mixed24", "ssyk"):
            raise ValueError(f"unknown pipeline {self.pipeline!r} in field 'pipeline'")
        least_k = ensembles.least_k(self.pipeline)
        if self.k is not None and self.k < least_k:
            reason = f" for pipeline {self.pipeline!r}" if least_k > ensembles.least_k() else ""
            raise ValueError(f"field 'k' must be at least {least_k}{reason}, got {self.k}")
        if self.q is not None and self.pipeline in ("mixed24", "ssyk"):
            raise ValueError(f"pipeline {self.pipeline!r} does not read field 'q'")
        least_q = 4 if self.study == "theta_sweep" else 2
        if self.q is not None and (self.q % 2 != 0 or self.q < least_q):
            raise ValueError(f"field 'q' must be even and at least {least_q}, got {self.q}")
        if self.size_grid is not None:
            grid = tuple(int(v) for v in self.size_grid)
            increasing = all(a < b for a, b in zip(grid, grid[1:]))
            if len(grid) < 2 or not increasing or grid[-1] > ITER_EIG_MODE_BUDGET:
                raise ValueError(
                    f"field 'size_grid' needs at least two strictly increasing sizes, "
                    f"each at most {ITER_EIG_MODE_BUDGET}, got {list(grid)}"
                )
            object.__setattr__(self, "size_grid", grid)

    def to_json(self) -> str:
        doc = {key: val for key, val in asdict(self).items() if val is not None}
        if "size_grid" in doc:
            doc["size_grid"] = list(doc["size_grid"])
        return json.dumps(doc, indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "StudyConfig":
        ints = ("trials", "base_seed", "n", "q", "k", "k_prime", "n1", "n2", "restarts")
        doc = dataclass_fields_from_json(cls, _load_json(text), ints)
        grid = doc.get("size_grid", [])
        if not isinstance(grid, list) or not all(map(_is_int, grid)):
            raise ValueError(f"field 'size_grid' must be a list of integers, got {grid!r}")
        if not isinstance(doc.get("out", ""), str):
            raise ValueError(f"field 'out' must be a string, got {doc['out']!r}")
        return cls(**doc)


@dataclass
class StudyResult:
    header: list[str]
    rows: list[list]
    summary: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        lines = [",".join(self.header)]
        for row in self.rows:
            lines.append(",".join(_cell(v) for v in row))
        return "\n".join(lines) + "\n"


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """95% score interval for a binomial proportion."""
    if trials == 0:
        return (0.0, 1.0)
    p = successes / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def trial_seed(base_seed: int, trial_index: int) -> int:
    return (base_seed ^ trial_index) & (2**63 - 1)


# ------------------------------------------------------------ concentration


def run_ssyk_concentration(cfg: StudyConfig) -> StudyResult:
    """Total-strength and truncation-residual tails of diluted draws.

    Records, per trial, the total strength and the residual strength after
    truncating at ``k_prime``, in *unit-coupling* units (the ensemble's
    1/sqrt(2kn) scale divided out, which is what the tail statements
    govern); the summary compares the empirical tail frequencies with the
    stated exponential bounds.
    """
    if cfg.trials < 100:
        raise ValueError("concentration study needs at least 100 trials")
    n, k = cfg.n, cfg.k
    k_prime = cfg.k_prime if cfg.k_prime is not None else 8 * (k + 1)
    if k_prime < math.e**2 * k + 1:
        raise ValueError(
            f"truncation degree too small: requires k' >= e^2*k + 1 = {math.e**2 * k + 1:.3f}"
        )
    unit = math.sqrt(2 * k * n)
    low = k * n / 8.0
    residual_cut = 4.0 * k * k / math.sqrt(k_prime - 1) * math.exp(-k_prime) * n
    rows = []
    below_low = 0
    above_cut = 0
    for trial in range(cfg.trials):
        seed = trial_seed(cfg.base_seed, trial)
        ham = ensembles.gen_ssyk(n, k, seed)
        total = total_strength(ham) * unit
        _, residual = truncate_to_sparse(ham, k_prime)
        res_strength = total_strength(residual) * unit
        below_low += total < low
        above_cut += res_strength > residual_cut
        rows.append([trial, seed, ham.n_terms, total, res_strength])
    lo1, hi1 = wilson_interval(below_low, cfg.trials)
    lo2, hi2 = wilson_interval(above_cut, cfg.trials)
    summary = {
        "strength_floor": low,
        "freq_total_below_floor": below_low / cfg.trials,
        "freq_total_below_floor_ci95": [lo1, hi1],
        "theory_total_tail_bound": 2.0 * math.exp(-k * n / 32.0),
        "residual_cut": residual_cut,
        "freq_residual_above_cut": above_cut / cfg.trials,
        "freq_residual_above_cut_ci95": [lo2, hi2],
        "theory_residual_tail_bound": 2.0
        * math.exp(-math.exp(-2 * k_prime) * k**3 / (64 * (k_prime - 1)) * n),
        "k_prime": k_prime,
    }
    return StudyResult(
        header=["trial", "seed", "n_terms", "total_strength_unit", "residual_strength_unit"],
        rows=rows,
        summary=summary,
    )


# ------------------------------------------------------------- ratio bench


def _bench_instance(cfg: StudyConfig, seed: int):
    """One draw of the pipeline's own ensemble, and its certified state."""
    pipeline, q = cfg.pipeline or "strictq", 4 if cfg.q is None else cfg.q
    if pipeline == "strictq":
        ham = ensembles.gen_sparse_random(cfg.n, q, cfg.k, "normal", seed)
    elif pipeline == "mixed24":
        ham = ensembles.gen_mixed_24(cfg.n, cfg.k, seed)
    else:  # "ssyk", the one pipeline left: StudyConfig rejects any other
        ham = ensembles.gen_ssyk(cfg.n, cfg.k, seed)
    return ham, optimize(ham, pipeline, k=cfg.k)


def run_ratio_bench(cfg: StudyConfig) -> StudyResult:
    """Certificate quality per trial; exact eigenvalue ratio when in budget."""
    rows = []
    ratios = []
    guaranteed_ratios = []
    for trial in range(cfg.trials):
        seed = trial_seed(cfg.base_seed, trial)
        ham, result = _bench_instance(cfg, seed)
        cert = result.certificate
        upper = cert.upper_bound
        ratio = cert.achieved / upper if upper > 0 else float("nan")
        row = [trial, seed, cert.achieved, upper, ratio, cert.guarantee_holds]
        if ham.n_modes <= 8:
            lam = lambda_max_exact(ham)
            row.extend([lam, cert.achieved / lam if lam > 0 else float("nan")])
        else:
            row.extend(["", ""])
        rows.append(row)
        if not math.isnan(ratio):
            ratios.append(ratio)
            if cert.guarantee_holds:
                guaranteed_ratios.append(ratio)
    summary = {
        "min_ratio": min(ratios) if ratios else None,
        "median_ratio": float(np.median(ratios)) if ratios else None,
        "min_guaranteed_ratio": min(guaranteed_ratios) if guaranteed_ratios else None,
        "n_guaranteed": len(guaranteed_ratios),
    }
    return StudyResult(
        header=["trial", "seed", "achieved", "total_strength", "ratio_vs_strength",
                "guarantee_holds", "lambda_max", "ratio_vs_lambda_max"],
        rows=rows,
        summary=summary,
    )


# ------------------------------------------------------------- ratio decay


def _fit_loglog(xs: list[float], ys: list[float]) -> dict:
    """OLS slope of log(y) on log(x) with a 95% interval."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    n = len(lx)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    if n > 2:
        se = math.sqrt(float(resid @ resid) / (n - 2) / float(((lx - lx.mean()) ** 2).sum()))
    else:
        se = float("nan")
    return {
        "slope": float(slope),
        "intercept": float(intercept),
        "slope_ci95": [float(slope - 1.96 * se), float(slope + 1.96 * se)],
    }


def run_syk_scaling(cfg: StudyConfig) -> StudyResult:
    """Best-found Gaussian value against the exact maximum across sizes.

    Qualitative by design: the underlying statements are asymptotic and
    high-probability, so only the direction of the medians is checked here.
    """
    q = 4 if cfg.q is None else cfg.q
    sizes = cfg.size_grid or (4, 5, 6, 7, 8)
    rows = []
    per_size: dict[int, list[float]] = {n: [] for n in sizes}
    lam_per_size: dict[int, list[float]] = {n: [] for n in sizes}
    counter = 0
    for n in sizes:
        for trial in range(cfg.trials):
            seed = trial_seed(cfg.base_seed, counter)
            counter += 1
            ham = ensembles.gen_syk_q(n, q, seed)
            search = gaussian_numeric_max(ham, restarts=cfg.restarts, seed=seed)
            lam = lambda_max_exact(ham)
            ratio = search.value / lam if lam > 0 else float("nan")
            per_size[n].append(ratio)
            lam_per_size[n].append(lam)
            rows.append([n, trial, seed, search.value, lam, ratio])
    medians = {n: float(np.median(per_size[n])) for n in sizes}
    lam_medians = {n: float(np.median(lam_per_size[n])) for n in sizes}
    summary = {
        "label": "qualitative; asymptotic high-probability claims, desk scale only",
        "median_ratio_per_n": {str(n): medians[n] for n in sizes},
        "median_lambda_per_n": {str(n): lam_medians[n] for n in sizes},
        "ratio_fit": _fit_loglog(list(sizes), [medians[n] for n in sizes]),
        "lambda_fit": _fit_loglog(list(sizes), [lam_medians[n] for n in sizes]),
        "medians_nonincreasing": all(
            medians[a] >= medians[b] - 1e-12 for a, b in zip(sizes, sizes[1:])
        ),
    }
    return StudyResult(
        header=["n_modes", "trial", "seed", "gaussian_best", "lambda_max", "ratio"],
        rows=rows,
        summary=summary,
    )


# -------------------------------------------------------------- theta sweep


def run_theta_sweep_study(cfg: StudyConfig) -> StudyResult:
    """Rotated-state response across draws of the two-colored model."""
    rows = []
    slopes = []
    positive = 0
    for trial in range(cfg.trials):
        seed = trial_seed(cfg.base_seed, trial)
        ham2, meta = ensembles.gen_two_colored(cfg.n1, cfg.n2, 4 if cfg.q is None else cfg.q, seed)
        commutator, finite_diff = sweep_slope(ham2, meta)
        curve = rho_theta_sweep(ham2, meta)
        best_theta, best_value = max(curve, key=lambda tv: tv[1])
        positive += best_value > 0.0
        slopes.append(commutator)
        rows.append([trial, seed, commutator, finite_diff, best_theta, best_value])
    lo, hi = wilson_interval(positive, cfg.trials)
    summary = {
        "mean_slope": float(np.mean(slopes)),
        "mean_slope_magnitude": float(abs(np.mean(slopes))),
        "expected_slope_magnitude": 2.0 * math.sqrt(cfg.n2),
        "frac_positive_best": positive / cfg.trials,
        "frac_positive_best_ci95": [lo, hi],
    }
    return StudyResult(
        header=["trial", "seed", "slope_commutator", "slope_fd", "best_theta", "best_value"],
        rows=rows,
        summary=summary,
    )


def run_study(cfg: StudyConfig) -> StudyResult:
    runner = {
        "ssyk_concentration": run_ssyk_concentration,
        "ratio_bench": run_ratio_bench,
        "syk_scaling": run_syk_scaling,
        "theta_sweep": run_theta_sweep_study,
    }[cfg.study]
    return runner(cfg)


def write_study(cfg: StudyConfig, result: StudyResult, out_path: str) -> None:
    """CSV at ``out_path`` plus a ``.config.json`` sidecar with the summary."""
    with open(out_path, "w") as fh:
        fh.write(result.to_csv())
    sidecar = {"config": json.loads(cfg.to_json()), "summary": result.summary}
    with open(out_path + ".config.json", "w") as fh:
        fh.write(json.dumps(sidecar, indent=1, sort_keys=True))
