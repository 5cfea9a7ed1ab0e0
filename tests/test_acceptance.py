"""Acceptance suite: every criterion at its stated tolerance and budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Budgets are wall-clock seconds on a desk machine.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import fermiopt
from fermiopt.combinatorics import diffuse_matching
from fermiopt.ensembles import (
    gen_mixed_24,
    gen_sparse_random,
    gen_ssyk,
    gen_syk_q,
    gen_two_colored,
)
from fermiopt.experiments import (
    StudyConfig,
    run_ssyk_concentration,
    run_syk_scaling,
    run_theta_sweep_study,
    wilson_interval,
)
from fermiopt.gaussian import (
    Matching,
    SignAssignment,
    assign_signs,
    correlation_from_matching,
    hamiltonian_expectation,
    matching_state_expectation,
    pfaffian,
)
from fermiopt.hamiltonian import (
    InteractionTerm,
    MajoranaHamiltonian,
    total_strength,
)
from fermiopt.optimizer import (
    lift_to_strict4,
    optimize_mixed_24,
    optimize_ssyk,
    optimize_strict_q,
    pull_back,
    truncate_to_sparse,
)
from fermiopt.oracle import (
    dense_expectation,
    dense_state_from_matching,
    lambda_max_exact,
)

from bruteforce import pfaffian_matching_sum, random_antisymmetric


class Budget:
    def __init__(self, criterion: str, seconds: float):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is not None:
            self._emit(f"ACCEPTANCE {self.criterion}: FAIL after {elapsed:.1f}s")
            return False
        if elapsed >= self.seconds:
            self._emit(f"ACCEPTANCE {self.criterion}: FAIL (runtime {elapsed:.1f}s over budget)")
            raise AssertionError(f"budget exceeded: {elapsed:.1f}s >= {self.seconds:.0f}s")
        self._emit(
            f"ACCEPTANCE {self.criterion}: PASS ({elapsed:.1f}s / {self.seconds:.0f}s budget)"
        )
        return False

    @staticmethod
    def _emit(line: str) -> None:
        print(line)
        from conftest import ACCEPTANCE_LINES

        ACCEPTANCE_LINES.append(line)


def _random_state(rng, n_modes):
    modes = list(rng.permutation(2 * n_modes))
    pairs = tuple((min(a, b), max(a, b)) for a, b in zip(modes[::2], modes[1::2]))
    matching = Matching(pairs)
    signs = SignAssignment.from_dict({p: int(rng.choice([-1, 1])) for p in pairs})
    return matching, signs


def _random_ham(rng, n_modes, n_terms, weights):
    usable = [w for w in weights if w <= 2 * n_modes]
    chosen = set()
    while len(chosen) < n_terms:
        w = int(rng.choice(usable))
        idx = tuple(sorted(rng.choice(2 * n_modes, size=w, replace=False).tolist()))
        chosen.add(idx)
    return MajoranaHamiltonian(
        n_modes=n_modes,
        terms=tuple(InteractionTerm(i, float(rng.standard_normal())) for i in sorted(chosen)),
    )


def test_criterion_1_algebra_oracle_equivalence():
    with Budget("1 (three-route algebra equivalence)", 30):
        rng = np.random.default_rng(20260808)
        for _ in range(200):
            n_modes = int(rng.integers(2, 6))
            ham = _random_ham(rng, n_modes, int(rng.integers(2, 8)), (2, 4, 6))
            matching, signs = _random_state(rng, n_modes)
            closed = matching_state_expectation(matching, signs, ham)
            wick = hamiltonian_expectation(correlation_from_matching(matching, signs), ham)
            dense = dense_expectation(ham, dense_state_from_matching(matching, signs))
            scale = max(1.0, abs(closed))
            assert abs(closed - wick) <= 1e-9 * scale
            assert abs(closed - dense) <= 1e-9 * scale


def test_criterion_2_pfaffian_correctness():
    with Budget("2 (Pfaffian vs determinant and matching sum)", 60):
        rng = np.random.default_rng(7)
        sizes = [2, 4, 6, 8, 10, 12, 14, 16]
        for i in range(1000):
            mat = random_antisymmetric(rng, sizes[i % len(sizes)])
            pf = pfaffian(mat)
            det = float(np.linalg.det(mat))
            assert abs(pf * pf - det) <= 1e-8 * max(1.0, abs(det))
        for m in (2, 4, 6, 8):
            for _ in range(25):
                mat = random_antisymmetric(rng, m, integer=True)
                assert pfaffian(mat) == pfaffian_matching_sum(mat)


def test_criterion_3_strict_route_certificates():
    with Budget("3 (strict-route certificates)", 60):
        # strictly 4-local, 2-sparse, 2n = 40
        for trial in range(100):
            ham = gen_sparse_random(20, 4, 2, "normal", seed=3000 ^ trial)
            result = optimize_strict_q(ham, k=2)
            cert = result.certificate
            assert cert.part_bound == 18
            best = max(
                sum(abs(ham.terms[i].coeff) for i in ids)
                for ids in result.partition.parts.values()
            )
            assert cert.achieved == best
            assert cert.achieved >= total_strength(ham) / 18 - 1e-12
        # q = 2, k = 2 at n = 7 against the dense oracle
        for trial in range(25):
            ham = gen_sparse_random(7, 2, 2, "normal", seed=3100 ^ trial)
            result = optimize_strict_q(ham, k=2)
            assert result.certificate.part_bound == 6
            assert not any("skipped" in n for n in result.certificate.notes)
            lam = lambda_max_exact(ham)
            assert result.certificate.achieved >= lam / 6 - 1e-9 * lam


def _adversarial_overlap_instance(rng):
    """Quartic plus weight-2 terms riding on its dimers, on 8 Majoranas."""
    base = sorted(rng.choice(8, size=4, replace=False).tolist())
    quartic = InteractionTerm(tuple(base), float(rng.standard_normal()))
    terms = [quartic]
    added = False
    for pair in ((base[0], base[1]), (base[2], base[3])):
        if rng.random() < 0.85:
            terms.append(InteractionTerm(pair, float(2.0 * rng.standard_normal())))
            added = True
    if not added:
        terms.append(InteractionTerm((base[0], base[1]), -2.0))
    return MajoranaHamiltonian(n_modes=4, terms=tuple(terms))


def test_criterion_4_mixed_route_and_pull_back():
    with Budget("4 (mixed-weight certificates and pull-back)", 120):
        for trial in range(100):
            ham = gen_mixed_24(20, 2, seed=4000 ^ trial)
            result = optimize_mixed_24(ham, k=2)
            cert = result.certificate
            assert cert.part_bound == 18
            assert not any("skipped" in n for n in cert.notes)
            slack = 1e-9 * cert.upper_bound
            # the winning branch value equals the heaviest class weight
            branch_value = max(
                sum(abs(ham.terms[i].coeff) for i in ids)
                for ids in result.partition.parts.values()
            )
            assert cert.achieved >= branch_value - slack
            assert cert.achieved >= cert.upper_bound / 36 - slack
            recomputed = matching_state_expectation(result.matching, result.signs, ham)
            assert abs(recomputed - cert.achieved) <= slack + 1e-12
        # pull-back contract on adversarial overlaps, dense oracle at 10 Majoranas
        rng = np.random.default_rng(44)
        for _ in range(100):
            ham = _adversarial_overlap_instance(rng)
            lifted = lift_to_strict4(ham)
            quartic_id = next(i for i, t in enumerate(ham.terms) if t.weight == 4)
            matching, _ = diffuse_matching(ham, [quartic_id])
            signs = assign_signs(matching, [ham.terms[quartic_id]])
            support = set(ham.terms[quartic_id].indices)
            i1, i2 = next(p for p in matching.pairs if not set(p) & support)
            kept = tuple(p for p in matching.pairs if p != (i1, i2))
            tilde_matching = Matching(kept + ((i1, 8), (i2, 9)))
            sd = {p: signs.as_dict()[p] for p in kept}
            sd[(i1, 8)] = 1
            sd[(i2, 9)] = 1
            tilde_signs = SignAssignment.from_dict(sd)
            tilde_value = matching_state_expectation(
                tilde_matching, tilde_signs, lifted
            )
            dense_tilde = dense_expectation(
                lifted, dense_state_from_matching(tilde_matching, tilde_signs)
            )
            assert abs(dense_tilde - tilde_value) <= 1e-9 * max(1.0, abs(tilde_value))
            back_matching, back_signs = pull_back(tilde_matching, tilde_signs, ham, lifted)
            value = matching_state_expectation(back_matching, back_signs, ham)
            dense_value = dense_expectation(
                ham, dense_state_from_matching(back_matching, back_signs)
            )
            assert abs(dense_value - value) <= 1e-9 * max(1.0, abs(value))
            assert value >= tilde_value - 1e-9 * total_strength(ham)


def test_criterion_5_ssyk_certificates():
    with Budget("5 (diluted-quartic certificates at n=200)", 300):
        trials = 200
        hits = 0
        for trial in range(trials):
            ham = gen_ssyk(200, 1, seed=5000 ^ trial)
            result = optimize_ssyk(ham, k=1)
            cert = result.certificate
            assert cert.part_bound == 5524
            core, _ = truncate_to_sparse(ham, 16)
            core_value = matching_state_expectation(result.matching, result.signs, core)
            best = max(
                sum(abs(core.terms[i].coeff) for i in ids)
                for ids in result.partition.parts.values()
            )
            assert core_value == best  # exact part-weight identity, every trial
            if cert.achieved >= cert.upper_bound / 5524 - 1e-9 * cert.upper_bound:
                hits += 1
        assert hits >= 0.95 * trials, f"only {hits}/{trials} met the ratio floor"


def _anticommuting_family(rng, n_modes):
    pool = list(rng.permutation(np.arange(1, 2 * n_modes)))
    terms = []
    while pool and len(terms) < 5:
        size = int(rng.choice([1, 3]))
        if size > len(pool):
            size = 1
        chunk, pool = pool[:size], pool[size:]
        terms.append(
            InteractionTerm(tuple(sorted([0] + list(map(int, chunk)))), float(rng.standard_normal()))
        )
    return MajoranaHamiltonian(n_modes=n_modes, terms=tuple(terms))


def test_criterion_6_anticommuting_spectrum_identity():
    with Budget("6 (anticommuting-family spectrum identity)", 60):
        rng = np.random.default_rng(606)
        for _ in range(50):
            n_modes = int(rng.integers(3, 7))
            ham = _anticommuting_family(rng, n_modes)
            expected = math.sqrt(sum(t.coeff**2 for t in ham.terms))
            lam = lambda_max_exact(ham)
            assert abs(lam - expected) <= 1e-8 * max(1.0, expected)


def test_criterion_7_concentration_tails():
    with Budget("7 (concentration of strength and residual)", 120):
        cfg = StudyConfig(
            study="ssyk_concentration",
            trials=1000,
            base_seed=777,
            n=100,
            k=2,
            k_prime=24,
        )
        result = run_ssyk_concentration(cfg)
        summary = result.summary
        assert summary["freq_total_below_floor"] <= 0.02
        assert summary["freq_residual_above_cut"] <= 0.05
        lo, hi = summary["freq_total_below_floor_ci95"]
        assert 0.0 <= lo <= hi <= 1.0
        lo, hi = summary["freq_residual_above_cut_ci95"]
        assert 0.0 <= lo <= hi <= 1.0
        print(
            "  strength tail {:.4f} CI {}; residual tail {:.4f} CI {}".format(
                summary["freq_total_below_floor"],
                summary["freq_total_below_floor_ci95"],
                summary["freq_residual_above_cut"],
                summary["freq_residual_above_cut_ci95"],
            )
        )


def test_criterion_8_ratio_decay_qualitative():
    # qualitative by the criterion's own framing: asymptotic, high-probability
    with Budget("8 (ratio decay and rotated-state sweep)", 1200):
        cfg = StudyConfig(
            study="syk_scaling",
            trials=50,
            base_seed=1,
            q=4,
            size_grid=(4, 5, 6, 7, 8),
            restarts=6,
        )
        result = run_syk_scaling(cfg)
        medians = result.summary["median_ratio_per_n"]
        values = [medians[str(n)] for n in (4, 5, 6, 7, 8)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:])), values
        # quadratic control: the numeric search reaches the exact optimum
        rng = np.random.default_rng(88)
        from fermiopt.oracle import gaussian_numeric_max

        for trial in range(10):
            ham = gen_syk_q(int(rng.integers(4, 7)), 2, seed=800 ^ trial)
            search = gaussian_numeric_max(ham, restarts=4, seed=trial)
            lam = lambda_max_exact(ham)
            assert search.value / lam >= 0.999
        # rotated-state sweep statistics
        sweep_cfg = StudyConfig(
            study="theta_sweep", trials=200, base_seed=99, q=4, n1=8, n2=4
        )
        sweep = run_theta_sweep_study(sweep_cfg)
        assert sweep.summary["frac_positive_best"] >= 0.90
        expected = 2.0 * math.sqrt(4)
        # first-order response magnitude; the sweep orients theta along the
        # measured slope, whose expected magnitude is 2*sqrt(n2)
        assert abs(sweep.summary["mean_slope_magnitude"] - expected) <= 0.20 * expected
        print(
            "  medians {}; mean slope {:.3f} (expected magnitude {:.1f}); positive {:.2%}".format(
                [round(v, 4) for v in values],
                sweep.summary["mean_slope"],
                expected,
                sweep.summary["frac_positive_best"],
            )
        )


def _run_cli(args, cwd):
    # The child runs in a tmp directory, where a relative PYTHONPATH inherited
    # from the caller (e.g. PYTHONPATH=src) would not resolve; point it at the
    # absolute directory of the fermiopt package this process imported.
    pkg_root = str(Path(fermiopt.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = pkg_root + (os.pathsep + inherited if inherited else "")
    return subprocess.run(
        [sys.executable, "-m", "fermiopt.cli", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


def test_criterion_9_cli_determinism(tmp_path):
    with Budget("9 (byte-identical CLI artifacts)", 300):
        runs = []
        for label in ("one", "two"):
            work = tmp_path / label
            work.mkdir()
            r = _run_cli(
                ["gen", "--family", "ssyk", "--n", "60", "--k", "2", "--seed", "7",
                 "--out", "h.json"],
                work,
            )
            assert r.returncode == 0, r.stderr
            r = _run_cli(
                ["optimize", "--in", "h.json", "--pipeline", "ssyk", "--k", "2",
                 "--out-state", "s.json", "--out-cert", "c.json"],
                work,
            )
            assert r.returncode in (0, 2), r.stderr
            r = _run_cli(
                ["gen", "--family", "two_colored", "--n1", "6", "--n2", "2", "--q", "4",
                 "--seed", "3", "--out", "h2.json"],
                work,
            )
            assert r.returncode == 0, r.stderr
            r = _run_cli(
                ["sweep-theta", "--in", "h2.json", "--grid", "0.001,2,32",
                 "--out", "curve.csv"],
                work,
            )
            assert r.returncode == 0, r.stderr
            cfg = work / "cfg.json"
            cfg.write_text(
                '{"study": "ratio_bench", "trials": 5, "base_seed": 11,'
                ' "pipeline": "strictq", "n": 20, "q": 4, "k": 2, "out": "bench.csv"}'
            )
            r = _run_cli(["study", "--config", "cfg.json"], work)
            assert r.returncode == 0, r.stderr
            runs.append(work)
        for name in ("h.json", "h.json.spec.json", "s.json", "c.json",
                     "h2.json", "curve.csv", "bench.csv", "bench.csv.config.json"):
            a = (runs[0] / name).read_bytes()
            b = (runs[1] / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"
