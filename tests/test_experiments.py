import json
import math
from pathlib import Path

import pytest

from fermiopt.experiments import (
    STUDIES,
    StudyConfig,
    _bench_instance,
    run_ratio_bench,
    run_ssyk_concentration,
    run_study,
    run_syk_scaling,
    run_theta_sweep_study,
    trial_seed,
    wilson_interval,
    write_study,
)


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and hi < 0.05
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert wilson_interval(0, 0) == (0.0, 1.0)


def test_trial_seeds_are_xor_derived():
    assert trial_seed(12, 0) == 12
    assert trial_seed(12, 5) == 12 ^ 5


def test_config_round_trip():
    cfg = StudyConfig(
        study="ratio_bench", trials=5, base_seed=3, pipeline="strictq", n=20, q=4, k=2
    )
    assert StudyConfig.from_json(cfg.to_json()) == cfg


def test_each_study_needs_its_sizes():
    StudyConfig(study="syk_scaling", trials=1, base_seed=0)  # sizes default to a grid
    for study, needed in (
        ("ratio_bench", "'n', 'k'"),
        ("ssyk_concentration", "'n', 'k'"),
        ("theta_sweep", "'n1', 'n2'"),
    ):
        with pytest.raises(ValueError, match=f"needs {needed}$"):
            StudyConfig(study=study, trials=1, base_seed=0)


def test_unknown_study_rejected():
    with pytest.raises(ValueError):
        StudyConfig(study="nope", trials=1, base_seed=0)


def test_ratio_bench_rejects_an_unknown_pipeline():
    with pytest.raises(ValueError, match="unknown pipeline 'bogus' in field 'pipeline'"):
        StudyConfig(study="ratio_bench", trials=1, base_seed=0, pipeline="bogus", n=20, k=2)


@pytest.mark.parametrize("pipeline", ["mixed24", "ssyk"])
def test_ratio_bench_rejects_q_for_a_pipeline_that_never_reads_it(pipeline):
    # these pipelines draw their own weights, so a q would be recorded but never read
    StudyConfig(study="ratio_bench", trials=1, base_seed=0, pipeline=pipeline, n=20, k=2)
    with pytest.raises(ValueError, match=f"pipeline '{pipeline}' does not read field 'q'"):
        StudyConfig(
            study="ratio_bench", trials=1, base_seed=0, pipeline=pipeline, n=20, q=6, k=2
        )


@pytest.mark.parametrize(
    "study,sizes,least",
    [
        ("ratio_bench", {"pipeline": "strictq", "n": 20, "k": 2}, 2),
        ("syk_scaling", {}, 2),
        ("theta_sweep", {"n1": 6, "n2": 2}, 4),
    ],
)
def test_study_rejects_q_not_even_or_below_its_least(study, sizes, least):
    # q=0 used to run as q=4 while the sidecar recorded 0; odd and negative
    # values used to fail only at the first trial
    for q in (0, 1, 3, -2, least - 2, least + 1):
        with pytest.raises(ValueError, match=f"field 'q' must be even and at least {least}"):
            StudyConfig(study=study, trials=1, base_seed=0, q=q, **sizes)
    assert StudyConfig(study=study, trials=1, base_seed=0, q=least, **sizes).q == least


def test_an_unset_q_draws_quartics():
    cfg = StudyConfig(study="ratio_bench", trials=1, base_seed=0, pipeline="strictq", n=20, k=2)
    ham, _ = _bench_instance(cfg, 0)
    assert set(ham.index.weights.tolist()) == {4} and "q" not in json.loads(cfg.to_json())


def test_concentration_rejects_small_truncation():
    cfg = StudyConfig(
        study="ssyk_concentration", trials=100, base_seed=0, n=40, k=2, k_prime=8
    )
    with pytest.raises(ValueError, match="e\\^2\\*k \\+ 1"):
        run_ssyk_concentration(cfg)


def test_concentration_rejects_few_trials():
    cfg = StudyConfig(study="ssyk_concentration", trials=50, base_seed=0, n=40, k=2)
    with pytest.raises(ValueError, match="100"):
        run_ssyk_concentration(cfg)


def test_concentration_small_run_reproducible():
    cfg = StudyConfig(study="ssyk_concentration", trials=100, base_seed=7, n=40, k=2)
    first = run_ssyk_concentration(cfg)
    second = run_ssyk_concentration(cfg)
    assert first.to_csv() == second.to_csv()
    assert first.summary == second.summary
    assert set(first.summary) >= {
        "freq_total_below_floor",
        "freq_total_below_floor_ci95",
        "freq_residual_above_cut",
        "theory_total_tail_bound",
    }


def test_ratio_bench_strictq_rows():
    cfg = StudyConfig(
        study="ratio_bench", trials=6, base_seed=1, pipeline="strictq", n=20, q=4, k=2
    )
    result = run_ratio_bench(cfg)
    assert len(result.rows) == 6
    for row in result.rows:
        achieved, upper, ratio, guaranteed = row[2], row[3], row[4], row[5]
        assert achieved <= upper + 1e-12
        if guaranteed:
            assert ratio >= 1.0 / 18 - 1e-12
    assert result.summary["min_guaranteed_ratio"] is None or (
        result.summary["min_guaranteed_ratio"] >= 1.0 / 18 - 1e-12
    )


def test_ratio_bench_includes_exact_column_in_budget():
    cfg = StudyConfig(
        study="ratio_bench", trials=3, base_seed=5, pipeline="strictq", n=7, q=2, k=2
    )
    result = run_ratio_bench(cfg)
    for row in result.rows:
        lam, exact_ratio = row[6], row[7]
        assert isinstance(lam, float)
        assert 0.0 < exact_ratio <= 1.0 + 1e-12


def test_syk_scaling_small_grid():
    cfg = StudyConfig(
        study="syk_scaling",
        trials=3,
        base_seed=2,
        q=4,
        size_grid=(4, 5),
        restarts=3,
    )
    result = run_syk_scaling(cfg)
    assert len(result.rows) == 6
    assert "ratio_fit" in result.summary
    assert result.summary["label"].startswith("qualitative")


def test_theta_sweep_study_small():
    cfg = StudyConfig(
        study="theta_sweep", trials=3, base_seed=4, q=4, n1=6, n2=2
    )
    result = run_theta_sweep_study(cfg)
    assert len(result.rows) == 3
    for row in result.rows:
        slope_comm, slope_fd = row[2], row[3]
        assert slope_comm == pytest.approx(slope_fd, rel=1e-5, abs=1e-7)
    assert result.summary["expected_slope_magnitude"] == pytest.approx(2 * math.sqrt(2))
    assert result.summary["mean_slope_magnitude"] == pytest.approx(
        abs(result.summary["mean_slope"])
    )


def test_write_study_artifacts(tmp_path):
    cfg = StudyConfig(
        study="ratio_bench", trials=2, base_seed=9, pipeline="strictq", n=20, q=4, k=2
    )
    result = run_study(cfg)
    out = tmp_path / "bench.csv"
    write_study(cfg, result, str(out))
    text = out.read_text()
    assert text.splitlines()[0].startswith("trial,seed,achieved")
    sidecar = json.loads((tmp_path / "bench.csv.config.json").read_text())
    assert sidecar["config"]["study"] == "ratio_bench"
    assert "summary" in sidecar


EXAMPLES = Path(__file__).parent.parent / "examples"


@pytest.mark.parametrize("path", sorted(EXAMPLES.glob("*.json")), ids=lambda p: p.name)
def test_example_config_parses(path):
    cfg = StudyConfig.from_json(path.read_text())
    assert cfg.out == path.stem + ".csv"


def test_one_example_config_per_study():
    studies = [StudyConfig.from_json(p.read_text()).study for p in EXAMPLES.glob("*.json")]
    assert sorted(studies) == sorted(STUDIES)
