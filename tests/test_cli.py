import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fermiopt
from fermiopt.cli import main
from fermiopt.combinatorics import ContractError, DiracError
from fermiopt.ensembles import gen_sparse_random
from fermiopt.experiments import StudyConfig
from fermiopt.hamiltonian import parse_hamiltonian, serialize_hamiltonian, sparsity_profile
from fermiopt.optimizer import PullBackError, RatioCertificate


def run(argv):
    return main(argv)


def test_gen_writes_file_and_sidecar(tmp_path, capsys):
    out = tmp_path / "h.json"
    code = run(
        ["gen", "--family", "ssyk", "--n", "100", "--k", "2", "--seed", "7", "--out", str(out)]
    )
    assert code == 0
    ham = parse_hamiltonian(out.read_text())
    assert ham.n_modes == 100
    assert sparsity_profile(ham).max_degree >= 1
    sidecar = json.loads((tmp_path / "h.json.spec.json").read_text())
    assert sidecar["spec"]["family"] == "ssyk"
    assert sidecar["spec"]["seed"] == 7


def test_gen_requires_seed(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["gen", "--family", "ssyk", "--n", "10", "--k", "1", "--out", str(tmp_path / "x")])
    assert exc.value.code == 1


def test_gen_artifacts_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        run(["gen", "--family", "sykq", "--n", "4", "--q", "4", "--seed", "3", "--out", str(out)])
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.json.spec.json").read_text().replace("a.json", "") == (
        tmp_path / "b.json.spec.json"
    ).read_text().replace("b.json", "")


def test_optimize_verify_round_trip(tmp_path, capsys):
    h = tmp_path / "h.json"
    run(
        ["gen", "--family", "sparse_random", "--n", "20", "--q", "4", "--k", "2",
         "--seed", "11", "--out", str(h)]
    )
    state, cert = tmp_path / "s.json", tmp_path / "c.json"
    code = run(
        ["optimize", "--in", str(h), "--out-state", str(state), "--out-cert", str(cert)]
    )
    assert code in (0, 2)
    parsed = RatioCertificate.from_json(cert.read_text())
    assert parsed.pipeline == "strictq"
    code = run(["verify", "--in", str(h), "--state", str(state)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "closed_form" in printed and "wick" in printed
    # the recomputed energy agrees with the certificate's achieved value
    recomputed = float(
        next(l for l in printed.splitlines() if l.startswith("closed_form")).split(":")[1]
    )
    achieved = parsed.achieved
    assert abs(recomputed - achieved) <= 1e-9 * max(1.0, abs(achieved))


def test_optimize_soft_exit_below_threshold(tmp_path):
    h = tmp_path / "h.json"
    run(
        ["gen", "--family", "sparse_random", "--n", "9", "--q", "4", "--k", "2",
         "--seed", "1", "--out", str(h)]
    )
    state, cert = tmp_path / "s.json", tmp_path / "c.json"
    code = run(
        ["optimize", "--in", str(h), "--out-state", str(state), "--out-cert", str(cert)]
    )
    assert code == 2
    assert not RatioCertificate.from_json(cert.read_text()).guarantee_holds


def test_exact_prints_eigenvalue(tmp_path, capsys):
    h = tmp_path / "h.json"
    h.write_text(
        json.dumps({"n_modes": 2, "terms": [{"indices": [0, 1], "coeff": 3.0}]})
    )
    code = run(["exact", "--in", str(h), "--method", "dense"])
    assert code == 0
    value = float(capsys.readouterr().out.strip())
    assert value == pytest.approx(3.0, abs=1e-9)


def test_exact_unknown_verb_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 1


def test_verify_detects_tampered_state(tmp_path, capsys):
    h = tmp_path / "h.json"
    run(
        ["gen", "--family", "sparse_random", "--n", "16", "--q", "4", "--k", "1",
         "--seed", "2", "--out", str(h)]
    )
    state, cert = tmp_path / "s.json", tmp_path / "c.json"
    run(["optimize", "--in", str(h), "--out-state", str(state), "--out-cert", str(cert)])
    # corrupt one sign: the closed form and the dense oracle still agree on
    # the corrupted state, so verification passes on the state itself
    doc = json.loads(state.read_text())
    doc["signs"][0] = -doc["signs"][0]
    state.write_text(json.dumps(doc))
    code = run(["verify", "--in", str(h), "--state", str(state)])
    assert code == 0  # routes agree with each other on any valid state


def test_sweep_theta_writes_curve(tmp_path, capsys):
    h = tmp_path / "h2.json"
    run(
        ["gen", "--family", "two_colored", "--n1", "6", "--n2", "2", "--q", "4",
         "--seed", "5", "--out", str(h)]
    )
    out = tmp_path / "curve.csv"
    code = run(
        ["sweep-theta", "--in", str(h), "--grid", "0.001,2,16", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "theta,value"
    assert len(lines) == 17


def test_sweep_theta_rejects_mismatched_sidecar(tmp_path):
    h = tmp_path / "h2.json"
    run(
        ["gen", "--family", "two_colored", "--n1", "6", "--n2", "2", "--q", "4",
         "--seed", "5", "--out", str(h)]
    )
    sidecar = tmp_path / "h2.json.spec.json"
    doc = json.loads(sidecar.read_text())
    doc["spec"]["seed"] = 6
    sidecar.write_text(json.dumps(doc))
    code = run(["sweep-theta", "--in", str(h), "--out", str(tmp_path / "c.csv")])
    assert code == 1


@pytest.mark.parametrize(
    "args,field",
    [
        (["--family", "sykq", "--n", "4", "--q", "4", "--k", "9"], "k"),
        (["--family", "sykq", "--n", "4", "--q", "4", "--n1", "3"], "n1"),
        (["--family", "ssyk", "--n", "10", "--k", "1", "--q", "4"], "q"),
        (["--family", "two_colored", "--n1", "6", "--n2", "2", "--q", "4", "--n", "8"], "n"),
    ],
)
def test_gen_rejects_a_field_its_family_does_not_read(tmp_path, capsys, args, field):
    out = tmp_path / "h.json"
    assert run(["gen", *args, "--seed", "1", "--out", str(out)]) == 1
    family = args[1]
    message = f"error: family {family!r} does not read field {field!r}\n"
    assert _one_error_line(capsys).err == message
    assert not out.exists() and not (tmp_path / "h.json.spec.json").exists()


def test_sweep_theta_rejects_a_sidecar_field_the_family_does_not_read(tmp_path, capsys):
    h = tmp_path / "h2.json"
    run(
        ["gen", "--family", "two_colored", "--n1", "6", "--n2", "2", "--q", "4",
         "--seed", "5", "--out", str(h)]
    )
    sidecar = tmp_path / "h2.json.spec.json"
    doc = json.loads(sidecar.read_text())
    doc["spec"]["k"] = 2
    sidecar.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["sweep-theta", "--in", str(h), "--out", str(tmp_path / "c.csv")]) == 1
    assert _one_error_line(capsys).err == "error: family 'two_colored' does not read field 'k'\n"
    assert not (tmp_path / "c.csv").exists()


BAD_GRIDS = ["nan,2,4", "1e-3,inf,4", "1e-3,2,0", "1e-3,2,-3", "1e-3,2,2.5", "1e-3,2",
             "1e-3,2,4,8", "a,2,4", "", "-1,2,4", "1e-3,-2,4", "0,2,4"]


@pytest.mark.parametrize("grid", BAD_GRIDS)
def test_sweep_theta_rejects_bad_grid_before_reading(tmp_path, capsys, monkeypatch, grid):
    monkeypatch.setattr("fermiopt.cli.rho_theta_sweep", _never)
    out = tmp_path / "c.csv"
    # the input does not exist: only a grid check that runs first names --grid
    # one token, so that a grid starting with "-" is not read as an option
    code = run(["sweep-theta", "--in", str(tmp_path / "missing.json"), f"--grid={grid}",
                "--out", str(out)])
    assert code == 1
    assert "--grid" in _one_error_line(capsys).err
    assert not out.exists()


def test_sweep_theta_accepts_descending_grid(tmp_path):
    h = tmp_path / "h2.json"
    run(
        ["gen", "--family", "two_colored", "--n1", "6", "--n2", "2", "--q", "4",
         "--seed", "5", "--out", str(h)]
    )
    out = tmp_path / "c.csv"
    assert run(["sweep-theta", "--in", str(h), "--grid", "2,1e-3,4", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 5


def test_sweep_theta_over_the_dense_budget_exits_one(tmp_path, capsys):
    h = tmp_path / "h2.json"
    run(
        ["gen", "--family", "two_colored", "--n1", "20", "--n2", "4", "--q", "4",
         "--seed", "1", "--out", str(h)]
    )
    capsys.readouterr()
    out = tmp_path / "c.csv"
    assert run(["sweep-theta", "--in", str(h), "--out", str(out)]) == 1
    assert "13 modes" in _one_error_line(capsys).err
    assert not out.exists()


def test_study_runs_from_config(tmp_path, capsys):
    cfg = {
        "study": "ratio_bench",
        "trials": 3,
        "base_seed": 2,
        "pipeline": "strictq",
        "n": 20,
        "q": 4,
        "k": 2,
        "out": str(tmp_path / "bench.csv"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = run(["study", "--config", str(cfg_path)])
    assert code == 0
    assert (tmp_path / "bench.csv").exists()
    assert (tmp_path / "bench.csv.config.json").exists()


def test_study_artifacts_byte_identical(tmp_path):
    cfg = {
        "study": "ssyk_concentration",
        "trials": 100,
        "base_seed": 3,
        "n": 30,
        "k": 2,
        "out": "",
    }
    outputs = []
    for name in ("one.csv", "two.csv"):
        cfg["out"] = str(tmp_path / name)
        cfg_path = tmp_path / f"{name}.cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run(["study", "--config", str(cfg_path)]) == 0
        outputs.append((tmp_path / name).read_bytes())
    assert outputs[0] == outputs[1]


def test_missing_input_file_is_error(tmp_path):
    code = run(["exact", "--in", str(tmp_path / "nope.json")])
    assert code == 1


def test_optimize_rejects_boolean_mode_count(tmp_path, capsys):
    h = tmp_path / "h.json"
    h.write_text('{"n_modes": true, "terms": []}')
    code = run(
        ["optimize", "--in", str(h), "--out-state", str(tmp_path / "s.json"),
         "--out-cert", str(tmp_path / "c.json")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "n_modes" in err
    assert not (tmp_path / "c.json").exists()


def _optimize_in_subprocess(tmp_path, h, extra=()):
    # a separate process, so that an uncaught exception shows as a
    # traceback on stderr
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(fermiopt.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-m", "fermiopt.cli", "optimize", "--in", str(h), *extra,
         "--out-state", str(tmp_path / "s.json"), "--out-cert", str(tmp_path / "c.json")],
        env=env, capture_output=True, text=True,
    )


@pytest.mark.parametrize(
    "n,seed,extra,expected",
    [(6, 2, [], 2), (9, 29, ["--k", "2"], 0)],
    ids=["below-threshold", "above-threshold"],
)
def test_optimize_several_support_violators_exits_cleanly(tmp_path, n, seed, extra, expected):
    # draws with three classes over the support bound
    h = tmp_path / "h.json"
    h.write_text(serialize_hamiltonian(gen_sparse_random(n, 2, 2, "normal", seed=seed)))
    proc = _optimize_in_subprocess(tmp_path, h, extra)
    assert proc.returncode == expected, proc.stderr
    assert "Traceback" not in proc.stderr
    assert RatioCertificate.from_json((tmp_path / "c.json").read_text()).guarantee_holds is (
        expected == 0
    )


@pytest.mark.parametrize(
    "term",
    ['{"indices": [0.7, 1.2], "coeff": 1.0}', '{"indices": 5, "coeff": 1.0}'],
    ids=["float-indices", "scalar-indices"],
)
def test_optimize_rejects_malformed_terms(tmp_path, term):
    h = tmp_path / "h.json"
    h.write_text('{"n_modes": 2, "terms": [%s]}' % term)
    proc = _optimize_in_subprocess(tmp_path, h)
    assert proc.returncode == 1
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "c.json").exists()


@pytest.mark.parametrize(
    "n_modes", ["100000000", "1" + "0" * 5000], ids=["over-cap", "over-digit-limit"]
)
def test_optimize_rejects_oversized_mode_count(tmp_path, n_modes):
    h = tmp_path / "h.json"
    h.write_text('{"n_modes": %s, "terms": []}' % n_modes)
    proc = _optimize_in_subprocess(tmp_path, h)
    assert proc.returncode == 1
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_optimize_rejects_a_strength_sum_past_the_float_range(tmp_path):
    # every coefficient is finite, but their sum of |J| is not
    doc = json.loads(serialize_hamiltonian(gen_sparse_random(400, 4, 2, "normal", seed=1)))
    for term in doc["terms"]:
        term["coeff"] = 1e306
    h = tmp_path / "h.json"
    h.write_text(json.dumps(doc))
    proc = _optimize_in_subprocess(tmp_path, h)
    assert proc.returncode == 1
    assert proc.stderr == "error: the sum of |J| overflows the float range\n"
    assert not (tmp_path / "c.json").exists()


@pytest.mark.parametrize("pipeline", ["strictq", "mixed24"])
def test_optimize_rejects_k_below_the_measured_degree(tmp_path, pipeline):
    h = tmp_path / "h.json"
    h.write_text(serialize_hamiltonian(gen_sparse_random(240, 4, 2, "normal", seed=3)))
    proc = _optimize_in_subprocess(tmp_path, h, ["--pipeline", pipeline, "--k", "1"])
    assert proc.returncode == 1
    assert proc.stderr == "error: k = 1 is below the measured degree 2\n"
    assert not (tmp_path / "c.json").exists()


@pytest.mark.parametrize("error", [DiracError, PullBackError, ContractError])
def test_optimize_maps_pipeline_errors_to_exit_1(tmp_path, capsys, monkeypatch, error):
    h = tmp_path / "h.json"
    h.write_text(serialize_hamiltonian(gen_sparse_random(6, 2, 1, "normal", seed=0)))

    def fail(*args, **kwargs):
        raise error("construction failed")

    monkeypatch.setattr("fermiopt.cli.optimize", fail)
    code = run(
        ["optimize", "--in", str(h), "--out-state", str(tmp_path / "s.json"),
         "--out-cert", str(tmp_path / "c.json")]
    )
    assert code == 1
    assert capsys.readouterr().err == "error: construction failed\n"


@pytest.mark.parametrize("pipeline", ["auto", "strictq", "mixed24", "ssyk"])
@pytest.mark.parametrize("k", ["0", "-1"])
def test_optimize_rejects_k_below_one(tmp_path, capsys, pipeline, k):
    h = tmp_path / "h.json"
    h.write_text(serialize_hamiltonian(gen_sparse_random(20, 4, 2, "normal", seed=0)))
    state, cert = tmp_path / "s.json", tmp_path / "c.json"
    code = run(
        ["optimize", "--in", str(h), "--pipeline", pipeline, "--k", k,
         "--out-state", str(state), "--out-cert", str(cert)]
    )
    assert code == 1
    assert _one_error_line(capsys).err == f"error: k must be at least 1, got {k}\n"
    assert not state.exists() and not cert.exists()


@pytest.mark.parametrize(
    "args,message",
    [
        (["--family", "ssyk", "--n", "10", "--k", "0"], "1 <= k <= binom"),
        (["--family", "ssyk", "--n", "10", "--k", "-1"], "1 <= k <= binom"),
        (["--family", "ssyk", "--n", "2", "--k", "2"], "1 <= k <= binom"),
        (["--family", "sparse_random", "--n", "600", "--q", "8", "--k", "1"], "below 2^63"),
        (["--family", "sparse_random", "--n", "20", "--q", "4", "--k", "-1"], "k >= 1"),
        (["--family", "sparse_random", "--n", "20", "--q", "4", "--k", "0"], "k >= 1"),
        (["--family", "ssyk", "--n", "10"], "needs k"),
        (["--family", "two_colored", "--n1", "6", "--q", "4"], "needs n2"),
    ],
    ids=["ssyk-k0", "ssyk-negative-k", "ssyk-k-above-range", "sparse-past-int64",
         "sparse-negative-k", "sparse-k0", "ssyk-no-k", "two-colored-no-n2"],
)
def test_gen_rejects_bad_parameters(tmp_path, args, message):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(fermiopt.__file__).resolve().parent.parent)
    out = tmp_path / "h.json"
    proc = subprocess.run(
        [sys.executable, "-m", "fermiopt.cli", "gen", *args, "--seed", "1", "--out", str(out)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ")
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


# ------------------------------------------------ documents read at the boundary


def _one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: "), captured.err
    return captured


def _never(*args, **kwargs):
    raise AssertionError("drew an instance before rejecting the document")


_PAIRS = [[0, 1], [2, 3]]

BAD_STATES = {
    "gamma-form": {
        "n_modes": 2,
        "gamma": [[0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0]],
    },
    "sign-zero": {"n_modes": 2, "pairs": _PAIRS, "signs": [0, 1]},
    "sign-fraction": {"n_modes": 2, "pairs": _PAIRS, "signs": [1.7, 1]},
    "sign-true": {"n_modes": 2, "pairs": _PAIRS, "signs": [True, 1]},
    "sign-string": {"n_modes": 2, "pairs": _PAIRS, "signs": ["1", 1]},
    "sign-float-one": {"n_modes": 2, "pairs": _PAIRS, "signs": [1.0, 1]},
    "sign-two": {"n_modes": 2, "pairs": _PAIRS, "signs": [2, 1]},
    "signs-short": {"n_modes": 2, "pairs": _PAIRS, "signs": [1]},
    "signs-missing": {"n_modes": 2, "pairs": _PAIRS},
    "pair-floats": {"n_modes": 2, "pairs": [[0.0, 1.0], [2, 3]], "signs": [1, 1]},
    "pair-bools": {"n_modes": 2, "pairs": [[False, True], [2, 3]], "signs": [1, 1]},
    "pair-triple": {"n_modes": 2, "pairs": [[0, 1, 2], [2, 3]], "signs": [1, 1]},
    "pair-decreasing": {"n_modes": 2, "pairs": [[1, 0], [2, 3]], "signs": [1, 1]},
    "pair-past-int64": {"n_modes": 2, "pairs": [[0, 1], [2, 2**63]], "signs": [1, 1]},
    "pairs-overlapping": {"n_modes": 2, "pairs": [[0, 1], [1, 2]], "signs": [1, 1]},
    "n-modes-float": {"n_modes": 2.0, "pairs": _PAIRS, "signs": [1, 1]},
    "n-modes-true": {"n_modes": True, "pairs": [[0, 1]], "signs": [1]},
    "n-modes-undercovered": {"n_modes": 3, "pairs": _PAIRS, "signs": [1, 1]},
    "other-size": {"n_modes": 3, "pairs": [*_PAIRS, [4, 5]], "signs": [1, 1, 1]},
    "not-an-object": [_PAIRS, [1, 1]],
}


def _verify(tmp_path, state_text):
    h = tmp_path / "h.json"
    h.write_text(json.dumps({"n_modes": 2, "terms": [{"indices": [0, 1], "coeff": 2.0}]}))
    state = tmp_path / "s.json"
    state.write_text(state_text)
    return run(["verify", "--in", str(h), "--state", str(state)])


@pytest.mark.parametrize("doc", BAD_STATES.values(), ids=BAD_STATES.keys())
def test_verify_rejects_malformed_state(tmp_path, capsys, doc):
    assert _verify(tmp_path, json.dumps(doc)) == 1
    assert _one_error_line(capsys).out == ""  # no route ran


@pytest.mark.parametrize("last", [[1998, 2**63], [1998, 2000]], ids=["past-int64", "out-of-range"])
def test_verify_rejects_a_bad_pair_of_a_large_state_in_one_short_line(tmp_path, capsys, last):
    pairs = [[2 * i, 2 * i + 1] for i in range(999)] + [last]
    assert _verify(tmp_path, json.dumps({"n_modes": 1000, "pairs": pairs, "signs": [1] * 1000})) == 1
    assert len(_one_error_line(capsys).err) < 100


def test_verify_rejects_state_that_is_not_json(tmp_path, capsys):
    assert _verify(tmp_path, '{"n_modes": 2, "pairs": ') == 1
    _one_error_line(capsys)


DEEP = "[" * 100_000


def test_every_document_reader_ends_deep_nesting_in_one_line(tmp_path, capsys):
    h, h2, deep = tmp_path / "h.json", tmp_path / "h2.json", tmp_path / "deep.json"
    deep.write_text(DEEP)
    h.write_text(json.dumps({"n_modes": 2, "terms": [{"indices": [0, 1], "coeff": 2.0}]}))
    run(["gen", "--family", "two_colored", "--n1", "6", "--n2", "2", "--q", "4",
         "--seed", "5", "--out", str(h2)])
    capsys.readouterr()
    out = str(tmp_path / "out")
    for argv in (
        ["optimize", "--in", str(deep), "--out-state", out, "--out-cert", out],
        ["verify", "--in", str(h), "--state", str(deep)],
        ["study", "--config", str(deep)],
        ["sweep-theta", "--in", str(h2), "--spec", str(deep), "--out", out],
    ):
        assert run(argv) == 1
        assert "not valid JSON" in _one_error_line(capsys).err
    assert not Path(out).exists()


@pytest.mark.parametrize("signs", [[1, 1], [-1, 1], [1, -1]])
def test_verify_accepts_matching_state(tmp_path, capsys, signs):
    assert _verify(tmp_path, json.dumps({"n_modes": 2, "pairs": _PAIRS, "signs": signs})) == 0
    assert f"closed_form: {2.0 * signs[0]!r}" in capsys.readouterr().out


class _Dropped:
    def __repr__(self):
        return "dropped"


_DROP = _Dropped()  # a field left out of the document

BAD_CONFIGS = [
    ("family", {"family": "sparse_random"}),
    ("trial", {"trial": 3}),
    ("trials", {"trials": "3"}),
    ("trials", {"trials": True}),
    ("trials", {"trials": _DROP}),
    ("base_seed", {"base_seed": 2.0}),
    ("'n'", {"n": 20.5}),
    ("'k'", {"k": None}),
    ("'k'", {"k": 0}),
    ("'k'", {"k": -2}),
    ("'k'", {"pipeline": "mixed24", "k": 1}),
    ("'k'", {"pipeline": "mixed24", "k": 0}),
    ("'k'", {"pipeline": "mixed24", "k": -2}),
    ("'pipeline'", {"pipeline": "bogus"}),
    ("'q'", {"pipeline": "mixed24"}),
    ("'q'", {"pipeline": "ssyk"}),
    ("'q'", {"q": 0}),
    ("'q'", {"q": 3}),
    ("'q'", {"q": -2}),
    ("restarts", {"restarts": False}),
    ("size_grid", {"size_grid": [4, "5"]}),
    ("size_grid", {"size_grid": 4}),
    ("size_grid", {"size_grid": [4]}),
    ("size_grid", {"size_grid": [4, 4]}),
    ("size_grid", {"size_grid": []}),
    ("size_grid", {"size_grid": [4, 17]}),
    ("size_grid", {"size_grid": [17, 18]}),
    ("size_grid", {"size_grid": [5, 4]}),
    ("out", {"out": 3}),
]


# a complete config of each study, which the cases below break one field at a time
STUDY_BASES = {
    "ratio_bench": {"pipeline": "strictq", "n": 20, "q": 4, "k": 2},
    "syk_scaling": {"q": 4, "size_grid": [4, 5], "restarts": 2},
}


@pytest.mark.parametrize("field,change", BAD_CONFIGS, ids=[repr(c) for _, c in BAD_CONFIGS])
def test_study_rejects_malformed_config(tmp_path, capsys, monkeypatch, field, change):
    monkeypatch.setattr("fermiopt.experiments.run_study", _never)
    # the grid and the restarts are read by the scaling study alone
    study = "syk_scaling" if field in ("size_grid", "restarts") else "ratio_bench"
    cfg = {
        "study": study, "trials": 3, "base_seed": 2, **STUDY_BASES[study],
        "out": str(tmp_path / "bench.csv"), **change,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({k: v for k, v in cfg.items() if v is not _DROP}))
    assert run(["study", "--config", str(cfg_path)]) == 1
    assert field in _one_error_line(capsys).err
    assert not (tmp_path / "bench.csv").exists()


COMPLETE_CONFIGS = {
    "ratio_bench": {"n": 20, "k": 2},
    "ssyk_concentration": {"n": 40, "k": 2},
    "theta_sweep": {"n1": 6, "n2": 2},
}
MISSING_SIZES = [(study, field) for study, sizes in COMPLETE_CONFIGS.items() for field in sizes]


@pytest.mark.parametrize("study,field", MISSING_SIZES)
def test_study_rejects_config_without_a_size_it_needs(tmp_path, capsys, monkeypatch, study, field):
    monkeypatch.setattr("fermiopt.experiments.run_study", _never)
    cfg = {"study": study, "trials": 100, "base_seed": 1, "out": str(tmp_path / "s.csv")}
    cfg.update((key, val) for key, val in COMPLETE_CONFIGS[study].items() if key != field)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run(["study", "--config", str(cfg_path)]) == 1
    assert f"needs {field!r}" in _one_error_line(capsys).err
    assert not (tmp_path / "s.csv").exists()


UNREAD_FIELDS = [
    ("syk_scaling", {"n": 20}),
    ("syk_scaling", {"k": 2}),
    ("syk_scaling", {"n1": 6}),
    ("syk_scaling", {"pipeline": "ssyk"}),
    ("ratio_bench", {"size_grid": [4, 5]}),
    ("ratio_bench", {"restarts": 3}),
    ("ratio_bench", {"k_prime": 24}),
    ("ssyk_concentration", {"q": 4}),
    ("theta_sweep", {"n": 8}),
]


@pytest.mark.parametrize(
    "study,extra", UNREAD_FIELDS, ids=[f"{study}-{next(iter(e))}" for study, e in UNREAD_FIELDS]
)
def test_study_rejects_a_field_its_study_never_reads(tmp_path, capsys, monkeypatch, study, extra):
    monkeypatch.setattr("fermiopt.experiments.run_study", _never)
    cfg = {
        "study": study, "trials": 100, "base_seed": 1, "out": str(tmp_path / "s.csv"),
        **{**COMPLETE_CONFIGS, **STUDY_BASES}[study],
    }
    StudyConfig.from_json(json.dumps(cfg))  # complete, and nothing unread
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**cfg, **extra}))
    assert run(["study", "--config", str(cfg_path)]) == 1
    (field,) = extra
    assert f"does not read field {field!r}" in _one_error_line(capsys).err
    assert not (tmp_path / "s.csv").exists()


BAD_SPECS = [
    ("colors", {"colors": 2}),
    ("seed", {"seed": "5"}),
    ("n1", {"n1": True}),
    ("'q'", {"q": 4.0}),
    ("family", {"family": _DROP}),
]


@pytest.mark.parametrize("field,change", BAD_SPECS, ids=[repr(c) for _, c in BAD_SPECS])
def test_sweep_theta_rejects_malformed_sidecar(tmp_path, capsys, monkeypatch, field, change):
    h = tmp_path / "h2.json"
    run(
        ["gen", "--family", "two_colored", "--n1", "6", "--n2", "2", "--q", "4",
         "--seed", "5", "--out", str(h)]
    )
    capsys.readouterr()
    sidecar = tmp_path / "h2.json.spec.json"
    spec = {**json.loads(sidecar.read_text())["spec"], **change}
    sidecar.write_text(json.dumps({"spec": {k: v for k, v in spec.items() if v is not _DROP}}))
    monkeypatch.setattr("fermiopt.cli.gen_two_colored", _never)
    assert run(["sweep-theta", "--in", str(h), "--out", str(tmp_path / "c.csv")]) == 1
    assert field in _one_error_line(capsys).err


@pytest.mark.parametrize("text", ['{"spec": [5]}', "[]", '{"seed": 5}'])
def test_sweep_theta_rejects_sidecar_without_spec_object(tmp_path, capsys, text):
    h = tmp_path / "h2.json"
    run(
        ["gen", "--family", "two_colored", "--n1", "6", "--n2", "2", "--q", "4",
         "--seed", "5", "--out", str(h)]
    )
    capsys.readouterr()
    (tmp_path / "h2.json.spec.json").write_text(text)
    assert run(["sweep-theta", "--in", str(h), "--out", str(tmp_path / "c.csv")]) == 1
    _one_error_line(capsys)
