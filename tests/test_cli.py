import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fermiopt
from fermiopt.cli import main
from fermiopt.ensembles import gen_sparse_random
from fermiopt.hamiltonian import parse_hamiltonian, serialize_hamiltonian, sparsity_profile
from fermiopt.optimizer import RatioCertificate


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


@pytest.mark.parametrize(
    "n,seed,extra,expected",
    [(6, 2, [], 2), (9, 29, ["--k", "2"], 0)],
    ids=["below-threshold", "above-threshold"],
)
def test_optimize_several_support_violators_exits_cleanly(tmp_path, n, seed, extra, expected):
    # draws with three classes over the support bound; a separate process,
    # so that an uncaught exception shows as a traceback on stderr
    h = tmp_path / "h.json"
    h.write_text(serialize_hamiltonian(gen_sparse_random(n, 2, 2, "normal", seed=seed)))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(fermiopt.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "fermiopt.cli", "optimize", "--in", str(h), *extra,
         "--out-state", str(tmp_path / "s.json"), "--out-cert", str(tmp_path / "c.json")],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == expected, proc.stderr
    assert "Traceback" not in proc.stderr
    assert RatioCertificate.from_json((tmp_path / "c.json").read_text()).guarantee_holds is (
        expected == 0
    )
