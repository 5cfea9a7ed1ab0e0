"""Golden digests of fixed-seed pipeline outputs.

Each case hashes the serialized Hamiltonian, the matching-form state and
the certificate of one seeded draw.  The digests were recorded before the
certify path was rewritten for speed; any change to the generators, the
partition, the matching, the signs or the certificate text shows up here,
even when it changes two runs the same way (which the determinism
criterion cannot see).
"""

import hashlib
import json

import pytest

from fermiopt import gaussian
from fermiopt.ensembles import gen_mixed_24, gen_sparse_random, gen_ssyk, gen_two_colored
from fermiopt.gaussian import state_to_json
from fermiopt.hamiltonian import InteractionTerm, MajoranaHamiltonian, serialize_hamiltonian
from fermiopt.optimizer import optimize_mixed_24, optimize_ssyk, optimize_strict_q


def _ssyk(n, k, seed):
    ham = gen_ssyk(n, k, seed=seed)
    return ham, optimize_ssyk(ham, k)


def _strictq(n, q, k, seed):
    ham = gen_sparse_random(n, q, k, "normal", seed=seed)
    return ham, optimize_strict_q(ham)


def _mixed24(n, k, seed):
    ham = gen_mixed_24(n, k, seed=seed)
    return ham, optimize_mixed_24(ham)


def _mixed24_quartic_x10(n, k, seed):
    """A ``gen_mixed_24`` draw with its quartic coefficients scaled by 10, so
    the weight-4 branch wins at sizes where plain draws take the weight-2 one."""
    ham = gen_mixed_24(n, k, seed=seed)
    terms = tuple(
        InteractionTerm(t.indices, 10 * t.coeff) if t.weight == 4 else t for t in ham.terms
    )
    ham = MajoranaHamiltonian(n_modes=n, terms=terms)
    return ham, optimize_mixed_24(ham)


# (id, build, expected note fragments, sha256)
CASES = [
    (
        "ssyk-n400-k2", lambda: _ssyk(400, 2, 17), (),
        "57358da3ae87710479ae3d5b87f427295fc365e96bd9d290927f7689bfb0ca91",
    ),
    (
        "ssyk-n800-k2", lambda: _ssyk(800, 2, 29), (),
        "d6605cae16028b3227538a3dc9f8c0ea7fecf5c8f0ce4a62605c69ab4e982175",
    ),
    (
        "strictq-q4-k2-n40", lambda: _strictq(40, 4, 2, 5), (),
        "5566f6f4121b351d9433d69c365e14fd90eaa4db75718a9d12b322f2c179c12f",
    ),
    (
        "strictq-q4-k2-n120", lambda: _strictq(120, 4, 2, 6), (),
        "193b3d5a05dea62fd29bb3c8e1340e04d6ab80ce5832cb53f5b64e6491b63c7d",
    ),
    (
        "mixed24-k2-n40", lambda: _mixed24(40, 2, 7), ("winning branch",),
        "466207657987dbdd66eca5bf7dcf33ce6648f0dd4d48fd500df0d59b99183a7d",
    ),
    (
        "mixed24-k2-n120", lambda: _mixed24(120, 2, 8), ("winning branch",),
        "906ac0bd8cd0560d7af324f39710624f0f33d1a7bb8eac0a2ad1986e11e075b3",
    ),
    # the weight-4 branch, whose pull-back conditions on the auxiliary dimer
    (
        "mixed24-k2-n10-weight4", lambda: _mixed24(10, 2, 1), ("winning branch: weight 4",),
        "95424e3d8810801d0b877e639e96deaf4b69c98e3623e6d67e5aa80fc1c2b099",
    ),
    (
        "mixed24-quartic-x10-n200-weight4", lambda: _mixed24_quartic_x10(200, 2, 1),
        ("winning branch: weight 4",),
        "292a9fe3cc2d175491823b9652aa347be696de51e19f2ee6f8fc8ef231a54fa2",
    ),
    (
        "mixed24-quartic-x10-n1600-weight4", lambda: _mixed24_quartic_x10(1600, 2, 1),
        ("winning branch: weight 4",),
        "56750ba0acb94738ef9687679ebc052c99132e34b996b801dfd3ede66ba8df39",
    ),
    (
        "strictq-q2-fallback-below", lambda: _strictq(5, 2, 2, 0), ("fallback", "below"),
        "f68c084d2f06bab2da1c34db034d3f04c10c133f70c2c7980aaa2524f7a70e93",
    ),
    (
        "strictq-q2-fallback", lambda: _strictq(7, 2, 2, 2), ("fallback",),
        "75cbff7657a31724de4c426cacaa9ea16500b968e9ae6c295f8fadf1ac1dd026",
    ),
    (
        "strictq-q6-best-effort", lambda: _strictq(13, 6, 2, 0), ("skipped", "best-effort"),
        "f2772397c9f557916efa02045c263e0048f16d9f98564a8b68c678797bc63cbb",
    ),
    (
        "strictq-q6-skip-fallback", lambda: _strictq(13, 6, 2, 12), ("skipped", "fallback"),
        "c93f251ef2aef68a6bfa7fae5d1d0d5b3dbe5b2aba1e7fe006007cf741d8e9df",
    ),
]


def artifact_digest(ham, result) -> str:
    blob = "\n".join(
        (
            serialize_hamiltonian(ham),
            state_to_json(result.matching, result.signs),
            result.certificate.to_json(),
        )
    )
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("build,notes,expected", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_golden_digest(build, notes, expected):
    ham, result = build()
    for fragment in notes:
        assert any(fragment in note for note in result.certificate.notes), fragment
    assert artifact_digest(ham, result) == expected


@pytest.mark.parametrize(
    "case_id", ["mixed24-k2-n10-weight4", "mixed24-quartic-x10-n200-weight4"]
)
def test_weight4_pull_back_builds_no_correlation_matrix(monkeypatch, case_id):
    def refuse(self, gamma):
        raise RuntimeError("the certified route built a correlation matrix")

    monkeypatch.setattr(gaussian.CorrelationMatrix, "__init__", refuse)
    build, _, expected = next(case[1:] for case in CASES if case[0] == case_id)
    ham, result = build()
    assert artifact_digest(ham, result) == expected


# ---------------------------------------------------------- generator outputs
#
# Draws that no pipeline case above reaches: the two-colored family, +-1
# coefficients, weights 2 and 6 at sizes where the greedy placement runs
# many batches, an explicit term count, and a diluted model large enough
# that its quartet ranks pass 2^53.  Recorded before the samplers were
# batched; each digest covers the serialized Hamiltonian only.

# (id, Hamiltonian, sha256 of serialize_hamiltonian)
GENERATOR_CASES = [
    (
        "two-colored-q4", lambda: gen_two_colored(8, 4, 4, seed=3)[0],
        "4ebb1f6b2895a57703bc252205d8e7e64f58c0a78a3bfd6950d919ba9247fff2",
    ),
    (
        "two-colored-q6", lambda: gen_two_colored(9, 3, 6, seed=5)[0],
        "c2afd906fa8607f7bb2bbf51f5b54f584c44431d25bf9adb9612e3cbcadc3472",
    ),
    (
        "sparse-pm1-q4-n40", lambda: gen_sparse_random(40, 4, 2, "pm1", seed=21),
        "cd428b5db84eafdd299ff9ec37728e0b79026ae2cad8ab540de10b1754d938c8",
    ),
    (
        "sparse-pm1-q4-n120-k3", lambda: gen_sparse_random(120, 4, 3, "pm1", seed=22),
        "1b26e378d937636e3c62186625c846cc1d5444ebb1328ec7328cdeef56a88b9e",
    ),
    (
        "sparse-q2-n60-k3", lambda: gen_sparse_random(60, 2, 3, "normal", seed=23),
        "4ecb5c5099e2ec67420413dbefb05c660c015b57638a5b015b2ff1c8d5d59913",
    ),
    (
        "sparse-q6-n60-k2", lambda: gen_sparse_random(60, 6, 2, "normal", seed=24),
        "f4be68bcf2c2500feea416224e5adcd79afadd74489d9a349cfa290d771fb3c5",
    ),
    (
        "sparse-pm1-q6-n40", lambda: gen_sparse_random(40, 6, 1, "pm1", seed=25),
        "dd451c193b7ef0ffeffe26c6ccb9aa47bc7dbdb089da1a5bc55a440dc44672ef",
    ),
    (
        "sparse-n-terms",
        lambda: gen_sparse_random(30, 4, 2, "normal", seed=26, n_terms=20),
        "511efeaa0e1b6fdb19d25628232c3683f6054ff1c17a603d2e98e6cd793155f8",
    ),
    (
        "ssyk-n12800", lambda: gen_ssyk(12800, 2, seed=27),
        "fe16281d9f1884a67a5e0b14dc573cf5c79a18ef786577e92608fd644f287d61",
    ),
]


@pytest.mark.parametrize(
    "build,expected", [c[1:] for c in GENERATOR_CASES], ids=[c[0] for c in GENERATOR_CASES]
)
def test_golden_generator_output(build, expected):
    blob = serialize_hamiltonian(build())
    assert hashlib.sha256(blob.encode()).hexdigest() == expected


# ------------------------------------------------------ command-line artifacts
#
# The same idea one layer up: what ``fermiopt optimize`` and ``fermiopt
# study`` write and print.  These pin the pipeline dispatch of the CLI and
# of the ratio bench, not only the optimizers behind it.

from fermiopt.cli import main as cli_main  # noqa: E402


def _cli_digest(capsys, argv, files) -> str:
    code = cli_main(argv)
    printed = capsys.readouterr().out
    blob = "\n".join([str(code), printed] + [f.read_text() for f in files])
    return hashlib.sha256(blob.encode()).hexdigest()


# (id, Hamiltonian, optimize arguments, sha256 of exit code + stdout + state + certificate)
OPTIMIZE_CASES = [
    (
        "auto-mixed24-n12", lambda: gen_mixed_24(12, 2, 3), ["--pipeline", "auto"],
        "fbd73707a4e460368c94ca80fe52add72d982d6557aaa5a517cc5ccce129eae6",
    ),
    (
        "auto-strictq-n20", lambda: gen_sparse_random(20, 4, 2, "normal", seed=11), [],
        "1a3b2f4c89d067e3fa71c81d132c4a6a9bd12982ea51b66e5a8cd833dbe9355d",
    ),
    (
        "strictq-n20", lambda: gen_sparse_random(20, 4, 2, "normal", seed=11),
        ["--pipeline", "strictq"],
        "1a3b2f4c89d067e3fa71c81d132c4a6a9bd12982ea51b66e5a8cd833dbe9355d",
    ),
    (
        "mixed24-n20", lambda: gen_mixed_24(20, 2, 4), ["--pipeline", "mixed24"],
        "dbd47599d7640541a125c0422480bfad807d7155e75374854ec60939f9b95e23",
    ),
    (
        "ssyk-n100-k2", lambda: gen_ssyk(100, 2, seed=5), ["--pipeline", "ssyk", "--k", "2"],
        "df69f5c21c9cac84d4881cefdd05b5e83fcb7e87ce084976dcc0e97ba04ea863",
    ),
]


@pytest.mark.parametrize(
    "build,args,expected", [c[1:] for c in OPTIMIZE_CASES], ids=[c[0] for c in OPTIMIZE_CASES]
)
def test_golden_cli_optimize(tmp_path, capsys, build, args, expected):
    h = tmp_path / "h.json"
    h.write_text(serialize_hamiltonian(build()))
    state, cert = tmp_path / "s.json", tmp_path / "c.json"
    argv = ["optimize", "--in", str(h), *args, "--out-state", str(state), "--out-cert", str(cert)]
    assert _cli_digest(capsys, argv, [state, cert]) == expected


# (pipeline, sizes, sha256 of exit code + CSV + sidecar); above 8 modes the
# exact-eigenvalue columns stay empty, whose last bits depend on the BLAS build
STUDY_CASES = [
    (
        "strictq", {"n": 9, "q": 2, "k": 2},
        "2148b60196d819e71fa7761de2083c2e9de236feb03d0652c39329e4143d0336",
    ),
    (
        "mixed24", {"n": 10, "k": 2},
        "e06f5dccb82965c70fd505474ef7d4f351c3d2cb71ea439b5a018c931f417f32",
    ),
    (
        "ssyk", {"n": 100, "k": 2},
        "85bf0e9ec90305102de2d58269df677db2591b064fbbabad9dd6e959ca267031",
    ),
]


@pytest.mark.parametrize("pipeline,sizes,expected", STUDY_CASES, ids=[c[0] for c in STUDY_CASES])
def test_golden_ratio_bench_study(tmp_path, capsys, pipeline, sizes, expected):
    config = tmp_path / "bench.json"
    config.write_text(
        json.dumps(
            {"study": "ratio_bench", "trials": 3, "base_seed": 9, "pipeline": pipeline, **sizes}
        )
    )
    out = tmp_path / "bench.csv"
    code = cli_main(["study", "--config", str(config), "--out", str(out)])
    capsys.readouterr()  # the summary lines name the output path
    sidecar = out.with_name(out.name + ".config.json")
    blob = "\n".join([str(code), out.read_text(), sidecar.read_text()])
    assert hashlib.sha256(blob.encode()).hexdigest() == expected


# --------------------------------------------------------- the Gaussian ascent
#
# The ascent's trajectory depends on the last bit of every energy and
# gradient it evaluates, so this pins the evaluator's arithmetic and its
# scatter order at weights 2 and 4, alone and mixed.  Recorded before the
# evaluator became one matching expansion for every weight.

from fermiopt.ensembles import gen_syk_q  # noqa: E402
from fermiopt.oracle import gaussian_numeric_max  # noqa: E402

# (Hamiltonian, ascent seed), each searched with four restarts
ASCENT_CASES = [
    (lambda: gen_syk_q(5, 4, seed=1), 1),
    (lambda: gen_syk_q(6, 4, seed=2), 2),
    (lambda: gen_syk_q(4, 2, seed=3), 3),
    (lambda: gen_mixed_24(6, 2, 4), 4),
]


def test_golden_gaussian_ascent():
    digest = hashlib.sha256()
    for build, seed in ASCENT_CASES:
        result = gaussian_numeric_max(build(), restarts=4, seed=seed)
        digest.update(repr(result.value).encode())
        digest.update(str(result.converged).encode())
        digest.update(result.corr.gamma.tobytes())
    assert digest.hexdigest() == (
        "056cb21db3e610c0525f7dc50bb121c380d68045bd35279dac725016ae62e4c7"
    )


# ------------------------------------------------------------- the theta curve
#
# The sweep sums zeta and diagonalizes it through BLAS, whose thread count
# moves the curve's last bits, so the CLI runs in a child process with one
# BLAS thread.  Recorded before the correlation-matrix state form was removed.

import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import fermiopt  # noqa: E402


def test_golden_theta_sweep_csv(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    pkg_root = str(Path(fermiopt.__file__).resolve().parent.parent)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = pkg_root + (os.pathsep + inherited if inherited else "")
    for args in (
        ["gen", "--family", "two_colored", "--n1", "8", "--n2", "4", "--q", "4",
         "--seed", "3", "--out", "h.json"],
        ["sweep-theta", "--in", "h.json", "--out", "curve.csv"],
    ):
        run = subprocess.run(
            [sys.executable, "-m", "fermiopt.cli", *args],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert run.returncode == 0, run.stderr
    digest = hashlib.sha256((tmp_path / "curve.csv").read_bytes()).hexdigest()
    assert digest == "df4fd95fbb597a8f699ec356dc4ae5ed1e16956641d0f44872842fd392d3cd2f"
