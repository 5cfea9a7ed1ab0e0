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

from fermiopt.ensembles import gen_mixed_24, gen_sparse_random, gen_ssyk
from fermiopt.gaussian import state_to_json
from fermiopt.hamiltonian import serialize_hamiltonian
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
