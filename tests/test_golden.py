"""Golden digests of fixed-seed pipeline outputs.

Each case hashes the serialized Hamiltonian, the matching-form state and
the certificate of one seeded draw.  The digests were recorded before the
certify path was rewritten for speed; any change to the generators, the
partition, the matching, the signs or the certificate text shows up here,
even when it changes two runs the same way (which the determinism
criterion cannot see).  The pipeline digests whose partition moved were
re-pinned once, when the coloring changed from descending conflict degree
to index-tuple order, with every ``guarantee_holds`` unchanged.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from fermiopt import gaussian
from fermiopt.combinatorics import (
    build_conflict_graph, greedy_color, hamiltonian_cycle_dense, permitted_graph,
)
from fermiopt.ensembles import gen_mixed_24, gen_sparse_random, gen_ssyk, gen_two_colored
from fermiopt.gaussian import state_to_json
from fermiopt.cli import main
from fermiopt.hamiltonian import MajoranaHamiltonian, parse_hamiltonian, serialize_hamiltonian
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
    index = gen_mixed_24(n, k, seed=seed).index
    coeffs = np.where(index.weights == 4, 10 * index.coeffs, index.coeffs)
    ham = MajoranaHamiltonian.from_arrays(n, index.term_ptr, index.modes, coeffs)
    return ham, optimize_mixed_24(ham)


# (id, build, expected note fragments, sha256)
CASES = [
    (
        "ssyk-n400-k2", lambda: _ssyk(400, 2, 17), (),
        "c39220e9380719f094c07092673e77f27a6da26f0958b22b29b6b9afdaf2664d",
    ),
    (
        "ssyk-n800-k2", lambda: _ssyk(800, 2, 29), (),
        "7a099ea49704fca8a4525541dc57663fbf0661f4e542892b3b974f5d6abe644d",
    ),
    (
        "strictq-q4-k2-n40", lambda: _strictq(40, 4, 2, 5), (),
        "a9ddc154233ea80925eaf031e1018aa163645e6b56859299d04a4b37ddfa2a8c",
    ),
    (
        "strictq-q4-k2-n120", lambda: _strictq(120, 4, 2, 6), (),
        "64c1cc398aa73f52ec5e9d941aeb672f3364be545c8a109329ba03189a63f9d7",
    ),
    (
        "mixed24-k2-n40", lambda: _mixed24(40, 2, 7), ("winning branch",),
        "46e0bb38c5790da534ea48e8be80a37cced2a72a86b398c33036c14fa8af1fa5",
    ),
    (
        "mixed24-k2-n120", lambda: _mixed24(120, 2, 8), ("winning branch",),
        "0d41304e52fa3f630f9f88e7b8ce80870b9f3f39db52bfdbf7d690678b99fa1c",
    ),
    # the weight-4 branch, whose pull-back conditions on the auxiliary dimer
    (
        "mixed24-k2-n10-weight4", lambda: _mixed24(10, 2, 1), ("winning branch: weight 4",),
        "95424e3d8810801d0b877e639e96deaf4b69c98e3623e6d67e5aa80fc1c2b099",
    ),
    (
        "mixed24-quartic-x10-n200-weight4", lambda: _mixed24_quartic_x10(200, 2, 1),
        ("winning branch: weight 4",),
        "7a15107c94bc8ab234582e28cf316cbd615633f010e9602cd94ef76f20e645bb",
    ),
    (
        "mixed24-quartic-x10-n1600-weight4", lambda: _mixed24_quartic_x10(1600, 2, 1),
        ("winning branch: weight 4",),
        "83aad27b8fdc8946bf71784a44495ca4b04d3e244598b39929e4fe56c0a5576b",
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
        "3a6cd9c4349770283d1cb35b401ed2adfb965604f67d8898c2db8fea04fe0c6b",
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


# Sizes where the indexed certify layers differ most from the set-based ones;
# each digest also covers the repr of the closed form on the full Hamiltonian.
# (id, build, sha256 of artifact_digest + newline + repr(closed form))
CLOSED_FORM_CASES = [
    (
        "ssyk-n12800-k2", lambda: _ssyk(12800, 2, 31),
        "a520f8fbdd3b817e41b10fe53d979ea90529e5562119daf1d73d80f008c51590",
    ),
    (
        "strictq-q4-k2-n240", lambda: _strictq(240, 4, 2, 32),
        "787579355a881d98431b325657856822b224f8c0815aeee0e9a2fd5486c26d0a",
    ),
    (
        "mixed24-k2-n240", lambda: _mixed24(240, 2, 33),
        "e6766739e2bc63696abc7f25d24b4e4a8312fdf150530888dcc9ffcd5ac81e2b",
    ),
]


@pytest.mark.parametrize(
    "build,expected", [c[1:] for c in CLOSED_FORM_CASES], ids=[c[0] for c in CLOSED_FORM_CASES]
)
def test_golden_closed_form_digest(build, expected):
    ham, result = build()
    closed = gaussian.matching_state_expectation(result.matching, result.signs, ham)
    blob = artifact_digest(ham, result) + "\n" + repr(closed)
    assert hashlib.sha256(blob.encode()).hexdigest() == expected


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ssyk at the benchmark's largest size (k=2, so k' = 24 cuts nothing), pinned
# before the truncation, cycle and state writer were rewritten for speed and
# re-pinned when the coloring moved to index-tuple order: the state and
# certificate documents, the raw greedy colors, and the Hamiltonian cycle on
# the leftovers of the largest class.
# (seed, state sha256, certificate sha256, colors sha256, cycle sha256)
SSYK_BENCH_CASES = [
    (
        5,
        "a4a8d034ad227805b620f9eb760c105a046ce2956977bfac612d21f3cc4aeba0",
        "c686b138181bc0f941133fcd6f38e1f2b65b957186959c3908e2d9a25a481c37",
        "3424b903440b9094930e93d5c94ff36d6b78c3886b375358b16faec5fcf815e7",
        "b53e4b0db44e210e859f9ba8d1dc89711edeaa5047c569292f7bd947d56d1665",
    ),
    (
        41,
        "2f94590487fa8d80ffcbfe435147fb8a34812bed791012456c7999c157f18d5f",
        "a6495f8ac7593c4a61d1c5596c20f8bd2171a57f7972565e1d436df1e969a518",
        "ef0578ef3535684569937dd33218f4d1af71f37e083167a760b56298c926f193",
        "3d2c12cfc9c35c570095bc8c5b15be3594578f85f38df566184fc1dbdce1df4b",
    ),
]


@pytest.mark.parametrize(
    "seed,state,cert,colors,cycle", SSYK_BENCH_CASES, ids=[f"seed{c[0]}" for c in SSYK_BENCH_CASES]
)
def test_golden_ssyk_bench_size(seed, state, cert, colors, cycle):
    ham, result = _ssyk(1600, 2, seed)
    assert _sha256(state_to_json(result.matching, result.signs)) == state
    assert _sha256(result.certificate.to_json()) == cert
    assert _sha256(repr(greedy_color(build_conflict_graph(ham)))) == colors
    parts = result.partition.parts
    rows = ham.index.padded[np.asarray(parts[max(parts, key=lambda key: len(parts[key]))])]
    assert _sha256(repr(hamiltonian_cycle_dense(permitted_graph(ham, rows[rows >= 0])))) == cycle


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


def _refuse_terms(ham):
    raise RuntimeError("the terms view was built")


# gen -> optimize -> closed form on each route and both mixed24 branches
@pytest.mark.parametrize(
    "case_id",
    [
        "strictq-q4-k2-n40",
        "mixed24-k2-n40",  # the weight-2 branch
        "mixed24-k2-n10-weight4",
        "mixed24-quartic-x10-n200-weight4",
        "ssyk-n400-k2",
    ],
)
def test_optimize_paths_never_build_the_terms_view(monkeypatch, case_id):
    monkeypatch.setattr(MajoranaHamiltonian, "terms", property(_refuse_terms))
    build, notes, expected = next(case[1:] for case in CASES if case[0] == case_id)
    ham, result = build()
    for fragment in notes:
        assert any(fragment in note for note in result.certificate.notes), fragment
    closed = gaussian.matching_state_expectation(result.matching, result.signs, ham)
    assert math.isclose(closed, result.certificate.achieved, rel_tol=1e-9, abs_tol=1e-12)
    assert artifact_digest(ham, result) == expected


def test_parsed_optimize_never_builds_the_terms_view(monkeypatch, tmp_path, capsys):
    ham, result = _strictq(40, 4, 2, 5)
    h, state, cert = tmp_path / "h.json", tmp_path / "s.json", tmp_path / "c.json"
    h.write_text(serialize_hamiltonian(ham))
    monkeypatch.setattr(MajoranaHamiltonian, "terms", property(_refuse_terms))
    assert parse_hamiltonian(h.read_text()) == ham
    argv = ["optimize", "--in", str(h), "--out-state", str(state), "--out-cert", str(cert)]
    assert main(argv) in (0, 2) and "error" not in capsys.readouterr().err
    assert state.read_text() == state_to_json(result.matching, result.signs)
    assert cert.read_text() == result.certificate.to_json()


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
    # recorded before the sparse sampler drew its 60 batches in stages: sizes
    # where a draw runs every batch, and a term count met inside batch 0
    (
        "sparse-q4-n240-k2", lambda: gen_sparse_random(240, 4, 2, "normal", seed=41),
        "59c5959208a81c58ae82fddc44c736b814fb3603b52b51ae6f19d8da859c4c41",
    ),
    (
        "sparse-q4-n1000-k2", lambda: gen_sparse_random(1000, 4, 2, "normal", seed=42),
        "1ea875d618a266a29945a545bf9477df8af246ec87345a14ff2b9b655901740e",
    ),
    (
        "sparse-q2-n240-k1", lambda: gen_sparse_random(240, 2, 1, "normal", seed=43),
        "4f12200efd970bc5b3fc1be6c3a7c75d16609c1517f6162a4663e9d010a166c8",
    ),
    (
        "sparse-pm1-q6-n300-k2", lambda: gen_sparse_random(300, 6, 2, "pm1", seed=44),
        "f8db51966aa077c040952670e945e488847d0c7a6f26d27deadde131800ec067",
    ),
    (
        "mixed24-n240-k2", lambda: gen_mixed_24(240, 2, 45),
        "7b74b3987437b3033480f969b3e44e68a4a98d37e10985049fb86f8c74d1b14e",
    ),
    (
        "sparse-n-terms-batch0",
        lambda: gen_sparse_random(100, 4, 2, "normal", seed=46, n_terms=10),
        "39d1ee3da6db39e68969d8572532736b65392a2718b0b682f23dca38f73f9c37",
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
        "5a0b83d2e46c2ac347038f2beafd20b2b8f66cbb831321711f46ba8d0c744850",
    ),
    (
        "auto-strictq-n20", lambda: gen_sparse_random(20, 4, 2, "normal", seed=11), [],
        "f122630912d2aa2fe3facb9cc47afd34c198a7bb96ed5e99a9aabd37499a5627",
    ),
    (
        "strictq-n20", lambda: gen_sparse_random(20, 4, 2, "normal", seed=11),
        ["--pipeline", "strictq"],
        "f122630912d2aa2fe3facb9cc47afd34c198a7bb96ed5e99a9aabd37499a5627",
    ),
    (
        "mixed24-n20", lambda: gen_mixed_24(20, 2, 4), ["--pipeline", "mixed24"],
        "44d2c248fed50561b4381773cdc0eafb7705d93277ebd988a56770dd82bd65c7",
    ),
    (
        "ssyk-n100-k2", lambda: gen_ssyk(100, 2, seed=5), ["--pipeline", "ssyk", "--k", "2"],
        "3176574a6572b6615edc3a7edb9c7450d1eebd8a899a0fc385406ac97494b1db",
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
        "9c9cbebb296493b9e11297777c61241bad632706fbc94b51abc34fbd07f0248f",
    ),
    (
        "ssyk", {"n": 100, "k": 2},
        "dfa7c73ad23a36754bff504b4649044535ffc0b6d7c70765f3830cc60b09627c",
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


# ------------------------------------------------------------ under python -O
#
# Every check a certificate relies on is raised, not asserted, so the
# certified path must give the same artifact with asserts stripped.


# the ssyk route, and the weight-4 mixed24 branch with its pull-back and repair
@pytest.mark.parametrize("case_id", ["ssyk-n400-k2", "mixed24-quartic-x10-n200-weight4"])
def test_golden_certify_under_optimize_flag(case_id):
    expected = next(case[3] for case in CASES if case[0] == case_id)
    env = dict(os.environ)
    pkg_root = str(Path(fermiopt.__file__).resolve().parent.parent)
    tests_dir = str(Path(__file__).resolve().parent)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join([pkg_root, tests_dir] + ([inherited] if inherited else []))
    probe = (
        "import sys\n"
        "from test_golden import CASES, artifact_digest\n"
        f"build = next(case[1] for case in CASES if case[0] == {case_id!r})\n"
        "print(sys.flags.optimize, artifact_digest(*build()))\n"
    )
    run = subprocess.run(
        [sys.executable, "-O", "-c", probe], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["1", expected]
