
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fermiopt
from fermiopt.combinatorics import (
    ContractError,
    build_conflict_graph,
    diffuse_partition,
    greedy_color,
)
from fermiopt.ensembles import gen_mixed_24, gen_sparse_random, gen_ssyk
from fermiopt.gaussian import (
    Matching,
    SignAssignment,
    assign_signs,
    matching_state_expectation,
)
from fermiopt.hamiltonian import (
    FormatError,
    InteractionTerm,
    MajoranaHamiltonian,
    sparsity_profile,
    total_strength,
)
from fermiopt.optimizer import (
    PullBackError,
    RatioCertificate,
    _ranked_parts,
    lift_to_strict4,
    optimize,
    optimize_mixed_24,
    optimize_ssyk,
    optimize_strict_q,
    pull_back,
    ssyk_part_bound,
    truncate_to_sparse,
)
from fermiopt.oracle import dense_expectation, dense_state_from_matching, lambda_max_exact

from bruteforce import truncation_marks_scan


def ham_of(n_modes, *pairs):
    return MajoranaHamiltonian(
        n_modes=n_modes,
        terms=tuple(InteractionTerm(tuple(i), c) for i, c in pairs),
    )


# ----------------------------------------------------------- strict route


def test_single_term_saturates():
    ham = ham_of(8, ((0, 1, 2, 3), -7.0))
    result = optimize_strict_q(ham)
    cert = result.certificate
    assert cert.achieved == 7.0
    assert cert.upper_bound == 7.0
    assert matching_state_expectation(result.matching, result.signs, ham) == 7.0


def test_strict_bound_value_quartic():
    ham = gen_sparse_random(20, 4, 2, "normal", seed=0)
    result = optimize_strict_q(ham)
    assert result.certificate.part_bound == 18
    assert result.certificate.guaranteed_ratio == 1.0 / 18


@pytest.mark.parametrize("seed", range(15))
def test_strict_quartic_selected_part_weight_exact(seed):
    ham = gen_sparse_random(20, 4, 2, "normal", seed=seed)
    result = optimize_strict_q(ham)
    # independent recomputation of every part weight
    partition = result.partition
    best = max(
        sum(abs(ham.terms[i].coeff) for i in ids) for ids in partition.parts.values()
    )
    assert result.certificate.achieved == best
    assert result.certificate.achieved >= total_strength(ham) / 18 - 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_strict_certificate_against_dense_oracle(seed):
    # q = 2 at sizes where the guarantee threshold n > 3k holds
    ham = gen_sparse_random(7, 2, 2, "normal", seed=seed)
    result = optimize_strict_q(ham)
    cert = result.certificate
    assert cert.part_bound == 6
    rho = dense_state_from_matching(result.matching, result.signs)
    assert dense_expectation(ham, rho) == pytest.approx(cert.achieved, rel=1e-9)
    lam = lambda_max_exact(ham)
    # the ratio holds whenever the heaviest class got matched, fallback or not
    assert not any("skipped" in note for note in cert.notes)
    assert cert.achieved >= lam / 6 - 1e-9 * lam


def test_strict_certificate_iterative_oracle_32_majoranas():
    ham = gen_sparse_random(16, 4, 1, "normal", seed=4)
    result = optimize_strict_q(ham)
    cert = result.certificate
    assert cert.guarantee_holds  # n = 16 > 15 * 1
    lam = lambda_max_exact(ham, method="iterative")
    assert cert.achieved >= cert.guaranteed_ratio * lam - 1e-8 * lam


def test_strict_rejects_mixed_weights():
    ham = ham_of(8, ((0, 1), 1.0), ((2, 3, 4, 5), 1.0))
    with pytest.raises(ValueError):
        optimize_strict_q(ham)


def test_strict_empty_hamiltonian_degenerate():
    ham = MajoranaHamiltonian(n_modes=4, terms=())
    cert = optimize_strict_q(ham).certificate
    assert cert.achieved == 0.0 and cert.upper_bound == 0.0
    assert not cert.guarantee_holds


def test_below_threshold_still_attempts():
    ham = gen_sparse_random(9, 4, 2, "normal", seed=3)  # n=9 < 15k=30
    result = optimize_strict_q(ham)
    assert not result.certificate.guarantee_holds
    assert result.certificate.achieved > 0.0


# ----------------------------------------------------------------- lifting


def test_lift_weight2_sign_convention():
    ham = ham_of(4, ((0, 1), 3.0))
    lifted = lift_to_strict4(ham)
    term = lifted.terms[0]
    assert term.indices == (0, 1, 8, 9)
    assert term.coeff == -3.0
    assert lifted.n_modes == 5


def test_lift_pure_weight4_is_embedding():
    ham = gen_sparse_random(10, 4, 2, "normal", seed=1)
    lifted = lift_to_strict4(ham)
    assert lifted.terms == ham.terms
    assert lifted.n_modes == ham.n_modes + 1


@pytest.mark.parametrize("seed", range(5))
def test_lift_preserves_total_strength(seed):
    ham = gen_mixed_24(10, 2, seed=seed)
    lifted = lift_to_strict4(ham)
    assert total_strength(lifted) == pytest.approx(total_strength(ham), rel=1e-12)


def test_lift_preserves_lambda_max():
    ham = gen_mixed_24(5, 2, seed=9)
    lifted = lift_to_strict4(ham)
    assert lambda_max_exact(lifted) == pytest.approx(
        lambda_max_exact(ham), rel=1e-9
    )


# ------------------------------------------------------------- mixed route


def test_mixed_bound_value():
    ham = gen_mixed_24(20, 2, seed=0)
    result = optimize_mixed_24(ham, k=2)
    assert result.certificate.part_bound == 18
    assert result.certificate.guaranteed_ratio == 1.0 / 36


def test_mixed_pure_weight2_diffuse_whole_set():
    # disjoint, unbridged weight-2 terms: one diffuse class takes everything
    ham = ham_of(4, ((0, 1), 1.5), ((4, 5), -2.0))
    result = optimize_mixed_24(ham)
    cert = result.certificate
    assert cert.achieved == pytest.approx(3.5, abs=1e-12)
    rho = dense_state_from_matching(result.matching, result.signs)
    assert dense_expectation(ham, rho) == pytest.approx(3.5, abs=1e-10)


@pytest.mark.parametrize("seed", range(15))
def test_mixed_certificates_at_bench_size(seed):
    ham = gen_mixed_24(20, 2, seed=100 + seed)
    result = optimize_mixed_24(ham, k=2)
    cert = result.certificate
    recomputed = matching_state_expectation(result.matching, result.signs, ham)
    assert recomputed == pytest.approx(cert.achieved, rel=1e-12)
    if cert.guarantee_holds:
        assert cert.achieved >= total_strength(ham) / 36 - 1e-9


@pytest.mark.parametrize("seed", range(8))
def test_mixed_against_dense_oracle(seed):
    ham = gen_mixed_24(6, 2, seed=40 + seed)
    result = optimize_mixed_24(ham, k=2)
    rho = dense_state_from_matching(result.matching, result.signs)
    assert dense_expectation(ham, rho) == pytest.approx(
        result.certificate.achieved, rel=1e-9, abs=1e-12
    )
    lam = lambda_max_exact(ham)
    if result.certificate.guarantee_holds:
        assert result.certificate.achieved >= lam / 36 - 1e-9 * lam


def test_mixed_rejects_other_weights():
    ham = ham_of(8, ((0, 1, 2, 3, 4, 5), 1.0))
    with pytest.raises(ValueError):
        optimize_mixed_24(ham)


# -------------------------------------------------------------- pull back


def branch_b_state(ham, quartic_ids, marked, aux):
    """Hand-built weight-4 branch state for pull-back tests."""
    matching, _ = __import__("fermiopt.combinatorics", fromlist=["diffuse_matching"]).diffuse_matching(
        ham, quartic_ids
    )
    signs = assign_signs(matching, ham, quartic_ids)
    i1, i2 = marked
    kept = tuple(p for p in matching.pairs if p != marked)
    tilde_matching = Matching(kept + ((i1, aux[0]), (i2, aux[1])))
    sd = {p: signs.as_dict()[p] for p in kept}
    sd[(i1, aux[0])] = 1
    sd[(i2, aux[1])] = 1
    return matching, tilde_matching, SignAssignment.from_dict(sd)


def test_pull_back_weight2_branch_is_exact():
    ham = ham_of(4, ((0, 1), 2.0), ((4, 5), -1.0))
    lifted = lift_to_strict4(ham)
    matching = Matching(((0, 1), (2, 3), (4, 5), (6, 7)))
    signs = assign_signs(matching, ham, range(ham.n_terms))
    tilde_matching = Matching(matching.pairs + ((8, 9),))
    sd = signs.as_dict()
    sd[(8, 9)] = -1
    tilde_signs = SignAssignment.from_dict(sd)
    tilde_value = matching_state_expectation(tilde_matching, tilde_signs, lifted)
    assert tilde_value == pytest.approx(3.0, abs=1e-12)
    back_matching, back_signs = pull_back(tilde_matching, tilde_signs, ham, lifted)
    value = matching_state_expectation(back_matching, back_signs, ham)
    assert value == tilde_value
    rho = dense_state_from_matching(back_matching, back_signs)
    assert dense_expectation(ham, rho) == pytest.approx(value, abs=1e-10)


def marked_edge(ham, quartic_ids):
    from fermiopt.combinatorics import diffuse_matching

    matching, _ = diffuse_matching(ham, quartic_ids)
    support = set()
    for i in quartic_ids:
        support |= set(ham.terms[i].indices)
    return next(p for p in matching.pairs if not set(p) & support)


def no_overlap_branch_state():
    ham = ham_of(4, ((0, 1, 2, 3), -2.0), ((4, 6), 0.7))
    _, tilde_matching, _ = branch_b_state(ham, [0], marked_edge(ham, [0]), (8, 9))
    return ham, tilde_matching, assign_signs(tilde_matching, ham, [0])


def adversarial_branch_state(two_mode_coeffs):
    terms = [((0, 1, 2, 3), 1.0)] + [(idx, c) for idx, c in two_mode_coeffs.items()]
    ham = ham_of(4, *terms)
    _, tilde_matching, tilde_signs = branch_b_state(ham, [0], marked_edge(ham, [0]), (8, 9))
    return ham, tilde_matching, tilde_signs


ADVERSARIAL_OVERLAPS = [
    {(0, 1): -2.0},
    {(0, 1): -2.0, (2, 3): 0.5},
    {(0, 1): 3.0, (2, 3): -1.0},
    {(0, 1): -0.25, (2, 3): -0.75},
]


def hand_built_branch_states():
    """The weight-4 branch states below, each with its Hamiltonian."""
    yield no_overlap_branch_state()
    for two_mode_coeffs in ADVERSARIAL_OVERLAPS:
        yield adversarial_branch_state(two_mode_coeffs)


def test_pull_back_weight4_branch_no_overlap():
    ham, tilde_matching, tilde_signs = no_overlap_branch_state()
    lifted = lift_to_strict4(ham)
    tilde_value = matching_state_expectation(tilde_matching, tilde_signs, lifted)
    assert tilde_value == pytest.approx(2.0, abs=1e-12)
    back_matching, back_signs = pull_back(tilde_matching, tilde_signs, ham, lifted)
    value = matching_state_expectation(back_matching, back_signs, ham)
    assert value >= tilde_value - 1e-12
    rho_tilde = dense_state_from_matching(tilde_matching, tilde_signs)
    assert dense_expectation(lifted, rho_tilde) == pytest.approx(
        tilde_value, abs=1e-10
    )
    rho = dense_state_from_matching(back_matching, back_signs)
    assert dense_expectation(ham, rho) == pytest.approx(value, abs=1e-10)


@pytest.mark.parametrize("two_mode_coeffs", ADVERSARIAL_OVERLAPS)
def test_pull_back_adversarial_overlaps(two_mode_coeffs):
    ham, tilde_matching, tilde_signs = adversarial_branch_state(two_mode_coeffs)
    lifted = lift_to_strict4(ham)
    tilde_value = matching_state_expectation(tilde_matching, tilde_signs, lifted)
    assert tilde_value == pytest.approx(1.0, abs=1e-12)  # overlapping terms drop out
    back_matching, back_signs = pull_back(tilde_matching, tilde_signs, ham, lifted)
    value = matching_state_expectation(back_matching, back_signs, ham)
    assert value >= tilde_value - 1e-12
    rho = dense_state_from_matching(back_matching, back_signs)
    assert dense_expectation(ham, rho) == pytest.approx(value, abs=1e-10)
    # the repair may only add the absolute strength of coinciding terms
    assert value <= tilde_value + sum(abs(c) for c in two_mode_coeffs.values()) + 1e-12


# -------------------------------------------------------------- truncation


def test_truncate_noop_when_sparse():
    ham = gen_sparse_random(12, 4, 2, "normal", seed=2)
    core, residual = truncate_to_sparse(ham, k_prime=2)
    assert residual.terms == ()
    assert core.terms == ham.terms


def test_truncate_marks_lexicographically_last():
    terms = (
        InteractionTerm((0, 1, 2, 3), 1.0),
        InteractionTerm((0, 1, 4, 5), 1.0),
        InteractionTerm((0, 2, 4, 6), 1.0),
    )
    ham = MajoranaHamiltonian(n_modes=4, terms=terms)
    core, residual = truncate_to_sparse(ham, k_prime=2)
    # Majorana 0 appears three times; its lexicographically last term goes
    assert residual.terms == (terms[2],)
    assert set(core.terms) == {terms[0], terms[1]}


@pytest.mark.parametrize("seed", range(10))
def test_truncate_core_is_k_sparse(seed):
    ham = gen_ssyk(40, 3, seed=seed)
    for k_prime in (1, 2, 4):
        core, residual = truncate_to_sparse(ham, k_prime)
        assert sparsity_profile(core).max_degree <= k_prime
        assert len(core.terms) + len(residual.terms) == len(ham.terms)
        assert set(core.terms) | set(residual.terms) == set(ham.terms)


@pytest.mark.parametrize("seed", range(4))
def test_truncate_returns_the_input_exactly_when_nothing_is_cut(seed):
    ham = gen_ssyk(400, 2, seed=seed)
    max_degree = sparsity_profile(ham).max_degree
    for k_prime in (max_degree, max_degree + 1, 24):  # 24 = 8(k+1), the ssyk route's k'
        core, residual = truncate_to_sparse(ham, k_prime)
        assert core is ham
        assert residual.n_terms == 0 and residual.n_modes == ham.n_modes
    # one below the max degree some term is marked, and the cut matches the scan
    marked = truncation_marks_scan(ham, max_degree - 1)
    core, residual = truncate_to_sparse(ham, max_degree - 1)
    assert marked and core is not ham
    assert residual.terms == tuple(t for i, t in enumerate(ham.terms) if i in marked)
    assert core.terms == tuple(t for i, t in enumerate(ham.terms) if i not in marked)


# ------------------------------------------------------------- ssyk route


def test_ssyk_bound_values():
    assert ssyk_part_bound(1) == 5524
    assert ssyk_part_bound(10) == 182356
    assert 1.0 / ssyk_part_bound(10) == pytest.approx(5.48e-6, rel=0.01)


@pytest.mark.parametrize("seed", range(6))
def test_ssyk_small_draw_full_identity(seed):
    ham = gen_ssyk(16, 1, seed=seed)
    if not ham.terms:
        pytest.skip("empty draw")
    result = optimize_ssyk(ham, k=1)
    cert = result.certificate
    recomputed = matching_state_expectation(result.matching, result.signs, ham)
    assert recomputed == pytest.approx(cert.achieved, rel=1e-12, abs=1e-15)
    assert cert.part_bound == 5524
    assert not cert.guarantee_holds  # n = 16 is far below 120 * (k+1)


def test_ssyk_dense_oracle_check():
    for seed in range(12):
        ham = gen_ssyk(5, 1, seed=seed)
        if not ham.terms:
            continue
        result = optimize_ssyk(ham, k=1)
        rho = dense_state_from_matching(result.matching, result.signs)
        assert dense_expectation(ham, rho) == pytest.approx(
            result.certificate.achieved, rel=1e-9, abs=1e-12
        )


def test_ssyk_requires_quartic():
    ham = ham_of(4, ((0, 1), 1.0))
    with pytest.raises(ValueError):
        optimize_ssyk(ham, k=1)


# ----------------------------------------------------------- auto routing


def test_auto_routes_by_weights():
    quartic = gen_sparse_random(16, 4, 1, "normal", seed=0)
    assert optimize(quartic).certificate.pipeline == "strictq"
    mixed = gen_mixed_24(16, 2, seed=0)
    assert optimize(mixed).certificate.pipeline == "mixed24"


def test_parts_list_terms_by_index_tuple_and_rank_ties_by_key():
    # terms out of index order, and +-1 couplings so that part weights tie
    drawn = gen_sparse_random(60, 4, 2, "pm1", seed=4)
    ham = MajoranaHamiltonian(n_modes=60, terms=drawn.terms[::-1])
    partition = diffuse_partition(ham)
    for ids in partition.parts.values():
        supports = [ham.terms[i].indices for i in ids]
        assert supports == sorted(supports)
    ranked = _ranked_parts(partition, ham)
    for _, ids, weight in ranked:
        assert weight == sum(abs(ham.terms[i].coeff) for i in ids)
    order = [(-w, key) for key, _, w in ranked]
    assert order == sorted(order) and len({w for _, _, w in ranked}) < len(ranked)


@pytest.mark.parametrize("pipeline", ["auto", "strictq", "mixed24", "ssyk"])
@pytest.mark.parametrize("k", [0, -1])
def test_optimize_rejects_k_below_one(pipeline, k):
    ham = gen_sparse_random(20, 4, 2, "normal", seed=0)
    with pytest.raises(ValueError, match=f"^k must be at least 1, got {k}$"):
        optimize(ham, pipeline, k=k)


@pytest.mark.parametrize(
    "pipeline,build",
    [
        ("strictq", lambda: gen_sparse_random(240, 4, 2, "normal", 3)),
        ("mixed24", lambda: gen_mixed_24(240, 2, 4)),
    ],
    ids=["strictq", "mixed24"],
)
def test_optimize_rejects_k_below_the_measured_degree(pipeline, build):
    # Q and every threshold would be computed for a degree the input exceeds
    ham = build()
    degree = sparsity_profile(ham).max_degree
    assert degree == 2
    with pytest.raises(ValueError, match="^k = 1 is below the measured degree 2$"):
        optimize(ham, pipeline, k=1)
    assert optimize(ham, pipeline, k=degree).certificate.guarantee_holds


def test_certificate_json_round_trip():
    ham = gen_sparse_random(16, 4, 1, "normal", seed=0)
    cert = optimize_strict_q(ham).certificate
    again = RatioCertificate.from_json(cert.to_json())
    assert again == cert
    assert '"Q": 2' in cert.to_json()


def test_forged_certificate_rejected_under_python_O():
    # the floor check is a raised error, so optimised bytecode keeps it
    script = (
        "from fermiopt.combinatorics import ContractError\n"
        "from fermiopt.optimizer import RatioCertificate\n"
        "try:\n"
        "    RatioCertificate(pipeline='strictq', achieved=0.0, upper_bound=1.0, part_bound=2,\n"
        "                     guaranteed_ratio=0.5, guarantee_holds=True)\n"
        "except ContractError:\n"
        "    print('rejected')\n"
        "else:\n"
        "    print('accepted')\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(fermiopt.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.stdout == "rejected\n", proc.stderr


@pytest.mark.parametrize(
    "module",
    sorted(Path(fermiopt.__file__).parent.rglob("*.py")),
    ids=lambda path: path.stem,
)
def test_package_has_no_assert_statements(module):
    # python -O strips assert statements; every contract must be a raised error
    tree = ast.parse(module.read_text(), filename=str(module))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{module.name}: assert statements at lines {lines}"


def test_forged_certificate_file_rejected():
    honest = RatioCertificate("strictq", 0.0, 1.0, 2, 0.5, False).to_json()
    forged = honest.replace('"guarantee_holds": false', '"guarantee_holds": true')
    with pytest.raises(ContractError):
        RatioCertificate.from_json(forged)


_HONEST_CERTIFICATE = RatioCertificate("strictq", 0.0, 1.0, 2, 0.5, False).to_json()


@pytest.mark.parametrize(
    "text",
    [
        "[" * 100_000,
        "[1]",
        "{}",
        _HONEST_CERTIFICATE.replace('"achieved": 0.0', '"achieved": "1.0"').replace(
            '"guarantee_holds": false', '"guarantee_holds": true'
        ),
    ],
    ids=["deep-nesting", "list", "empty-object", "string-achieved"],
)
def test_malformed_certificate_file_is_a_format_error(text):
    with pytest.raises(FormatError) as caught:
        RatioCertificate.from_json(text)
    assert caught.value.code == "malformed"


def test_failed_recheck_is_not_skipped_as_a_thin_part(monkeypatch):
    # the certify loop skips a part only on DiracError; a failed closed-form
    # recheck must end the run
    ham = gen_sparse_random(16, 4, 1, "normal", seed=0)
    monkeypatch.setattr("fermiopt.optimizer.matching_state_expectation", lambda *a: -1.0)
    with pytest.raises(ContractError):
        optimize_strict_q(ham)


# --------------------------------------------------- several support violators


def test_strict_several_violators_below_threshold():
    ham = gen_sparse_random(6, 2, 2, "normal", seed=2)
    cert = optimize_strict_q(ham).certificate
    assert not cert.guarantee_holds
    assert any("below size threshold" in note for note in cert.notes)


def test_strict_several_violators_above_threshold_certifies():
    ham = gen_sparse_random(9, 2, 2, "normal", seed=29)  # n = 9 > (q^2-1)k = 6
    result = optimize_strict_q(ham, k=2)
    assert len(result.partition.parts) == 6 == result.partition.bound
    cert = result.certificate
    assert cert.guarantee_holds
    assert cert.achieved >= cert.guaranteed_ratio * cert.upper_bound


@pytest.mark.parametrize("q,sizes", [(2, (6, 9, 12)), (4, (9, 20))])
def test_guarantee_sweep_meets_its_floor(q, sizes):
    # the state is re-evaluated here, not read back from the certificate
    several = 0
    for n in sizes:
        for seed in range(20):
            ham = gen_sparse_random(n, q, 2, "normal", seed=seed)
            result = optimize_strict_q(ham, k=2)
            n_colors = max(greedy_color(build_conflict_graph(ham))) + 1
            several += sum(c >= n_colors for (_qh, c) in result.partition.parts) >= 2
            cert = result.certificate
            if cert.guarantee_holds:
                achieved = matching_state_expectation(result.matching, result.signs, ham)
                assert achieved >= cert.guaranteed_ratio * total_strength(ham) - 1e-12
    if q == 2:
        assert several > 0  # draws with more than one support violator are covered
