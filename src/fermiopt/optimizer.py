"""Certified Gaussian-state pipelines for sparse Majorana Hamiltonians.

Three routes, each returning a matching state and a ratio certificate:

* strictly q-local, k-sparse: split into diffuse classes, target the
  heaviest one, match, fix signs; the targeted class contributes its full
  absolute weight and a pigeonhole over at most Q classes certifies
  ``achieved >= sum|J| / Q``.
* weights {2, 4}: lift weight-2 terms onto two auxiliary Majoranas, build
  the better of the two branch states on 2n+2 modes, then pull the state
  back to 2n modes without losing energy (ratio ``1/(2Q)``).
* diluted quartic draws: deterministically truncate to a bounded-degree
  core, run the strict route there, and account for the residual exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .combinatorics import (
    ContractError,
    DiffusePartition,
    DiracError,
    diffuse_matching,
    diffuse_partition,
    part_bound,
)
from .gaussian import (
    Matching,
    SignAssignment,
    assign_signs,
    classify_consistency,
    matching_state_expectation,
)
from .hamiltonian import (
    InteractionTerm,
    MajoranaHamiltonian,
    sparsity_profile,
    strength,
    total_strength,
)

PIPELINE_STRICTQ = "strictq"
PIPELINE_MIXED24 = "mixed24"
PIPELINE_SSYK = "ssyk"

CONTRACT_SLACK = 1e-9


class PullBackError(RuntimeError):
    """The pulled-back state lost energy; the contract is violated."""


@dataclass(frozen=True)
class RatioCertificate:
    """Machine-checkable record of a constructed state's guarantee.

    ``part_bound`` is serialized as ``"Q"``; when ``guarantee_holds`` the
    achieved energy is at least ``guaranteed_ratio * upper_bound`` up to a
    1e-9 relative slack.
    """

    pipeline: str
    achieved: float
    upper_bound: float
    part_bound: int
    guaranteed_ratio: float
    guarantee_holds: bool
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.guarantee_holds:
            floor = self.guaranteed_ratio * self.upper_bound - 1e-9 * self.upper_bound
            if not self.achieved >= floor:
                raise ContractError(f"achieved {self.achieved} below the guaranteed floor {floor}")

    def to_json(self) -> str:
        doc = {
            "pipeline": self.pipeline,
            "achieved": self.achieved,
            "upper_bound": self.upper_bound,
            "Q": self.part_bound,
            "guaranteed_ratio": self.guaranteed_ratio,
            "guarantee_holds": self.guarantee_holds,
            "notes": list(self.notes),
        }
        return json.dumps(doc, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "RatioCertificate":
        doc = json.loads(text)
        return cls(
            pipeline=doc["pipeline"],
            achieved=doc["achieved"],
            upper_bound=doc["upper_bound"],
            part_bound=doc["Q"],
            guaranteed_ratio=doc["guaranteed_ratio"],
            guarantee_holds=doc["guarantee_holds"],
            notes=tuple(doc.get("notes", ())),
        )


@dataclass(frozen=True)
class OptimizationResult:
    matching: Matching
    signs: SignAssignment
    certificate: RatioCertificate
    partition: DiffusePartition | None = None


def _best_effort(
    ham: MajoranaHamiltonian,
    pipeline: str,
    bound: int,
    ratio: float,
    notes: list[str],
    partition: DiffusePartition | None = None,
) -> OptimizationResult:
    """Unguaranteed state: consecutive Majoranas paired, every sign +1."""
    matching = Matching(tuple((2 * j, 2 * j + 1) for j in range(ham.n_modes)))
    signs = SignAssignment.all_plus(matching)
    cert = RatioCertificate(
        pipeline=pipeline,
        achieved=matching_state_expectation(matching, signs, ham),
        upper_bound=total_strength(ham),
        part_bound=bound,
        guaranteed_ratio=ratio,
        guarantee_holds=False,
        notes=tuple(notes),
    )
    return OptimizationResult(matching, signs, cert, partition)


def _ranked_parts(partition: DiffusePartition, ham: MajoranaHamiltonian):
    """Parts by descending absolute weight, ties toward low (weight, color)."""
    entries = []
    for key, ids in partition.parts.items():
        entries.append((-strength(ham.terms[i] for i in ids), key, ids))
    entries.sort(key=lambda e: (e[0], e[1]))
    return [(key, ids, -neg) for neg, key, ids in entries]


def _certify(
    ham: MajoranaHamiltonian,
    pipeline: str,
    partition: DiffusePartition,
    ratio: float,
    below_threshold: str | None,
    build,
) -> OptimizationResult:
    """The loop both sparse routes share: try the parts heaviest first,
    match the first one that admits a matching, and certify it.

    ``build(key, ids, value, matching)`` turns the part's matching into the
    final state and returns ``(matching, signs, achieved, extra_notes)``;
    it raises ``DiracError`` to skip the part.  ``below_threshold`` is the
    note for an instance under the route's size threshold, ``None`` above
    it.  The guarantee needs the heaviest part, no fallback matching, and a
    partition that is diffuse and within the class-count bound.
    """
    notes: list[str] = []
    for rank, (key, ids, value) in enumerate(_ranked_parts(partition, ham)):
        try:
            matching, used_fallback = diffuse_matching(ham, ids)
            matching, signs, achieved, extra_notes = build(key, ids, value, matching)
        except DiracError as exc:
            notes.append(f"part {key} skipped: {exc}")
            continue
        if used_fallback:
            notes.append(f"part {key} matched via exhaustive residual fallback")
        notes.extend(extra_notes)
        if below_threshold is not None:
            notes.append(below_threshold)
        guarantee = (
            below_threshold is None
            and not used_fallback
            and rank == 0
            and partition.all_diffuse
            and partition.within_bound()
        )
        cert = RatioCertificate(
            pipeline=pipeline,
            achieved=achieved,
            upper_bound=total_strength(ham),
            part_bound=partition.bound,
            guaranteed_ratio=ratio,
            guarantee_holds=guarantee,
            notes=tuple(notes),
        )
        return OptimizationResult(matching, signs, cert, partition)
    notes.append("all parts failed the matching construction; best-effort state")
    return _best_effort(ham, pipeline, partition.bound, ratio, notes, partition)


def optimize_strict_q(ham: MajoranaHamiltonian, k: int | None = None) -> OptimizationResult:
    """Certified state for a strictly q-local, k-sparse Hamiltonian.

    The targeted class contributes exactly its absolute weight; the
    certificate guarantees a 1/Q fraction of the total strength whenever the
    size threshold ``n > (q^2 - 1) k`` holds and no fallback was needed.
    """
    weights = sparsity_profile(ham).weights_present
    if len(weights) > 1:
        raise ValueError(f"strictly local Hamiltonian required, weights {sorted(weights)}")
    if not ham.terms:
        bound = part_bound(2, 1)
        return _best_effort(
            ham, PIPELINE_STRICTQ, bound, 1.0 / bound, ["no terms; nothing to certify"]
        )
    partition = diffuse_partition(ham, sparsity=k)

    def build(key, ids, value, matching):
        signs = assign_signs(matching, [ham.terms[i] for i in ids])
        check = matching_state_expectation(matching, signs, ham)
        if not math.isclose(check, value, rel_tol=1e-9, abs_tol=1e-12):
            raise ContractError(f"closed form {check} disagrees with the part weight {value}")
        return matching, signs, value, ()

    limit = (partition.locality**2 - 1) * partition.sparsity
    below = None if ham.n_modes > limit else f"below size threshold n > (q^2-1)k = {limit}"
    return _certify(ham, PIPELINE_STRICTQ, partition, 1.0 / partition.bound, below, build)


def lift_to_strict4(ham: MajoranaHamiltonian) -> MajoranaHamiltonian:
    """Multiply every weight-2 term by the auxiliary dimer, negating its
    coefficient, so the result is strictly 4-local on two extra Majoranas.

    Weight-4 terms are copied; term ``i`` of the lift corresponds to term
    ``i`` of ``ham``.
    """
    weights = sparsity_profile(ham).weights_present
    if not weights <= {2, 4}:
        raise ValueError(f"weights must be within {{2, 4}}, got {sorted(weights)}")
    aux = (ham.n_majoranas, ham.n_majoranas + 1)
    lifted_terms = [
        InteractionTerm(term.indices + aux, -term.coeff) if term.weight == 2 else term
        for term in ham.terms
    ]
    return MajoranaHamiltonian(n_modes=ham.n_modes + 1, terms=tuple(lifted_terms))


def pull_back(
    tilde_matching: Matching,
    tilde_signs: SignAssignment,
    ham: MajoranaHamiltonian,
    lifted: MajoranaHamiltonian,
) -> tuple[Matching, SignAssignment]:
    """Convert a branch state on 2n+2 Majoranas into one on 2n, no worse.

    If the auxiliary pair is a dimer of the state, the restriction to the
    first 2n Majoranas already matches the lifted energy.  Otherwise the
    auxiliary dimer is measured (both outcomes evaluated); the conditional
    state re-pairs the two Majoranas that were attached to the auxiliaries,
    and per-quartic double sign flips (preserving each quartic's own
    contribution) make the weight-2 energy riding on its dimers
    non-negative.  Violation of ``Tr(H rho) >= Tr(H~ rho~)`` is a hard
    error, never silently returned.
    """
    aux_pair = (ham.n_majoranas, ham.n_majoranas + 1)
    tilde_value = matching_state_expectation(tilde_matching, tilde_signs, lifted)
    slack = CONTRACT_SLACK * total_strength(ham)
    sd = tilde_signs.as_dict()

    if aux_pair in set(tilde_matching.pairs):
        pairs = tuple(p for p in tilde_matching.pairs if p != aux_pair)
        matching = Matching(pairs)
        signs = SignAssignment.from_dict({p: sd[p] for p in pairs})
        value = matching_state_expectation(matching, signs, ham)
        if value < tilde_value - slack:
            raise PullBackError(f"pull-back lost energy: {value} < {tilde_value}")
        return matching, signs

    # the auxiliaries are the two highest Majoranas: each ends its sorted pair
    partner = {b: a for a, b in tilde_matching.pairs if b in aux_pair}
    i1, i2 = partner[aux_pair[0]], partner[aux_pair[1]]
    lam1, lam2 = sd[(i1, aux_pair[0])], sd[(i2, aux_pair[1])]
    base_pairs = [p for p in tilde_matching.pairs if p[1] not in aux_pair]
    new_pair = (min(i1, i2), max(i1, i2))
    orient = -1 if i1 < i2 else 1
    matching = Matching(tuple(base_pairs) + (new_pair,))

    # each outcome of the auxiliary dimer has probability 1/2, and its
    # conditioned state carries this sign on the re-paired dimer
    best: tuple[float, SignAssignment] | None = None
    for outcome in (1, -1):
        cond_signs = {p: sd[p] for p in base_pairs}
        cond_signs[new_pair] = orient * outcome * lam1 * lam2
        signs = SignAssignment.from_dict(cond_signs)
        signs = _repair_two_mode_overlaps(matching, signs, ham)
        value = matching_state_expectation(matching, signs, ham)
        if best is None or value > best[0]:
            best = (value, signs)
    value, signs = best
    if value < tilde_value - slack:
        raise PullBackError(f"pull-back lost energy: {value} < {tilde_value}")
    return matching, signs


def _repair_two_mode_overlaps(
    matching: Matching, signs: SignAssignment, ham: MajoranaHamiltonian
) -> SignAssignment:
    """Double-flip the dimer signs of each consistent quartic so that the
    weight-2 interactions sitting on its dimers contribute >= 0.

    Flipping both dimers of a quartic preserves its own contribution (the
    sign product is unchanged) while negating any coinciding weight-2
    contribution.  Requires the consistent quartics to have disjoint inner
    pairs, which branch states guarantee.
    """
    sd = signs.as_dict()

    def riding(pair: tuple[int, int]) -> float:
        t_id = ham.term_id.get(pair)
        return 0.0 if t_id is None else ham.terms[t_id].coeff * sd[pair]

    seen_pairs: set[tuple[int, int]] = set()
    for term in ham.terms:
        if term.weight != 4:
            continue
        verdict = classify_consistency(matching, term.indices)
        if not verdict.consistent:
            continue
        e1, e2 = verdict.inner_pairs
        if e1 in seen_pairs or e2 in seen_pairs:
            raise ValueError("consistent quartics share a dimer; not a branch state")
        seen_pairs.update((e1, e2))
        if riding(e1) + riding(e2) < 0.0:
            sd[e1] = -sd[e1]
            sd[e2] = -sd[e2]
    return SignAssignment.from_dict(sd)


def optimize_mixed_24(ham: MajoranaHamiltonian, k: int | None = None) -> OptimizationResult:
    """Certified state for a k-sparse Hamiltonian with weights 2 and 4.

    Both branch constructions are ranked by the absolute weight of their
    diffuse class; the winner is built on 2n+2 Majoranas and pulled back.
    The certificate carries the 1/(2Q) guarantee when ``2n > 15k`` holds and
    the construction stayed on the guaranteed path.
    """
    lifted = lift_to_strict4(ham)  # rejects weights outside {2, 4}
    if not ham.terms:
        bound = part_bound(4, 1)
        return _best_effort(
            ham, PIPELINE_MIXED24, bound, 1.0 / (2 * bound), ["no terms; nothing to certify"]
        )
    partition = diffuse_partition(ham, locality=4, sparsity=k)
    aux = (ham.n_majoranas, ham.n_majoranas + 1)

    def build(key, ids, value, matching):
        sd = assign_signs(matching, [ham.terms[i] for i in ids]).as_dict()
        if key[0] == 1:
            # weight-2 branch: append the auxiliary dimer in the state
            # that makes every lifted coefficient count positively
            tilde_matching = Matching(matching.pairs + (aux,))
            sd[aux] = -1
        else:
            # weight-4 branch: re-route a marked outer edge through the
            # auxiliaries so no lifted weight-2 term can stay consistent
            support = set().union(*(ham.terms[i].support for i in ids))
            outer = [p for p in matching.pairs if not set(p) & support]
            if not outer:
                raise DiracError("no outer edge available to mark")
            i1, i2 = outer[0]
            # outer edges are permitted edges, so never a weight-2 term
            if (i1, i2) in ham.term_id:
                raise ContractError(f"marked outer edge {(i1, i2)} is a weight-2 term")
            kept = tuple(p for p in matching.pairs if p != (i1, i2))
            tilde_matching = Matching(kept + ((i1, aux[0]), (i2, aux[1])))
            sd = {p: sd[p] for p in kept}
            sd[(i1, aux[0])] = 1
            sd[(i2, aux[1])] = 1
        tilde_signs = SignAssignment.from_dict(sd)
        tilde_value = matching_state_expectation(tilde_matching, tilde_signs, lifted)
        if not math.isclose(tilde_value, value, rel_tol=1e-9, abs_tol=1e-12):
            raise ContractError(f"lifted value {tilde_value} disagrees with the class {value}")
        matching, signs = pull_back(tilde_matching, tilde_signs, ham, lifted)
        achieved = matching_state_expectation(matching, signs, ham)
        return matching, signs, achieved, (f"winning branch: weight {2 * key[0]} class {key[1]}",)

    limit = 15 * partition.sparsity
    below = None if ham.n_majoranas > limit else f"below size threshold 2n > 15k = {limit}"
    return _certify(ham, PIPELINE_MIXED24, partition, 1.0 / (2 * partition.bound), below, build)


def truncate_to_sparse(
    ham: MajoranaHamiltonian, k_prime: int
) -> tuple[MajoranaHamiltonian, MajoranaHamiltonian]:
    """Deterministic split into a k'-sparse core and the residual.

    Terms are ranked lexicographically by index tuple; for each Majorana,
    the terms beyond its first k' are marked, and any term marked at least
    once lands in the residual.
    """
    if k_prime < 1:
        raise ValueError("k' must be >= 1")
    marked: set[int] = set()
    for ids in ham.mode_terms:
        if len(ids) > k_prime:
            marked.update(sorted(ids, key=lambda t: ham.terms[t].indices)[k_prime:])
    core = tuple(t for t_id, t in enumerate(ham.terms) if t_id not in marked)
    residual = tuple(t for t_id, t in enumerate(ham.terms) if t_id in marked)
    return (
        MajoranaHamiltonian(n_modes=ham.n_modes, terms=core),
        MajoranaHamiltonian(n_modes=ham.n_modes, terms=residual),
    )


def ssyk_part_bound(k: int) -> int:
    """Class-count bound of the diluted-quartic certificate: twice the
    strict-route bound at the truncation degree 8(k+1)."""
    value = 1236 + 2752 * k + 1536 * k * k
    if value != 2 * part_bound(4, 8 * (k + 1)):
        raise ContractError(f"closed-form bound {value} disagrees with part_bound")
    return value


def optimize_ssyk(ham: MajoranaHamiltonian, k: int) -> OptimizationResult:
    """Certified state for a diluted quartic draw with expected degree k.

    Truncates at ``k' = 8(k+1)``, runs the strict route on the core, and
    evaluates the achieved energy on the full Hamiltonian (the residual may
    subtract).  The flag requires ``n > 120(k+1)``, a clean construction,
    and the ratio inequality itself (the underlying statement is a
    high-probability one, so a rare draw may miss it).
    """
    if ham.terms and sparsity_profile(ham).weights_present != {4}:
        raise ValueError("strictly 4-local input required")
    k_prime = 8 * (k + 1)
    bound = ssyk_part_bound(k)
    ratio = 1.0 / bound
    core, residual = truncate_to_sparse(ham, k_prime)
    if not core.terms:
        return _best_effort(ham, PIPELINE_SSYK, bound, ratio, ["empty core after truncation"])
    inner = optimize_strict_q(core, k=k_prime)
    residual_value = matching_state_expectation(inner.matching, inner.signs, residual)
    achieved = inner.certificate.achieved + residual_value
    upper = total_strength(ham)

    inner_bound = part_bound(4, k_prime)
    margin = (
        32.0 * (inner_bound + 1) * k * math.exp(-k_prime)
        / (math.sqrt(k_prime - 1) * inner_bound)
    )
    notes = [
        f"core bound {inner_bound}, residual strength {strength(residual.terms):.6g}",
        f"asymptotic residual margin {margin:.3e}",
        f"achieved raw {achieved:.9g}; in unit-coupling units "
        f"{achieved * math.sqrt(2 * k * ham.n_modes):.9g}",
    ]
    notes.extend(inner.certificate.notes)

    threshold_ok = ham.n_modes > 120 * (k + 1)
    if not threshold_ok:
        notes.append(f"below size threshold n > 120(k+1) = {120 * (k + 1)}")
    ratio_met = upper > 0 and achieved >= ratio * upper - 1e-9 * upper
    if threshold_ok and inner.certificate.guarantee_holds and not ratio_met:
        notes.append("ratio bound missed on this draw (tail event)")
    guarantee = threshold_ok and inner.certificate.guarantee_holds and ratio_met
    cert = RatioCertificate(
        pipeline=PIPELINE_SSYK,
        achieved=achieved,
        upper_bound=upper,
        part_bound=bound,
        guaranteed_ratio=ratio,
        guarantee_holds=guarantee,
        notes=tuple(notes),
    )
    return OptimizationResult(inner.matching, inner.signs, cert, inner.partition)


def optimize(
    ham: MajoranaHamiltonian, pipeline: str = "auto", k: int | None = None
) -> OptimizationResult:
    """Run the named pipeline.  ``auto`` routes by weight profile: one
    weight -> strict, {2,4} -> mixed.  The diluted pipeline needs ``k``."""
    if pipeline == "auto":
        weights = sparsity_profile(ham).weights_present
        if len(weights) <= 1:
            pipeline = PIPELINE_STRICTQ
        elif weights <= {2, 4}:
            pipeline = PIPELINE_MIXED24
        else:
            raise ValueError(f"no pipeline covers weights {sorted(weights)}")
    # module-level names, looked up per call, so that wrappers installed on
    # them (the traced benchmark's) see every run
    if pipeline == PIPELINE_STRICTQ:
        return optimize_strict_q(ham, k=k)
    if pipeline == PIPELINE_MIXED24:
        return optimize_mixed_24(ham, k=k)
    if pipeline == PIPELINE_SSYK:
        if k is None:
            raise ValueError("the diluted pipeline needs --k (expected degree)")
        return optimize_ssyk(ham, k=k)
    raise ValueError(f"unknown pipeline {pipeline!r}")
