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

import numpy as np

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
    _inner_pairs,
    assign_signs,
    matching_state_expectation,
    signed_matching,
)
from .hamiltonian import (
    FormatError,
    MajoranaHamiltonian,
    _is_int,
    _load_json,
    sparsity_profile,
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
        """Read ``to_json``'s document; any other shape is malformed."""
        doc = _load_json(text)
        numbers = ("achieved", "upper_bound", "guaranteed_ratio")
        notes = doc.get("notes", []) if isinstance(doc, dict) else None
        if not (
            isinstance(notes, list)
            and doc.keys() - {"notes"} == {"pipeline", "Q", "guarantee_holds", *numbers}
            and all(isinstance(value, str) for value in (doc["pipeline"], *notes))
            and all(_is_int(doc[key]) or isinstance(doc[key], float) for key in numbers)
            and _is_int(doc["Q"]) and isinstance(doc["guarantee_holds"], bool)
        ):
            raise FormatError("malformed", "not a ratio certificate document")
        return cls(
            pipeline=doc["pipeline"],
            achieved=doc["achieved"],
            upper_bound=doc["upper_bound"],
            part_bound=doc["Q"],
            guaranteed_ratio=doc["guaranteed_ratio"],
            guarantee_holds=doc["guarantee_holds"],
            notes=tuple(notes),
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
    matching = Matching(np.arange(ham.n_majoranas).reshape(-1, 2))
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
    magnitude = np.abs(ham.index.coeffs).tolist()
    parts = partition.parts
    weight = {key: float(sum(magnitude[i] for i in ids)) for key, ids in parts.items()}
    ranked = sorted(parts, key=lambda key: (-weight[key], key))
    return [(key, parts[key], weight[key]) for key in ranked]


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
    if not ham.n_terms:
        bound = part_bound(2, 1)
        return _best_effort(
            ham, PIPELINE_STRICTQ, bound, 1.0 / bound, ["no terms; nothing to certify"]
        )
    partition = diffuse_partition(ham, sparsity=k)

    def build(key, ids, value, matching):
        signs = assign_signs(matching, ham, ids)
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
    index = ham.index  # padded is 2 or 4 wide, or 1 when there are no terms
    rows = np.hstack((index.padded, np.full((index.weights.size, 4 - index.padded.shape[1]), -1)))
    rows[rows[:, 3] < 0, 2:] = (ham.n_majoranas, ham.n_majoranas + 1)
    coeffs = np.where(index.weights == 2, -index.coeffs, index.coeffs)
    ptr = np.arange(0, rows.size + 1, 4)
    return MajoranaHamiltonian.from_arrays(ham.n_modes + 1, ptr, rows.ravel(), coeffs)


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
    aux = ham.n_majoranas  # the auxiliaries are aux and aux + 1, the two highest
    tilde_value = matching_state_expectation(tilde_matching, tilde_signs, lifted)
    slack = CONTRACT_SLACK * total_strength(ham)
    dimers, values = tilde_matching.dimers, tilde_signs.signs

    if tilde_matching.partner[aux] == aux + 1:
        # the auxiliary dimer has the highest lower Majorana: it is the last
        matching, signs = signed_matching(dimers[:-1], values[:-1])
        value = matching_state_expectation(matching, signs, ham)
        if value < tilde_value - slack:
            raise PullBackError(f"pull-back lost energy: {value} < {tilde_value}")
        return matching, signs

    # each auxiliary ends its sorted pair, so it is never a lower Majorana
    i1, i2 = tilde_matching.partner[aux:].tolist()
    lam1, lam2 = values[np.searchsorted(dimers[:, 0], (i1, i2))].tolist()
    base = dimers[:, 1] < aux
    pairs = np.vstack((dimers[base], [(min(i1, i2), max(i1, i2))]))
    repaired = (-1 if i1 < i2 else 1) * lam1 * lam2

    # each outcome of the auxiliary dimer has probability 1/2, and its
    # conditioned state carries outcome * repaired on the re-paired dimer
    best: tuple[float, SignAssignment] | None = None
    for outcome in (1, -1):
        matching, signs = signed_matching(pairs, np.append(values[base], outcome * repaired))
        signs = _repair_two_mode_overlaps(matching, signs, ham)
        value = matching_state_expectation(matching, signs, ham)
        if best is None or value > best[0]:
            best = (value, signs)
    value, signs = best
    if value < tilde_value - slack:
        raise PullBackError(f"pull-back lost energy: {value} < {tilde_value}")
    return signs.matching, signs


def _repair_two_mode_overlaps(
    matching: Matching, signs: SignAssignment, ham: MajoranaHamiltonian
) -> SignAssignment:
    """Double-flip the dimer signs of each consistent quartic so that the
    weight-2 interactions sitting on its dimers contribute >= 0.

    Flipping both dimers of a quartic preserves its own contribution (the
    sign product is unchanged) while negating any coinciding weight-2
    contribution.  Requires the consistent quartics to have disjoint inner
    pairs, which branch states guarantee.  The consistent terms of weights
    2 and 4 come from one partner gather per weight, as in the closed form.
    """
    index, lows = ham.index, matching.dimers[:, 0]
    riding = np.zeros(lows.size)  # the coefficient of the weight-2 term on each dimer
    quartics = np.zeros((0, 2), dtype=np.intp)  # the two dimers of each consistent quartic
    for w, ids, rows in index.blocks:
        if w in (2, 4):
            ids, rows, opener, _ = _inner_pairs(matching.partner, ids, rows)
            dimers = np.searchsorted(lows, np.take_along_axis(rows, opener, axis=1))
            if w == 2:
                riding[dimers[:, 0]] = index.coeffs[ids]
            else:
                quartics = dimers
    if np.unique(quartics).size != quartics.size:
        raise ValueError("consistent quartics share a dimer; not a branch state")
    values = signs.signs.copy()
    flip = (riding[quartics] * values[quartics]).sum(axis=1) < 0.0
    values[quartics[flip].ravel()] *= -1
    return SignAssignment(matching, values)


def optimize_mixed_24(ham: MajoranaHamiltonian, k: int | None = None) -> OptimizationResult:
    """Certified state for a k-sparse Hamiltonian with weights 2 and 4.

    Both branch constructions are ranked by the absolute weight of their
    diffuse class; the winner is built on 2n+2 Majoranas and pulled back.
    The certificate carries the 1/(2Q) guarantee when ``2n > 15k`` holds and
    the construction stayed on the guaranteed path.
    """
    lifted = lift_to_strict4(ham)  # rejects weights outside {2, 4}
    if not ham.n_terms:
        bound = part_bound(4, 1)
        return _best_effort(
            ham, PIPELINE_MIXED24, bound, 1.0 / (2 * bound), ["no terms; nothing to certify"]
        )
    partition = diffuse_partition(ham, locality=4, sparsity=k)
    aux = (ham.n_majoranas, ham.n_majoranas + 1)

    def build(key, ids, value, matching):
        dimers = matching.dimers
        values = assign_signs(matching, ham, ids).signs
        if key[0] == 1:
            # weight-2 branch: append the auxiliary dimer, the last one, in
            # the state that makes every lifted coefficient count positively
            dimers, values = np.vstack((dimers, [aux])), np.append(values, -1)
        else:
            # weight-4 branch: re-route a marked outer edge through the
            # auxiliaries so no lifted weight-2 term can stay consistent
            rows = ham.index.padded[list(ids)]
            outer = np.flatnonzero(~np.isin(dimers, rows[rows >= 0]).any(axis=1))
            if not outer.size:
                raise DiracError("no outer edge available to mark")
            i1, i2 = dimers[outer[0]].tolist()
            # outer edges are permitted edges, so never a weight-2 term
            blocks = ham.index.blocks
            if any(w == 2 and (rows == (i1, i2)).all(axis=1).any() for w, _, rows in blocks):
                raise ContractError(f"marked outer edge {(i1, i2)} is a weight-2 term")
            rerouted = [(i1, aux[0]), (i2, aux[1])]
            dimers = np.vstack((np.delete(dimers, outer[0], axis=0), rerouted))
            values = np.append(np.delete(values, outer[0]), (1, 1))
        tilde_matching, tilde_signs = signed_matching(dimers, values)
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
    index = ham.index
    # the mode -> terms entries, each Majorana's terms in lexicographic order
    mode = np.repeat(np.arange(ham.n_majoranas), np.diff(index.mode_ptr))
    ids = index.mode_term_ids[np.lexsort((index.lex_rank[index.mode_term_ids], mode))]
    beyond = np.arange(ids.size) - index.mode_ptr[mode] >= k_prime
    marked = np.zeros(ham.n_terms, dtype=bool)
    marked[ids[beyond]] = True

    def part(keep: np.ndarray) -> MajoranaHamiltonian:
        term_ptr = np.concatenate(([0], np.cumsum(index.weights[keep])))
        modes = index.modes[np.repeat(keep, index.weights)]
        return MajoranaHamiltonian.from_arrays(ham.n_modes, term_ptr, modes, index.coeffs[keep])

    return part(~marked), part(marked)


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
    if ham.n_terms and sparsity_profile(ham).weights_present != {4}:
        raise ValueError("strictly 4-local input required")
    k_prime = 8 * (k + 1)
    bound = ssyk_part_bound(k)
    ratio = 1.0 / bound
    core, residual = truncate_to_sparse(ham, k_prime)
    if not core.n_terms:
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
        f"core bound {inner_bound}, residual strength {total_strength(residual):.6g}",
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
    weight -> strict, {2,4} -> mixed.  The diluted pipeline needs ``k``;
    every pipeline rejects a ``k`` below 1."""
    if k is not None and k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
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
