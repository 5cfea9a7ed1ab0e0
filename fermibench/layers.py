"""Per-layer view of fermiopt for the traced run: what gets wrapped, and the
per-layer metrics derived from the spans and counters.

Each metric row says which end-to-end metric it should move on which
workload (``moves``), and on which workloads the prediction is no change
(``no_change``).  ``kind`` is "measured" for times taken from spans,
"counted" for call and outcome counts, and "computed" for numbers derived
from sizes or fits rather than timed (graph edges, dense bytes, slopes).

Unless ``NOTES`` says otherwise, a ``.self_s`` or ``.calls`` value is the
total over the traced timed phase divided by the number of instances run.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from tracer import Tracer, self_times

S_INST = "s/instance"
N_INST = "count/instance"
CERTIFY = ("ssyk_certify", "sparse_study")


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    kind: str
    moves: tuple[str, str] | None  # (end-to-end metric, workload)
    no_change: tuple[str, ...] = ()


def _rows(names, unit, kind, moves, no_change=()):
    return tuple(LayerMetric(name, unit, kind, moves, no_change) for name in names)


# spans whose log-log scaling over a workload's size ladder is reported
EXPONENT_SPANS = (
    "combinatorics.build_conflict_graph",
    "combinatorics.greedy_color",
    "combinatorics.diffuse_partition",
    "combinatorics.is_diffuse",
    "combinatorics.permitted_graph",
    "combinatorics.hamiltonian_cycle_dense",
    "combinatorics.diffuse_matching",
    "optimizer.optimize_ssyk",
)

_RATE_SPARSE = ("instances_per_s", "sparse_study")
_P50_SPARSE = ("instance_s.p50", "sparse_study")
_RATE_SSYK = ("instances_per_s", "ssyk_certify")
_RATE_ORACLE = ("instances_per_s", "oracle_desk")

LAYER_METRICS: tuple[LayerMetric, ...] = (
    *_rows(["ensembles.gen_sparse_random.self_s"], S_INST, "measured", _RATE_SPARSE),
    *_rows(["ensembles._unrank_combination.calls"], N_INST, "counted", _RATE_SPARSE),
    *_rows(["ensembles.sparse_random.kept_ratio"], "ratio", "counted", _RATE_SPARSE),
    *_rows(["ensembles.gen_ssyk.self_s"], S_INST, "measured", _RATE_SSYK),
    *_rows(
        ["ensembles.gen_syk_q.self_s", "ensembles.gen_two_colored.self_s"],
        S_INST, "measured", None, ("oracle_desk",),
    ),
    *_rows(
        ["hamiltonian.sparsity_profile.calls", "hamiltonian.total_strength.calls"],
        N_INST, "counted", _P50_SPARSE,
    ),
    *_rows(["hamiltonian.sparsity_profile.self_s"], S_INST, "measured", _P50_SPARSE),
    *_rows(
        ["optimizer.optimize_ssyk.self_s", "optimizer.truncate_to_sparse.self_s"],
        S_INST, "measured", _RATE_SSYK,
    ),
    *_rows(
        [
            "optimizer.optimize_strict_q.self_s",
            "optimizer.optimize_mixed_24.self_s",
            "optimizer.pull_back.self_s",
        ],
        S_INST, "measured", _RATE_SPARSE,
    ),
    *_rows(["optimizer.pull_back.calls"], N_INST, "counted", _RATE_SPARSE),
    *_rows(["optimizer.parts_tried_per_cert"], "count/cert", "counted", _RATE_SPARSE),
    *_rows(
        [
            f"combinatorics.{name}.self_s"
            for name in (
                "build_conflict_graph",
                "greedy_color",
                "diffuse_partition",
                "is_diffuse",
                "permitted_graph",
                "hamiltonian_cycle_dense",
                "diffuse_matching",
            )
        ],
        S_INST, "measured", _RATE_SSYK, ("oracle_desk",),
    ),
    *_rows(["combinatorics.is_diffuse.calls"], N_INST, "counted", _RATE_SSYK, ("oracle_desk",)),
    *_rows(
        ["combinatorics.diffuse_matching.success_ratio", "combinatorics.fallback_ratio"],
        "ratio", "counted", _RATE_SSYK, ("oracle_desk",),
    ),
    *_rows(
        ["combinatorics.permitted_graph.edges"], "count", "computed",
        ("peak_rss_mb", "ssyk_certify"), ("oracle_desk",),
    ),
    *_rows(
        [f"{span}.exponent" for span in EXPONENT_SPANS], "1", "computed", _RATE_SSYK,
        ("oracle_desk",),
    ),
    *_rows(
        ["gaussian.matching_state_expectation.calls", "gaussian.classify_consistency.calls"],
        N_INST, "counted", _RATE_SSYK,
    ),
    *_rows(
        ["gaussian.matching_state_expectation.self_s", "gaussian.assign_signs.self_s"],
        S_INST, "measured", _RATE_SSYK,
    ),
    *_rows(["gaussian.consistent_ratio"], "ratio", "counted", _RATE_SSYK),
    *_rows(
        ["gaussian.correlation_from_matching.self_s", "gaussian.hamiltonian_expectation.self_s"],
        S_INST, "measured", _P50_SPARSE,
    ),
    *_rows(
        ["gaussian.pfaffian.calls", "gaussian.condition_on_dimer.calls"],
        N_INST, "counted", _P50_SPARSE,
    ),
    *_rows(
        [
            "oracle.lambda_max_exact.iterative.self_s",
            "oracle.lambda_max_exact.dense.self_s",
            "oracle.matvec.self_s",
            "oracle.gaussian_numeric_max.self_s",
            "oracle.sweep_slope.self_s",
            "oracle.rho_theta_sweep.self_s",
            "oracle.dense_state_from_matching.self_s",
            "oracle.dense_expectation.self_s",
        ],
        S_INST, "measured", _RATE_ORACLE, CERTIFY,
    ),
    *_rows(
        ["oracle.apply_string.calls", "oracle.expm.calls", "oracle.dense_hamiltonian.calls"],
        N_INST, "counted", _RATE_ORACLE, CERTIFY,
    ),
    *_rows(["oracle.matvec.calls"], "count/solve", "counted", _RATE_ORACLE, CERTIFY),
    *_rows(["oracle.two_colored_dense.calls"], "count/trial", "counted", _RATE_ORACLE, CERTIFY),
    *_rows(["oracle.dense_bytes_computed"], "B/instance", "computed", _RATE_ORACLE, CERTIFY),
    *_rows(["trace.overhead_ratio", "trace.top_span_share"], "ratio", "measured", None),
)

NOTES = {
    "ensembles.sparse_random.kept_ratio": "terms returned by gen_sparse_random over the "
    "_unrank_combination calls made inside it",
    "optimizer.parts_tried_per_cert": "diffuse_matching calls per top-level optimize_* call",
    "combinatorics.diffuse_matching.success_ratio": "diffuse_matching calls that returned "
    "over all its calls",
    "combinatorics.fallback_ratio": "returned matchings that needed the exhaustive fallback "
    "over returned matchings",
    "combinatorics.permitted_graph.edges": "largest edge count of any permitted graph built",
    "gaussian.consistent_ratio": "consistent classify_consistency verdicts over its calls",
    "oracle.matvec.calls": "matvec calls per iterative lambda_max_exact solve",
    "oracle.two_colored_dense.calls": "_two_colored_dense builds per theta-sweep trial",
    "oracle.expm.calls": "expm calls per instance: ascent backtracking steps, plus two per "
    "sweep_slope",
    "oracle.dense_bytes_computed": "16*4^n bytes per 2^n-dimensional dense matrix built by "
    "dense_hamiltonian, dense_dimer_state or _string_matrix, per instance",
    "trace.overhead_ratio": "traced wall over untraced wall for the same instances",
    "trace.top_span_share": "time covered by top-level spans over the traced wall",
    "*.exponent": "log-log slope of the span's inclusive time per instance against the "
    "instance's mode count; 0 when the workload runs the span at fewer than two sizes",
}


# ------------------------------------------------------------------ wrapping


def _lambda_max_name(args, kwargs) -> str:
    from fermiopt import oracle

    ham = args[0] if args else kwargs["ham"]
    method = kwargs.get("method", args[1] if len(args) > 1 else "auto")
    if method == "auto":
        method = "dense" if ham.n_modes <= oracle.DENSE_EIG_MODE_BUDGET else "iterative"
    return f"oracle.lambda_max_exact.{method}"


def _dense_bytes(n_modes: int) -> int:
    return 16 * 4**n_modes


# result hooks: (tracer, args, result) -> the result to hand back
def _on_sparse_random(tracer, args, result):
    tracer.counts["ensembles.sparse_random.kept"] += len(result.terms)
    return result


def _on_permitted(tracer, args, result):
    edges = sum(len(a) for a in result.adjacency.values()) // 2
    key = "combinatorics.permitted_graph.edges"
    tracer.counts[key] = max(tracer.counts[key], edges)
    return result


def _on_matching(tracer, args, result):
    tracer.counts["combinatorics.fallback"] += bool(result[1])
    return result


def _on_verdict(tracer, args, result):
    tracer.counts["gaussian.consistent"] += bool(result.consistent)
    return result


def _on_dense_operator(tracer, args, result):
    tracer.counts["oracle.dense_bytes_computed"] += _dense_bytes(result.n_modes)
    return result


def _on_string_matrix(tracer, args, result):
    tracer.counts["oracle.dense_bytes_computed"] += _dense_bytes(args[1])
    return result


def _on_matvec_operator(tracer, args, result):
    """The matvec closure lives inside the returned operator: hand back an
    operator whose matvec records an ``oracle.matvec`` span."""
    from scipy.sparse.linalg import LinearOperator

    matvec = tracer.span("oracle.matvec", result.matvec)
    return LinearOperator(result.shape, matvec=matvec, dtype=result.dtype)


# (module, attribute, "span" or "count", name override, result hook)
PLAN = (
    ("ensembles", "gen_sparse_random", "span", None, _on_sparse_random),
    ("ensembles", "gen_ssyk", "span", None, None),
    ("ensembles", "gen_syk_q", "span", None, None),
    ("ensembles", "gen_two_colored", "span", None, None),
    ("ensembles", "gen_mixed_24", "span", None, None),
    ("ensembles", "_unrank_combination", "count", "ensembles._unrank_combination", None),
    ("hamiltonian", "sparsity_profile", "span", None, None),
    ("hamiltonian", "total_strength", "span", None, None),
    ("optimizer", "optimize_ssyk", "span", None, None),
    ("optimizer", "optimize_strict_q", "span", None, None),
    ("optimizer", "optimize_mixed_24", "span", None, None),
    ("optimizer", "truncate_to_sparse", "span", None, None),
    ("optimizer", "pull_back", "span", None, None),
    ("combinatorics", "build_conflict_graph", "span", None, None),
    ("combinatorics", "greedy_color", "span", None, None),
    ("combinatorics", "diffuse_partition", "span", None, None),
    ("combinatorics", "is_diffuse", "span", None, None),
    ("combinatorics", "permitted_graph", "span", None, _on_permitted),
    ("combinatorics", "hamiltonian_cycle_dense", "span", None, None),
    ("combinatorics", "diffuse_matching", "span", None, _on_matching),
    ("gaussian", "matching_state_expectation", "span", None, None),
    ("gaussian", "assign_signs", "span", None, None),
    ("gaussian", "correlation_from_matching", "span", None, None),
    ("gaussian", "hamiltonian_expectation", "span", None, None),
    ("gaussian", "condition_on_dimer", "span", None, None),
    ("gaussian", "classify_consistency", "count", None, _on_verdict),
    ("gaussian", "pfaffian", "count", None, None),
    ("oracle", "lambda_max_exact", "span", _lambda_max_name, None),
    ("oracle", "matvec_operator", "span", None, _on_matvec_operator),
    ("oracle", "_apply_string", "count", None, None),
    ("oracle", "gaussian_numeric_max", "span", None, None),
    ("oracle", "expm", "span", None, None),
    ("oracle", "sweep_slope", "span", None, None),
    ("oracle", "rho_theta_sweep", "span", None, None),
    ("oracle", "_two_colored_dense", "span", None, None),
    ("oracle", "dense_state_from_matching", "span", None, None),
    ("oracle", "dense_expectation", "span", None, None),
    ("oracle", "dense_hamiltonian", "count", None, _on_dense_operator),
    ("oracle", "dense_dimer_state", "count", None, _on_dense_operator),
    ("oracle", "_string_matrix", "count", None, _on_string_matrix),
)


def targets(tracer: Tracer) -> list[tuple[str, str, object]]:
    """``PLAN`` as the ``(module, attribute, make_wrapper)`` list that
    ``Tracer.install`` takes.  Default names drop a leading underscore."""

    def make_wrapper(module, attr, mode, name, hook):
        label = name or f"{module}.{attr.lstrip('_')}"

        def wrap(fn):
            inner = fn
            if hook is not None:

                def inner(*args, **kwargs):
                    return hook(tracer, args, fn(*args, **kwargs))

            if mode == "count":
                return tracer.counter(label, inner)
            return tracer.span(label, inner)

        return (f"fermiopt.{module}", attr, wrap)

    return [make_wrapper(*row) for row in PLAN]


# ----------------------------------------------------------------- derivation


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _exponent(time_by_size: dict[int, float], runs_by_size: dict[int, int]) -> float:
    points = [(n, t / runs_by_size[n]) for n, t in time_by_size.items() if t > 0]
    if len(points) < 2:
        return 0.0
    xs, ys = zip(*sorted(points))
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def hot_spots(tracer: Tracer, top: int = 12) -> list[tuple[str, float, float]]:
    """Spans with the most self time: (name, seconds, share of the time the
    top-level spans cover)."""
    selfs = self_times(tracer.spans)
    total: dict[str, float] = defaultdict(float)
    for span in tracer.spans:
        total[span.name] += selfs[span.id]
    covered = sum(span.duration for span in tracer.spans if span.parent is None)
    ranked = sorted(total.items(), key=lambda kv: -kv[1])[:top]
    return [(name, seconds, seconds / covered) for name, seconds in ranked]


def derive(tracer: Tracer, instances: dict, traced_wall: float, untraced_wall: float) -> dict:
    """Every ``LAYER_METRICS`` value from one traced phase.

    ``instances`` maps the instance ids the spans carry to the instances run
    (anything with ``kind`` and ``size``).
    """
    selfs = self_times(tracer.spans)
    calls: dict[str, int] = defaultdict(int)
    returned: dict[str, int] = defaultdict(int)
    self_total: dict[str, float] = defaultdict(float)
    time_by_size: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    top_level = 0.0
    certs = 0
    for span in tracer.spans:
        calls[span.name] += 1
        returned[span.name] += span.ok
        self_total[span.name] += selfs[span.id]
        if span.name in EXPONENT_SPANS and span.instance is not None:
            time_by_size[span.name][instances[span.instance].size] += span.duration
        if span.parent is None:
            top_level += span.duration
            certs += span.name.startswith("optimizer.optimize_")
    counts = tracer.counts
    runs = len(instances)
    runs_by_size: dict[int, int] = defaultdict(int)
    runs_by_kind: dict[str, int] = defaultdict(int)
    for inst in instances.values():
        runs_by_size[inst.size] += 1
        runs_by_kind[inst.kind] += 1

    matching = "combinatorics.diffuse_matching"
    values = {
        "ensembles.sparse_random.kept_ratio": _ratio(
            counts["ensembles.sparse_random.kept"],
            counts["ensembles._unrank_combination@ensembles.gen_sparse_random"],
        ),
        "optimizer.parts_tried_per_cert": _ratio(calls[matching], certs),
        "combinatorics.diffuse_matching.success_ratio": _ratio(returned[matching], calls[matching]),
        "combinatorics.fallback_ratio": _ratio(counts["combinatorics.fallback"], returned[matching]),
        "combinatorics.permitted_graph.edges": counts["combinatorics.permitted_graph.edges"],
        "gaussian.consistent_ratio": _ratio(
            counts["gaussian.consistent"], counts["gaussian.classify_consistency"]
        ),
        "oracle.matvec.calls": _ratio(
            calls["oracle.matvec"], calls["oracle.lambda_max_exact.iterative"]
        ),
        "oracle.two_colored_dense.calls": _ratio(
            calls["oracle.two_colored_dense"], runs_by_kind["theta_sweep"]
        ),
        "oracle.dense_bytes_computed": _ratio(counts["oracle.dense_bytes_computed"], runs),
        "trace.overhead_ratio": _ratio(traced_wall, untraced_wall),
        "trace.top_span_share": _ratio(top_level, traced_wall),
    }
    for metric in LAYER_METRICS:
        name = metric.name
        if name in values:
            continue
        span, stat = name.rsplit(".", 1)
        if stat == "self_s":
            values[name] = _ratio(self_total[span], runs)
        elif stat == "calls":
            values[name] = _ratio(calls[span] or counts[span], runs)
        elif stat == "exponent":
            values[name] = _exponent(time_by_size[span], runs_by_size)
        else:
            raise KeyError(f"no derivation for {name}")
    return {metric.name: float(values[metric.name]) for metric in LAYER_METRICS}
