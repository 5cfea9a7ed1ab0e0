"""Command-line front end.

Verbs: ``gen`` (ensembles to JSON), ``optimize`` (state + certificate),
``verify`` (recompute the energy along independent routes), ``exact``
(largest eigenvalue), ``sweep-theta`` (rotated-state curve CSV), ``study``
(batch experiments).  Exit codes: 0 success, 2 construction succeeded but
without the guarantee flag, 1 any error.  All randomness flows from an
explicit ``--seed``.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import experiments
from .combinatorics import ContractError, DiracError
from .ensembles import FAMILIES, EnsembleSpec, gen_two_colored, generate
from .gaussian import (
    hamiltonian_expectation,
    correlation_from_matching,
    matching_state_expectation,
    state_from_json,
    state_to_json,
)
from .hamiltonian import parse_hamiltonian, serialize_hamiltonian
from .optimizer import PullBackError, optimize
from .oracle import (
    DENSE_EIG_MODE_BUDGET,
    dense_expectation,
    dense_state_from_matching,
    lambda_max_exact,
    rho_theta_sweep,
)

AGREE_TOL = 1e-9


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def build_parser() -> _Parser:
    parser = _Parser(prog="fermiopt")
    sub = parser.add_subparsers(dest="verb", required=True, parser_class=_Parser)

    gen = sub.add_parser("gen", help="generate a seeded Hamiltonian")
    gen.add_argument("--family", required=True, choices=list(FAMILIES))
    gen.add_argument("--n", type=int)
    gen.add_argument("--q", type=int)
    gen.add_argument("--k", type=int)
    gen.add_argument("--n1", type=int)
    gen.add_argument("--n2", type=int)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)

    opt = sub.add_parser("optimize", help="construct a certified Gaussian state")
    opt.add_argument("--in", dest="infile", required=True)
    opt.add_argument(
        "--pipeline", default="auto", choices=["auto", "strictq", "mixed24", "ssyk"]
    )
    opt.add_argument("--k", type=int)
    opt.add_argument("--out-state", required=True)
    opt.add_argument("--out-cert", required=True)

    ver = sub.add_parser("verify", help="recompute the state energy both ways")
    ver.add_argument("--in", dest="infile", required=True)
    ver.add_argument("--state", required=True)

    exact = sub.add_parser("exact", help="largest eigenvalue by brute force")
    exact.add_argument("--in", dest="infile", required=True)
    exact.add_argument("--method", default="auto", choices=["auto", "dense", "iterative"])

    sweep = sub.add_parser("sweep-theta", help="rotated-state expectation curve")
    sweep.add_argument("--in", dest="infile", required=True)
    sweep.add_argument("--spec", help="provenance sidecar (default: <in>.spec.json)")
    sweep.add_argument("--grid", help="low,high,points (default 0.001,2,64)")
    sweep.add_argument("--out", required=True)

    study = sub.add_parser("study", help="run a batch study from a config")
    study.add_argument("--config", required=True)
    study.add_argument("--out", help="override the config's output path")
    return parser


def _cmd_gen(args) -> int:
    spec = EnsembleSpec(
        family=args.family,
        seed=args.seed,
        n=args.n,
        q=args.q,
        k=args.k,
        n1=args.n1,
        n2=args.n2,
    )
    out = generate(spec)
    ham = out[0] if isinstance(out, tuple) else out
    with open(args.out, "w") as fh:
        fh.write(serialize_hamiltonian(ham))
    with open(args.out + ".spec.json", "w") as fh:
        fh.write(spec.to_json())
    print(f"wrote {args.out} ({len(ham.terms)} terms on {ham.n_majoranas} Majoranas)")
    return 0


def _cmd_optimize(args) -> int:
    with open(args.infile) as fh:
        ham = parse_hamiltonian(fh.read())
    result = optimize(ham, args.pipeline, k=args.k)
    with open(args.out_state, "w") as fh:
        fh.write(state_to_json(result.matching, result.signs))
    cert = result.certificate
    with open(args.out_cert, "w") as fh:
        fh.write(cert.to_json())
    ratio = cert.achieved / cert.upper_bound if cert.upper_bound > 0 else float("nan")
    print(
        f"achieved {cert.achieved:.9g} of strength {cert.upper_bound:.9g} "
        f"(ratio {ratio:.3g}, floor 1/{round(1 / cert.guaranteed_ratio)}, "
        f"guaranteed {cert.guarantee_holds})"
    )
    return 0 if cert.guarantee_holds else 2


def _cmd_verify(args) -> int:
    with open(args.infile) as fh:
        ham = parse_hamiltonian(fh.read())
    with open(args.state) as fh:
        matching, signs = state_from_json(fh.read())
    if matching.n_majoranas != ham.n_majoranas:
        raise ValueError(f"state on {matching.n_majoranas} Majoranas, H on {ham.n_majoranas}")
    values = {
        "closed_form": matching_state_expectation(matching, signs, ham),
        "wick": hamiltonian_expectation(correlation_from_matching(matching, signs), ham),
    }
    if ham.n_modes <= DENSE_EIG_MODE_BUDGET:
        rho = dense_state_from_matching(matching, signs, n_modes=ham.n_modes)
        values["dense"] = dense_expectation(ham, rho)
    for name, value in values.items():
        print(f"{name}: {value!r}")
    reference = values["wick"]
    scale = 1.0 + abs(reference)
    worst = max(abs(v - reference) for v in values.values())
    print(f"max deviation: {worst:.3e}")
    if worst > AGREE_TOL * scale:
        print("routes disagree beyond tolerance")
        return 1
    return 0


def _cmd_exact(args) -> int:
    with open(args.infile) as fh:
        ham = parse_hamiltonian(fh.read())
    print(repr(lambda_max_exact(ham, method=args.method)))
    return 0


def _cmd_sweep(args) -> int:
    grid = None
    if args.grid is not None:
        try:
            low, high, points = args.grid.split(",")
            low, high, points = float(low), float(high), int(points)
            valid = points >= 1 and np.isfinite([low, high]).all() and low * high > 0
        except ValueError:
            valid = False
        if not valid:
            raise ValueError(
                f"--grid {args.grid!r} is not low,high,points with finite nonzero bounds "
                "of one sign, points >= 1"
            )
        grid = np.geomspace(low, high, points)
    with open(args.infile) as fh:
        ham = parse_hamiltonian(fh.read())
    spec_path = args.spec or args.infile + ".spec.json"
    with open(spec_path) as fh:
        spec = EnsembleSpec.from_json(fh.read())
    if spec.family != "two_colored":
        raise ValueError("sweep needs a two-colored instance (see gen --family two_colored)")
    ham2, meta = gen_two_colored(spec.n1, spec.n2, spec.q, spec.seed)
    if ham2 != ham:
        raise ValueError("input Hamiltonian does not match its provenance sidecar")
    curve = rho_theta_sweep(ham2, meta, theta_grid=grid)
    with open(args.out, "w") as fh:
        fh.write("theta,value\n")
        for theta, value in curve:
            fh.write(f"{theta!r},{value!r}\n")
    best_theta, best_value = max(curve, key=lambda tv: tv[1])
    print(f"best value {best_value!r} at theta {best_theta!r}")
    return 0


def _cmd_study(args) -> int:
    with open(args.config) as fh:
        cfg = experiments.StudyConfig.from_json(fh.read())
    out = args.out or cfg.out
    if out is None:
        raise ValueError("no output path: set 'out' in the config or pass --out")
    result = experiments.run_study(cfg)
    experiments.write_study(cfg, result, out)
    print(f"wrote {out} ({len(result.rows)} rows)")
    for key, value in result.summary.items():
        print(f"  {key}: {value}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "gen": _cmd_gen,
        "optimize": _cmd_optimize,
        "verify": _cmd_verify,
        "exact": _cmd_exact,
        "sweep-theta": _cmd_sweep,
        "study": _cmd_study,
    }[args.verb]
    try:
        return handler(args)
    except (ValueError, OSError, KeyError, DiracError, PullBackError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
