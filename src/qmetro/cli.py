"""Batch command-line front end.

Subcommands: state, qfi, witness, scenario, sweep, selftest.
Exit codes: 0 success, 1 usage or I/O problem, 2 invariant violation.
Sweeps run in one thread; the QMETRO_THREADS environment variable is ignored.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import serialize
from .fisher import qfi, sld, sld_trace, wigner_yanase, zeno_interval
from .metrology import (crb_consistency, dicke_scenario, frontier_lambda_grid,
                        ghz_parity_scenario, gradient_scenario,
                        noisy_scaling_sweep, ramsey_scenario, squeezing_frontier)
from .spin import Representation, collective_op, direction_op, gradient_op
from .states import (QuantumState, SqueezingSpec, dicke, ghz, mix_white_noise,
                     polarized, singlet_pi, squeezed_ground_state, to_full)
from .witnesses import (avg_qfi, depth_certificate, macroscopicity, moments,
                        optimal_ssi, qfi_entanglement, xi_squared_os,
                        xi_squared_s, xi_squared_singlet)

USAGE_EXIT = 1
INVARIANT_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def parse_range(text: str) -> np.ndarray:
    """start:stop:count[:lin|log] -> grid."""
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise ValueError(f"range must be start:stop:count[:lin|log], got {text!r}")
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    tag = parts[3] if len(parts) == 4 else "lin"
    if count < 1:
        raise ValueError("range count must be positive")
    if tag == "lin":
        return np.linspace(start, stop, count)
    if tag == "log":
        if start <= 0 or stop <= 0:
            raise ValueError("log ranges need positive endpoints")
        return np.geomspace(start, stop, count)
    raise ValueError(f"unknown range tag {tag!r}")


def parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok]


def _build_state(args) -> QuantumState:
    rep = Representation(args.rep, args.n)
    kind = args.kind
    if kind == "polarized":
        return polarized(args.n, args.axis, rep)
    if kind == "ghz":
        return ghz(args.n, rep, axis=args.axis)
    if kind == "dicke":
        m = args.m if args.m is not None else args.n // 2
        return dicke(args.n, m, rep)
    if kind == "singlet":
        if args.rep != "full":
            raise ValueError("the singlet family lives in the full representation")
        return singlet_pi(args.n)
    if kind == "squeezed":
        if args.lam is None:
            raise ValueError("--lam is required for squeezed states")
        st = squeezed_ground_state(SqueezingSpec(args.n, args.lam))
        return to_full(st) if args.rep == "full" else st
    if kind == "mixed":
        base = ghz(args.n, rep, axis=args.axis) if args.rep == "full" else None
        if base is None:
            raise ValueError("white-noise mixing needs --rep full")
        return mix_white_noise(base, args.p)
    raise ValueError(f"unknown state kind {kind!r}")


def _generator_from_spec(spec: str, rep: Representation):
    if spec.startswith("axis:"):
        return collective_op(spec.split(":", 1)[1], rep)
    if spec.startswith("direction:"):
        vec = np.array([float(t) for t in spec.split(":", 1)[1].split(",")])
        if not (np.isfinite(vec).all() and vec.any()):
            raise ValueError(f"direction must be a finite nonzero vector, got {spec!r}")
        # largest component scaled to 1: the norm can neither overflow nor underflow
        vec = vec / np.abs(vec).max()
        vec = vec / np.linalg.norm(vec)
        return direction_op(vec, rep)
    if spec == "gradient":
        return gradient_op(rep)
    raise ValueError(f"unknown generator spec {spec!r} "
                     "(use axis:x|y|z, direction:nx,ny,nz or gradient)")


def _report_dataclass(obj) -> dict:
    return {k: (v if not isinstance(v, (np.floating, np.integer)) else float(v))
            for k, v in dataclasses.asdict(obj).items()}


def cmd_state(args) -> int:
    state = _build_state(args)
    serialize.write_state(state, args.out)
    print(f"wrote {state.label} [{state.rep.kind}, N={state.n}] to {args.out}")
    return 0


def cmd_qfi(args) -> int:
    state = serialize.read_state(args.state)
    gen = _generator_from_spec(args.generator, state.rep)
    res = qfi(state, gen)
    doc = {"inputs": {"state": args.state, "generator": args.generator},
           "n_qubits": state.n,
           "qfi": res.value,
           "skipped_pairs": res.skipped_pairs}
    if args.zeno:
        doc["zeno_time"] = zeno_interval(res.value)
    if args.wy:
        doc["wigner_yanase"] = wigner_yanase(state, gen)
        doc["wigner_yanase_sandwich_ok"] = bool(4 * doc["wigner_yanase"] <= res.value + 1e-8)
    if args.sld:
        L = sld(state, gen)
        if args.out:
            doc["sld"] = L
        doc["sld_trace_check"] = sld_trace(state, L)
    if args.out:
        serialize.write_report(doc, args.out)
    print(f"qfi = {res.value:.12g}  (skipped pairs: {res.skipped_pairs})")
    for key in ("zeno_time", "wigner_yanase"):
        if key in doc:
            print(f"{key} = {doc[key]:.12g}")
    return 0


_CRITERIA = ("xi_s", "xi_os", "xi_singlet", "ssi", "qfi", "avg", "macro")


def cmd_witness(args) -> int:
    wanted = _CRITERIA if args.all else tuple(args.criteria.split(","))
    unknown = [c for c in wanted if c not in _CRITERIA]
    if unknown:
        raise ValueError(f"unknown criteria {', '.join(map(repr, unknown))} "
                         f"(choose from {', '.join(_CRITERIA)})")
    state = serialize.read_state(args.state)
    mset = moments(state)
    reports = []
    doc = {"inputs": {"state": args.state}, "n_qubits": state.n}
    if "xi_s" in wanted:
        reports.append(xi_squared_s(mset, args.squeezed_axis))
    if "xi_os" in wanted:
        reports.append(xi_squared_os(mset, args.squeezed_axis))
    if "xi_singlet" in wanted:
        reports.append(xi_squared_singlet(mset))
    if "ssi" in wanted:
        reports.extend(optimal_ssi(mset))
    # the qfi criterion reads its per-axis values from avg_qfi
    avg = avg_qfi(state) if {"avg", "qfi"} & set(wanted) else None
    if "qfi" in wanted:
        per_axis = dict(zip("xyz", avg.per_axis))
        best_axis = max(per_axis, key=per_axis.get)
        reports.append(qfi_entanglement(per_axis[best_axis], state.n))
        cert = depth_certificate(per_axis[best_axis], state.n)
        doc["qfi_per_axis"] = per_axis
        doc["depth_certificate"] = _report_dataclass(cert)
    if "avg" in wanted:
        doc["avg_qfi"] = {k: v for k, v in _report_dataclass(avg).items()
                          if k not in ("n", "producibility_table")}
    if "macro" in wanted:
        macro = macroscopicity(state)
        doc["effective_size"] = {"n_eff": macro.n_eff,
                                 "direction": list(macro.direction)}
    doc["witnesses"] = [_report_dataclass(r) for r in reports]
    if args.out:
        serialize.write_report(doc, args.out)
    for r in reports:
        val = "n/a" if r.value is None else f"{r.value:.9g}"
        print(f"{r.criterion:34s} value={val:>12s} threshold={r.threshold:.6g} "
              f"-> {r.verdict}{' (boundary)' if r.boundary else ''}")
    if "avg" in wanted:
        print(f"avg qfi = {doc['avg_qfi']['average']:.9g} "
              f"(depth >= {doc['avg_qfi']['certified_depth']})")
    return 0


_SCENARIOS = {"ramsey": ramsey_scenario, "ghz_parity": ghz_parity_scenario,
              "dicke": dicke_scenario}


def cmd_scenario(args) -> int:
    if args.family == "gradient":
        sc = gradient_scenario(args.n, args.theta0)
    else:
        sc = _SCENARIOS[args.family](args.n, args.rep, args.theta0)
    crb = crb_consistency(sc)
    res = crb.result
    doc = {"inputs": {"family": args.family, "n": args.n, "theta0": args.theta0},
           "label": sc.label,
           "precision": res.value, "branch": res.branch,
           "no_sensitivity": res.no_sensitivity,
           "precision_inv": res.precision_inv,
           "qcrb": crb.qcrb, "crb_gap": crb.gap, "crb_consistent": crb.consistent}
    if args.out:
        serialize.write_report(doc, args.out)
    if res.no_sensitivity:
        print(f"{sc.label}: no sensitivity at theta0={args.theta0} ({res.message})")
    else:
        print(f"{sc.label}: (dtheta)^2 = {res.value:.12g} [{res.branch}], "
              f"1/F_Q = {crb.qcrb:.12g}, gap = {crb.gap:.3e}")
    if not crb.consistent:
        print("quantum Cramer-Rao bound violated", file=sys.stderr)
        return INVARIANT_EXIT
    return 0


def cmd_sweep(args) -> int:
    if args.points < 1:
        raise ValueError(f"--points must be at least 1, got {args.points}")
    exponent = None
    if args.kind == "frontier":
        lams = (parse_range(args.lambdas) if args.lambdas
                else frontier_lambda_grid(args.n, args.points))
        records, what = squeezing_frontier(args.n, lams), "frontier"
    else:
        n_list = parse_int_list(args.n_list)
        if not n_list:
            raise ValueError("--n-list must name at least one particle number")
        result = noisy_scaling_sweep(args.p, n_list, lambda_points=args.points)
        records, exponent, what = result.records, result.exponent, "sweep"
    serialize.write_sweep_csv(records, args.out)
    print(f"wrote {len(records)} {what} rows to {args.out}")
    if exponent is not None:
        print(f"fitted precision exponent: {exponent:.4f}")
    for rec in records:
        if not rec.within_ceiling:
            print(f"N={rec.n}, lam={rec.lam:.6g}: precision {rec.precision_inv:.6g} "
                  f"exceeds the ceiling {rec.ceiling:.6g}", file=sys.stderr)
            return INVARIANT_EXIT
        # per-qubit depolarizing leaves Var(J_x) >= (1 - eta^2) N/4, eta = 1 - p
        if rec.var_x < (2 * rec.p - rec.p ** 2) * rec.n / 4 - 1e-9:
            print(f"N={rec.n}: Var(J_x) fell below the noise floor", file=sys.stderr)
            return INVARIANT_EXIT
    return 0


def cmd_selftest(args) -> int:
    from .selftest import run_all
    ok = run_all(samples=args.samples, seed=args.seed)
    print("selftest:", "PASS" if ok else "FAIL")
    return 0 if ok else INVARIANT_EXIT


def build_parser() -> _Parser:
    p = _Parser(prog="qmetro", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("state", help="build a probe state and write it to a file")
    sp.add_argument("--kind", required=True,
                    choices=("polarized", "ghz", "dicke", "singlet", "squeezed", "mixed"))
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--rep", choices=("full", "symmetric"), default="symmetric")
    sp.add_argument("--axis", default="x", choices=("x", "y", "z"))
    sp.add_argument("--m", type=int, default=None, help="flipped spins for dicke")
    sp.add_argument("--lam", type=float, default=None, help="squeezing weight")
    sp.add_argument("--p", type=float, default=1.0, help="white-noise purity weight")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_state)

    qp = sub.add_parser("qfi", help="quantum Fisher information of a stored state")
    qp.add_argument("state")
    qp.add_argument("--generator", default="axis:x")
    qp.add_argument("--sld", action="store_true")
    qp.add_argument("--wy", action="store_true")
    qp.add_argument("--zeno", action="store_true")
    qp.add_argument("--out", default=None)
    qp.set_defaults(func=cmd_qfi)

    wp = sub.add_parser("witness", help="evaluate entanglement criteria")
    wp.add_argument("state")
    wp.add_argument("--all", action="store_true")
    wp.add_argument("--criteria", default="xi_s,xi_os,xi_singlet,ssi")
    wp.add_argument("--squeezed-axis", default="x", choices=("x", "y", "z"))
    wp.add_argument("--out", default=None)
    wp.set_defaults(func=cmd_witness)

    cp = sub.add_parser("scenario", help="run a named estimation scenario")
    cp.add_argument("--family", required=True,
                    choices=("ramsey", "ghz_parity", "dicke", "gradient"))
    cp.add_argument("--n", type=int, required=True)
    cp.add_argument("--theta0", type=float, default=0.0)
    cp.add_argument("--rep", choices=("full", "symmetric"), default="symmetric")
    cp.add_argument("--out", default=None)
    cp.set_defaults(func=cmd_scenario)

    vp = sub.add_parser("sweep", help="run a frontier or noise sweep, write CSV")
    vp.add_argument("--kind", choices=("frontier", "noise"), default="frontier")
    vp.add_argument("--n", type=int, default=100, help="particle number (frontier)")
    vp.add_argument("--n-list", default="4,6,8,10", help="particle numbers (noise)")
    vp.add_argument("--p", type=float, default=0.0, help="depolarizing probability")
    vp.add_argument("--lambdas", default=None,
                    help="start:stop:count[:lin|log] grid of squeezing weights")
    vp.add_argument("--points", type=int, default=64)
    vp.add_argument("--out", required=True)
    vp.set_defaults(func=cmd_sweep)

    tp = sub.add_parser("selftest", help="run the randomized property battery")
    tp.add_argument("--samples", type=int, default=100)
    tp.add_argument("--seed", type=int, default=2024)
    tp.set_defaults(func=cmd_selftest)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"qmetro: error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
