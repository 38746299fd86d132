"""Command-line surface: reproducible, seeded, file-based workflows.

Artifacts are JSON (CSV for profile/grid tables), embed the fully resolved
configuration, and are byte-identical under identical argv + seed apart
from the ``timestamp`` field.  Exit codes: 0 success, 1 usage errors,
2 hypothesis violations; errors go to stderr as one JSON object with a
machine-readable ``error`` code.  Each command imports the modules it
calls inside its own function, so one call compiles only those.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from .errors import CoupleKitError, HypothesisError, UsageError
from .measure import SeqVec, StepFunction, Window


def _window_arg(text: str, kind_default: str = "Z-") -> Window:
    parts = text.split(":")
    if len(parts) == 2:
        lo, hi = int(parts[0]), int(parts[1])
        kind = kind_default if (hi <= -1 and kind_default == "Z-") else "Z"
        return Window(kind, lo, hi)
    if len(parts) == 3:
        return Window(parts[2], int(parts[0]), int(parts[1]))
    raise UsageError("window must be lo:hi or lo:hi:kind")


def _t_grid_arg(text: str) -> list[float]:
    # log:a:b:n -> n points 2^a .. 2^b, geometric
    parts = text.split(":")
    if len(parts) != 4 or parts[0] != "log":
        raise UsageError("t-grid must be log:<a>:<b>:<n> (powers of 2)")
    a, b, n = float(parts[1]), float(parts[2]), int(parts[3])
    if n < 1:
        raise UsageError(f"t-grid needs at least one point, got n = {n}")
    es = np.linspace(a, b, n)
    with np.errstate(over="ignore"):  # the check below reports it
        ts = [float(2.0 ** e) for e in es]
    for e, t in zip(es.tolist(), ts):
        if not 0 < t < math.inf:
            raise UsageError(f"t-grid point 2^{e!r} is not finite and > 0")
    return ts


def _write_json(path: str, payload: dict):
    payload = dict(payload)
    payload["timestamp"] = datetime.now(timezone.utc).isoformat()
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load(path: str, from_json_dict):
    """from_json_dict of the file's JSON object; a missing key is a usage
    error naming the file and the key."""
    with open(path) as fh:
        d = json.load(fh)
    if not isinstance(d, dict):
        raise UsageError(f"{path} must hold a JSON object")
    try:
        return from_json_dict(d)
    except KeyError as exc:
        raise UsageError(f"{path} is missing the key {exc.args[0]!r}") from None


def cmd_analyze_orlicz(args) -> int:
    from .analysis import TGrid, elasticity_report, indices, rv_defect, w_witness
    from .specdsl import parse_generator

    F = parse_generator(args.gen)
    x_grid = 2.0 ** -np.arange(4, args.kmax + 1, dtype=float)
    idx = indices(F)  # first: an overflowing profile fails before the other work
    rep = elasticity_report(F, C0=args.C0, x_grid=x_grid)
    defect = rv_defect(F, x_grid[:6], TGrid.span(0.0, 512.0))
    ww = w_witness(F, args.C0)
    _write_json(args.out, {
        "config": {"gen": args.gen, "C0": args.C0, "kmax": args.kmax},
        "generator": F.spec_string(),
        "elasticity": rep.to_json_dict(),
        "indices": idx.to_json_dict(),
        "rv_defect": defect,
        "w_witness_C1": ww.C1,
    })
    return 0


def cmd_k_profile(args) -> int:
    from .kfunc import k_profile
    from .specdsl import parse_any_space

    X = parse_any_space(args.X)
    Y = parse_any_space(args.Y)
    f = _load(args.f, StepFunction.from_json_dict)
    grid = _t_grid_arg(args.t_grid)
    rows = k_profile(f, X, Y, grid)
    with open(args.out, "w", newline="") as fh:
        wr = csv.DictWriter(fh, fieldnames=["t", "K", "x_mass", "y_mass",
                                            "lower", "converged"])
        wr.writeheader()
        for row in rows:
            wr.writerow(row)
    return 0


def cmd_shift_test(args) -> int:
    from .shift import shift_constant_estimate
    from .specdsl import parse_seq_space

    window = _window_arg(args.window)
    E = parse_seq_space(args.space, window)
    est = shift_constant_estimate(E, args.side, budget=args.budget,
                                  seed=args.seed, target=args.target)
    _write_json(args.out, {
        "config": {"space": args.space, "side": args.side,
                   "window": window.to_json_dict(), "budget": args.budget,
                   "seed": args.seed, "target": args.target},
        "c_hat": est.c_hat,
        "evals": est.evals,
        "stop": est.stop,
        "upper": est.upper,
        "witness": est.witness.to_json_dict() if est.witness else None,
    })
    return 0


def cmd_transfer(args) -> int:
    from .kfunc import fit_separation, rho_profile
    from .specdsl import parse_seq_space
    from .transfer import OP_NORM_BUDGET, _op_norm_lower, k_transfer, majorization_transfer

    window = _window_arg(args.window)
    E = parse_seq_space(args.E, window)
    F = parse_seq_space(args.F, window)
    x = _load(args.x, SeqVec.from_json_dict)
    y = _load(args.y, SeqVec.from_json_dict)
    if args.mode == "majorization":
        T = majorization_transfer(x, y, E, F)
    else:
        fit = fit_separation(rho_profile(E, F, window))
        T = k_transfer(x, y, E, F, fit)
    payload = T.to_json_dict()
    payload["config"] = {"E": args.E, "F": args.F, "mode": args.mode,
                         "window": window.to_json_dict(), "seed": args.seed}
    if args.check_norms:
        # op_norm's interval, with the evaluations its lower search spent and
        # why that search stopped
        payload["norm_checks"] = {
            label: _op_norm_lower(T, space, OP_NORM_BUDGET, args.seed).to_json_dict()
            for label, space in (("E", E), ("F", F))}
    _write_json(args.out, payload)
    return 0


def cmd_verdict(args) -> int:
    from .specdsl import parse_space
    from .verdict import classify_couple

    X = parse_space(args.X)
    Y = parse_space(args.Y)
    report = classify_couple(X, Y, {"seed": args.seed})
    _write_json(args.out, report.to_json_dict())
    return 0


def _exp(v: float) -> float:
    """e^v, inf where it overflows."""
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def cmd_generate(args) -> int:
    from .orlicz import _finite_profile
    from .specdsl import parse_generator

    F = parse_generator(args.gen)
    if not math.isfinite(args.u_hi - args.u_lo):  # nan or inf at either end too
        raise UsageError(f"--u-lo and --u-hi must be finite and a finite distance "
                         f"apart; got {args.u_lo!r}, {args.u_hi!r}")
    if F.sampled_range is not None:
        lo, hi = F.sampled_range
        if not lo <= min(args.u_lo, args.u_hi) <= max(args.u_lo, args.u_hi) <= hi:
            raise UsageError(f"{args.gen} is sampled on u in [{lo!r}, {hi!r}] and "
                             f"extrapolated past it; got --u-lo {args.u_lo!r}, "
                             f"--u-hi {args.u_hi!r}")
    us = np.linspace(args.u_lo, args.u_hi, args.points)
    hs = _finite_profile(F, us)  # a usage error where log F overflows
    with open(args.dump, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["log_x", "log_F", "x", "F"])
        for u, h in zip(us.tolist(), hs.tolist()):
            wr.writerow([repr(u), repr(h), repr(_exp(u)), repr(_exp(h))])
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (``parse_args`` leaves it
    as it was)."""
    ap = argparse.ArgumentParser(
        prog="couplekit",
        description="Calderon-couple toolkit: norms, K-functionals, shift "
                    "properties, transfer operators, Orlicz elasticity.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze-orlicz", help="elasticity/index report for a generator")
    p.add_argument("--gen", required=True)
    p.add_argument("--C0", type=float, default=4.0)
    p.add_argument("--kmax", type=int, default=20)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze_orlicz)

    p = sub.add_parser("k-profile", help="K(t) profile along a t grid (CSV)")
    p.add_argument("--X", required=True)
    p.add_argument("--Y", required=True)
    p.add_argument("--f", required=True, help="step-function JSON file")
    p.add_argument("--t-grid", required=True, dest="t_grid")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_k_profile)

    p = sub.add_parser("shift-test", help="adversarial RSP/LSP constant search")
    p.add_argument("--space", required=True)
    p.add_argument("--side", choices=["rsp", "lsp"], required=True)
    p.add_argument("--window", default="-64:-1")
    p.add_argument("--budget", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--target", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_shift_test)

    p = sub.add_parser("transfer", help="construct a positive transfer operator")
    p.add_argument("--E", required=True)
    p.add_argument("--F", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--mode", choices=["majorization", "k"], default="majorization")
    p.add_argument("--window", default="-64:-1")
    p.add_argument("--check-norms", action="store_true", dest="check_norms")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("verdict", help="classify a couple of function spaces")
    p.add_argument("--X", required=True)
    p.add_argument("--Y", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_verdict)

    p = sub.add_parser("generate", help="dump a generator's log-log grid to CSV")
    p.add_argument("--gen", required=True)
    p.add_argument("--dump", required=True)
    p.add_argument("--u-lo", type=float, default=-16.0, dest="u_lo")
    p.add_argument("--u-hi", type=float, default=64.0, dest="u_hi")
    p.add_argument("--points", type=int, default=257)
    p.set_defaults(func=cmd_generate)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except HypothesisError as exc:
        print(json.dumps({"error": exc.code, "detail": str(exc)}), file=sys.stderr)
        return 2
    except (UsageError, CoupleKitError, FileNotFoundError, KeyError, ValueError) as exc:
        code = getattr(exc, "code", "usage")
        print(json.dumps({"error": code, "detail": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
