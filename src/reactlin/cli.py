"""Command-line front end emitting stable JSON and CSV.

Subcommands: analyze | portrait | trajectory | sweep-k | synthesize.
Matrix entries are given row-major (a11 a12 a21 a22); put them after a
`--` separator when they start with a minus sign.  Exit codes: 0 ok,
2 usage error, 3 inapplicable classification, 4 numeric failure.
Floats are serialized with 17 significant digits and output carries no
timestamps, so identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import __version__
from .amplification import rho_max_bound_eigen, rho_max_bound_ortho, rho_max_closed
from .core import (
    Mat2,
    decompose,
    eval_radial,
    eval_tangential,
)
from .dynamics import (
    NonautConfig,
    default_step,
    integrate_linear,
    integrate_nonaut,
    sweep_rotation_rates,
)
from .errors import InapplicableError, InvalidInputError, NumericFailureError
from .forms import to_r_centered, to_r_zeroed, to_t_centered, to_t_zeroed
from .spectra import (
    AllOrtho,
    Classification,
    ComplexPairEigen,
    DistinctRealEigen,
    DistinctRealOrtho,
    NoRealOrtho,
    RepeatedDefectiveEigen,
    RepeatedFullEigen,
    RepeatedOrtho,
    eigen_structure,
    ortho_structure,
    transient_summary,
)
from .synthesis import (
    attractor_with_eigenvalues,
    attractor_with_eigenvectors,
    from_deltas,
)

SCHEMA_VERSION = "2"


# ---------------------------------------------------------------------------
# deterministic serialization


def _fmt(x: float) -> str:
    if not math.isfinite(x):
        raise NumericFailureError(f"refusing to serialize non-finite value {x!r}")
    return format(float(x), ".17g")


def _json(obj) -> str:
    """Minimal JSON emitter with fixed float formatting and key order."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        out = ['"']
        for ch in obj:
            if ch in ('"', "\\"):
                out.append("\\" + ch)
            elif ord(ch) < 0x20:
                out.append(f"\\u{ord(ch):04x}")
            else:
                out.append(ch)
        out.append('"')
        return "".join(out)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(_json(str(k)) + ":" + _json(v) for k, v in obj.items()) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _csv_rows(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _diag(message: str) -> None:
    use_color = sys.stderr.isatty() and not os.environ.get("REACTLIN_NO_COLOR")
    prefix = "\x1b[31merror:\x1b[0m" if use_color else "error:"
    print(f"{prefix} {message}", file=sys.stderr)


# ---------------------------------------------------------------------------
# report builders


def _matrix_out(a: Mat2) -> list[list[float]]:
    return [[a.a11, a.a12], [a.a21, a.a22]]


def _eigen_out(eig) -> dict:
    if isinstance(eig, DistinctRealEigen):
        return {
            "kind": "distinct_real",
            "lambda1": eig.lambda1,
            "lambda2": eig.lambda2,
            "theta1": eig.theta1.value,
            "theta2": eig.theta2.value,
            "delta_T": eig.delta_t,
            "p_R": eig.p_r,
        }
    if isinstance(eig, ComplexPairEigen):
        return {"kind": "complex_pair", "re": eig.re, "im": eig.im}
    if isinstance(eig, RepeatedFullEigen):
        return {"kind": "repeated_full", "lambda": eig.lam}
    assert isinstance(eig, RepeatedDefectiveEigen)
    return {"kind": "repeated_defective", "lambda": eig.lam, "theta0": eig.theta0.value}


def _ortho_out(ortho) -> dict:
    if isinstance(ortho, DistinctRealOrtho):
        return {
            "kind": "distinct_real",
            "mu1": ortho.mu1,
            "mu2": ortho.mu2,
            "phi1": ortho.phi1.value,
            "phi2": ortho.phi2.value,
            "delta_R": ortho.delta_r,
            "p_T": ortho.p_t,
        }
    if isinstance(ortho, NoRealOrtho):
        return {"kind": "no_real"}
    if isinstance(ortho, AllOrtho):
        return {"kind": "all_ortho", "mu": ortho.mu}
    assert isinstance(ortho, RepeatedOrtho)
    return {"kind": "repeated_ortho", "mu": ortho.mu, "phi0": ortho.phi0.value}


def _form_out(builder, a: Mat2) -> dict:
    try:
        res = builder(a)
    except InapplicableError as exc:
        return {"inapplicable": str(exc)}
    return {"matrix": _matrix_out(res.matrix), "gamma": res.gamma}


def _amplification_out(a: Mat2) -> dict:
    bounds: dict = {"ortho": rho_max_bound_ortho(a)}
    try:
        bounds["eigen"] = rho_max_bound_eigen(a)
    except InapplicableError:
        pass
    closed = rho_max_closed(a)
    return {
        "rho_max": closed.rho_max,
        "method": closed.method.value,
        "bounds": bounds,
        "t_max": closed.t_max,
        "theta_entry": closed.theta_entry.value,
    }


def cmd_analyze(args) -> int:
    a = Mat2(*args.matrix)
    rt = decompose(a)
    summary = transient_summary(rt)
    rt_out = {"m_R": rt.m_r, "m_T": rt.m_t, "p": rt.p}
    if rt.theta_r is not None:
        rt_out["theta_R"] = rt.theta_r.value
    transient_out = {
        "rho1": summary.rho1,
        "rho2": summary.rho2,
        "classification": summary.classification.value,
        "is_reactive": summary.is_reactive,
        "is_attenuating": summary.is_attenuating,
    }
    if summary.reactive_set is not None:
        transient_out["reactive_set"] = list(summary.reactive_set)
    report = {
        "schema_version": SCHEMA_VERSION,
        "matrix": _matrix_out(a),
        "rt": rt_out,
        "eigen": _eigen_out(eigen_structure(rt)),
        "ortho": _ortho_out(ortho_structure(rt)),
        "transient": transient_out,
        "standard_forms": {
            "rc": _form_out(to_r_centered, a),
            "tc": _form_out(to_t_centered, a),
            "r0": _form_out(to_r_zeroed, a),
            "t0": _form_out(to_t_zeroed, a),
        },
    }
    if summary.classification is Classification.REACTIVE_ATTRACTOR:
        report["amplification"] = _amplification_out(a)
    _emit(_json(report))
    return 0


def cmd_portrait(args) -> int:
    if args.n < 4:
        raise InvalidInputError(f"need at least 4 samples, got {args.n}")
    a = Mat2(*args.matrix)
    rt = decompose(a)
    rows = []
    for i in range(args.n):
        th = i * math.pi / args.n
        c, s = math.cos(th), math.sin(th)
        vx, vy = a.apply(c, s)
        rows.append((th, eval_radial(rt, th), eval_tangential(rt, th), vx, vy))
    _emit(_csv_rows(["theta", "R", "T", "vx", "vy"], rows))
    return 0


def cmd_trajectory(args) -> int:
    a = Mat2(*args.matrix)
    step = args.step if args.step is not None else default_step(decompose(a), 1e-3)
    if args.k is not None:
        traj = integrate_nonaut(NonautConfig(a, args.k), tuple(args.x0), step, args.t_end)
    else:
        traj = integrate_linear(a, tuple(args.x0), step, args.t_end)
    rows = zip(
        traj.t.tolist(), traj.x1.tolist(), traj.x2.tolist(), traj.r.tolist(), traj.theta.tolist()
    )
    _emit(_csv_rows(["t", "x1", "x2", "r", "theta_unwrapped"], rows))
    return 0


def cmd_sweep_k(args) -> int:
    a = Mat2(*args.matrix)
    res = sweep_rotation_rates(
        a, args.k_min, args.k_max, args.n, step=args.step, t_end=args.t_end
    )
    rows = [
        (p.k, p.log_slope, "growing" if p.growing else "decaying") for p in res.points
    ]
    if args.csv:
        _emit(_csv_rows(["k", "log_slope", "classification"], rows))
        return 0
    report = {
        "schema_version": SCHEMA_VERSION,
        "matrix": _matrix_out(a),
        "rows": [
            {"k": k, "log_slope": s, "classification": c} for (k, s, c) in rows
        ],
        "analytic_window": list(res.analytic_window),
        "empirical_window": list(res.empirical_window) if res.empirical_window else None,
        "max_abs_boundary_error": res.max_abs_boundary_error,
    }
    _emit(_json(report))
    return 0


def _measured_block(a: Mat2) -> dict:
    rt = decompose(a)
    summary = transient_summary(rt)
    out = {
        "rho": rt.rho1,
        "classification": summary.classification.value,
    }
    eig = eigen_structure(rt)
    if isinstance(eig, DistinctRealEigen):
        out["lambda1"] = eig.lambda1
        out["lambda2"] = eig.lambda2
        out["theta1"] = eig.theta1.value
        out["theta2"] = eig.theta2.value
        out["delta_T"] = eig.delta_t
    elif isinstance(eig, RepeatedDefectiveEigen):
        out["lambda1"] = eig.lam
        out["lambda2"] = eig.lam
        out["delta_T"] = 0.0
    ortho = ortho_structure(rt)
    if isinstance(ortho, DistinctRealOrtho):
        out["delta_R"] = ortho.delta_r
    return out


def cmd_synthesize(args) -> int:
    if args.mode == "deltas":
        requested = {"delta_R": args.delta_r, "delta_T": args.delta_t, "rho": args.rho}
        a = from_deltas(args.delta_r, args.delta_t, args.rho)
    elif args.mode == "eigenvalues":
        requested = {"lambda1": args.lambda1, "lambda2": args.lambda2, "rho": args.rho}
        a = attractor_with_eigenvalues(args.lambda1, args.lambda2, args.rho)
    else:
        requested = {"theta1": args.theta1, "theta2": args.theta2, "rho": args.rho}
        if args.delta_r is not None:
            requested["delta_R"] = args.delta_r
        a = attractor_with_eigenvectors(args.theta1, args.theta2, args.rho, args.delta_r)
    report = {
        "schema_version": SCHEMA_VERSION,
        "mode": args.mode,
        "matrix": _matrix_out(a),
        "requested": requested,
        "measured": _measured_block(a),
    }
    _emit(_json(report))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_matrix(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "matrix",
        type=float,
        nargs=4,
        metavar="a",
        help="matrix entries, row-major: a11 a12 a21 a22 (put after -- if negative)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reactlin",
        description="Radial/tangential analysis of planar linear ODE systems.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full JSON report for one matrix")
    _add_matrix(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("portrait", help="CSV of R, T and the unit-circle field")
    _add_matrix(p)
    p.add_argument("--n", type=int, default=360, help="number of angle samples on [0, pi)")
    p.set_defaults(func=cmd_portrait)

    p = sub.add_parser("trajectory", help="CSV trajectory dump")
    _add_matrix(p)
    p.add_argument("--x0", type=float, nargs=2, default=(1.0, 0.0), metavar=("X1", "X2"))
    p.add_argument("--step", type=float, default=None, help="RK4 step (default: rate-scaled)")
    p.add_argument("--t-end", type=float, default=10.0)
    p.add_argument("--k", type=float, default=None,
                   help="rotate the coefficient matrix at this rate (nonautonomous)")
    p.set_defaults(func=cmd_trajectory)

    p = sub.add_parser("sweep-k", help="scan rotation rates for growth vs decay")
    _add_matrix(p)
    p.add_argument("--k-min", type=float, required=True)
    p.add_argument("--k-max", type=float, required=True)
    p.add_argument("--n", type=int, default=161)
    p.add_argument("--step", type=float, default=5e-3)
    p.add_argument("--t-end", type=float, default=50.0)
    p.add_argument("--csv", action="store_true", help="emit CSV rows instead of JSON")
    p.set_defaults(func=cmd_sweep_k)

    p = sub.add_parser("synthesize", help="construct a matrix with prescribed features")
    mode = p.add_subparsers(dest="mode", required=True)

    pd = mode.add_parser("deltas", help="from reactive/eigenline arc radii and reactivity")
    pd.add_argument("--delta-r", type=float, required=True, dest="delta_r")
    pd.add_argument("--delta-t", type=float, required=True, dest="delta_t")
    pd.add_argument("--rho", type=float, required=True)
    pd.set_defaults(func=cmd_synthesize, mode="deltas")

    pe = mode.add_parser("eigenvalues", help="reactive attractor with given eigenvalues")
    pe.add_argument("--lambda1", type=float, required=True)
    pe.add_argument("--lambda2", type=float, required=True)
    pe.add_argument("--rho", type=float, required=True)
    pe.set_defaults(func=cmd_synthesize, mode="eigenvalues")

    pv = mode.add_parser("eigenvectors", help="reactive attractor with given eigenlines")
    pv.add_argument("--theta1", type=float, required=True)
    pv.add_argument("--theta2", type=float, required=True)
    pv.add_argument("--rho", type=float, required=True)
    pv.add_argument("--delta-r", type=float, default=None, dest="delta_r",
                    help="override the reactive-arc radius")
    pv.set_defaults(func=cmd_synthesize, mode="eigenvectors")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidInputError as exc:
        _diag(str(exc))
        return 2
    except InapplicableError as exc:
        _diag(str(exc))
        return 3
    except NumericFailureError as exc:
        _diag(str(exc))
        return 4


if __name__ == "__main__":
    sys.exit(main())
