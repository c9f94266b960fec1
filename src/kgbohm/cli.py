"""Command-line front end.

Subcommands: verify (closed-form check of the built-in three-wave example),
classify (full analysis of one event as JSON), scan (grid map to CSV),
trajectory (integral curve to CSV), measure (space-time verdict fractions
to JSON), sample-pairs (raw gradient-pair verdict fractions to JSON).

Every file-writing command records a run manifest -- command, config
reference, tolerances, parameters, output paths, artifact version -- either
embedded in the JSON payload or as a <out>.manifest.json sidecar next to a
CSV. Manifests carry no timestamps, so reruns of the same manifest are
byte-identical.

Exit status: 0 means the computation succeeded, including "the construction
is ill-defined here" answers; 1 means it could not be computed (node at the
requested event, ill-defined trajectory start, verification mismatch, both
candidates classified timelike);
2 means bad input (usage, config validation, out-of-range flag).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

from . import __version__
from .construction import (
    DEFAULT_TOLERANCES,
    Selection,
    Tolerances,
    analyze_point,
)
from .errors import IllDefinedVelocityError, KgBohmError
from .measure import (
    TALLY_KEYS,
    Region,
    estimate_spacetime_fraction,
    grid_scan,
    sample_pair_space,
    write_scan_csv,
)
from .minkowski import CausalClass, FourVector, PlaneClass, inner
from .trajectory import TrajectoryConfig, integrate, write_trajectory_csv
from .wavefield import Superposition, counterexample, load_superposition

__all__ = ["VERIFY_RTOL", "BUILTINS", "build_parser", "main"]

VERIFY_RTOL = 1e-12

BUILTINS = {"counterexample": counterexample}


class _CliError(Exception):
    """User-facing failure; message goes to stderr, code becomes the exit status."""

    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _check_positive(value: float, flag: str) -> float:
    if not (math.isfinite(value) and value > 0):
        raise _CliError(f"{flag} must be a positive finite number, got {value!r}")
    return value


def _at_least(value: int, low: int, flag: str) -> int:
    if value < low:
        raise _CliError(f"{flag} must be at least {low}, got {value}")
    return value


def _vector(values: list[float], flag: str) -> FourVector:
    v = FourVector(*values)
    if not v.is_finite():
        raise _CliError(f"{flag} components must be finite, got {values!r}")
    return v


def _tolerances(args: argparse.Namespace) -> Tolerances:
    return Tolerances(
        causal=_check_positive(args.class_tol, "--class-tol"),
        ortho=_check_positive(args.ortho_tol, "--ortho-tol"),
        node=_check_positive(args.node_tol, "--node-tol"),
    )


def _load_config(args: argparse.Namespace) -> Superposition:
    if args.builtin is not None:
        return BUILTINS[args.builtin]()
    try:
        return load_superposition(args.config)
    except FileNotFoundError:
        raise _CliError(f"--config: no such file: {args.config}") from None
    except ValueError as exc:
        raise _CliError(f"--config: {exc}") from None


def _config_ref(args: argparse.Namespace) -> dict:
    if getattr(args, "builtin", None) is not None:
        return {"builtin": args.builtin}
    return {"path": str(args.config)}


def _manifest(
    command: str,
    config: dict | None,
    tols: Tolerances,
    parameters: dict,
    outputs: list[str],
) -> dict:
    return {
        "artifact_version": __version__,
        "command": command,
        "config": config,
        "tolerances": {"causal": tols.causal, "ortho": tols.ortho, "node": tols.node},
        "parameters": parameters,
        "outputs": outputs,
    }


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True))
        fh.write("\n")


def _write_sidecar_manifest(out: Path, manifest: dict) -> None:
    _write_json(Path(str(out) + ".manifest.json"), manifest)


def _fmt_vec(v: FourVector) -> str:
    return f"({v.c0!r}, {v.c1!r}, {v.c2!r}, {v.c3!r})"


def _region(args: argparse.Namespace) -> Region:
    lo = _vector(args.lo, "--lo")
    hi = _vector(args.hi, "--hi")
    try:
        return Region(lo, hi)
    except ValueError as exc:
        raise _CliError(f"--lo/--hi: {exc}") from None


def cmd_verify(args: argparse.Namespace) -> int:
    m = _check_positive(args.mass, "--mass")
    tols = _tolerances(args)
    w = counterexample(m)
    origin = FourVector(0.0, 0.0, 0.0, 0.0)
    a = analyze_point(w, origin, tols)

    gamma = 3.0 - 1.0 / math.sqrt(3.0)
    alpha = math.sqrt(26.0) * m / gamma
    beta = alpha / math.sqrt(3.0)
    expected_p = FourVector(0.0, alpha, -alpha, 0.0)
    expected_s = FourVector(0.0, -beta, 0.0, 0.0)

    def scaled_err(got: FourVector, want: FourVector) -> float:
        scale = max(abs(c) for c in want)
        return max(abs(g - e) for g, e in zip(got, want)) / scale

    p_err = scaled_err(a.p_mu, expected_p)
    s_err = scaled_err(a.s_mu, expected_s)
    checks = {
        "p_mu": p_err <= VERIFY_RTOL,
        "s_mu": s_err <= VERIFY_RTOL,
        "classes": a.class_plus is CausalClass.SPACELIKE
        and a.class_minus is CausalClass.SPACELIKE,
        "selection": a.selection is Selection.BOTH_SPACELIKE,
        "plane": a.plane is PlaneClass.SPACELIKE_PLANE,
    }

    print(f"built-in three-wave example, mass = {m!r}")
    print(f"psi(0): {a.psi.real!r} + {a.psi.imag!r}i  (gamma = {gamma!r})")
    print(f"alpha: {alpha!r}")
    print(f"beta: {beta!r}")
    print(f"p_mu:     {_fmt_vec(a.p_mu)}")
    print(f"expected: {_fmt_vec(expected_p)}  scaled error {p_err:.3e}")
    print(f"s_mu:     {_fmt_vec(a.s_mu)}")
    print(f"expected: {_fmt_vec(expected_s)}  scaled error {s_err:.3e}")
    print(f"theta: {a.theta!r}  (sinh theta = {math.sinh(a.theta)!r})")
    print(f"w_plus:  {_fmt_vec(a.w_plus)}  [{a.class_plus.value}]")
    print(f"w_minus: {_fmt_vec(a.w_minus)}  [{a.class_minus.value}]")
    print(f"w_plus . w_minus: {inner(a.w_plus, a.w_minus)!r}")
    print(f"selection: {a.selection.value}")
    print(f"plane: {a.plane.value}")
    for name, ok in checks.items():
        print(f"check {name}: {'PASS' if ok else 'FAIL'}")
    all_ok = all(checks.values())
    print(f"verify: {'PASS' if all_ok else 'FAIL'} (tolerance {VERIFY_RTOL:g})")
    return 0 if all_ok else 1


def cmd_classify(args: argparse.Namespace) -> int:
    tols = _tolerances(args)
    w = _load_config(args)
    x = _vector(args.x, "--x")
    a = analyze_point(w, x, tols)
    if a.selection is Selection.NODE:
        print(
            f"node: |psi| = {abs(a.psi):.6e} is at or below --node-tol times "
            "the amplitude sum; polar decomposition undefined",
            file=sys.stderr,
        )
        return 1
    print(json.dumps(a.to_dict(), indent=2, sort_keys=True))
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    tols = _tolerances(args)
    w = _load_config(args)
    region = _region(args)
    res = tuple(args.resolution)
    if any(r < 1 for r in res):
        raise _CliError(f"--resolution entries must be >= 1, got {args.resolution!r}")
    scan = grid_scan(w, region, res, tols)
    write_scan_csv(scan, args.out)
    manifest = _manifest(
        "scan",
        _config_ref(args),
        tols,
        {"region": region.to_dict(), "resolution": list(res)},
        [str(args.out)],
    )
    _write_sidecar_manifest(args.out, manifest)
    counts = scan.counts()
    print(f"wrote {args.out}: {len(scan.cells)} rows")
    for key in TALLY_KEYS:
        print(f"  {key}: {counts[key]} ({counts[key] / len(scan.cells):.6f})")
    return 0


def cmd_trajectory(args: argparse.Namespace) -> int:
    tols = _tolerances(args)
    w = _load_config(args)
    x0 = _vector(args.x0, "--x0")
    step = _check_positive(args.step, "--step")
    cfg = TrajectoryConfig(
        step=step, max_steps=_at_least(args.max_steps, 1, "--max-steps"), tols=tols
    )
    try:
        result = integrate(w, x0, cfg)
    except IllDefinedVelocityError as exc:
        print(f"ill-defined at start: {exc}", file=sys.stderr)
        return 1
    write_trajectory_csv(result, args.out)
    manifest = _manifest(
        "trajectory",
        _config_ref(args),
        tols,
        {"x0": list(x0), "step": step, "max_steps": args.max_steps},
        [str(args.out)],
    )
    _write_sidecar_manifest(args.out, manifest)
    print(
        f"wrote {args.out}: {len(result.points)} points, "
        f"termination {result.termination.value}"
    )
    return 0


def _print_estimate(label: str, est) -> None:
    print(label)
    for key in TALLY_KEYS:
        lo, hi = est.wilson_95[key]
        print(f"  {key}: {est.fractions[key]:.6f}  95% [{lo:.6f}, {hi:.6f}]")


def cmd_measure(args: argparse.Namespace) -> int:
    tols = _tolerances(args)
    w = _load_config(args)
    region = _region(args)
    _at_least(args.n, 1, "--n")
    _at_least(args.seed, 0, "--seed")
    est = estimate_spacetime_fraction(w, region, args.n, args.seed, tols)
    payload = est.to_dict()
    payload["manifest"] = _manifest(
        "measure",
        _config_ref(args),
        tols,
        {"region": region.to_dict(), "n": args.n, "seed": args.seed},
        [str(args.out)],
    )
    _write_json(args.out, payload)
    _print_estimate(f"wrote {args.out}: n={args.n} seed={args.seed}", est)
    return 0


def cmd_sample_pairs(args: argparse.Namespace) -> int:
    tols = _tolerances(args)
    _at_least(args.n, 1, "--n")
    _at_least(args.seed, 0, "--seed")
    sigma = _check_positive(args.sigma, "--sigma")
    est = sample_pair_space(args.n, args.seed, sigma, tols)
    payload = est.to_dict()
    payload["manifest"] = _manifest(
        "sample-pairs",
        None,
        tols,
        {"n": args.n, "seed": args.seed, "sigma": sigma},
        [str(args.out)],
    )
    _write_json(args.out, payload)
    _print_estimate(f"wrote {args.out}: n={args.n} seed={args.seed}", est)
    return 0


def _add_tolerance_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--class-tol",
        type=float,
        default=DEFAULT_TOLERANCES.causal,
        metavar="TOL",
        help="relative threshold for timelike/spacelike/null calls "
        "(default %(default)g)",
    )
    p.add_argument(
        "--ortho-tol",
        type=float,
        default=DEFAULT_TOLERANCES.ortho,
        metavar="TOL",
        help="relative threshold below which p.s counts as zero "
        "(default %(default)g)",
    )
    p.add_argument(
        "--node-tol",
        type=float,
        default=DEFAULT_TOLERANCES.node,
        metavar="TOL",
        help="|psi| below TOL * sum|c_i| counts as a node (default %(default)g)",
    )


def _add_config_arguments(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--config", type=Path, help="superposition JSON file")
    g.add_argument(
        "--builtin",
        choices=sorted(BUILTINS),
        help="named built-in wave function",
    )


class _Parser(argparse.ArgumentParser):
    """argparse's own matcher reads "-2.3e-05" as an option, not a negative
    number; this one also takes the exponent forms repr writes. Subparsers
    are built from the same class, so every subcommand inherits it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kgbohm",
        description="Bohm-type velocity construction for Klein-Gordon "
        "plane-wave superpositions: classify where it is well defined, "
        "integrate its trajectories, and measure where it breaks down.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser(
        "verify",
        help="check the built-in three-wave example against its closed form",
    )
    p.add_argument(
        "--mass", type=float, default=1.0, help="particle mass (default 1)"
    )
    _add_tolerance_arguments(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", help="analyze one event, print JSON")
    _add_config_arguments(p)
    p.add_argument(
        "--x",
        type=float,
        nargs=4,
        required=True,
        metavar=("X0", "X1", "X2", "X3"),
        help="event coordinates",
    )
    _add_tolerance_arguments(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("scan", help="classify a regular grid, write CSV")
    _add_config_arguments(p)
    p.add_argument(
        "--lo", type=float, nargs=4, required=True, metavar=("X0", "X1", "X2", "X3"),
        help="lower box corner",
    )
    p.add_argument(
        "--hi", type=float, nargs=4, required=True, metavar=("X0", "X1", "X2", "X3"),
        help="upper box corner",
    )
    p.add_argument(
        "--resolution", type=int, nargs=4, required=True,
        metavar=("N0", "N1", "N2", "N3"), help="lattice points per axis",
    )
    p.add_argument("--out", type=Path, required=True, help="output CSV path")
    _add_tolerance_arguments(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("trajectory", help="integrate one curve, write CSV")
    _add_config_arguments(p)
    p.add_argument(
        "--x0", type=float, nargs=4, required=True,
        metavar=("X0", "X1", "X2", "X3"), help="starting event",
    )
    p.add_argument("--step", type=float, required=True, help="proper-time step")
    p.add_argument(
        "--max-steps", type=int, required=True, help="step budget"
    )
    p.add_argument("--out", type=Path, required=True, help="output CSV path")
    _add_tolerance_arguments(p)
    p.set_defaults(func=cmd_trajectory)

    p = sub.add_parser(
        "measure", help="sample verdict fractions over a box, write JSON"
    )
    _add_config_arguments(p)
    p.add_argument(
        "--lo", type=float, nargs=4, required=True, metavar=("X0", "X1", "X2", "X3"),
        help="lower box corner",
    )
    p.add_argument(
        "--hi", type=float, nargs=4, required=True, metavar=("X0", "X1", "X2", "X3"),
        help="upper box corner",
    )
    p.add_argument("--n", type=int, required=True, help="sample count")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--out", type=Path, required=True, help="output JSON path")
    _add_tolerance_arguments(p)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser(
        "sample-pairs",
        help="sample verdict fractions over raw gradient pairs, write JSON",
    )
    p.add_argument("--n", type=int, required=True, help="sample count")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument(
        "--sigma", type=float, default=1.0,
        help="component scale of the normal draw (default 1)",
    )
    p.add_argument("--out", type=Path, required=True, help="output JSON path")
    _add_tolerance_arguments(p)
    p.set_defaults(func=cmd_sample_pairs)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except KgBohmError as exc:
        # e.g. both candidates timelike: the quantity could not be computed
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
