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
2 means bad input (usage, config validation or reading, out-of-range flag,
an event or box corner at which some mode's phase k.x overflows, an --out
whose directory does not exist or that names a directory, or whose
<out>.manifest.json sidecar path names a directory).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import re
import sys
from collections.abc import Callable
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
    """Bad input that no single flag's type can catch; exit status 2."""


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # refused below, like "nan" itself
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _positive(text: str) -> float:
    value = _finite(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _at_least(low: int) -> Callable[[str], int]:
    def integer(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1  # refused below
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be an integer >= {low}, got {text!r}"
            )
        return value

    return integer


def _tolerances(args: argparse.Namespace) -> Tolerances:
    return Tolerances(args.class_tol, args.ortho_tol, args.node_tol)


def _load_config(args: argparse.Namespace) -> Superposition:
    if args.builtin is not None:
        return BUILTINS[args.builtin]()
    try:
        return load_superposition(args.config)
    except FileNotFoundError:
        raise _CliError(f"--config: no such file: {args.config}") from None
    except OSError as exc:
        raise _CliError(f"--config: cannot read {args.config}: {exc.strerror}") from None
    except ValueError as exc:
        raise _CliError(f"--config: {exc}") from None


def _manifest(args: argparse.Namespace, tols: Tolerances, parameters: dict) -> dict:
    if getattr(args, "builtin", None) is not None:
        config = {"builtin": args.builtin}
    elif getattr(args, "config", None) is not None:
        config = {"path": str(args.config)}
    else:
        config = None
    return {
        "artifact_version": __version__,
        "command": args.command,
        "config": config,
        "tolerances": {"causal": tols.causal, "ortho": tols.ortho, "node": tols.node},
        "parameters": parameters,
        "outputs": [str(args.out)],
    }


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True))
        fh.write("\n")


def _sidecar_path(args: argparse.Namespace) -> Path | None:
    """Where a CSV-writing command puts its manifest; None for the JSON
    commands, which embed theirs."""
    if args.command not in ("scan", "trajectory"):
        return None
    return Path(f"{args.out}.manifest.json")


def _write_sidecar_manifest(
    args: argparse.Namespace, tols: Tolerances, parameters: dict
) -> None:
    _write_json(_sidecar_path(args), _manifest(args, tols, parameters))


def _write_estimate(
    args: argparse.Namespace, tols: Tolerances, est, parameters: dict
) -> None:
    payload = est.to_dict()
    payload["manifest"] = _manifest(args, tols, parameters)
    _write_json(args.out, payload)
    print(f"wrote {args.out}: n={args.n} seed={args.seed}")
    for key in TALLY_KEYS:
        lo, hi = est.wilson_95[key]
        print(f"  {key}: {est.fractions[key]:.6f}  95% [{lo:.6f}, {hi:.6f}]")


def _fmt_vec(v: FourVector) -> str:
    return f"({v.c0!r}, {v.c1!r}, {v.c2!r}, {v.c3!r})"


def _region(args: argparse.Namespace, w: Superposition) -> Region:
    try:
        region = Region(FourVector(*args.lo), FourVector(*args.hi))
    except ValueError as exc:
        raise _CliError(f"--lo/--hi: {exc}") from None
    # The phase is linear in x, so the box's corners bound it.
    _refuse_phase_overflow(w, itertools.product(*zip(region.lo, region.hi)), "--lo/--hi")
    return region


def _refuse_phase_overflow(w: Superposition, events, flag: str) -> None:
    """Refuse events at which some mode's phase k.x is not finite: cos and
    sin of it are undefined, so nothing there can be computed."""
    for x in events:
        for i, mode in enumerate(w.modes):
            k = mode.k
            if not math.isfinite(k.c0 * x[0] + k.c1 * x[1] + k.c2 * x[2] + k.c3 * x[3]):
                raise _CliError(
                    f"{flag}: phase k.x of mode {i} is not finite at "
                    f"{_fmt_vec(FourVector(*x))}"
                )


def cmd_verify(args: argparse.Namespace) -> int:
    m = args.mass
    tols = _tolerances(args)
    try:
        w = counterexample(m)
    except ValueError as exc:  # sqrt(27) m overflows, or rounds off shell
        raise _CliError(f"--mass: {exc}") from None
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
    _refuse_phase_overflow(w, [args.x], "--x")
    a = analyze_point(w, FourVector(*args.x), tols)
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
    region = _region(args, w)
    scan = grid_scan(w, region, tuple(args.resolution), tols)
    write_scan_csv(scan, args.out)
    _write_sidecar_manifest(
        args, tols, {"region": region.to_dict(), "resolution": args.resolution}
    )
    counts, rows = scan.counts(), scan.codes.size
    print(f"wrote {args.out}: {rows} rows")
    for key in TALLY_KEYS:
        print(f"  {key}: {counts[key]} ({counts[key] / rows:.6f})")
    return 0


def cmd_trajectory(args: argparse.Namespace) -> int:
    tols = _tolerances(args)
    w = _load_config(args)
    _refuse_phase_overflow(w, [args.x0], "--x0")
    cfg = TrajectoryConfig(step=args.step, max_steps=args.max_steps, tols=tols)
    try:
        result = integrate(w, FourVector(*args.x0), cfg)
    except IllDefinedVelocityError as exc:
        print(f"ill-defined at start: {exc}", file=sys.stderr)
        return 1
    write_trajectory_csv(result, args.out)
    _write_sidecar_manifest(
        args, tols, {"x0": args.x0, "step": args.step, "max_steps": args.max_steps}
    )
    print(
        f"wrote {args.out}: {len(result.points)} points, "
        f"termination {result.termination.value}"
    )
    return 0


def cmd_measure(args: argparse.Namespace) -> int:
    tols = _tolerances(args)
    w = _load_config(args)
    region = _region(args, w)
    est = estimate_spacetime_fraction(w, region, args.n, args.seed, tols)
    _write_estimate(
        args, tols, est, {"region": region.to_dict(), "n": args.n, "seed": args.seed}
    )
    return 0


def cmd_sample_pairs(args: argparse.Namespace) -> int:
    tols = _tolerances(args)
    est = sample_pair_space(args.n, args.seed, args.sigma, tols)
    _write_estimate(
        args, tols, est, {"n": args.n, "seed": args.seed, "sigma": args.sigma}
    )
    return 0


def _add_tolerance_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--class-tol",
        type=_positive,
        default=DEFAULT_TOLERANCES.causal,
        metavar="TOL",
        help="relative threshold for timelike/spacelike/null calls "
        "(default %(default)g)",
    )
    p.add_argument(
        "--ortho-tol",
        type=_positive,
        default=DEFAULT_TOLERANCES.ortho,
        metavar="TOL",
        help="relative threshold below which p.s counts as zero "
        "(default %(default)g)",
    )
    p.add_argument(
        "--node-tol",
        type=_positive,
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


_EVENT = ("X0", "X1", "X2", "X3")


def _add_region_arguments(p: argparse.ArgumentParser) -> None:
    for flag, corner in (("--lo", "lower"), ("--hi", "upper")):
        p.add_argument(
            flag, type=_finite, nargs=4, required=True, metavar=_EVENT,
            help=f"{corner} box corner",
        )


def _add_sampling_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=_at_least(1), required=True, help="sample count")
    p.add_argument(
        "--seed", type=_at_least(0), default=0, help="RNG seed (default 0)"
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
        "--mass", type=_positive, default=1.0, help="particle mass (default 1)"
    )
    _add_tolerance_arguments(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", help="analyze one event, print JSON")
    _add_config_arguments(p)
    p.add_argument(
        "--x", type=_finite, nargs=4, required=True, metavar=_EVENT,
        help="event coordinates",
    )
    _add_tolerance_arguments(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("scan", help="classify a regular grid, write CSV")
    _add_config_arguments(p)
    _add_region_arguments(p)
    p.add_argument(
        "--resolution", type=_at_least(1), nargs=4, required=True,
        metavar=("N0", "N1", "N2", "N3"), help="lattice points per axis",
    )
    p.add_argument("--out", type=Path, required=True, help="output CSV path")
    _add_tolerance_arguments(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("trajectory", help="integrate one curve, write CSV")
    _add_config_arguments(p)
    p.add_argument(
        "--x0", type=_finite, nargs=4, required=True, metavar=_EVENT,
        help="starting event",
    )
    p.add_argument("--step", type=_positive, required=True, help="proper-time step")
    p.add_argument(
        "--max-steps", type=_at_least(1), required=True, help="step budget"
    )
    p.add_argument("--out", type=Path, required=True, help="output CSV path")
    _add_tolerance_arguments(p)
    p.set_defaults(func=cmd_trajectory)

    p = sub.add_parser(
        "measure", help="sample verdict fractions over a box, write JSON"
    )
    _add_config_arguments(p)
    _add_region_arguments(p)
    _add_sampling_arguments(p)
    p.add_argument("--out", type=Path, required=True, help="output JSON path")
    _add_tolerance_arguments(p)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser(
        "sample-pairs",
        help="sample verdict fractions over raw gradient pairs, write JSON",
    )
    _add_sampling_arguments(p)
    p.add_argument(
        "--sigma", type=_positive, default=1.0,
        help="component scale of the normal draw (default 1)",
    )
    p.add_argument("--out", type=Path, required=True, help="output JSON path")
    _add_tolerance_arguments(p)
    p.set_defaults(func=cmd_sample_pairs)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = getattr(args, "out", None)
        if out is not None:  # refused before any work
            if not out.parent.is_dir():
                raise _CliError(f"--out: no such directory: {out.parent}")
            if out.is_dir():
                raise _CliError(f"--out: is a directory: {out}")
            sidecar = _sidecar_path(args)
            if sidecar is not None and sidecar.is_dir():
                raise _CliError(f"--out: manifest path is a directory: {sidecar}")
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KgBohmError as exc:
        # e.g. both candidates timelike: the quantity could not be computed
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
