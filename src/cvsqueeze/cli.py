"""Command-line surface: reproduction runs, table generation, grid export.

Subcommands:

* ``sweep``        entanglement characteristics across squeeze parameters
* ``wigner``       phase-space distribution grid over a 2D slice
* ``verify``       run a library invariant suite, exit nonzero on failure
* ``hamiltonian``  export the reconstructed Hamiltonian and its ground-state check

``sweep``, ``wigner`` and ``hamiltonian`` take ``--hbar``, ``--format`` and
``--out`` (``sweep`` and ``wigner`` write csv or json, ``hamiltonian`` json
only); ``hamiltonian`` also takes the model flags ``--mass``,
``--order``, ``--trunc`` and ``--tol``.  Each of these flags can also be set
through an environment variable with the ``CVSQUEEZE_`` prefix (flags win
over the environment; environment values are checked like flag values).
Output files embed the full parameter set that produced them and use a
fixed field order.  Floats round-trip exactly: csv writes them with 17
significant digits, json with the shortest ``repr`` that reads back to the
same float.  Identical inputs produce byte-identical files.  Exit codes:
0 success, 1 check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import basis, model, phase_space, states, verify

_AXES = ("x1", "x2", "p1", "p2")


def _env(name: str, fallback: str) -> str:
    return os.environ.get(f"CVSQUEEZE_{name}", fallback)


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not (value > 0.0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _format_arg(formats: tuple[str, ...]):
    def parse(text: str) -> str:
        if text not in formats:
            raise argparse.ArgumentTypeError(f"invalid choice: {text!r} (choose from {', '.join(formats)})")
        return text

    return parse


def _unit_alpha(text: str) -> float:
    try:
        return basis.check_alpha(text, closed=False)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _alpha_list(text: str) -> list[float]:
    values = [_unit_alpha(part) for part in text.split(",") if part.strip()]
    if not values:
        raise argparse.ArgumentTypeError("need at least one alpha")
    return values


def _complex_arg(text: str) -> complex:
    try:
        value = complex(text.replace(" ", ""))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}") from exc
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _range_arg(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"range must look like lo:hi, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"range bounds must be numbers: {text!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise argparse.ArgumentTypeError(f"range must be finite and ordered, got {text!r}")
    return lo, hi


def _fix_arg(text: str) -> tuple[str, float]:
    name, _, raw = text.partition("=")
    if name not in _AXES or not raw:
        raise argparse.ArgumentTypeError(f"expected AXIS=VALUE with axis in {_AXES}, got {text!r}")
    try:
        value = float(raw)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"fixed value must be a number: {text!r}") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"fixed value must be finite: {text!r}")
    return name, value


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


# json.dumps spells the non-finite floats as JavaScript does
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_floats(column: Sequence) -> list[str]:
    cells = list(map(float.__repr__, column))
    if not all(map(math.isfinite, column)):
        cells = [_JSON_NONFINITE.get(cell, cell) for cell in cells]
    return cells


def _cells(column: Sequence, fmt: str) -> list[str]:
    """One column's cells as text, with the bytes the per-cell ``_fmt`` (csv)
    and ``json.dumps`` (json) give.  The column holds at least one cell, all
    of one type."""
    if isinstance(column[0], float):
        return list(map("%.17g".__mod__, column)) if fmt == "csv" else _json_floats(column)
    return list(map(str if fmt == "csv" else json.dumps, column))


@dataclass(frozen=True)
class RunConfig:
    hbar: float
    fmt: str
    out: str | None


def _common_flags(parser: argparse.ArgumentParser, formats: tuple[str, ...] = ("csv", "json")) -> None:
    # string defaults, here and for the model flags of hamiltonian, so that
    # argparse checks environment values with the flag's type and reports a
    # bad one as a usage error; the first format is the default
    parser.add_argument(
        "--hbar", type=_positive_float, default=_env("HBAR", "1.0"), help="reduced Planck constant (default 1)"
    )
    parser.add_argument(
        "--format", dest="fmt", type=_format_arg(formats), metavar="{" + ",".join(formats) + "}",
        default=_env("FORMAT", formats[0]), help="output format",
    )
    parser.add_argument(
        "--out", default=_env("OUT", "") or None, help="output path (stdout when omitted)"
    )


def _config(args: argparse.Namespace) -> RunConfig:
    return RunConfig(hbar=args.hbar, fmt=args.fmt, out=args.out)


def _emit_table(params: dict, names: list[str], columns: list[Sequence], config: RunConfig) -> str:
    return _emit_cells(params, names, [_cells(column, config.fmt) for column in columns], config)


def _emit_cells(params: dict, names: list[str], cells: list[list[str]], config: RunConfig) -> str:
    """The table from its formatted columns: one csv line or one indent-2
    json array per row."""
    if config.fmt == "csv":
        lines = [f"# {key} = {_fmt(value)}" for key, value in params.items()]
        lines.append(",".join(names))
        lines.extend(map(",".join, zip(*cells)))
        return "\n".join(lines) + "\n"
    template = "    [\n" + ",\n".join("      %s" for _ in cells) + "\n    ]"
    rows = map(template.__mod__, zip(*cells))
    payload = {"params": {k: (str(v) if isinstance(v, complex) else v) for k, v in params.items()},
               "columns": names,
               "rows": []}
    head = json.dumps(payload, indent=2)
    # head ends in the empty '"rows": []' and the closing brace
    return "\n".join([head[:-len("]\n}")], ",\n".join(rows), "  ]\n}\n"])


def _write(text: str, config: RunConfig) -> int:
    if config.out is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(config.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write {config.out}: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _config(args)
    geom = states.OscillatorGeometry(a=args.a, b=args.b, hbar=config.hbar)
    rows: list[list] = []
    for k in (1, 2):
        for alpha in args.alphas:
            cov = phase_space.covariance(k, alpha, geom)
            spectrum = phase_space.symplectic_spectrum(phase_space.partial_transpose(cov))
            verdict = phase_space.ppt_separable(cov)
            negativity = phase_space.log_negativity(cov)
            closed = max(-math.log(alpha), 0.0) if k == 2 else 0.0
            rows.append(
                [
                    k,
                    alpha,
                    -0.5 * math.log(alpha),
                    spectrum.values[0],
                    spectrum.values[1],
                    verdict.verdict,
                    negativity,
                    closed,
                    abs(negativity - closed),
                ]
            )
    params = {
        "command": "sweep", "a": args.a, "b": args.b, "hbar": config.hbar,
        "alphas": ",".join(format(a, ".17g") for a in args.alphas),
    }
    columns = [
        "mode", "alpha", "squeeze_xi", "lambda_min_pt", "lambda_max_pt",
        "verdict", "log_negativity", "log_negativity_closed", "residual",
    ]
    return _write(_emit_table(params, columns, list(zip(*rows)), config), config)


def cmd_wigner(args: argparse.Namespace) -> int:
    config = _config(args)
    geom = states.OscillatorGeometry(a=args.a, b=args.b, hbar=config.hbar)
    labels = states.DisplacementLabels(z1=args.z1, z2=args.z2)
    axis1, axis2 = args.axes
    if args.n1 < 2 or args.n2 < 2:
        print("error: grid counts must be >= 2", file=sys.stderr)
        return 2

    gaussian = states.unshifted_gaussian(args.k, args.alpha, geom)
    _, evaluator = phase_space.wigner_gaussian(gaussian, config.hbar)
    shift = states.shift_params(args.k, args.alpha, geom, labels)
    offsets = {"x1": shift.y1, "x2": shift.y2, "p1": shift.q1, "p2": shift.q2}

    coords = {name: float(value) for name, value in args.fix}
    for name in _AXES:
        coords.setdefault(name, 0.0)

    grid1 = np.linspace(args.range1[0], args.range1[1], args.n1)
    grid2 = np.linspace(args.range2[0], args.range2[1], args.n2)
    # one evaluator call on the (n1, n2) mesh; the fixed axes stay the
    # scalars a per-point call would get, so every value is the same
    shifted = {name: coords[name] - offsets[name] for name in _AXES}
    shifted[axis1] = grid1[:, None] - offsets[axis1]
    shifted[axis2] = grid2[None, :] - offsets[axis2]
    values = evaluator(shifted["x1"], shifted["x2"], shifted["p1"], shifted["p2"])
    # each coordinate is formatted once and its text repeated over the mesh
    cells1 = _cells(grid1.tolist(), config.fmt)
    cells2 = _cells(grid2.tolist(), config.fmt)
    cells = [
        [cell for cell in cells1 for _ in range(args.n2)],
        cells2 * args.n1,
        _cells(values.ravel().tolist(), config.fmt),
    ]
    params = {
        "command": "wigner", "mode": args.k, "alpha": args.alpha,
        "a": args.a, "b": args.b, "hbar": config.hbar,
        "z1": args.z1, "z2": args.z2,
        "axis1": axis1, "axis2": axis2,
        "range1": f"{args.range1[0]:.17g}:{args.range1[1]:.17g}",
        "range2": f"{args.range2[0]:.17g}:{args.range2[1]:.17g}",
        "n1": args.n1, "n2": args.n2,
    }
    for name in _AXES:
        if name not in (axis1, axis2):
            params[f"fixed_{name}"] = coords[name]
    return _write(_emit_cells(params, [axis1, axis2, "wigner"], cells, config), config)


def cmd_verify(args: argparse.Namespace) -> int:
    results = verify.run_suite(args.suite)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def cmd_hamiltonian(args: argparse.Namespace) -> int:
    config = _config(args)
    spec = model.OscillatorSpec(
        omega1=args.omega1, omega2=args.omega2, mass=args.mass, hbar=config.hbar
    )
    quad = model.hamiltonian_quadratic(args.alpha, spec, args.z1, args.z2)
    ladder = model.hamiltonian_fock(args.alpha, spec, args.z1, args.z2, args.trunc, "ladder")
    expanded = model.hamiltonian_fock(args.alpha, spec, args.z1, args.z2, args.trunc, "expanded")
    path_gap = ladder.interior_gap(expanded)
    hermiticity = ladder.hermiticity_defect()

    a, b = spec.inverse_lengths()
    geom = states.OscillatorGeometry(a=a, b=b, hbar=config.hbar)
    grid_points = max(81, 2 * args.order + 1)
    ground = model.ground_state_energy_check(
        args.alpha, spec, geom, args.z1, args.z2, grid_points=grid_points
    )

    diag = np.real(ladder.diagonal())
    payload = {
        "params": {
            "command": "hamiltonian",
            "alpha": args.alpha,
            "omega1": args.omega1,
            "omega2": args.omega2,
            "mass": args.mass,
            "hbar": config.hbar,
            "z1": str(args.z1),
            "z2": str(args.z2),
            "n_trunc": args.trunc,
            "tolerance": args.tol,
        },
        "geometry": {"a": a, "b": b},
        "quadratic": {
            "q": [[float(v) for v in row] for row in quad.q],
            "linear": [float(v) for v in quad.linear],
            "constant": float(quad.constant),
        },
        "fock": {
            "n_trunc": args.trunc,
            "path_agreement_interior": path_gap,
            "hermiticity_defect": hermiticity,
            "diagonal_head": [float(v) for v in diag[:6]],
        },
        "ground_state": {
            "energy": ground.energy,
            "expected": ground.expected,
            "residual": ground.residual,
            "grid_points": ground.grid_points,
            "within_tolerance": bool(abs(ground.energy - ground.expected) <= args.tol),
        },
    }
    text = json.dumps(payload, indent=2) + "\n"
    status = _write(text, config)
    if status != 0:
        return status
    return 0 if payload["ground_state"]["within_tolerance"] and path_gap <= args.tol else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvsqueeze",
        description="Bipartite squeezed coherent states: entanglement tables, "
        "Wigner grids, invariant suites, and the reconstructed Hamiltonian.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="entanglement sweep over squeeze parameters")
    _common_flags(sweep)
    sweep.add_argument("--alphas", type=_alpha_list, required=True, help="comma-separated alphas in (0,1)")
    sweep.add_argument("--a", type=_positive_float, default=1.0, help="inverse oscillator length, first mode")
    sweep.add_argument("--b", type=_positive_float, default=1.0, help="inverse oscillator length, second mode")
    sweep.set_defaults(handler=cmd_sweep)

    wigner = sub.add_parser("wigner", help="export a 2D slice of the Wigner distribution")
    _common_flags(wigner)
    wigner.add_argument("--k", type=int, choices=(1, 2), default=2, help="squeezing mode tag")
    wigner.add_argument("--alpha", type=_unit_alpha, required=True)
    wigner.add_argument("--a", type=_positive_float, default=1.0)
    wigner.add_argument("--b", type=_positive_float, default=1.0)
    wigner.add_argument("--z1", type=_complex_arg, default=0j, help="first displacement label, e.g. 0.3+0.1j")
    wigner.add_argument("--z2", type=_complex_arg, default=0j)
    wigner.add_argument(
        "--axes", type=lambda t: tuple(t.split(",")), default=("x1", "x2"),
        help="two comma-separated axes to vary, from x1,x2,p1,p2",
    )
    wigner.add_argument("--range1", type=_range_arg, default=(-3.0, 3.0), help="lo:hi for the first axis")
    wigner.add_argument("--range2", type=_range_arg, default=(-3.0, 3.0), help="lo:hi for the second axis")
    wigner.add_argument("--n1", type=int, default=41)
    wigner.add_argument("--n2", type=int, default=41)
    wigner.add_argument(
        "--fix", type=_fix_arg, action="append", default=[],
        help="fix a non-varied coordinate, e.g. --fix p1=0.5 (repeatable; default 0)",
    )
    wigner.set_defaults(handler=cmd_wigner)

    ver = sub.add_parser("verify", help="run a library invariant suite")
    ver.add_argument("suite", choices=verify.suite_names())
    ver.set_defaults(handler=cmd_verify)

    ham = sub.add_parser("hamiltonian", help="export the reconstructed Hamiltonian")
    # its document is json only, so --format csv is a usage error
    _common_flags(ham, formats=("json",))
    # the model flags: only hamiltonian reads them
    ham.add_argument("--mass", type=_positive_float, default=_env("MASS", "1.0"), help="oscillator mass (default 1)")
    ham.add_argument("--order", type=_positive_int, default=_env("ORDER", "80"),
                     help="ground-state check grid: max(81, 2*ORDER+1) points per axis (default 80)")
    ham.add_argument("--trunc", type=_positive_int, default=_env("TRUNC", "20"), help="Fock-space truncation")
    ham.add_argument("--tol", type=_positive_float, default=_env("TOL", "1e-6"),
                     help="acceptance tolerance for reported checks")
    ham.add_argument("--alpha", type=_unit_alpha, required=True)
    ham.add_argument("--omega1", type=_positive_float, default=1.0)
    ham.add_argument("--omega2", type=_positive_float, default=1.0)
    ham.add_argument("--z1", type=_complex_arg, default=0j)
    ham.add_argument("--z2", type=_complex_arg, default=0j)
    ham.set_defaults(handler=cmd_hamiltonian)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "axes", None) is not None and args.command == "wigner":
        axes = args.axes
        if len(axes) != 2 or any(a not in _AXES for a in axes) or axes[0] == axes[1]:
            parser.error(f"--axes must name two distinct axes from {_AXES}")
    try:
        return args.handler(args)
    except (ValueError, phase_space.SpectrumPairingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
