"""Command-line surface: reproduction runs, table generation, grid export.

Subcommands:

* ``sweep``        entanglement characteristics across squeeze parameters
* ``wigner``       phase-space distribution grid over a 2D slice
* ``verify``       run a library invariant suite, exit nonzero on failure
* ``hamiltonian``  export the reconstructed Hamiltonian and its ground-state check

``sweep``, ``wigner`` and ``hamiltonian`` take ``--hbar``, ``--format`` and
``--out`` (``sweep`` and ``wigner`` write csv or json, ``hamiltonian`` json
only); ``hamiltonian`` also takes the model flags ``--mass``,
``--order``, ``--trunc`` and ``--tol``.  Settings come from the command
line alone, so the same arguments print the same bytes in any environment.
Output files embed the full parameter set that produced them and use a
fixed field order.  Floats round-trip exactly: csv writes them with 17
significant digits, json with the shortest ``repr`` that reads back to the
same float.  A table is evaluated, formatted and written one block of
whole rows at a time: ``_emit_table`` yields the header, each slice of a
block and the tail as bytes, and ``_write`` writes each to ``--out`` or
stdout as it comes, so a table's traced peak stays near 1 MiB at any size
(a 401 x 401 ``wigner`` table: 0.90 MiB csv, 1.14 MiB json; 1201 x 1201:
0.80 and 1.10 MiB).  Every check that can fail runs before the destination
is opened.  The float text comes from a vectorized converter whose bytes
equal Python's ``format(v, ".17g")`` and ``json.dumps(v)``, Python
formatting the values the converter cannot decide.  Identical inputs
produce byte-identical files.  Exit codes: 0 success, 1 check failure, 2
usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import basis, model, phase_space, states, verify
from ._checks import check_alpha, check_complex, check_index, check_real
from .quadrature import _split

_AXES = ("x1", "x2", "p1", "p2")


def _checked(check, convert, text: str, *args, **kwargs):
    # text converted and checked by a library check; a ValueError of either is a usage error
    try:
        return check(convert(text), *args, **kwargs)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _positive_float(text: str) -> float:
    return _checked(check_real, float, text, "value", positive=True)


def _int_at_least(minimum: int):
    return lambda text: _checked(check_index, int, text, "value", minimum=minimum)


_positive_int = _int_at_least(1)
_grid_count = _int_at_least(2)


def _unit_alpha(text: str) -> float:
    return _checked(check_alpha, float, text, closed=False)


def _alpha_list(text: str) -> list[float]:
    values = [_unit_alpha(part) for part in text.split(",") if part.strip()]
    if not values:
        raise argparse.ArgumentTypeError("need at least one alpha")
    return values


def _complex_arg(text: str) -> complex:
    return _checked(check_complex, lambda raw: complex(raw.replace(" ", "")), text, "value")


def _range_arg(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"range must look like lo:hi, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"range bounds must be numbers: {text!r}") from exc
    # the grid's step is (hi - lo) / (n - 1), so the width must be finite too
    if not (math.isfinite(hi - lo) and lo < hi):
        raise argparse.ArgumentTypeError(f"range must be finite and ordered, got {text!r}")
    return lo, hi


def _axes_arg(text: str) -> tuple[str, str]:
    axes = tuple(text.split(","))
    if len(axes) != 2 or any(a not in _AXES for a in axes) or axes[0] == axes[1]:
        raise argparse.ArgumentTypeError(f"must name two distinct axes from {_AXES}, got {text!r}")
    return axes


def _fix_arg(text: str) -> tuple[str, float]:
    name, _, raw = text.partition("=")
    if name not in _AXES or not raw:
        raise argparse.ArgumentTypeError(f"expected AXIS=VALUE with axis in {_AXES}, got {text!r}")
    return name, _checked(check_real, float, raw, name)


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _cell(value, fmt: str) -> str:
    """A cell's text as the per-cell ``_fmt`` (csv) or ``json.dumps`` (json)
    writes it."""
    return _fmt(value) if fmt == "csv" else json.dumps(value)


# a table row's opening, cell separator and closing, and the separator
# between rows: csv lines, or the indent-2 arrays of json.dumps
_LAYOUT = {
    "csv": ("", ",", "", "\n"),
    "json": ("    [\n      ", ",\n      ", "\n    ]", ",\n"),
}

# Float text.  Finite values of magnitude inside _FAST_WINDOW take a
# vectorized route: k = floor(log10 |v|) and s = |v| 10**(16 - k) as a
# double-double, by Dekker's two-product with a double-double power of ten
# from _digit_tables.  Its error is below 1e-14 of a unit in the 17th
# significant digit, so round(s) gives the 17 correctly rounded digits
# unless s lies within _MARGIN of a rounding tie.  For json the 16- and
# 15-digit roundings follow from those digits and s's remainder; the
# shortest of them within half an ulp of v is repr's: at 15 digits or
# fewer at most one decimal lies in that interval, at 16 and 17 the nearest
# one is taken.  Values within _MARGIN of a tie (for csv, only where
# 10**(16 - k) is no double, so that s is inexact) or of the interval's edge,
# zeros, subnormal and non-finite values, values outside the window, values
# whose log10 misses k, and (json) powers of two, whose interval is
# asymmetric, are formatted by Python one at a time.
_FAST_WINDOW = (1e-280, 1e280)
# the exponents 16 - k for k in the window, with one more for a log10 that
# puts 1e-280 below -280
_POW10_MIN, _POW10_MAX = -264, 297
_MARGIN = 2.0**-32
# the longest text, "-2.2250738585072014e-308"
_TEXT_WIDTH = 24
# byte offsets in a value's source row, b"0", its 17 digits, b".-e", the
# exponent's sign and three digits, and a NUL; a text takes its bytes from it
_ZERO, _DIGITS, _DOT, _MINUS, _E, _EXP_SIGN, _EXP, _NUL = 0, 1, 18, 19, 20, 21, 22, 25
_SOURCE = 26
# text shapes: fixed notation with exponent -4..16, scientific with a two-
# and with a three-digit exponent
_SHAPES = 23


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """10**e for e in [_POW10_MIN, _POW10_MAX] as double-doubles (hi, lo),
    each part correctly rounded from exact integer arithmetic, and the two
    ASCII digits of 0..99 as one little-endian uint16 each."""
    his, los = [], []
    for e in range(_POW10_MIN, _POW10_MAX + 1):
        power = 10 ** abs(e)
        if e >= 0:
            hi = float(power)
            lo = float(power - int(hi))
        else:
            num, den = (hi := 1 / power).as_integer_ratio()
            lo = (den - num * power) / (den * power)
        his.append(hi)
        los.append(lo)
    pairs = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), dtype="<u2")
    return np.array(his), np.array(los), pairs


@functools.cache
def _text_layouts(fmt: str) -> np.ndarray:
    """The source offset of each text byte, by shape key: row
    ``(negative * _SHAPES + shape) * 17 + digits - 1`` of a
    ``(2 * _SHAPES * 17, _TEXT_WIDTH)`` table, ``digits`` being the count of
    significant digits."""
    key = np.arange(2 * _SHAPES * 17)
    digits, shape, negative = key % 17 + 1, key // 17 % _SHAPES, key // (17 * _SHAPES)
    fixed = shape < 21
    x = shape - 4
    # the text is the sign, a run of digits with a dot after the first
    # `point` of them, and for scientific shapes the exponent; a fixed text
    # below 1 runs `lead` zeros ahead of v's digits
    point = np.where(fixed & (x >= 0), x + 1, 1)[:, None]
    lead = np.where(fixed & (x < 0), -x, 0)[:, None]
    run = lead + digits[:, None]
    # without a fractional digit, csv drops the dot and json writes ".0"
    body = np.where(run > point, run + 1, point + (2 if fmt == "json" else 0) * fixed[:, None])
    exp_digits = np.where(shape == 22, 3, 2)[:, None]
    pos = np.arange(_TEXT_WIDTH) - negative[:, None]
    digit = pos - (pos > point)
    offset = np.where(pos == point, _DOT, np.where(digit < lead, _ZERO, _DIGITS + digit - lead))
    tail = pos - body
    suffix = np.where(tail == 0, _E, np.where(tail == 1, _EXP_SIGN, _EXP + 1 - exp_digits + tail))
    offset = np.where(pos < body, offset, np.where(~fixed[:, None] & (tail < 2 + exp_digits), suffix, _NUL))
    return np.where(pos < 0, _MINUS, offset).astype(np.intp)


def _float_texts(values, fmt: str) -> np.ndarray:
    """The csv (``format(v, ".17g")``) or json (``json.dumps(v)``) text of
    each value, as a NUL-padded bytes array of the values' shape."""
    # each value-sized temporary is deleted after its last use, and the
    # texts are gathered _SLICE_ROWS values at a time, so that no (n,
    # _TEXT_WIDTH) intp offsets exist: the working set stays near 100 bytes
    # per value, 24 of them the texts
    values = np.asarray(values, dtype=float)
    v = values.ravel()
    a = np.abs(v)
    fast = (a >= _FAST_WINDOW[0]) & (a <= _FAST_WINDOW[1])
    a[~fast] = 1.0
    k = np.floor(np.log10(a)).astype(np.int64)
    his, los, pairs = _digit_tables()
    p_hi, p_lo = his[16 - k - _POW10_MIN], los[16 - k - _POW10_MIN]
    # where 10**(16 - k) is a double (-6 <= k <= 16), s is exact and np.rint
    # below rounds a tie half to even, as format does, so csv needs no
    # margin there; json's shorter roundings keep it
    exact = (p_lo == 0) if fmt == "csv" else False
    # s = a (p_hi + p_lo) as h + l: Dekker's two-product a p_hi = p + err
    p = a * p_hi
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(p_hi)
    q = (((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo) + a * p_lo
    del a_hi, a_lo, b_hi, b_lo, p_lo
    h = p + q
    whole = np.rint(h)
    rem = (h - whole) + (q - (h - p))
    del p, q, h
    step = np.rint(rem)
    rem -= step
    digits = whole.astype(np.int64) + step.astype(np.int64)
    del whole, step
    # 10**16 <= s and round(s) <= 10**17 hold when log10 gave k
    fast &= ((np.abs(np.abs(rem) - 0.5) >= _MARGIN) | exact) & (digits <= 10**17)
    fast &= (digits > 10**16) | ((digits == 10**16) & (rem >= 0))
    del exact
    if fmt == "json":
        mantissa, exponent = np.frexp(a)
        # a power of two's rounding interval is asymmetric
        fast &= mantissa != 0.5
        # half an ulp of v, in units of the 17th digit
        half = np.ldexp(p_hi, exponent - 54)
        del mantissa, exponent
        shortest = digits
        # the 16- and then the 15-digit rounding, which wins when it lies
        # within half an ulp of v
        for unit in (10, 100):
            kept, dropped = np.divmod(digits, unit)
            frac = (dropped + rem) / unit
            carry = np.rint(frac)
            off = np.abs(frac - carry)
            fast &= (np.abs(off - half / unit) >= _MARGIN) & (np.abs(off - 0.5) >= _MARGIN)
            shortest = np.where(off < half / unit, (kept + carry.astype(np.int64)) * unit, shortest)
            del kept, dropped, frac, carry, off
        digits = shortest
        del half, shortest
    del a, p_hi, rem
    # a rounding up to 10**17 is 10**16 at the next decimal exponent x
    carried = digits == 10**17
    np.copyto(digits, 10**16, where=carried | ~fast)
    x = k + carried
    del k, carried
    # each value's source row, two bytes at a time: b"0" and the digits,
    # b".-", b"e" and the exponent's sign, its three digits and a NUL
    source = np.empty((v.size, _SOURCE // 2), "<u2")
    upper = (digits // 10**8).astype(np.uint32)
    lower = (digits - upper.astype(np.int64) * 10**8).astype(np.uint32)
    del digits
    source[:, 0] = pairs[upper // 10**8]
    upper %= 10**8
    for col, part in ((1, upper), (5, lower)):
        top, bottom = np.divmod(part, 10**4)
        source[:, col] = pairs[top // 100]
        source[:, col + 1] = pairs[top % 100]
        source[:, col + 2] = pairs[bottom // 100]
        source[:, col + 3] = pairs[bottom % 100]
    del upper, lower, part, top, bottom
    x_abs = np.abs(x)
    source[:, 9] = ord(".") | ord("-") << 8
    source[:, 10] = ord("e") | np.where(x < 0, ord("-"), ord("+")) << 8
    source[:, 11] = pairs[x_abs // 10]
    source[:, 12] = ord("0") + x_abs % 10
    chars = source.view(np.uint8)
    # each text's layout row, by its sign, shape and count of significant digits
    key = np.where((x >= -4) & (x < (17 if fmt == "csv" else 16)), x + 4, np.where(x_abs >= 100, 22, 21))
    del x, x_abs
    key += (v < 0) * _SHAPES
    key *= 17
    key += 16 - np.argmax(chars[:, 17:0:-1] != ord("0"), axis=1)
    layouts = _text_layouts(fmt)
    texts = np.empty(v.size, f"S{_TEXT_WIDTH}")
    text_bytes = texts.view(np.uint8).reshape(v.size, _TEXT_WIDTH)
    rows = np.arange(0, _SLICE_ROWS * _SOURCE, _SOURCE)[:, None]
    for start in range(0, v.size, _SLICE_ROWS):
        part = slice(start, start + _SLICE_ROWS)
        offsets = layouts[key[part]]
        offsets += rows[:len(offsets)]
        chars[part].ravel().take(offsets, out=text_bytes[part])
        del offsets
    slow = np.flatnonzero(~fast)
    if slow.size:
        texts[slow] = [_cell(value, fmt) for value in v[slow].tolist()]
    return texts.reshape(values.shape)


def _common_flags(parser: argparse.ArgumentParser, formats: tuple[str, ...] = ("csv", "json")) -> None:
    # the first format is the default
    parser.add_argument("--hbar", type=_positive_float, default=1.0, help="reduced Planck constant (default 1)")
    parser.add_argument("--format", dest="fmt", choices=formats, default=formats[0], help="output format")
    parser.add_argument("--out", help="output path (stdout when omitted)")


# table rows per block of the body, which bounds the float texts in it, a
# computed column and its byte matrix; a smaller block costs the wigner
# table more in per-block calls than it saves
_BLOCK_ROWS = 8192
# rows per slice of a block: of the float texts' (n, _TEXT_WIDTH) intp
# source offsets, and of the byte matrix, whose NUL mask and its compressed
# bytes are made and yielded one slice at a time
_SLICE_ROWS = 1024


def _column_texts(column: np.ndarray, fmt: str) -> np.ndarray:
    """The texts of a column's cells as a NUL-padded uint8 array, the last
    axis holding each cell's bytes."""
    if column.dtype.kind == "f":
        texts = _float_texts(column, fmt)
    else:
        texts = np.array([_cell(cell, fmt).encode() for cell in column.ravel().tolist()], dtype=bytes)
    return texts.reshape(column.shape + (1,)).view(np.uint8)


def _emit_table(params: dict, names: list[str], columns: list, fmt: str):
    """Yield the table's bytes: the header, each block of whole leading-axis
    rows, then the tail.

    The table has one row per element of ``columns`` broadcast together, in
    C order.  A column is an array-like, formatted at its own shape, so a
    ``wigner`` coordinate is formatted once, not once per row; or a function
    of a slice of leading-axis rows that returns that block of the column,
    called once per block.  The array-likes fix the table's shape.  A block
    is a NUL-padded byte matrix, one row per table row, from which a mask
    drops the padding a slice of _SLICE_ROWS table rows at a time; each
    slice is yielded as it comes."""
    opening, sep, closing, newline = _LAYOUT[fmt]
    columns = [column if callable(column) else np.asarray(column) for column in columns]
    shape = np.broadcast_shapes(*(column.shape for column in columns if not callable(column)))

    def at_rank(column: np.ndarray) -> np.ndarray:
        # a column at the table's rank, so that its leading axis is the table's
        return column.reshape((1,) * (len(shape) - column.ndim) + column.shape)

    columns = [column if callable(column) else at_rank(column) for column in columns]
    fixed = [_column_texts(column, fmt) if not callable(column) and column.shape[0] == 1 else None
             for column in columns]
    seps = [np.frombuffer(text.encode(), np.uint8) for text in [opening] + [sep] * (len(columns) - 1)]
    end = np.frombuffer((closing + newline).encode(), np.uint8)
    if fmt == "csv":
        lines = [f"# {key} = {_fmt(value)}" for key, value in params.items()]
        yield ("\n".join(lines + [",".join(names)]) + "\n").encode()
        tail = "\n"
    else:
        payload = {"params": {k: (str(v) if isinstance(v, complex) else v) for k, v in params.items()},
                   "columns": names,
                   "rows": []}
        # json.dumps ends in the empty '"rows": []' and the closing brace
        yield (json.dumps(payload, indent=2)[:-len("]\n}")] + "\n").encode()
        tail = "\n  ]\n}\n"
    step = max(1, _BLOCK_ROWS // math.prod(shape[1:]))
    for start in range(0, shape[0], step):
        rows = slice(start, start + step)
        parts = []
        for column, texts, gap in zip(columns, fixed, seps):
            if texts is None:
                texts = _column_texts(at_rank(np.asarray(column(rows))) if callable(column) else column[rows], fmt)
            parts += [gap, texts]
        parts.append(end)
        widths = np.cumsum([0] + [part.shape[-1] for part in parts]).tolist()
        matrix = np.empty((min(step, shape[0] - start), *shape[1:], widths[-1]), np.uint8)
        for part, lo, hi in zip(parts, widths, widths[1:]):
            matrix[..., lo:hi] = part
        # the matrix holds the texts now
        del parts, part, texts
        matrix = matrix.reshape(-1, widths[-1])
        if rows.stop >= shape[0]:
            # the last row's separator gives way to the tail
            matrix[-1, -len(newline):] = 0
        for lo in range(0, len(matrix), _SLICE_ROWS):
            part = matrix[lo:lo + _SLICE_ROWS]
            yield part[part != 0].data
        # the next block's texts are made without this one's matrix
        del matrix, part
    yield tail.encode()


def _write(blocks, out: str | None) -> int:
    """Write each block of bytes as it comes, to ``out`` or, decoded, to
    ``sys.stdout``; no copy of the whole document is made."""
    if out is None:
        try:
            for block in blocks:
                sys.stdout.write(str(block, "utf-8"))
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader has gone (``| head``): stop quietly, with stdout on
            # devnull so that the flush at exit does not fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return 0
    try:
        with open(out, "wb") as handle:
            for block in blocks:
                handle.write(block)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    geom = states.OscillatorGeometry(a=args.a, b=args.b, hbar=args.hbar)
    rows = []
    for k in (1, 2):
        for alpha in args.alphas:
            # one verdict gives the row's eigenvalues, verdict and negativity
            verdict = phase_space.ppt_separable(phase_space.covariance(k, alpha, geom))
            negativity = verdict.log_negativity
            closed = max(-math.log(alpha), 0.0) if k == 2 else 0.0
            rows.append((k, alpha, basis.squeeze_from_alpha(alpha), *verdict.spectrum,
                         "SEPARABLE" if verdict.separable else "ENTANGLED", negativity, closed,
                         abs(negativity - closed)))
    params = {
        "command": "sweep", "a": args.a, "b": args.b, "hbar": args.hbar,
        "alphas": ",".join(format(a, ".17g") for a in args.alphas),
    }
    names = [
        "mode", "alpha", "squeeze_xi", "lambda_min_pt", "lambda_max_pt",
        "verdict", "log_negativity", "log_negativity_closed", "residual",
    ]
    return _write(_emit_table(params, names, list(zip(*rows)), args.fmt), args.out)


def cmd_wigner(args: argparse.Namespace) -> int:
    geom = states.OscillatorGeometry(a=args.a, b=args.b, hbar=args.hbar)
    labels = states.DisplacementLabels(z1=args.z1, z2=args.z2)
    axis1, axis2 = args.axes
    fixed = [name for name, _ in args.fix or ()]
    if len(set(fixed)) < len(fixed) or set(fixed) & set(args.axes):
        args.usage_error(f"--fix must name each axis outside --axes at most once, got {fixed}")

    # the Wigner function of the state is the centered one's, translated by
    # the state's position center and momenta hbar frame^-T wavenumbers
    state = states.gaussian_state(args.k, args.alpha, geom, labels)
    _, evaluator = phase_space.wigner_gaussian(state.gaussian, args.hbar)
    y1, y2 = state.position_center.tolist()
    q1, q2 = (args.hbar * state.position_wavenumbers).tolist()
    offsets = {"x1": y1, "x2": y2, "p1": q1, "p2": q2}

    coords = dict(args.fix or ())
    for name in _AXES:
        coords.setdefault(name, 0.0)

    grid1 = np.linspace(args.range1[0], args.range1[1], args.n1)
    grid2 = np.linspace(args.range2[0], args.range2[1], args.n2)
    # one evaluator call per block of rows of the (n1, n2) mesh; the fixed
    # axes stay the scalars a per-point call would get, so every value is
    # the same
    shifted = {name: coords[name] - offsets[name] for name in _AXES}
    shifted[axis2] = grid2[None, :] - offsets[axis2]

    def values(rows: slice) -> np.ndarray:
        block = dict(shifted, **{axis1: grid1[rows, None] - offsets[axis1]})
        return evaluator(block["x1"], block["x2"], block["p1"], block["p2"])

    params = {
        "command": "wigner", "mode": args.k, "alpha": args.alpha,
        "a": args.a, "b": args.b, "hbar": args.hbar,
        "z1": args.z1, "z2": args.z2,
        "axis1": axis1, "axis2": axis2,
        "range1": f"{args.range1[0]:.17g}:{args.range1[1]:.17g}",
        "range2": f"{args.range2[0]:.17g}:{args.range2[1]:.17g}",
        "n1": args.n1, "n2": args.n2,
    }
    for name in _AXES:
        if name not in (axis1, axis2):
            params[f"fixed_{name}"] = coords[name]
    # each coordinate is formatted once and broadcast along the other axis
    columns = [grid1[:, None], grid2[None, :], values]
    return _write(_emit_table(params, [axis1, axis2, "wigner"], columns, args.fmt), args.out)


def cmd_verify(args: argparse.Namespace) -> int:
    results = verify.run_suite(args.suite)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def cmd_hamiltonian(args: argparse.Namespace) -> int:
    spec = model.OscillatorSpec(omega1=args.omega1, omega2=args.omega2, mass=args.mass, hbar=args.hbar)
    quad = model.hamiltonian_quadratic(args.alpha, spec, args.z1, args.z2)
    ladder = model.hamiltonian_fock(args.alpha, spec, args.z1, args.z2, args.trunc, "ladder")
    expanded = model.hamiltonian_fock(args.alpha, spec, args.z1, args.z2, args.trunc, "expanded")
    path_gap = ladder.interior_gap(expanded)
    hermiticity = ladder.hermiticity_defect()

    a, b = spec.inverse_lengths()
    grid_points = max(81, 2 * args.order + 1)
    state = model._mode2_state(args.alpha, spec, args.z1, args.z2)
    ground = model._ground_state_check(state, quad, spec, grid_points)

    diag = np.real(ladder.diagonal())
    payload = {
        "params": {
            "command": "hamiltonian",
            "alpha": args.alpha,
            "omega1": args.omega1,
            "omega2": args.omega2,
            "mass": args.mass,
            "hbar": args.hbar,
            "z1": str(args.z1),
            "z2": str(args.z2),
            "n_trunc": args.trunc,
            "order": args.order,
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
            "factorization_defect": ground.factorization_defect,
            "within_tolerance": bool(
                abs(ground.energy - ground.expected) <= args.tol
                and ground.factorization_defect <= args.tol
            ),
        },
    }
    status = _write([(json.dumps(payload, indent=2) + "\n").encode()], args.out)
    if status != 0:
        return status
    # every check the document reports decides the status; a NaN fails
    passed = payload["ground_state"]["within_tolerance"] and path_gap <= args.tol and hermiticity <= args.tol
    return 0 if passed else 1


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
        "--axes", type=_axes_arg, default=("x1", "x2"),
        help="two comma-separated axes to vary, from x1,x2,p1,p2",
    )
    wigner.add_argument("--range1", type=_range_arg, default=(-3.0, 3.0), help="lo:hi for the first axis")
    wigner.add_argument("--range2", type=_range_arg, default=(-3.0, 3.0), help="lo:hi for the second axis")
    wigner.add_argument("--n1", type=_grid_count, default=41)
    wigner.add_argument("--n2", type=_grid_count, default=41)
    wigner.add_argument(
        "--fix", type=_fix_arg, action="append",
        help="fix a non-varied coordinate, e.g. --fix p1=0.5 (repeatable; default 0)",
    )
    # the --fix/--axes clash is known only once both are parsed
    wigner.set_defaults(handler=cmd_wigner, usage_error=wigner.error)

    ver = sub.add_parser("verify", help="run a library invariant suite")
    ver.add_argument("suite", choices=verify.suite_names())
    ver.set_defaults(handler=cmd_verify)

    ham = sub.add_parser("hamiltonian", help="export the reconstructed Hamiltonian")
    # its document is json only, so --format csv is a usage error
    _common_flags(ham, formats=("json",))
    # the model flags: only hamiltonian reads them
    ham.add_argument("--mass", type=_positive_float, default=1.0, help="oscillator mass (default 1)")
    ham.add_argument("--order", type=_positive_int, default=80,
                     help="ground-state check grid: at least max(81, 2*ORDER+1) points "
                     "per principal axis (default 80)")
    ham.add_argument("--trunc", type=_positive_int, default=20, help="Fock-space truncation")
    ham.add_argument("--tol", type=_positive_float, default=1e-6, help="acceptance tolerance for reported checks")
    ham.add_argument("--alpha", type=_unit_alpha, required=True)
    ham.add_argument("--omega1", type=_positive_float, default=1.0)
    ham.add_argument("--omega2", type=_positive_float, default=1.0)
    ham.add_argument("--z1", type=_complex_arg, default=0j)
    ham.add_argument("--z2", type=_complex_arg, default=0j)
    ham.set_defaults(handler=cmd_hamiltonian)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # one parser per process: building one takes longer than parsing with it
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
