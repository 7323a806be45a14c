"""Argument validators shared by every layer: each raises an error naming
the argument it rejects, and those that convert return the converted value.
The module imports nothing from the package, so every layer can use it,
``quadrature`` included.
"""

import math
import numbers
import operator

import numpy as np


def check_index(n: int, name: str = "n", *, minimum: int = 0, maximum: int | None = None) -> int:
    """``n``, a Python or NumPy integer in [minimum, maximum] (None: unbounded), as an int.

    ``bool``, ``np.bool_``, floats (2.0 too) and values out of range raise
    ``ValueError`` naming the argument and its range.  Callers index with
    the returned int, so ``True`` can never select entry 1 of a table.
    """
    integer = isinstance(n, (int, np.integer)) and not isinstance(n, bool)
    if not (integer and minimum <= n and (maximum is None or n <= maximum)):
        if maximum is not None:
            expected = f"an integer in [{minimum}, {maximum}]"
        else:
            expected = "a nonnegative integer" if minimum == 0 else f"an integer >= {minimum}"
        raise ValueError(f"{name} must be {expected}, got {n!r}")
    return int(n)


def check_order(order: int) -> int:
    """``order`` as an int: a quadrature order of at least 2.

    ``operator.index`` decides what is an integer, so ``np.int64`` is
    accepted and ``24.0`` or ``"24"`` raise ``TypeError``; an order below 2
    raises ``ValueError``.  Callers that compare an order with an exactness
    bound validate it here first.
    """
    try:
        index = operator.index(order)
    except TypeError:
        raise TypeError(f"quadrature order must be an integer, got {order!r}") from None
    if index < 2:
        raise ValueError(f"quadrature order must be >= 2, got {order!r}")
    return index


def _number(value, kind: type, convert: type):
    # value converted by convert if it is a number of the numbers ABC kind
    # (bool is a truth value here, not a number), else NaN; a value beyond
    # the float range, such as an int of 400 digits, counts as infinite
    if isinstance(value, kind) and not isinstance(value, bool):
        try:
            return convert(value)
        except OverflowError:
            return math.inf
    return math.nan


def check_real(value: float, name: str, *, positive: bool = False) -> float:
    """``value``, a finite ``numbers.Real`` other than ``bool`` (> 0 if ``positive``), as a float.

    ``Fraction`` and NumPy reals pass; ``Decimal``, ``np.bool_``, strings,
    ``None``, arrays and complex values do not.
    """
    real = _number(value, numbers.Real, float)
    if not (math.isfinite(real) and (real > 0.0 or not positive)):
        expected = "positive and finite" if positive else "finite and real"
        raise ValueError(f"{name} must be {expected}, got {value!r}")
    return real


def check_complex(value: complex, name: str) -> complex:
    """``value``, a ``numbers.Complex`` other than ``bool`` with finite parts, as a complex."""
    number = _number(value, numbers.Complex, complex)
    if not (math.isfinite(number.real) and math.isfinite(number.imag)):
        raise ValueError(f"{name} must be finite and complex, got {value!r}")
    return number


def check_alpha(alpha: float, *, closed: bool) -> float:
    """``alpha`` as a float, checked to lie in (0, 1), or in (0, 1] if ``closed``.

    Callers whose formulas stay regular without squeezing (alpha = 1) pass
    ``closed=True``.  What :func:`check_real` rejects is rejected either way.
    """
    value = _number(alpha, numbers.Real, float)
    if not (0.0 < value < 1.0 or (closed and value == 1.0)):
        interval = "(0, 1]" if closed else "(0, 1)"
        raise ValueError(f"alpha must lie in {interval}, got {alpha!r}")
    return value


def _check_finite(**arguments) -> None:
    # each named argument, a number or an array, must be finite in every
    # entry; the error names the argument and its first non-finite entry
    for name, value in arguments.items():
        bad = ~np.isfinite(value)
        if bad.any():
            raise ValueError(f"{name} must be finite, got {np.asarray(value)[bad][0]}")


def _symmetrized(matrix: np.ndarray, name: str) -> np.ndarray:
    # (A + A^T) / 2 of a finite square matrix A, which must be symmetric
    # within 1e-12 max(1, max |A|) in every entry
    if np.abs(matrix - matrix.T).max() > 1e-12 * max(1.0, np.abs(matrix).max()):
        raise ValueError(f"{name} must be symmetric")
    return 0.5 * (matrix + matrix.T)


def _finite_result(compute, sizes: str, **arguments) -> np.ndarray:
    # compute() with float overflow warnings silenced, unless an entry of the
    # result overflowed to inf or NaN; the error names the table sizes and the
    # largest magnitude of each argument
    with np.errstate(over="ignore", invalid="ignore"):
        values = compute()
    if np.isfinite(values).all():
        return values
    largest = ", ".join(f"max |{name}| {float(np.max(np.abs(arg))):.6g}" for name, arg in arguments.items())
    raise ValueError(f"result is not finite in float64 at {sizes}, {largest}")


def check_real_array(value, name: str) -> np.ndarray:
    """``value``, a real number or an array-like of them, as a float array.

    Complex, ``bool`` and string entries raise ``ValueError`` naming the
    argument, where a conversion to float would drop an imaginary part,
    read ``True`` as 1.0 or parse ``"0.3"``.  An object array passes when
    each entry passes :func:`check_real`'s type rule.  Entries need not be
    finite.
    """
    array = np.asarray(value)
    if array.dtype.kind == "O":
        real = all(isinstance(entry, numbers.Real) and not isinstance(entry, bool) for entry in array.flat)
    else:
        real = array.dtype.kind in "iuf"
    if not real:
        raise ValueError(f"{name} must be real, got {array.dtype} values")
    return array.astype(float, copy=False)


def _check_positions(**positions) -> tuple[np.ndarray, ...]:
    # each named position as a float array on its own shape; shapes that do
    # not broadcast, entries that are not real, inf or NaN raise
    arrays = tuple(check_real_array(x, name) for name, x in positions.items())
    try:
        np.broadcast(*arrays)
    except ValueError:
        shapes = " and ".join(str(x.shape) for x in arrays)
        raise ValueError(f"{' and '.join(positions)} must broadcast, got shapes {shapes}") from None
    if not all(np.isfinite(x).all() for x in arrays):
        raise ValueError("positions must be finite")
    return arrays
