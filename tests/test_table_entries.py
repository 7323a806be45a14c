"""One value of a family is one index into its table.

The Hermite, basis and oscillator families are each evaluated by one table
routine.  Each entry read that way is checked here, index by index, against
an mpmath transcription of its closed form at 40 digits, and against the same
entry of a larger table: the value an index reads does not depend on the
size of the table it is read from.
"""

import mpmath as mp
import numpy as np
import pytest

from cvsqueeze import basis, hermite, states

# one-index and two-index entries read off each table
INDICES = range(16)
PAIRS = [(0, 0), (0, 3), (1, 0), (1, 1), (2, 1), (1, 2), (3, 3), (4, 2), (2, 5), (5, 4), (6, 6), (7, 3)]
# how many entries past the one read the larger table holds
EXTRA = 7


def _two_index_reference(m, n, z1, z2):
    # H_{m,n}(z1, z2) = sum_k (-1)^k k! C(m, k) C(n, k) z1^(m-k) z2^(n-k),
    # the coefficients of the generating function exp(s z1 + t z2 - s t)
    return mp.fsum(
        (-1) ** k * mp.factorial(k) * mp.binomial(m, k) * mp.binomial(n, k) * z1 ** (m - k) * z2 ** (n - k)
        for k in range(min(m, n) + 1)
    )


def _basis_reference(n, alpha, z):
    alpha, z = mp.mpf(alpha), mp.mpc(z)
    beta = (1 - alpha) / (1 + alpha)
    c = mp.sqrt(2 * alpha / ((1 - alpha) * (1 + alpha)))
    return (
        mp.sqrt(2 * mp.sqrt(alpha) / (1 + alpha))
        * mp.exp(beta * z * z / 2)
        * beta ** (mp.mpf(n) / 2)
        * mp.hermite(n, c * z)
        / mp.sqrt(2**n * mp.factorial(n))
    )


def _basis_2v_reference(m, n, alpha, z1, z2):
    alpha, z1, z2 = mp.mpf(alpha), mp.mpc(z1), mp.mpc(z2)
    beta = (1 - alpha) / (1 + alpha)
    c = 2 * mp.sqrt(alpha) / mp.sqrt((1 - alpha) * (1 + alpha))
    return (
        2 * mp.sqrt(alpha) / (1 + alpha)
        * mp.exp(beta * z1 * z2)
        * beta ** (mp.mpf(m + n) / 2)
        * _two_index_reference(m, n, c * z1, c * z2)
        / mp.sqrt(mp.factorial(m) * mp.factorial(n))
    )


def _hermite_function_reference(n, x, a):
    s = mp.mpf(a) * mp.mpf(x)
    return mp.sqrt(a) * mp.pi ** mp.mpf(-0.25) * mp.exp(-s * s / 2) * mp.hermite(n, s) / mp.sqrt(2**n * mp.factorial(n))


def _coefficient_reference(k, m, n, alpha, z1, z2):
    if k == 1:
        return _basis_reference(m, alpha, z1) * _basis_reference(n, alpha, z2)
    return _basis_2v_reference(m, n, alpha, z1, z2)


# each takes the index read and the table's largest index, and returns the
# entry read off that table next to its mpmath reference at the same point
ONE_INDEX = {
    "hermite_holo_sequence-real": lambda n, size: (
        hermite.hermite_holo_sequence(size, 0.9)[n], mp.hermite(n, mp.mpf(0.9))
    ),
    "hermite_holo_sequence-complex": lambda n, size: (
        hermite.hermite_holo_sequence(size, 0.4 + 0.9j)[n], mp.hermite(n, mp.mpc(0.4 + 0.9j))
    ),
    "hermite_holo_sequence-left": lambda n, size: (
        hermite.hermite_holo_sequence(size, -1.2 + 0.5j)[n], mp.hermite(n, mp.mpc(-1.2 + 0.5j))
    ),
    "basis_function_sequence-0.3": lambda n, size: (
        basis.basis_function_sequence(size, 0.3, 0.4 + 0.6j)[n], _basis_reference(n, 0.3, 0.4 + 0.6j)
    ),
    "basis_function_sequence-0.8": lambda n, size: (
        basis.basis_function_sequence(size, 0.8, -0.9 + 0.2j)[n], _basis_reference(n, 0.8, -0.9 + 0.2j)
    ),
    "hermite_function_sequence-1.3": lambda n, size: (
        states.hermite_function_sequence(size, 0.7, 1.3)[n], _hermite_function_reference(n, 0.7, 1.3)
    ),
    "hermite_function_sequence-0.8": lambda n, size: (
        states.hermite_function_sequence(size, -1.9, 0.8)[n], _hermite_function_reference(n, -1.9, 0.8)
    ),
}
TWO_INDEX = {
    "hermite_complex_2v_table": lambda m, n, size: (
        hermite.hermite_complex_2v_table(m + size, n + size, 0.3 + 0.8j, -0.5 + 0.2j)[m, n],
        _two_index_reference(m, n, mp.mpc(0.3 + 0.8j), mp.mpc(-0.5 + 0.2j)),
    ),
    "hermite_complex_2v_table-real": lambda m, n, size: (
        hermite.hermite_complex_2v_table(m + size, n + size, 1.1, 0.7j)[m, n],
        _two_index_reference(m, n, mp.mpc(1.1), mp.mpc(0.7j)),
    ),
    "basis_function_2v_table-0.45": lambda m, n, size: (
        basis.basis_function_2v_table(m + size, n + size, 0.45, 0.3 + 0.2j, -0.1 + 0.4j)[m, n],
        _basis_2v_reference(m, n, 0.45, 0.3 + 0.2j, -0.1 + 0.4j),
    ),
    "basis_function_2v_table-0.7": lambda m, n, size: (
        basis.basis_function_2v_table(m + size, n + size, 0.7, 0.8 - 0.3j, 0.5j)[m, n],
        _basis_2v_reference(m, n, 0.7, 0.8 - 0.3j, 0.5j),
    ),
    "coefficient_table-k1": lambda m, n, size: (
        basis.coefficient_table(1, 0.45, 0.3 + 0.2j, -0.1 + 0.4j, max(m, n) + size)[m, n],
        _coefficient_reference(1, m, n, 0.45, 0.3 + 0.2j, -0.1 + 0.4j),
    ),
    "coefficient_table-k2": lambda m, n, size: (
        basis.coefficient_table(2, 0.7, 0.8 - 0.3j, 0.5j, max(m, n) + size)[m, n],
        _coefficient_reference(2, m, n, 0.7, 0.8 - 0.3j, 0.5j),
    ),
}


def _close(value, reference, rel) -> bool:
    with mp.workdps(40):
        return abs(complex(value) - complex(reference)) <= rel * abs(complex(reference))


@pytest.mark.parametrize("n", INDICES)
@pytest.mark.parametrize("family", ONE_INDEX)
def test_entry_matches_the_mpmath_reference(family, n):
    with mp.workdps(40):
        value, reference = ONE_INDEX[family](n, n)
    assert _close(value, reference, 1e-13), (value, complex(reference))


@pytest.mark.parametrize("m, n", PAIRS)
@pytest.mark.parametrize("family", TWO_INDEX)
def test_two_index_entry_matches_the_mpmath_reference(family, m, n):
    with mp.workdps(40):
        value, reference = TWO_INDEX[family](m, n, 0)
    assert _close(value, reference, 1e-13), (value, complex(reference))


@pytest.mark.parametrize("n", INDICES)
@pytest.mark.parametrize("family", ONE_INDEX)
def test_entry_does_not_depend_on_the_table_size(family, n):
    value, _ = ONE_INDEX[family](n, n)
    larger, _ = ONE_INDEX[family](n, n + EXTRA)
    assert value == larger and type(value) is type(larger)


@pytest.mark.parametrize("m, n", PAIRS)
@pytest.mark.parametrize("family", TWO_INDEX)
def test_two_index_entry_does_not_depend_on_the_table_size(family, m, n):
    value, _ = TWO_INDEX[family](m, n, 0)
    larger, _ = TWO_INDEX[family](m, n, EXTRA)
    assert value == larger and type(value) is type(larger)


def test_real_argument_gives_a_real_entry():
    # H_n(x) at real x is the real part of entry n, and its imaginary part is 0
    table = hermite.hermite_holo_sequence(max(INDICES), np.linspace(-2.0, 2.0, 9))
    assert np.all(table.imag == 0.0)
    assert table[3, 2].real == 4.0  # H_3(-1) = 8 (-1)^3 - 12 (-1)
