"""Whole (n_trunc^2, n_trunc^2) matrices, row/column index m * n_trunc + n:
the tests' reference for the band-form Fock operators of ``cvsqueeze.model``."""

import math

import numpy as np


def dense(op):
    """Whole matrix of a ``TruncatedOperator``, scattered from its bands."""
    n = op.n_trunc
    entries = np.zeros((n, n, n, n), dtype=complex)
    for (d1, d2), band in op.bands.items():
        rows1 = np.arange(n - abs(d1)) + max(-d1, 0)
        rows2 = np.arange(n - abs(d2)) + max(-d2, 0)
        entries[rows1[:, None], rows2, rows1[:, None] + d1, rows2 + d2] = band
    return entries.reshape(n * n, n * n)


def interior(matrix):
    """Sub-block of a whole matrix with both mode indices below n_trunc - 2."""
    n = math.isqrt(len(matrix))
    keep = n - 2
    return matrix.reshape(n, n, n, n)[:keep, :keep, :keep, :keep].reshape(keep * keep, keep * keep)


def lowering_pair(n_trunc):
    """Lowering matrices s (x) 1 and 1 (x) s of the two modes, <k-1| s |k> = sqrt(k)."""
    single = np.diag(np.sqrt(np.arange(1.0, n_trunc)), k=1)
    eye = np.eye(n_trunc)
    return np.kron(single, eye), np.kron(eye, single)
