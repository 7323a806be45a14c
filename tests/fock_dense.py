"""Whole (n_trunc^2, n_trunc^2) matrices, row/column index m * n_trunc + n:
the tests' reference for the band-form Fock operators of ``cvsqueeze.model``.

The reference operators are built from sigma, tau and the labels with
``np.kron`` of the dense truncated ladder matrices, independently of the
model's monomial coefficients; products run on sparse copies, so that the
reference stays cheap at n_trunc 40."""

import math

import numpy as np
from scipy import sparse


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


def ladder_operators(alpha, z1, z2, n_trunc):
    """Sparse (C1, C1+, C2, C2+): C1 = sigma c1 + tau c2+ - z1, C2 = sigma c2 + tau c1+ - z2."""
    low1, low2 = (sparse.csr_array(low) for low in lowering_pair(n_trunc))
    eye = sparse.eye_array(n_trunc * n_trunc, format="csr")
    sigma = (1 + alpha) / (2 * math.sqrt(alpha))
    tau = (1 - alpha) / (2 * math.sqrt(alpha))
    c1 = sigma * low1 + tau * low2.T - z1 * eye
    c2 = sigma * low2 + tau * low1.T - z2 * eye
    return c1, c1.conj().T, c2, c2.conj().T


def hamiltonian(alpha, spec, z1, z2, n_trunc, method):
    """Whole matrix of either Fock path: the ladder products or the expanded term list."""
    c1, c1_dag, c2, c2_dag = ladder_operators(alpha, z1, z2, n_trunc)
    eye = sparse.eye_array(n_trunc * n_trunc, format="csr")
    hbar, omega1, omega2 = spec.hbar, spec.omega1, spec.omega2
    if method == "ladder":
        whole = hbar * omega1 * (c1_dag @ c1) + hbar * omega2 * (c2_dag @ c2) + 0.5 * hbar * (omega1 + omega2) * eye
        return whole.toarray()

    def sym(op):
        return 0.5 * (op + op.conj().T)

    low1, low2 = (sparse.csr_array(low) for low in lowering_pair(n_trunc))
    sigma = (1 + alpha) / (2 * math.sqrt(alpha))
    tau = (1 - alpha) / (2 * math.sqrt(alpha))
    plus, minus = (1 + alpha) ** 2, (1 - alpha) ** 2
    whole = (
        hbar * (plus * omega1 + minus * omega2) / (4 * alpha) * (low1.T @ low1)
        + hbar * (minus * omega1 + plus * omega2) / (4 * alpha) * (low2.T @ low2)
        + hbar * (1 - alpha**2) * (omega1 + omega2) / (2 * alpha) * sym(low1 @ low2)
        - 2 * hbar * omega1 * sigma * sym(np.conj(z1) * low1)
        - 2 * hbar * omega2 * tau * sym(z2 * low1)
        - 2 * hbar * omega2 * sigma * sym(np.conj(z2) * low2)
        - 2 * hbar * omega1 * tau * sym(z1 * low2)
        + hbar * (omega1 * abs(z1) ** 2 + omega2 * abs(z2) ** 2) * eye
        + hbar * (1 + alpha**2) * (omega1 + omega2) / (4 * alpha) * eye
    )
    return whole.toarray()
