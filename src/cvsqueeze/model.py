"""Reconstructed two-oscillator Hamiltonian for the jointly squeezed states.

The displaced-squeezed frame turns the ladder operators of a pair of
harmonic oscillators into Bogoliubov-type combinations with complex shifts
(:func:`ladder_coefficients`, :func:`transformed_ladder_matrices`).  The
Hamiltonian whose ground state is the mode-2 wave function is available two
independent ways that must agree:

* ``method="ladder"``: hbar omega_1 C1+ C1 + hbar omega_2 C2+ C2 + zero point,
  built from the transformed ladder matrices,
* ``method="expanded"``: the fully expanded normal-ordered term list.

:func:`hamiltonian_quadratic` converts the same operator to a quadratic form
(Q, L, c) over (x1, x2, p1, p2); for every ``alpha < 1`` it carries x1 x2
and p1 p2 couplings, and at ``alpha = 1`` it collapses to two independent
displaced oscillators.  :func:`ground_state_energy_check` closes the loop by
applying (Q, L, c) to the closed-form wave function with high-order finite
differences and verifying the eigenvalue hbar (omega_1 + omega_2) / 2.

Conventions.  The ladder operators are the canonical pair of the position
basis the states are expanded in: c_i = sqrt(M omega_i / 2 hbar) x_i
+ i p_i / sqrt(2 M omega_i hbar), whose vacuum is the centered Gaussian of
inverse length a_i = sqrt(M omega_i / hbar).  Every sign below is fixed by
one requirement: the annihilation-type operators must annihilate the mode-2
state.  For the state with labels (z1, z2) they collapse to

    C1 = sigma c1 + tau c2+ - z1,      C2 = sigma c2 + tau c1+ - z2,

with sigma = (1+alpha)/(2 sqrt(alpha)), tau = (1-alpha)/(2 sqrt(alpha)),
sigma^2 - tau^2 = 1 (the whole shift structure telescopes onto the bare
labels).  At alpha = 1 they reduce to displaced-oscillator form c_i - z_i.

Fock-space operators are short Kronecker sums sum_t A_t (x) B_t of
tridiagonal n_trunc x n_trunc factors.  :class:`TruncatedOperator` keeps
them as the bands of the product basis that those factors reach and checks
Hermiticity, path agreement and the diagonal on the bands; the dense
(n_trunc^2, n_trunc^2) matrix is built only on request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .basis import check_alpha
from .states import DisplacementLabels, OscillatorGeometry, shift_params, wave_function

__all__ = [
    "OscillatorSpec",
    "LadderCoefficients",
    "TruncatedOperator",
    "QuadraticHamiltonian",
    "GroundStateCheck",
    "ladder_coefficients",
    "lowering_operators",
    "transformed_ladder_matrices",
    "hamiltonian_fock",
    "hamiltonian_quadratic",
    "ground_state_energy_check",
]


@dataclass(frozen=True)
class OscillatorSpec:
    """Angular frequencies, mass, and hbar of the two bare oscillators."""

    omega1: float
    omega2: float
    mass: float = 1.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        for name in ("omega1", "omega2", "mass", "hbar"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"{name} must be positive, got {value}")

    @classmethod
    def from_geometry(cls, geom: OscillatorGeometry, mass: float = 1.0) -> "OscillatorSpec":
        """Frequencies matching an oscillator geometry: omega_i = hbar a_i^2 / M.

        This is the binding that makes the centered mode ground states
        coincide with the position-basis Gaussians exp(-a_i^2 x_i^2 / 2)
        (momentum variance M omega hbar / 2 = a^2 hbar^2 / 2, in agreement
        with the covariance matrices of the phase-space layer).
        """
        return cls(
            omega1=geom.hbar * geom.a**2 / mass,
            omega2=geom.hbar * geom.b**2 / mass,
            mass=mass,
            hbar=geom.hbar,
        )

    def inverse_lengths(self) -> tuple[float, float]:
        """(a, b) with a_i = sqrt(M omega_i / hbar), inverse of :meth:`from_geometry`."""
        return (
            math.sqrt(self.mass * self.omega1 / self.hbar),
            math.sqrt(self.mass * self.omega2 / self.hbar),
        )


def _finite_labels(z1: complex, z2: complex) -> tuple[complex, complex]:
    # DisplacementLabels raises ValueError on a non-finite label
    labels = DisplacementLabels(z1=complex(z1), z2=complex(z2))
    return labels.z1, labels.z2


def _sigma_tau(alpha: float) -> tuple[float, float]:
    # Bogoliubov pair with sigma^2 - tau^2 = 1 for every alpha
    root = 2.0 * math.sqrt(alpha)
    return (1.0 + alpha) / root, (1.0 - alpha) / root


@dataclass(frozen=True)
class LadderCoefficients:
    """Linear coefficients and shifts of the transformed ladder operators.

    The creation-type operators are sum_j (mu[i,j] c_j+ + mu_tilde[i,j] c_j)
    + xi_shift[i]; the annihilation-type operators sum_j (nu[i,j] c_j+
    + nu_tilde[i,j] c_j) + zeta_shift[i].  At alpha = 1: mu = nu_tilde =
    identity, mu_tilde = nu = 0, and the shifts reduce to
    (-conj(z1), -conj(z2)) and (-z1, -z2).
    """

    mu: np.ndarray
    mu_tilde: np.ndarray
    nu: np.ndarray
    nu_tilde: np.ndarray
    xi_shift: tuple[complex, complex]
    zeta_shift: tuple[complex, complex]


def ladder_coefficients(alpha: float, z1: complex, z2: complex) -> LadderCoefficients:
    """Coefficient matrices and shifts of the transformed ladder operators.

    Diagonal entries carry (1+alpha)/(2 sqrt(alpha)), antidiagonal ones
    (1-alpha)/(2 sqrt(alpha)); the Bogoliubov identity
    ((1+alpha)^2 - (1-alpha)^2) / (4 alpha) = 1 keeps the commutation
    relations canonical for every alpha.
    """
    alpha = check_alpha(alpha, closed=True)
    z1, z2 = _finite_labels(z1, z2)
    sigma, tau = _sigma_tau(alpha)
    diag = np.diag([sigma, sigma])
    anti = np.array([[0.0, tau], [tau, 0.0]])
    return LadderCoefficients(
        mu=diag,
        mu_tilde=anti,
        nu=anti.copy(),
        nu_tilde=diag.copy(),
        xi_shift=(-z1.conjugate(), -z2.conjugate()),
        zeta_shift=(-z1, -z2),
    )


@dataclass(frozen=True)
class TruncatedOperator:
    """Operator over the product Fock basis |m, n>, m, n < n_trunc, in band form.

    ``bands[d1, d2]`` holds the entries <r1, r2| H |r1 + d1, r2 + d2> as an
    (n_trunc - |d1|, n_trunc - |d2|) array indexed like ``np.diagonal``:
    r = i for d >= 0 and r = i - d for d < 0.  Diagonals absent from
    ``bands`` are zero.  Every check runs over the bands, so none of them
    needs the dense matrix; :attr:`matrix` (row/column index m * n_trunc + n)
    is scattered from the bands on first use.  Ladder truncation corrupts
    the top levels of each mode; :meth:`interior` restricts to the block
    where matrix identities hold exactly.
    """

    bands: dict[tuple[int, int], np.ndarray]
    n_trunc: int

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, n_trunc: int) -> TruncatedOperator:
        """Operator whose bands are views of a dense (n_trunc^2, n_trunc^2) matrix."""
        n = n_trunc
        matrix = np.asarray(matrix)
        if matrix.shape != (n * n, n * n):
            raise ValueError(f"matrix of shape {matrix.shape} does not match n_trunc {n}")
        entries = matrix.reshape(n, n, n, n)  # [m, n, m', n']
        offsets = range(1 - n, n)
        firsts = [(d1, entries.diagonal(d1, 0, 2)) for d1 in offsets]  # [n, n', i]
        op = cls({(d1, d2): first.diagonal(d2, 0, 1) for d1, first in firsts for d2 in offsets}, n)
        # the bands cover every entry of ``matrix``, which is their scatter
        op.__dict__["matrix"] = matrix
        return op

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense (n_trunc^2, n_trunc^2) matrix, row/column index m * n_trunc + n."""
        n = self.n_trunc
        dense = np.zeros((n, n, n, n), dtype=complex)
        for (d1, d2), band in self.bands.items():
            rows1 = np.arange(n - abs(d1)) + max(-d1, 0)
            rows2 = np.arange(n - abs(d2)) + max(-d2, 0)
            dense[rows1[:, None], rows2, rows1[:, None] + d1, rows2 + d2] = band
        return dense.reshape(n * n, n * n)

    def _interior_size(self, pad: int) -> int:
        keep = self.n_trunc - pad
        if keep <= 0:
            raise ValueError(f"pad {pad} leaves no interior block for n_trunc {self.n_trunc}")
        return keep

    def interior(self, pad: int = 2) -> np.ndarray:
        """Sub-block of :attr:`matrix` with both mode indices below ``n_trunc - pad``."""
        keep = self._interior_size(pad)
        n = self.n_trunc
        entries = self.matrix.reshape(n, n, n, n)
        return entries[:keep, :keep, :keep, :keep].reshape(keep * keep, keep * keep)

    def diagonal(self) -> np.ndarray:
        """Diagonal entries <m, n| H |m, n> in row order m * n_trunc + n."""
        band = self.bands.get((0, 0))
        if band is None:
            return np.zeros(self.n_trunc**2, dtype=complex)
        return band.ravel()

    def interior_gap(self, other: TruncatedOperator, pad: int = 2) -> float:
        """max |self - other| over the :meth:`interior` blocks of both."""
        if other.n_trunc != self.n_trunc:
            raise ValueError(f"n_trunc {other.n_trunc} does not match {self.n_trunc}")
        keep = self._interior_size(pad)
        gaps = []
        for d1, d2 in self.bands.keys() | other.bands.keys():
            # band entry [i, j] lies in the interior iff i < keep - |d1|
            # and j < keep - |d2|
            rows, cols = keep - abs(d1), keep - abs(d2)
            if rows <= 0 or cols <= 0:
                continue
            mine = _band_prefix(self, (d1, d2), rows, cols)
            theirs = _band_prefix(other, (d1, d2), rows, cols)
            gaps.append(np.abs(mine - theirs).max())
        # np.max rather than max(): a NaN in any band must reach the result
        return float(np.max(gaps))

    def hermiticity_defect(self) -> float:
        """max |H - H^dagger| over all entries."""
        # the mirror of band entry [i, j] of (d1, d2) is entry [i, j] of (-d1, -d2)
        defects = []
        for (d1, d2), band in self.bands.items():
            mirror = self.bands.get((-d1, -d2))
            defects.append(np.abs(band if mirror is None else band - mirror.conj()).max())
        return float(np.max(defects))


def _band_prefix(op: TruncatedOperator, offsets: tuple[int, int], rows: int, cols: int):
    # leading (rows, cols) block of a band; an absent band is zero
    band = op.bands.get(offsets)
    return 0.0 if band is None else band[:rows, :cols]


def _single_lowering(n_trunc: int) -> np.ndarray:
    # one mode's truncated lowering matrix s, <k-1| s |k> = sqrt(k)
    return np.diag(np.sqrt(np.arange(1.0, n_trunc)), k=1)


def lowering_operators(n_trunc: int) -> tuple[np.ndarray, np.ndarray]:
    """Truncated lowering matrices of the two modes on the product basis."""
    if n_trunc < 2:
        raise ValueError(f"n_trunc must be >= 2, got {n_trunc}")
    single = _single_lowering(n_trunc)
    eye = np.eye(n_trunc)
    return np.kron(single, eye), np.kron(eye, single)


# An operator on the product basis as a short Kronecker sum sum_t A_t (x) B_t,
# kept as the list of (A_t, B_t) pairs of n_trunc x n_trunc factors; mode 1
# acts through A, mode 2 through B, so c1 = s (x) 1 and c2 = 1 (x) s.
_Kron = list[tuple[np.ndarray, np.ndarray]]


def _band_offsets(factors: np.ndarray) -> list[int]:
    # diagonals on which any of the stacked (T, n, n) factors holds a
    # nonzero or NaN entry
    rows, cols = np.nonzero((factors != 0).any(axis=0))
    return sorted(set((cols - rows).tolist()))


def _kron_operator(terms: _Kron) -> TruncatedOperator:
    """sum_t A_t (x) B_t in band form, without the dense (n^2, n^2) matrix.

    The entry <r1, r2| H |r1 + d1, r2 + d2> is sum_t A_t[r1, r1 + d1]
    B_t[r2, r2 + d2], so the band of (d1, d2) is L^T R for the (T, n - |d|)
    stacks L and R of the factors' d1-th and d2-th diagonals.
    """
    left = np.array([a for a, _ in terms], dtype=complex)
    right = np.array([b for _, b in terms], dtype=complex)
    lefts = {d: np.ascontiguousarray(np.diagonal(left, d, 1, 2)) for d in _band_offsets(left)}
    rights = {d: np.ascontiguousarray(np.diagonal(right, d, 1, 2)) for d in _band_offsets(right)}
    bands = {(d1, d2): a.T @ b for d1, a in lefts.items() for d2, b in rights.items()}
    return TruncatedOperator(bands, left.shape[1])


def _sym(op: np.ndarray) -> np.ndarray:
    # operator real part: (A + A+) / 2
    return 0.5 * (op + op.conj().T)


def _adjoint_product(dag: _Kron, op: _Kron) -> _Kron:
    """C+ C for C = X (x) 1 + 1 (x) Y and C+ = X' (x) 1 + 1 (x) Y'.

    Term by term with the mixed-product rule (A (x) B)(C (x) D) = AC (x) BD:
    X'X (x) 1 + X' (x) Y + X (x) Y' + 1 (x) Y'Y.  X'X and Y'Y are Hermitian;
    their Hermitian part is kept, because a complex product conj(w) w may
    round to a nonzero imaginary part.
    """
    (x_dag, eye), (_, y_dag) = dag
    (x, _), (_, y) = op
    return [
        (_sym(x_dag @ x), eye),
        (x_dag, y),
        (x, y_dag),
        (eye, _sym(y_dag @ y)),
    ]


def _ladder_terms(
    alpha: float, z1: complex, z2: complex, n_trunc: int
) -> tuple[_Kron, _Kron, _Kron, _Kron]:
    """(C1, C1+, C2, C2+) as Kronecker sums X (x) 1 + 1 (x) Y."""
    coeffs = ladder_coefficients(alpha, z1, z2)
    if n_trunc < 4:
        raise ValueError(f"n_trunc must be >= 4, got {n_trunc}")
    single = _single_lowering(n_trunc)
    eye = np.eye(n_trunc)

    def combine(raising, lowering, shift: complex) -> _Kron:
        # sum_j (raising[j] c_j+ + lowering[j] c_j) + shift, c_j+ being the
        # transpose of the real c_j; the shift rides on the mode-1 factor
        mode1 = raising[0] * single.T + lowering[0] * single + shift * eye
        mode2 = raising[1] * single.T + lowering[1] * single
        return [(mode1, eye), (eye, mode2)]

    return (
        combine(coeffs.nu[0], coeffs.nu_tilde[0], coeffs.zeta_shift[0]),
        combine(coeffs.mu[0], coeffs.mu_tilde[0], coeffs.xi_shift[0]),
        combine(coeffs.nu[1], coeffs.nu_tilde[1], coeffs.zeta_shift[1]),
        combine(coeffs.mu[1], coeffs.mu_tilde[1], coeffs.xi_shift[1]),
    )


def transformed_ladder_matrices(alpha: float, z1: complex, z2: complex, n_trunc: int = 20):
    """Truncated operators (C1, C1_dag, C2, C2_dag) of the transformed ladder ops, in band form.

    Commutators [Ci, Cj+] = delta_ij and [Ci, Cj] = 0 hold exactly on the
    interior sub-block (both mode indices below ``n_trunc - 2``).
    """
    return tuple(_kron_operator(terms) for terms in _ladder_terms(alpha, z1, z2, n_trunc))


def _frequency_mix(alpha: float, spec: OscillatorSpec) -> tuple[float, float, float]:
    """The three frequency combinations steering every mode-2 Hamiltonian form."""
    plus, minus = (1.0 + alpha) ** 2, (1.0 - alpha) ** 2
    mix1 = (plus * spec.omega1 + minus * spec.omega2) / (4.0 * alpha)
    mix2 = (minus * spec.omega1 + plus * spec.omega2) / (4.0 * alpha)
    coupling = (1.0 - alpha * alpha) * (spec.omega1 + spec.omega2) / (2.0 * alpha)
    return mix1, mix2, coupling


def _hamiltonian_terms(
    alpha: float, spec: OscillatorSpec, z1: complex, z2: complex, n_trunc: int, method: str
) -> _Kron:
    """Kronecker factor list of the mode-2 Hamiltonian on one of the two paths."""
    hbar = spec.hbar
    eye = np.eye(n_trunc)
    if method == "ladder":
        c1, c1_dag, c2, c2_dag = _ladder_terms(alpha, z1, z2, n_trunc)
        terms = [(hbar * spec.omega1 * a, b) for a, b in _adjoint_product(c1_dag, c1)]
        terms += [(hbar * spec.omega2 * a, b) for a, b in _adjoint_product(c2_dag, c2)]
        terms.append((0.5 * hbar * (spec.omega1 + spec.omega2) * eye, eye))
        return terms
    if method != "expanded":
        raise ValueError(f"method must be 'ladder' or 'expanded', got {method!r}")

    mix1, mix2, coupling = _frequency_mix(alpha, spec)
    sigma, tau = _sigma_tau(alpha)
    omega1, omega2 = spec.omega1, spec.omega2
    single = _single_lowering(n_trunc)
    number = np.diag(np.arange(float(n_trunc)))
    return [
        (hbar * mix1 * number, eye),
        (eye, hbar * mix2 * number),
        # sym(c1 c2) = (s (x) s + s+ (x) s+) / 2
        (0.5 * hbar * coupling * single, single),
        (0.5 * hbar * coupling * single.T, single.T),
        (-2.0 * hbar * omega1 * sigma * _sym(z1.conjugate() * single), eye),
        (-2.0 * hbar * omega2 * tau * _sym(z2 * single), eye),
        (eye, -2.0 * hbar * omega2 * sigma * _sym(z2.conjugate() * single)),
        (eye, -2.0 * hbar * omega1 * tau * _sym(z1 * single)),
        (
            hbar * (omega1 * abs(z1) ** 2 + omega2 * abs(z2) ** 2) * eye
            + hbar * (1.0 + alpha * alpha) * (omega1 + omega2) / (4.0 * alpha) * eye,
            eye,
        ),
    ]


def hamiltonian_fock(
    alpha: float,
    spec: OscillatorSpec,
    z1: complex,
    z2: complex,
    n_trunc: int = 20,
    method: str = "ladder",
) -> TruncatedOperator:
    """Truncated Fock-space operator of the mode-2 Hamiltonian, in band form.

    ``method="ladder"`` assembles hbar omega_1 C1+ C1 + hbar omega_2 C2+ C2
    + hbar (omega_1 + omega_2)/2 from the transformed ladder operators;
    ``method="expanded"`` builds the expanded term list directly.  Both
    paths are lists of n_trunc x n_trunc Kronecker factors, every factor
    nonzero only on diagonals -1, 0 and 1, so the operator is nine bands
    of at most n_trunc x n_trunc entries; the dense matrix is built only
    when :attr:`TruncatedOperator.matrix` is read.  The two paths agree
    entrywise on the interior sub-block.  At alpha = 1 and z = 0 the
    operator is diagonal with entries hbar omega_1 m + hbar omega_2 n
    + hbar (omega_1 + omega_2)/2.
    """
    alpha = check_alpha(alpha, closed=True)
    if n_trunc < 8:
        raise ValueError(f"n_trunc must be >= 8, got {n_trunc}")
    z1, z2 = _finite_labels(z1, z2)
    return _kron_operator(_hamiltonian_terms(alpha, spec, z1, z2, n_trunc, method))


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """Quadratic + linear + constant form over gamma = (x1, x2, p1, p2).

    H(gamma) = gamma^T Q gamma / 2 + L^T gamma + c, with Q symmetric.
    """

    q: np.ndarray
    linear: np.ndarray
    constant: float

    def __post_init__(self) -> None:
        q = np.asarray(self.q, dtype=float)
        linear = np.asarray(self.linear, dtype=float)
        if q.shape != (4, 4) or not np.allclose(q, q.T):
            raise ValueError("Q must be a symmetric 4x4 matrix")
        if linear.shape != (4,):
            raise ValueError("L must be a 4-vector")
        object.__setattr__(self, "q", 0.5 * (q + q.T))
        object.__setattr__(self, "linear", linear)

    def value(self, x1, x2, p1, p2):
        """Classical value at a phase-space point (arrays broadcast)."""
        gamma = np.stack(np.broadcast_arrays(x1, x2, p1, p2), axis=0).astype(float)
        quad = 0.5 * np.einsum("i...,ij,j...->...", gamma, self.q, gamma)
        lin = np.einsum("i,i...->...", self.linear, gamma)
        return quad + lin + self.constant


def hamiltonian_quadratic(
    alpha: float, spec: OscillatorSpec, z1: complex, z2: complex
) -> QuadraticHamiltonian:
    """(Q, L, c) form of the mode-2 Hamiltonian.

    Exact expansion of the ladder form through the canonical operator map;
    the quadratic block carries the couplings
    +/- (1-alpha^2)(omega_1+omega_2) / (2 alpha sqrt(omega_1 omega_2))
    on x1 x2 and p1 p2 (x positive, p negative), present iff alpha < 1.
    The ground-state eigenvalue hbar (omega_1 + omega_2)/2 is carried by the
    operator itself; ``c`` is the purely displacement-induced constant
    hbar (omega_1 |z1|^2 + omega_2 |z2|^2), zero at z = 0.
    """
    alpha = check_alpha(alpha, closed=True)
    z1, z2 = _finite_labels(z1, z2)
    mix1, mix2, coupling = _frequency_mix(alpha, spec)
    sigma, tau = _sigma_tau(alpha)
    mass, hbar = spec.mass, spec.hbar
    omega1, omega2 = spec.omega1, spec.omega2

    q = np.zeros((4, 4))
    q[0, 0] = mix1 * mass * omega1
    q[1, 1] = mix2 * mass * omega2
    q[2, 2] = mix1 / (mass * omega1)
    q[3, 3] = mix2 / (mass * omega2)
    q[0, 1] = q[1, 0] = 0.5 * coupling * mass * math.sqrt(omega1 * omega2)
    q[2, 3] = q[3, 2] = -0.5 * coupling / (mass * math.sqrt(omega1 * omega2))

    linear = np.array(
        [
            -math.sqrt(2.0 * mass * omega1 * hbar) * (sigma * omega1 * z1.real + tau * omega2 * z2.real),
            -math.sqrt(2.0 * mass * omega2 * hbar) * (sigma * omega2 * z2.real + tau * omega1 * z1.real),
            -math.sqrt(2.0 * hbar / (mass * omega1)) * (sigma * omega1 * z1.imag - tau * omega2 * z2.imag),
            -math.sqrt(2.0 * hbar / (mass * omega2)) * (sigma * omega2 * z2.imag - tau * omega1 * z1.imag),
        ]
    )
    constant = hbar * (omega1 * abs(z1) ** 2 + omega2 * abs(z2) ** 2)
    return QuadraticHamiltonian(q=q, linear=linear, constant=constant)


# 8th-order central-difference stencils, offsets -4 .. +4
_D1_STENCIL = np.array(
    [1 / 280, -4 / 105, 1 / 5, -4 / 5, 0.0, 4 / 5, -1 / 5, 4 / 105, -1 / 280]
)
_D2_STENCIL = np.array(
    [-1 / 560, 8 / 315, -1 / 5, 8 / 5, -205 / 72, 8 / 5, -1 / 5, 8 / 315, -1 / 560]
)


def _stencil(values: np.ndarray, weights: np.ndarray, axis: int, spacing: float, order: int) -> np.ndarray:
    # zero-padded correlation out[i] = sum_k weights[k] values[i + k - radius] along
    # ``axis``; on the float view of the padded samples every output is one
    # real dot product of the taps with a window of rows
    radius = len(weights) // 2
    moved = np.moveaxis(np.asarray(values, dtype=complex), axis, 0)
    padded = np.zeros((len(moved) + 2 * radius,) + moved.shape[1:], dtype=complex)
    padded[radius:-radius] = moved
    rows = padded.reshape(len(padded), -1).view(float)
    out = sliding_window_view(rows, len(weights), axis=0) @ (weights / spacing**order)
    return np.moveaxis(out.view(complex).reshape(moved.shape), 0, axis)


def apply_quadratic_hamiltonian(
    ham: QuadraticHamiltonian,
    values: np.ndarray,
    x1_axis: np.ndarray,
    x2_axis: np.ndarray,
    hbar: float,
) -> np.ndarray:
    """Apply (Q, L, c) as a differential operator to grid samples.

    ``values`` has shape ``(len(x1_axis), len(x2_axis))`` on a uniform grid;
    momenta act as -i hbar d/dx through 8th-order central differences
    (zero-padded outside, so the grid must extend far enough that the state
    has decayed at the edges).
    """
    h1 = float(x1_axis[1] - x1_axis[0])
    h2 = float(x2_axis[1] - x2_axis[0])
    x1 = x1_axis[:, None]
    x2 = x2_axis[None, :]
    q = ham.q
    potential = (
        0.5 * (q[0, 0] * x1**2 + 2.0 * q[0, 1] * x1 * x2 + q[1, 1] * x2**2)
        + ham.linear[0] * x1
        + ham.linear[1] * x2
        + ham.constant
    )
    out = potential * values
    out += -0.5 * q[2, 2] * hbar**2 * _stencil(values, _D2_STENCIL, 0, h1, 2)
    out += -0.5 * q[3, 3] * hbar**2 * _stencil(values, _D2_STENCIL, 1, h2, 2)
    if q[2, 3] != 0.0:
        mixed = _stencil(_stencil(values, _D1_STENCIL, 0, h1, 1), _D1_STENCIL, 1, h2, 1)
        out += -q[2, 3] * hbar**2 * mixed
    if ham.linear[2] != 0.0:
        out += -1j * hbar * ham.linear[2] * _stencil(values, _D1_STENCIL, 0, h1, 1)
    if ham.linear[3] != 0.0:
        out += -1j * hbar * ham.linear[3] * _stencil(values, _D1_STENCIL, 1, h2, 1)
    return out


@dataclass(frozen=True)
class GroundStateCheck:
    """Energy expectation and eigen-residual of the closed-form ground state."""

    energy: float
    expected: float
    residual: float
    grid_points: int


def ground_state_energy_check(
    alpha: float,
    spec: OscillatorSpec,
    geom: OscillatorGeometry,
    z1: complex = 0.0,
    z2: complex = 0.0,
    grid_points: int = 161,
    box_sigmas: float = 8.0,
) -> GroundStateCheck:
    """Verify the mode-2 state is an eigenstate of the reconstructed Hamiltonian.

    Applies (Q, L, c) to the closed-form wave function on an adaptive grid
    (``box_sigmas`` Gaussian widths around the displaced center) and returns
    the energy expectation next to hbar (omega_1 + omega_2)/2 and the
    normalized eigen-residual ||(H - E0) psi|| / ||psi||, which must shrink
    under grid refinement.  The geometry must match the frequencies through
    omega_i = hbar a_i^2 / M.
    """
    alpha = check_alpha(alpha, closed=True)
    expected_a, expected_b = spec.inverse_lengths()
    if not (
        math.isclose(geom.a, expected_a, rel_tol=1e-10)
        and math.isclose(geom.b, expected_b, rel_tol=1e-10)
        and math.isclose(geom.hbar, spec.hbar, rel_tol=1e-10)
    ):
        raise ValueError(
            "geometry inconsistent with the oscillator frequencies: "
            f"need a = {expected_a:.6g}, b = {expected_b:.6g} for omega_i = hbar a_i^2 / M"
        )
    if grid_points < 32:
        raise ValueError(f"grid_points must be >= 32, got {grid_points}")
    labels = DisplacementLabels(z1=complex(z1), z2=complex(z2))
    shifts = shift_params(2, alpha, geom, labels)
    # position spreads of the centered state
    spread1 = math.sqrt((1.0 + alpha * alpha) / (4.0 * alpha)) / geom.a
    spread2 = math.sqrt((1.0 + alpha * alpha) / (4.0 * alpha)) / geom.b
    half1 = box_sigmas * spread1
    half2 = box_sigmas * spread2
    # pad by the stencil radius so edge stencils see true wave-function
    # values instead of the zero fill (the state decays slowly along the
    # soft principal axis, which otherwise dominates the residual)
    pad = 4
    step1 = 2.0 * half1 / (grid_points - 1)
    step2 = 2.0 * half2 / (grid_points - 1)
    x1_axis = shifts.y1 + np.linspace(
        -half1 - pad * step1, half1 + pad * step1, grid_points + 2 * pad
    )
    x2_axis = shifts.y2 + np.linspace(
        -half2 - pad * step2, half2 + pad * step2, grid_points + 2 * pad
    )
    psi = np.asarray(
        wave_function(2, x1_axis[:, None], x2_axis[None, :], geom, labels, alpha), dtype=complex
    )
    ham = hamiltonian_quadratic(alpha, spec, z1, z2)
    h_psi = apply_quadratic_hamiltonian(ham, psi, x1_axis, x2_axis, spec.hbar)
    core = slice(pad, -pad)
    psi = psi[core, core]
    h_psi = h_psi[core, core]
    cell = (x1_axis[1] - x1_axis[0]) * (x2_axis[1] - x2_axis[0])
    norm_sq = float(np.sum(np.abs(psi) ** 2)) * cell
    energy = float(np.sum(np.conj(psi) * h_psi).real) * cell / norm_sq
    expected = 0.5 * spec.hbar * (spec.omega1 + spec.omega2)
    residual = math.sqrt(float(np.sum(np.abs(h_psi - expected * psi) ** 2)) * cell / norm_sq)
    return GroundStateCheck(
        energy=energy, expected=expected, residual=residual, grid_points=grid_points
    )
