"""Reconstructed two-oscillator Hamiltonian for the jointly squeezed states.

The displaced-squeezed frame turns the ladder operators of a pair of
harmonic oscillators into Bogoliubov-type combinations with complex shifts
(:func:`transformed_ladder_matrices`).  The Hamiltonian whose ground state
is the mode-2 wave function is available two independent ways that must
agree:

* ``method="ladder"``: hbar omega_1 C1+ C1 + hbar omega_2 C2+ C2 + zero point,
  built from the transformed ladder matrices,
* ``method="expanded"``: the fully expanded normal-ordered term list.

:func:`hamiltonian_quadratic` converts the same operator to a quadratic form
(Q, L, c) over (x1, x2, p1, p2); for every ``alpha < 1`` it carries x1 x2
and p1 p2 couplings, and at ``alpha = 1`` it collapses to two independent
displaced oscillators.  :func:`ground_state_energy_check` closes the loop by
applying (Q, L, c) to the closed-form wave function with 8th-order finite
differences and verifying the eigenvalue hbar (omega_1 + omega_2) / 2.  It
samples the state on the principal axes (s, t) of its Gaussian record, where
it is exactly a product f(s) g(t); there every term of (Q, L, c) is a product
of a 1D operator on f and one on g, so the operator's action is a four-column
product U V^T and the check never forms a 2D grid.

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

Fock-space operators are short Kronecker sums sum_t A_t (x) B_t whose
single-mode factors are kept as rows of coefficients over the monomials
1, s, s+, s+s, s s+, s^2, s+^2 of the truncated lowering matrix s, never
as n_trunc x n_trunc matrices.  Such a sum is one 7 x 7 coefficient
matrix K, and every band of the product basis is a block of the one
product V^T K V, V holding each monomial's diagonal (:func:`_operator`).
:class:`TruncatedOperator` keeps the bands and checks Hermiticity, path
agreement and the diagonal on them; the bands are the only form of the
operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._checks import (
    _check_finite,
    _check_positions,
    _symmetrized,
    check_alpha,
    check_complex,
    check_index,
    check_real,
    check_real_array,
)
from .states import DisplacementLabels, GaussianState, OscillatorGeometry, QuadraticGaussian
from .states import _state_wave, gaussian_state

__all__ = [
    "OscillatorSpec",
    "TruncatedOperator",
    "QuadraticHamiltonian",
    "GroundStateCheck",
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
            object.__setattr__(self, name, check_real(getattr(self, name), name, positive=True))

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


def _sigma_tau(alpha: float) -> tuple[float, float]:
    # Bogoliubov pair with sigma^2 - tau^2 = 1 for every alpha
    root = 2.0 * math.sqrt(alpha)
    return (1.0 + alpha) / root, (1.0 - alpha) / root


@dataclass(frozen=True)
class TruncatedOperator:
    """Operator over the product Fock basis |m, n>, m, n < n_trunc, in band form.

    ``bands[d1, d2]`` holds the entries <r1, r2| H |r1 + d1, r2 + d2> as an
    (n_trunc - |d1|, n_trunc - |d2|) array indexed like ``np.diagonal``:
    r = i for d >= 0 and r = i - d for d < 0.  Diagonals absent from
    ``bands`` are zero.  Every check runs over the bands, so none of them
    needs a dense matrix.  Ladder truncation corrupts the top levels of each
    mode; :meth:`interior_gap` compares two operators on the interior block,
    both mode indices below ``n_trunc - 2``, where matrix identities hold
    exactly.
    """

    bands: dict[tuple[int, int], np.ndarray]
    n_trunc: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_trunc", check_index(self.n_trunc, "n_trunc", minimum=1))

    def diagonal(self) -> np.ndarray:
        """Diagonal entries <m, n| H |m, n> in row order m * n_trunc + n."""
        band = self.bands.get((0, 0))
        if band is None:
            return np.zeros(self.n_trunc**2, dtype=complex)
        return band.ravel()

    def interior_gap(self, other: TruncatedOperator) -> float:
        """max |self - other| over the entries with both mode indices below ``n_trunc - 2``."""
        if other.n_trunc != self.n_trunc:
            raise ValueError(f"n_trunc {other.n_trunc} does not match {self.n_trunc}")
        keep = self.n_trunc - 2
        if keep <= 0:
            raise ValueError(f"the interior is empty at n_trunc {self.n_trunc}; it needs n_trunc > 2")
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
        return float(np.max(gaps, initial=0.0))

    def hermiticity_defect(self) -> float:
        """max |H - H^dagger| over all entries."""
        # the mirror of band entry [i, j] of (d1, d2) is entry [i, j] of
        # (-d1, -d2); |A - B^*| holds the entries of |B - A^*|, so a band
        # with a mirror is read once per pair
        defects = []
        for (d1, d2), band in self.bands.items():
            mirror = self.bands.get((-d1, -d2))
            if mirror is None or (d1, d2) >= (-d1, -d2):
                defects.append(np.abs(band if mirror is None else band - mirror.conj()).max())
        # initial: an operator with no bands is zero, and so is its defect
        return float(np.max(defects, initial=0.0))


def _band_prefix(op: TruncatedOperator, offsets: tuple[int, int], rows: int, cols: int):
    # leading (rows, cols) block of a band; an absent band is zero
    band = op.bands.get(offsets)
    return 0.0 if band is None else band[:rows, :cols]


# One mode's operators are rows of coefficients over the monomials of its
# truncated lowering matrix s, <k-1| s |k> = sqrt(k): 1, s, s+, s+s, s s+,
# s^2 and s+^2.  The truncated s s+ is diag(1 .. n-1, 0), not s+s + 1, so it
# is a monomial of its own, and the product of two rows of degree at most
# one is exact in the truncated matrices.  Monomial m lies on the single
# diagonal d = _OFFSETS[m] (entries <r| M_m |r + d>) and its adjoint is
# monomial _ADJOINTS[m]; row 3 i + j of _PRODUCTS marks the monomial of
# M_i M_j for i, j among 1, s, s+.  An operator on the product basis is the
# coefficient matrix K of sum K[m1, m2] M_m1 (x) M_m2, mode 1 acting
# through m1.
_MONOMIALS = 7
_OFFSETS = np.array([0, 1, -1, 0, 0, 2, -2])
_ADJOINTS = np.array([0, 2, 1, 3, 4, 6, 5])
_PRODUCTS = np.eye(_MONOMIALS, dtype=complex)[[0, 1, 2, 1, 5, 4, 2, 3, 6]]
_SLOTS = np.eye(5, dtype=bool)[_OFFSETS + 2]
_ONE, _S, _S_DAG, _NUMBER = np.eye(_MONOMIALS)[:4]


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row of the product a b of two rows of degree at most one."""
    return (a[:3, None] * b[:3]).ravel() @ _PRODUCTS


def _hermitian_part(row: np.ndarray) -> np.ndarray:
    # (A + A+) / 2, the coefficient of M_m in A+ being conj(row[_ADJOINTS[m]])
    return 0.5 * (row + row[_ADJOINTS].conj())


def _kron_terms(terms: list) -> np.ndarray:
    """Coefficient matrix of sum_t A_t (x) B_t from the row pairs (A_t, B_t).

    Summed term by term in list order, so that mirror-image terms round alike.
    """
    left, right = np.array(terms, dtype=complex).transpose(1, 0, 2)
    return (left[:, :, None] * right[:, None, :]).sum(axis=0)


@lru_cache(maxsize=8)
def _monomial_diagonals(n_trunc: int) -> np.ndarray:
    """(7, 5, n_trunc) table V: V[m, d + 2] is the d-th diagonal of monomial m.

    Diagonals run in ``np.diagonal`` order and are zero-padded to n_trunc;
    every slot off a monomial's own diagonal is zero.
    """
    root = np.sqrt(np.arange(1.0, n_trunc))
    table = np.zeros((_MONOMIALS, 5, n_trunc))
    table[0, 2], table[3, 2] = 1.0, np.arange(n_trunc)
    table[1, 3, :-1] = table[2, 1, :-1] = root
    table[4, 2, :-1] = np.arange(1.0, n_trunc)
    table[5, 4, :-2] = table[6, 0, :-2] = root[:-1] * root[1:]
    table.flags.writeable = False
    return table


def _operator(coeffs: np.ndarray, n_trunc: int) -> TruncatedOperator:
    """sum K[m1, m2] M_m1 (x) M_m2 in band form.

    The band of (d1, d2) is sum K[m1, m2] v_m1 v_m2^T over the monomials m1
    of diagonal d1 and m2 of diagonal d2, v_m the diagonal of M_m, so every
    band is a block of the one product V^T K V over the diagonals in use.
    A band whose block of K is all zero is dropped; a NaN keeps its band.
    """
    # blocks[d1 + 2, d2 + 2]: whether the band (d1, d2) has a nonzero or NaN coefficient
    blocks = _SLOTS.T @ (coeffs != 0) @ _SLOTS
    rows, cols = (np.flatnonzero(blocks.any(axis=axis)).tolist() for axis in (1, 0))
    table = _monomial_diagonals(n_trunc)
    left, right = table[:, rows].reshape(_MONOMIALS, -1), table[:, cols].reshape(_MONOMIALS, -1)
    # real and imaginary parts side by side, so that V^T K V is one real product
    mixed = np.stack([coeffs.real @ right, coeffs.imag @ right], axis=-1).reshape(_MONOMIALS, -1)
    product = (left.T @ mixed).view(complex).reshape(len(rows), n_trunc, len(cols), n_trunc)
    bands = {}
    for a, b in np.argwhere(blocks).tolist():
        bands[a - 2, b - 2] = product[rows.index(a), : n_trunc - abs(a - 2), cols.index(b), : n_trunc - abs(b - 2)]
    return TruncatedOperator(bands, n_trunc)


def _ladder_rows(alpha: float, z1: complex, z2: complex) -> np.ndarray:
    """(C1, C1+, C2, C2+) as row pairs (X, Y) of C = X (x) 1 + 1 (x) Y, shape (4, 2, 7).

    C_i = sigma c_i + tau c_j+ - z_i: sigma on s or s+ of the operator's own
    mode, tau on the adjoint monomial of the other, the shift on the mode-1
    row X.  The arguments are taken as checked.
    """
    sigma, tau = _sigma_tau(alpha)
    rows = np.zeros((4, 2, _MONOMIALS), dtype=complex)
    rows[:, 0, 0] = [-z1, -z1.conjugate(), -z2, -z2.conjugate()]
    mode, monomial = np.array([0, 0, 1, 1]), np.array([1, 2, 1, 2])
    rows[np.arange(4), mode, monomial] = sigma
    rows[np.arange(4), 1 - mode, _ADJOINTS[monomial]] = tau
    return rows


def transformed_ladder_matrices(alpha: float, z1: complex, z2: complex, n_trunc: int = 20):
    """Truncated operators (C1, C1_dag, C2, C2_dag) of the transformed ladder ops, in band form.

    Commutators [Ci, Cj+] = delta_ij and [Ci, Cj] = 0 hold exactly on the
    interior sub-block (both mode indices below ``n_trunc - 2``).
    """
    alpha = check_alpha(alpha, closed=True)
    z1, z2 = check_complex(z1, "z1"), check_complex(z2, "z2")
    n_trunc = check_index(n_trunc, "n_trunc", minimum=4)
    return tuple(_operator(_kron_terms([(x, _ONE), (_ONE, y)]), n_trunc) for x, y in _ladder_rows(alpha, z1, z2))


def _frequency_mix(alpha: float, spec: OscillatorSpec) -> tuple[float, float, float]:
    """The three frequency combinations steering every mode-2 Hamiltonian form."""
    plus, minus = (1.0 + alpha) ** 2, (1.0 - alpha) ** 2
    mix1 = (plus * spec.omega1 + minus * spec.omega2) / (4.0 * alpha)
    mix2 = (minus * spec.omega1 + plus * spec.omega2) / (4.0 * alpha)
    coupling = (1.0 - alpha) * (1.0 + alpha) * (spec.omega1 + spec.omega2) / (2.0 * alpha)
    return mix1, mix2, coupling


def _hamiltonian_terms(alpha: float, spec: OscillatorSpec, z1: complex, z2: complex, method: str) -> list:
    """Row pairs (A_t, B_t) of the mode-2 Hamiltonian on one of the two paths."""
    hbar = spec.hbar
    if method == "ladder":
        c1, c1_dag, c2, c2_dag = _ladder_rows(alpha, z1, z2)
        terms = [(0.5 * hbar * (spec.omega1 + spec.omega2) * _ONE, _ONE)]
        for omega, (x_dag, y_dag), (x, y) in ((spec.omega1, c1_dag, c1), (spec.omega2, c2_dag, c2)):
            # C+ C = X'X (x) 1 + X' (x) Y + X (x) Y' + 1 (x) Y'Y by the
            # mixed-product rule; of the Hermitian X'X and Y'Y the Hermitian
            # part is kept, because a complex product conj(w) w may round to
            # a nonzero imaginary part
            scale = hbar * omega
            terms += [(scale * _hermitian_part(_times(x_dag, x)), _ONE), (scale * x_dag, y), (scale * x, y_dag)]
            terms.append((_ONE, scale * _hermitian_part(_times(y_dag, y))))
        return terms
    if method != "expanded":
        raise ValueError(f"method must be 'ladder' or 'expanded', got {method!r}")

    mix1, mix2, coupling = _frequency_mix(alpha, spec)
    sigma, tau = _sigma_tau(alpha)
    omega1, omega2 = spec.omega1, spec.omega2
    constant = hbar * (omega1 * abs(z1) ** 2 + omega2 * abs(z2) ** 2)
    return [
        (hbar * mix1 * _NUMBER, _ONE),
        (_ONE, hbar * mix2 * _NUMBER),
        # sym(c1 c2) = (s (x) s + s+ (x) s+) / 2
        (0.5 * hbar * coupling * _S, _S),
        (0.5 * hbar * coupling * _S_DAG, _S_DAG),
        (-2.0 * hbar * omega1 * sigma * _hermitian_part(z1.conjugate() * _S), _ONE),
        (-2.0 * hbar * omega2 * tau * _hermitian_part(z2 * _S), _ONE),
        (_ONE, -2.0 * hbar * omega2 * sigma * _hermitian_part(z2.conjugate() * _S)),
        (_ONE, -2.0 * hbar * omega1 * tau * _hermitian_part(z1 * _S)),
        ((constant + hbar * (1.0 + alpha * alpha) * (omega1 + omega2) / (4.0 * alpha)) * _ONE, _ONE),
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
    + hbar (omega_1 + omega_2)/2 by multiplying the coefficient rows of the
    transformed ladder operators; ``method="expanded"`` writes the expanded
    term list directly.  Both paths are Kronecker sums of single-mode
    coefficient rows over the monomials 1, s, s+, s+s, s s+ of the truncated
    lowering matrix, so no n_trunc x n_trunc factor is formed.  The
    operator is seven bands of at most n_trunc x n_trunc entries: the nine
    of tridiagonal factors less the pair of s (x) s+ and s+ (x) s, which
    no term carries.  The two paths agree entrywise on the interior
    sub-block.  At alpha = 1 and z = 0 the operator is diagonal with
    entries hbar omega_1 m + hbar omega_2 n + hbar (omega_1 + omega_2)/2.
    """
    alpha = check_alpha(alpha, closed=True)
    n_trunc = check_index(n_trunc, "n_trunc", minimum=8)
    z1, z2 = check_complex(z1, "z1"), check_complex(z2, "z2")
    return _operator(_kron_terms(_hamiltonian_terms(alpha, spec, z1, z2, method)), n_trunc)


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """Quadratic + linear + constant form over gamma = (x1, x2, p1, p2).

    H(gamma) = gamma^T Q gamma / 2 + L^T gamma + c, with Q symmetric.
    """

    q: np.ndarray
    linear: np.ndarray
    constant: float

    def __post_init__(self) -> None:
        q = check_real_array(self.q, "q")
        linear = check_real_array(self.linear, "linear")
        _check_finite(q=q, linear=linear)
        object.__setattr__(self, "constant", check_real(self.constant, "constant"))
        if q.shape != (4, 4):
            raise ValueError(f"q must be a 4x4 matrix, got shape {q.shape}")
        if linear.shape != (4,):
            raise ValueError(f"linear must be a 4-vector, got shape {linear.shape}")
        object.__setattr__(self, "q", _symmetrized(q, "q"))
        object.__setattr__(self, "linear", linear)

    def value(self, x1, x2, p1, p2):
        """Classical value at a phase-space point (arrays broadcast)."""
        coords = _check_positions(x1=x1, x2=x2, p1=p1, p2=p2)
        gamma = np.stack(np.broadcast_arrays(*coords), axis=0)
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
    z1, z2 = check_complex(z1, "z1"), check_complex(z2, "z2")
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

# largest number of samples per principal axis the ground-state check takes,
# the samples beyond each end of its axes (one stencil radius), and the
# half-width of its box in position spreads
_MAX_GRID_POINTS = 1 << 16
_PAD = 4
_BOX_SIGMAS = 8.0


def _derivatives(values: np.ndarray, spacing: float) -> tuple[np.ndarray, np.ndarray]:
    # first and second derivatives by the stencils, from one zero-padded copy:
    # out[i] = sum_k weights[k] values[i + k - _PAD]
    padded = np.concatenate((np.zeros(_PAD), values, np.zeros(_PAD)))
    return (
        np.correlate(padded, _D1_STENCIL / spacing, mode="valid"),
        np.correlate(padded, _D2_STENCIL / spacing**2, mode="valid"),
    )


def _factored_action(
    ham: QuadraticHamiltonian,
    f: np.ndarray,
    g: np.ndarray,
    s_axis: np.ndarray,
    t_axis: np.ndarray,
    gaussian: QuadraticGaussian,
    center: np.ndarray,
    hbar: float,
) -> tuple[np.ndarray, np.ndarray]:
    """(U, V) with (Q, L, c) applied to the product samples f (x) g equal to U V^T.

    The grid is x = center + frame (s, t) over the uniform axes ``s_axis``
    and ``t_axis``, the frame and its inverse read from ``gaussian``, so
    momenta act as -i hbar frame^-T grad_(s,t).  Every term of the operator
    is then a product of one 1D operator on f and one on g: column 0
    collects the s-only terms (times g), column 1 the t-only terms (times
    f), columns 2 and 3 the mixed derivative d_s d_t and the mixed
    potential s t.  Derivatives are 8th-order central differences with zero
    fill outside the axes, so outputs within 4 samples of an end see that
    fill.
    """
    frame, inverse = gaussian.frame, gaussian.inverse
    kinetic = -0.5 * hbar**2 * (inverse @ ham.q[2:, 2:] @ inverse.T)
    drift = -1j * hbar * (inverse @ ham.linear[2:])
    potential = frame.T @ ham.q[:2, :2] @ frame
    slope = frame.T @ (ham.q[:2, :2] @ center + ham.linear[:2])
    offset = 0.5 * center @ ham.q[:2, :2] @ center + ham.linear[:2] @ center + ham.constant
    df, d2f = _derivatives(f, float(s_axis[1] - s_axis[0]))
    dg, d2g = _derivatives(g, float(t_axis[1] - t_axis[0]))
    s_part = (
        kinetic[0, 0] * d2f
        + drift[0] * df
        + (0.5 * potential[0, 0] * s_axis**2 + slope[0] * s_axis + offset) * f
    )
    t_part = (
        kinetic[1, 1] * d2g
        + drift[1] * dg
        + (0.5 * potential[1, 1] * t_axis**2 + slope[1] * t_axis) * g
    )
    u = np.stack([s_part, f, df, s_axis * f], axis=1)
    v = np.stack([g, t_part, 2.0 * kinetic[0, 1] * dg, potential[0, 1] * t_axis * g], axis=1)
    return u, v


def _principal_axis_grid(state: GaussianState, grid_points: int) -> tuple[np.ndarray, np.ndarray]:
    """(s_axis, t_axis) of the ground-state check's grid x = y + frame (s, t).

    On the record's principal axes, of position spreads 1/sqrt(2 kappa),
    each axis spans :data:`_BOX_SIGMAS` spreads either side of the center in
    ``points`` samples, plus :data:`_PAD` more at each end.  The plane wave
    of wavenumber k shifts an axis' spectrum |k| sqrt(2) spread Gaussian
    widths off zero; the step shrinks by one plus the larger shift, so
    ``points`` is at least ``grid_points``.
    """
    spreads = 1.0 / np.sqrt(2.0 * np.array(state.gaussian.curvatures))
    refine = 1.0 + float(np.max(np.abs(state.wavenumbers) * math.sqrt(2.0) * spreads))
    needed = (grid_points - 1) * refine + 1.0
    if not needed <= _MAX_GRID_POINTS:
        raise ValueError(
            f"ground-state check needs {needed:.4g} points per axis ({grid_points} refined "
            f"{refine:.3g}x for the labels' plane waves), more than the limit {_MAX_GRID_POINTS}"
        )
    # the tolerance keeps rounding in ``refine`` from adding a sample
    points = math.ceil(needed - 1e-9)
    offsets = np.arange(-_PAD, points + _PAD) - 0.5 * (points - 1)
    steps = 2.0 * _BOX_SIGMAS * spreads / (points - 1)
    return steps[0] * offsets, steps[1] * offsets


@dataclass(frozen=True)
class GroundStateCheck:
    """Energy expectation and eigen-residual of the closed-form ground state.

    ``grid_points`` is the number of samples per principal axis actually
    used; ``factorization_defect`` is the largest deviation of the wave
    function from the product of its two axis lines on the grid's diagonal
    and anti-diagonal, relative to the peak amplitude.
    """

    energy: float
    expected: float
    residual: float
    grid_points: int
    factorization_defect: float


def ground_state_energy_check(
    alpha: float,
    spec: OscillatorSpec,
    z1: complex = 0.0,
    z2: complex = 0.0,
    grid_points: int = 161,
) -> GroundStateCheck:
    """Verify the mode-2 state is an eigenstate of the reconstructed Hamiltonian.

    Samples the state on the principal axes of its record
    (:func:`~cvsqueeze.states.gaussian_state`; :func:`_principal_axis_grid`),
    where it is exactly a product f(s) g(t) of a Gaussian times a plane wave
    in each, checked against :func:`~cvsqueeze.states.wave_function` on the
    grid's diagonal and anti-diagonal.  (Q, L, c) acts on f (x) g as U V^T
    with four columns (:func:`_factored_action`), so the energy expectation
    next to hbar (omega_1 + omega_2)/2 and the normalized eigen-residual
    ||(H - E0) psi|| / ||psi||, which must shrink under grid refinement,
    come from 1D inner products and two thin QR factorizations: time and
    memory are O(grid_points).  Each axis spans 8 position spreads either
    side of the center.  The state's geometry is the spec's:
    a_i = sqrt(M omega_i / hbar) (:meth:`OscillatorSpec.inverse_lengths`).
    """
    grid_points = check_index(grid_points, "grid_points", minimum=32)
    state = _mode2_state(alpha, spec, z1, z2)
    return _ground_state_check(state, hamiltonian_quadratic(alpha, spec, z1, z2), spec, grid_points)


def _mode2_state(alpha: float, spec: OscillatorSpec, z1: complex, z2: complex) -> GaussianState:
    """The record of the mode-2 state in the spec's geometry."""
    geom = OscillatorGeometry(*spec.inverse_lengths(), hbar=spec.hbar)
    return gaussian_state(2, alpha, geom, DisplacementLabels(z1, z2))


def _ground_state_check(
    state: GaussianState, ham: QuadraticHamiltonian, spec: OscillatorSpec, grid_points: int
) -> GroundStateCheck:
    """:func:`ground_state_energy_check` of an already-built state and (Q, L, c)."""
    frame, center = state.gaussian.frame, state.position_center
    s_axis, t_axis = _principal_axis_grid(state, grid_points)
    # on these axes the record is exactly f(s) g(t), g carrying the constants
    (kappa_s, kappa_t), (k_s, k_t) = state.gaussian.curvatures, state.wavenumbers
    f = np.exp(s_axis * (1j * k_s - 0.5 * kappa_s * s_axis))
    constant = 1j * (np.dot(state.wavenumbers, state.center) + state.phase)
    g = state.gaussian.norm_prefactor * np.exp(constant + t_axis * (1j * k_t - 0.5 * kappa_t * t_axis))
    u, v = _factored_action(ham, f, g, s_axis, t_axis, state.gaussian, center, spec.hbar)
    expected = 0.5 * spec.hbar * (spec.omega1 + spec.omega2)
    u[:, 0] -= expected * f
    core = slice(_PAD, -_PAD)
    f, g, u, v = f[core], g[core], u[core], v[core]
    # the closed form at x = center + frame (s, t) on the diagonal and the
    # anti-diagonal, against the product form
    s_core, t_core = np.tile(s_axis[core], 2), np.concatenate([t_axis[core], t_axis[core][::-1]])
    x1, x2 = center[:, None] + frame @ np.array([s_core, t_core])
    off_product = _state_wave(state, x1, x2) - np.tile(f, 2) * np.concatenate([g, g[::-1]])
    defect = float(np.max(np.abs(off_product))) / float(np.max(np.abs(f)) * np.max(np.abs(g)))
    # uniform cell areas cancel from both ratios
    norm_sq = float(np.vdot(f, f).real * np.vdot(g, g).real)
    energy = expected + float(np.sum((f.conj() @ u) * (g.conj() @ v)).real) / norm_sq
    # ||U V^T||_F = ||R_U R_V^T||_F; summing the Gram products instead
    # cancels to a floor near the square root of the unit roundoff
    product = np.linalg.qr(u, mode="r") @ np.linalg.qr(v, mode="r").T
    residual = float(np.linalg.norm(product)) / math.sqrt(norm_sq)
    return GroundStateCheck(
        energy=energy,
        expected=expected,
        residual=residual,
        grid_points=len(f),
        factorization_defect=defect,
    )
