"""The inverse Segal-Bargmann transform as one tensor sum over all
order^2 x order^2 node pairs, ``psi_b`` sampled on each pair: the tests'
reference for the per-mode moments of ``cvsqueeze.states``."""

import math

import numpy as np

from cvsqueeze.quadrature import _plane_gauss_hermite
from cvsqueeze.states import _sb_mode_exponent

# first-mode nodes per block of sampled pairs: at order 50 the whole grid of
# pairs would hold 100 MB, a block of 128 rows 5 MB
BLOCK = 128


def grid_transform(psi_b, x1, x2, geom, order):
    """Transform of ``psi_b`` at the flat points x1, x2 by the node-pair grid."""
    a, b = geom.a, geom.b
    w, weight = _plane_gauss_hermite(order, 1.5, 0.5)
    r1 = weight * np.exp(_sb_mode_exponent(a * np.asarray(x1)[:, None], w))
    r2 = weight * np.exp(_sb_mode_exponent(b * np.asarray(x2)[:, None], w))
    total = 0.0
    for start in range(0, len(w), BLOCK):
        rows = slice(start, start + BLOCK)
        grid = np.asarray(psi_b(w[rows, None], w[None, :]), dtype=complex)
        total = total + ((r1[:, rows] @ grid) * r2).sum(-1)
    return math.sqrt(a * b / math.pi) * total / np.pi**2
