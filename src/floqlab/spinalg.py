"""Exact two-level (SU(2)) algebra.

Everything here works on plain complex ndarrays.  A "unitary" is an array
of shape (..., 2, 2); leading axes are broadcast, so the same functions
serve single matrices and stacked momentum grids.
"""

import numpy as np

from .errors import DegenerateAxisError

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)


def su2_exp(axis, angle) -> np.ndarray:
    """exp(-i * angle * (n.sigma)) for the unit vector n along `axis`.

    `axis` has shape (..., 3), `angle` broadcasts against its leading axes.
    A zero-norm axis is only admissible together with a zero angle.
    """
    axis = np.asarray(axis, dtype=float)
    angle = np.asarray(angle, dtype=float)
    norm = np.linalg.norm(axis, axis=-1)
    degenerate = (norm == 0.0) & (angle != 0.0)
    if np.any(degenerate):
        raise DegenerateAxisError("degenerate axis: zero-norm axis with nonzero angle")
    safe = np.where(norm == 0.0, 1.0, norm)
    n = axis / safe[..., None]
    ndots = (
        n[..., 0, None, None] * SIGMA_X
        + n[..., 1, None, None] * SIGMA_Y
        + n[..., 2, None, None] * SIGMA_Z
    )
    c = np.cos(angle)[..., None, None]
    s = np.sin(angle)[..., None, None]
    return c * IDENTITY - 1j * s * ndots
