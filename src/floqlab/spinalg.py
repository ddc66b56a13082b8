"""Exact two-level (SU(2)) algebra.

Everything here works on plain complex ndarrays.  A "unitary" is an array
of shape (..., 2, 2); leading axes are broadcast, so the same functions
serve single matrices and stacked momentum grids.
"""

import numpy as np

from .errors import DegenerateAxisError

# Default tolerance of is_unitary.
UNITARY_CHECK_TOL = 1e-9

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)

PAULI = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}


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


def is_unitary(u, tol: float = UNITARY_CHECK_TOL) -> bool:
    u = np.asarray(u, dtype=complex)
    prod = u @ np.conj(np.swapaxes(u, -1, -2))
    return bool(np.max(np.abs(prod - IDENTITY)) <= tol)


def expectation(state, axis: str) -> float:
    """<state| sigma_axis |state> for a normalized two-component state."""
    state = np.asarray(state, dtype=complex)
    sigma = PAULI[axis]
    val = np.real(np.einsum("...i,ij,...j->...", state.conj(), sigma, state))
    return float(val) if val.ndim == 0 else val


def spin_state(amplitudes) -> np.ndarray:
    """Normalize a two-component amplitude vector."""
    v = np.asarray(amplitudes, dtype=complex)
    return v / np.linalg.norm(v)
