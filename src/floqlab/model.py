"""Momentum-space model: step angles, one-period evolution operators in the
three time frames, quasienergy, and the planar Bloch-axis field.

The drive alternates an x-rotation of angle theta_x = tx*cos(k) and a
y-rotation of angle theta_y = ty*sin(k) per period (rightmost factor acts
first):

    PLAIN: exp(-i theta_x sx) exp(-i theta_y sy)
    SYM1:  exp(-i theta_x/2 sx) exp(-i theta_y sy) exp(-i theta_x/2 sx)
    SYM2:  exp(-i theta_y/2 sy) exp(-i theta_x sx) exp(-i theta_y/2 sy)

SYM1 and SYM2 are the two chiral-symmetric starting points of the same
period; their axis-field windings give the two gap invariants.  SYM1 is
the frame whose axis-field y component vanishes only where sin(theta_y)
does, which is what the y-direction quench protocol probes.  Frame.steps
holds each product as data, and every layer that builds a frame reads it.
"""

import functools
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import spinalg
from .errors import GaplessPointError

# Quasienergy distance to 0 or pi below which the axis is declared undefined.
TOL_GAP = 1e-9

_UNIT = {"x": np.array([1.0, 0.0, 0.0]), "y": np.array([0.0, 1.0, 0.0])}


class Frame(Enum):
    PLAIN = "plain"
    SYM1 = "sym1"
    SYM2 = "sym2"

    @property
    def steps(self) -> tuple:
        """One period's rotations, first applied first, as (axis, share)
        pairs: the step rotates about `axis` by share * theta_axis."""
        return {
            "plain": (("y", 1), ("x", 1)),
            "sym1": (("x", 0.5), ("y", 1), ("x", 0.5)),
            "sym2": (("y", 0.5), ("x", 1), ("y", 0.5)),
        }[self.value]

    @property
    def quench_axis(self) -> int:
        """Index (0 = x, 1 = y) of the axis this frame's quench probes."""
        if self is Frame.PLAIN:
            raise ValueError("the plain frame has no quench axis; use a symmetric frame")
        return 1 if self is Frame.SYM1 else 0


@dataclass(frozen=True)
class ModelParams:
    """Drive angle amplitudes; the two axes of the phase diagram."""

    tx: float
    ty: float

    def __post_init__(self):
        if not (np.isfinite(self.tx) and np.isfinite(self.ty)):
            raise ValueError("drive amplitudes must be finite")


def step_angles(k, params: ModelParams):
    """Rotation angles (theta_x, theta_y) = (tx*cos k, ty*sin k)."""
    k = np.asarray(k, dtype=float)
    return params.tx * np.cos(k), params.ty * np.sin(k)


def floquet_operator(k, params: ModelParams, frame: Frame) -> np.ndarray:
    """One-period evolution operator at momentum k (broadcasts over k)."""
    theta = dict(zip("xy", step_angles(k, params)))
    rotations = [
        spinalg.su2_exp(_UNIT[axis], share * theta[axis])
        for axis, share in reversed(frame.steps)
    ]
    return functools.reduce(operator.matmul, rotations)


def quasienergy(k, params: ModelParams):
    """Positive-branch quasienergy E in [0, pi], cos E = cos theta_x cos theta_y.

    Taken as atan2(sin E, cos E) with sin E = hypot(sin theta_x cos theta_y,
    sin theta_y), so neither argument cancels near E = 0 or E = pi, where
    arccos(cos E) would lose digits.
    """
    thx, thy = step_angles(k, params)
    cos_y = np.cos(thy)
    return np.arctan2(np.hypot(np.sin(thx) * cos_y, np.sin(thy)), np.cos(thx) * cos_y)


def axis_field(k, params: ModelParams, frame: Frame):
    """Quasienergy and unit Bloch axis: (E array, n array of shape (..., 3)),
    with n on the full branch E in [0, pi].

    The frame operators are SU(2) products, so their raw Pauli moments
    i*tr(U sigma)/2 are already real and equal sin(E)*n on the full branch;
    fixing the global phase so that tr(U)/2 >= 0 would instead mirror the
    axis wherever cos E < 0, which makes the field discontinuous in k.
    """
    frame.quench_axis  # raises for the plain frame
    k = np.asarray(k, dtype=float)
    energy = quasienergy(k, params)
    sin_e = np.sin(energy)
    gapless = (energy < TOL_GAP) | (np.pi - energy < TOL_GAP)
    if np.any(gapless):
        raise GaplessPointError(
            "gapless point: quasienergy within tol_gap of 0 or pi"
        )
    u = floquet_operator(k, params, frame)
    n = np.stack(
        [
            np.real(1j * np.trace(u @ sigma, axis1=-2, axis2=-1)) / (2.0 * sin_e)
            for sigma in (spinalg.SIGMA_X, spinalg.SIGMA_Y, spinalg.SIGMA_Z)
        ],
        axis=-1,
    )
    return energy, n


def brillouin_grid(resolution: int) -> np.ndarray:
    """Uniform momentum grid on (-pi, pi], endpoint excluded (periodic)."""
    return -np.pi + 2.0 * np.pi * np.arange(resolution) / resolution
