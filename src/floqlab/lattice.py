"""Real-space lattice: open/periodic-boundary one-period operators, their
eigenphase spectra, and edge-mode counting for the bulk-edge check.

Unit cell j carries two levels; cell-to-cell hopping blocks are the inverse
Fourier transforms of tx*cos(k)*sx and ty*sin(k)*sy:

    cos-step:  c_{j+1}^dag (tx/2 sx)   c_j + h.c.
    sin-step:  c_{j+1}^dag (i ty/2 sy) c_j + h.c.

so Bloch-diagonalizing the periodic matrices reproduces the momentum-space
step Hamiltonians exactly.
"""

import functools
import operator
from dataclasses import dataclass

import numpy as np

from . import spinalg
from .errors import BulkGapError
from .model import Frame, ModelParams
from .topology import band_gaps

E_TOL = 1e-3        # eigenphase distance to 0 / pi counted as a gap mode
WEIGHT_TOL = 0.5    # minimum probability mass on the edge cells
MIN_CELLS = 4       # shortest chain with two edge cells at each end


def default_edge_cells(cells: int) -> int:
    return max(2, cells // 10)


def build_real_space_step(
    params: ModelParams, axis: str, cells: int, boundary: str = "open"
) -> np.ndarray:
    """Hermitian step Hamiltonian about `axis` ("x" or "y") on `cells` unit
    cells (2*cells levels)."""
    if cells < MIN_CELLS:
        raise ValueError(f"need at least {MIN_CELLS} unit cells")
    if boundary not in ("open", "periodic"):
        raise ValueError("boundary must be 'open' or 'periodic'")
    if axis == "x":
        block = (params.tx / 2.0) * spinalg.SIGMA_X
    elif axis == "y":
        block = (1j * params.ty / 2.0) * spinalg.SIGMA_Y
    else:
        raise ValueError("axis must be 'x' or 'y'")
    # h[cell, level, cell, level]; the periodic chain adds the bond L-1 -> 0
    h = np.zeros((cells, 2, cells, 2), dtype=complex)
    j = np.arange(cells if boundary == "periodic" else cells - 1)
    h[(j + 1) % cells, :, j] = block  # c_{j+1}^dag block c_j
    h[j, :, (j + 1) % cells] = block.conj().T
    return h.reshape(2 * cells, 2 * cells)


def _unitary_exp(h: np.ndarray, factor: float) -> np.ndarray:
    """exp(-i*factor*h) for Hermitian h via eigendecomposition (exactly
    unitary up to roundoff, which is what the 1e-9 budget needs)."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * factor * w)) @ v.conj().T


def real_space_floquet(
    params: ModelParams, frame: Frame, cells: int, boundary: str = "open"
) -> np.ndarray:
    """One-period evolution operator on the lattice in the given frame."""
    exps = {
        (axis, share): _unitary_exp(
            build_real_space_step(params, axis, cells, boundary), share
        )
        for axis, share in set(frame.steps)
    }
    return functools.reduce(
        operator.matmul, [exps[step] for step in reversed(frame.steps)]
    )


@dataclass
class LatticeSpectrum:
    """Eigenphases in (-pi, pi] and per-state probability mass on the outer
    edge cells of each end."""

    phases: np.ndarray
    edge_weight_left: np.ndarray
    edge_weight_right: np.ndarray
    edge_cells: int


def diagonalize_unitary(u: np.ndarray) -> tuple:
    """Eigenphases and orthonormal eigenvectors of a unitary matrix.

    Diagonalizes the Hermitian part (u + u^dag)/2 and resolves each
    degenerate cos-cluster with (u - u^dag)/(2i) restricted to it; both
    commute with u and share its eigenvectors.
    """
    cos_part = (u + u.conj().T) / 2.0
    sin_part = (u - u.conj().T) / 2.0j
    w, v = np.linalg.eigh(cos_part)
    dim = len(w)
    phases = np.empty(dim)
    i = 0
    while i < dim:
        j = i
        while j + 1 < dim and w[j + 1] - w[j] < 1e-8:
            j += 1
        block = v[:, i : j + 1]
        s, r = np.linalg.eigh(block.conj().T @ sin_part @ block)
        v[:, i : j + 1] = block @ r
        phases[i : j + 1] = np.arctan2(s, w[i : j + 1])
        i = j + 1
    order = np.argsort(phases)
    return phases[order], v[:, order]


def lattice_spectrum(
    params: ModelParams,
    frame: Frame,
    cells: int,
    boundary: str = "open",
    edge_cells: int | None = None,
) -> LatticeSpectrum:
    # the default fits every chain of MIN_CELLS or more cells, the shortest
    # one real_space_floquet builds; check a given value before that build
    if edge_cells is None:
        edge_cells = default_edge_cells(cells)
    elif not 1 <= edge_cells <= cells // 2:
        raise ValueError(f"edge_cells must lie in 1..{cells // 2}")
    u = real_space_floquet(params, frame, cells, boundary)
    phases, states = diagonalize_unitary(u)
    density = np.abs(states) ** 2
    left = density[: 2 * edge_cells, :].sum(axis=0)
    right = density[-2 * edge_cells :, :].sum(axis=0)
    return LatticeSpectrum(
        phases=phases,
        edge_weight_left=left,
        edge_weight_right=right,
        edge_cells=edge_cells,
    )


def count_edge_modes(
    params: ModelParams,
    frame: Frame,
    cells: int,
    e_tol: float = E_TOL,
    edge_cells: int | None = None,
    weight_tol: float = WEIGHT_TOL,
) -> tuple:
    """(n_zero, n_pi, spectrum): the 0- and pi-gap edge-mode counts of the
    open-boundary operator, and the LatticeSpectrum they were counted on.

    Before building the lattice, requires both bulk gaps of one
    topology.band_gaps pass at its default resolution (a grid scan refined by
    Newton steps) to exceed 2*e_tol, so the counting windows cannot pick up
    bulk states.  weight_tol bounds a probability, so it must lie strictly
    between 0 and 1.
    """
    if not 0 < weight_tol < 1:
        raise ValueError("weight_tol must lie strictly between 0 and 1")
    if min(band_gaps(params)) <= 2.0 * e_tol:
        raise BulkGapError("bulk gap too small for edge-mode counting")
    spectrum = lattice_spectrum(params, frame, cells, "open", edge_cells)
    localized = (spectrum.edge_weight_left + spectrum.edge_weight_right) > weight_tol
    near_zero = np.abs(spectrum.phases) < e_tol
    near_pi = np.abs(np.abs(spectrum.phases) - np.pi) < e_tol
    n_zero = int(np.count_nonzero(near_zero & localized))
    n_pi = int(np.count_nonzero(near_pi & localized))
    return n_zero, n_pi, spectrum
