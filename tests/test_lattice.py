import numpy as np
import pytest

from conftest import CASE1, CASE2, random_nonboundary_params
from floqlab import lattice
from floqlab.errors import BulkGapError
from floqlab.lattice import (
    build_real_space_step,
    count_edge_modes,
    diagonalize_unitary,
    lattice_spectrum,
    real_space_floquet,
)
from floqlab.model import Frame, ModelParams, quasienergy, step_angles
from floqlab.spinalg import SIGMA_X, SIGMA_Y
from floqlab.topology import gap_invariants, min_gap


class TestBuildStep:
    def test_zero_drive_is_zero_matrix(self):
        params = ModelParams(0.0, 0.0)
        for axis in ("y", "x"):
            h = build_real_space_step(params, axis, 8)
            assert np.count_nonzero(h) == 0

    def test_open_matrix_hermitian_block_tridiagonal(self):
        h = build_real_space_step(CASE2, "y", 12, "open")
        assert np.max(np.abs(h - h.conj().T)) < 1e-15
        for i in range(12):
            for j in range(12):
                if abs(i - j) > 1:
                    block = h[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                    assert np.count_nonzero(block) == 0

    def test_periodic_bloch_transform_reproduces_step_angles(self):
        cells = 16
        h1 = build_real_space_step(CASE2, "y", cells, "periodic")
        h2 = build_real_space_step(CASE2, "x", cells, "periodic")
        for j in range(cells):
            k = 2.0 * np.pi * j / cells
            phases = np.exp(1j * k * np.arange(cells)) / np.sqrt(cells)
            wave = np.kron(phases[:, None], np.eye(2))
            thx, thy = step_angles(k, CASE2)
            reduced1 = wave.conj().T @ h1 @ wave
            reduced2 = wave.conj().T @ h2 @ wave
            assert np.allclose(reduced1, thy * SIGMA_Y, atol=1e-12)
            assert np.allclose(reduced2, thx * SIGMA_X, atol=1e-12)

    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    def test_matches_per_cell_assembly(self, boundary):
        params, cells = ModelParams(-2.3, 1.7), 6
        blocks = {"x": (params.tx / 2) * SIGMA_X, "y": (1j * params.ty / 2) * SIGMA_Y}
        for axis, block in blocks.items():
            ref = np.zeros((2 * cells, 2 * cells), dtype=complex)
            for j in range(cells if boundary == "periodic" else cells - 1):
                a, b = 2 * ((j + 1) % cells), 2 * j
                ref[a : a + 2, b : b + 2] = block
                ref[b : b + 2, a : a + 2] = block.conj().T
            h = build_real_space_step(params, axis, cells, boundary)
            assert np.array_equal(h, ref)

    def test_too_few_cells_rejected(self):
        with pytest.raises(ValueError):
            build_real_space_step(CASE1, "y", 3)


class TestRealSpaceFloquet:
    def test_zero_drive_is_identity(self):
        u = real_space_floquet(ModelParams(0, 0), Frame.SYM1, 8)
        assert np.allclose(u, np.eye(16), atol=1e-15)

    def test_unitary(self, sym_frame):
        u = real_space_floquet(CASE2, sym_frame, 20)
        assert np.max(np.abs(u @ u.conj().T - np.eye(40))) < 1e-9

    @pytest.mark.parametrize("frame", list(Frame), ids=lambda f: f.value)
    def test_periodic_eigenphases_match_momentum_space(self, frame):
        cells = 16
        u = real_space_floquet(CASE1, frame, cells, "periodic")
        phases = np.sort(diagonalize_unitary(u)[0])
        expected = np.sort(
            np.concatenate(
                [
                    [s * quasienergy(2.0 * np.pi * j / cells, CASE1) for j in range(cells)]
                    for s in (+1, -1)
                ]
            )
        )
        assert np.allclose(phases, expected, atol=1e-8)

    def test_open_spectrum_chiral_symmetric(self, sym_frame):
        spectrum = lattice_spectrum(CASE2, sym_frame, 30)
        phases = np.sort(spectrum.phases)
        assert np.allclose(phases, -phases[::-1], atol=1e-9)

    def test_eigenvectors_orthonormal(self):
        spectrum = lattice_spectrum(CASE1, Frame.SYM1, 24)
        gram = spectrum.states.conj().T @ spectrum.states
        assert np.max(np.abs(gram - np.eye(48))) < 1e-9

    @pytest.mark.parametrize("edge_cells", [0, -1, 13])
    def test_edge_cells_outside_half_chain_rejected(self, edge_cells, monkeypatch):
        # rejected before the 2L x 2L operator is built
        monkeypatch.setattr(lattice, "real_space_floquet", None)
        with pytest.raises(ValueError, match="edge_cells"):
            lattice_spectrum(CASE1, Frame.SYM1, 24, edge_cells=edge_cells)

    def test_open_case1_gapped_except_edge_modes(self):
        spectrum = lattice_spectrum(CASE1, Frame.SYM1, 40)
        interior = np.abs(spectrum.phases) > 1e-6
        assert np.min(np.abs(spectrum.phases[interior])) > 0.2


class TestDiagonalizeUnitary:
    def test_random_unitary_roundtrip(self, rng):
        dim = 30
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        q, _ = np.linalg.qr(z)
        phases, vecs = diagonalize_unitary(q)
        rebuilt = (vecs * np.exp(1j * phases)) @ vecs.conj().T
        assert np.allclose(rebuilt, q, atol=1e-9)


class TestEdgeModes:
    def test_case1_counts(self):
        assert count_edge_modes(CASE1, Frame.SYM1, 40) == (2, 0)

    def test_case2_counts(self):
        assert count_edge_modes(CASE2, Frame.SYM1, 60) == (6, 4)

    def test_counts_stable_under_growth(self):
        assert count_edge_modes(CASE1, Frame.SYM1, 50) == (2, 0)
        assert count_edge_modes(CASE2, Frame.SYM1, 70) == (6, 4)

    def test_weak_drive_counts(self):
        # the weak-drive corner region shares the (nu0, nu_pi) = (1, 0)
        # phase of (pi/2, pi/2): one zero mode per edge (diagonalization
        # oracle; the drive has no invariant-free region anywhere)
        assert count_edge_modes(ModelParams(0.1, 0.1), Frame.SYM1, 40) == (2, 0)
        assert count_edge_modes(ModelParams(0.1, 0.1), Frame.SYM1, 50) == (2, 0)

    def test_counts_match_invariants(self, rng):
        # L must exceed twice the localization length, which grows with the
        # drive amplitude over the gap; 160 cells covers every well-gapped
        # sample drawn here
        params_list = [CASE1, CASE2] + random_nonboundary_params(
            rng, 8, gap_floor=0.4
        )
        for params in params_list:
            inv = gap_invariants(params)
            n_zero, n_pi = count_edge_modes(params, Frame.SYM1, 160)
            assert (n_zero, n_pi) == (2 * abs(inv.nu0), 2 * abs(inv.nu_pi))

    @pytest.mark.parametrize("weight_tol", [0.0, 1.0, 2.0, np.nan])
    def test_weight_tol_outside_unit_interval_rejected(self, weight_tol):
        # a left-plus-right edge weight is a probability, at most 1
        with pytest.raises(ValueError, match="weight_tol"):
            count_edge_modes(CASE2, Frame.SYM1, 60, weight_tol=weight_tol)

    def test_small_bulk_gap_rejected(self):
        with pytest.raises(BulkGapError, match="bulk gap too small"):
            count_edge_modes(ModelParams(np.pi, 0.5 * np.pi), Frame.SYM1, 20)

    def test_frame_choice_does_not_change_counts(self):
        assert count_edge_modes(CASE2, Frame.SYM2, 60) == (6, 4)
        assert count_edge_modes(CASE2, Frame.PLAIN, 60) == (6, 4)
