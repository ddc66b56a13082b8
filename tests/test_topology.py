import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    CASE1,
    CASE2,
    enclosed_winding,
    grid_winding,
    near_drive_closing,
    random_nonboundary_params,
)
from floqlab.errors import GaplessPointError
from floqlab.model import Frame, ModelParams, brillouin_grid, quasienergy
from floqlab.topology import (
    InvariantPair,
    _cell_centers,
    gap_invariants,
    min_gap,
    phase_diagram,
    winding_number,
    winding_integral,
)


class TestWindingNumber:
    def test_case1_both_frames(self):
        assert winding_number(CASE1, Frame.SYM1) == 1
        assert winding_number(CASE1, Frame.SYM2) == 1

    def test_case2_frames(self):
        assert winding_number(CASE2, Frame.SYM1) == 1
        assert winding_number(CASE2, Frame.SYM2) == 5

    def test_weak_drive_region(self):
        # the weak-drive region is connected to the (pi/2, pi/2) phase
        # (no gap closing in between), so it carries the same windings;
        # the trapezoid-integral oracle below pins the same value
        params = ModelParams(0.1, 0.1)
        for frame in (Frame.SYM1, Frame.SYM2):
            w = winding_number(params, frame)
            assert w == 1
            assert winding_integral(params, frame) == pytest.approx(w, abs=1e-3)

    def test_matches_integral_oracle(self, rng, sym_frame):
        # centered differences converge as h^2; 8192 points keep the raw
        # integral well inside the 1e-3 agreement band even at winding 5
        for params in random_nonboundary_params(rng, 8):
            w = winding_number(params, sym_frame)
            integral = winding_integral(params, sym_frame, resolution=8192)
            assert integral == pytest.approx(w, abs=1e-3)

    def test_integer_quantization(self, rng):
        # raw accumulated winding deviates from an integer by < 1e-6
        for params in random_nonboundary_params(rng, 25):
            for frame in (Frame.SYM1, Frame.SYM2):
                total = grid_winding(params, frame, 4096)
                assert abs(total - round(total)) < 1e-6

    @settings(max_examples=500, deadline=None)
    @given(
        tx=st.floats(-40 * np.pi, 40 * np.pi),
        ty=st.floats(-40 * np.pi, 40 * np.pi),
    )
    def test_counts_the_enclosed_lattice_points(self, tx, ty):
        # Next to the closing lines tx = 0 and ty = 0 the gap at a merging
        # inversion (|ty| near b pi) is about |tx| * |cos k|, so the band
        # of gaps below TOL_GAP around the other lines widens as 1/t^2;
        # amplitudes of at least 1e-4 keep that band inside rel = 1e-9.
        assume(min(abs(tx), abs(ty)) >= 1e-4 and not near_drive_closing(tx, ty))
        params = ModelParams(tx, ty)
        windings = (winding_number(params, Frame.SYM1), winding_number(params, Frame.SYM2))
        assert windings == enclosed_winding(tx, ty)

    @pytest.mark.parametrize("frame", [Frame.SYM1, Frame.SYM2], ids=["sym1", "sym2"])
    @settings(max_examples=60, deadline=None)
    @given(
        tx=st.floats(0.0, 3 * np.pi, allow_nan=False),
        ty=st.floats(0.0, 3 * np.pi, allow_nan=False),
    )
    def test_matches_grid_winding_oracle(self, frame, tx, ty):
        # keep points whose gaps stay open on a fine grid; E(k) moves by at
        # most (tx + ty) * h / 2 < 0.01 between grid points, so both true
        # gaps exceed 0.04 and each oracle step turns the axis far below pi
        params = ModelParams(tx, ty)
        energies = quasienergy(brillouin_grid(8192), params)
        assume(energies.min() >= 0.05 and np.pi - energies.max() >= 0.05)
        assert winding_number(params, frame) == round(grid_winding(params, frame, 8192))
        nu1 = winding_number(params, Frame.SYM1)
        nu2 = winding_number(params, Frame.SYM2)
        assert (nu1 + nu2) % 2 == 0

    def test_gapless_grid_point_rejected(self):
        with pytest.raises(GaplessPointError):
            winding_number(ModelParams(np.pi, 0.5 * np.pi), Frame.SYM1)
        # ty = pi: the two band inversions of m = 1 merge at k = pi/2, E = pi
        with pytest.raises(GaplessPointError):
            winding_number(ModelParams(1.3, np.pi), Frame.SYM1)

    def test_cells_next_to_zero_gap_closing(self):
        # default-grid cells beside the closing curve (pi/tx)^2 + (pi/ty)^2 = 1,
        # where a grid winding could not resolve the field
        centers = _cell_centers(0.0, 3 * np.pi, 60)
        for tx, ty in ((centers[21], centers[54]), (centers[54], centers[21])):
            params = ModelParams(tx, ty)
            assert winding_number(params, Frame.SYM1) == 3
            assert winding_number(params, Frame.SYM2) == 3
            assert gap_invariants(params) == InvariantPair(3, 0)


class TestGapInvariants:
    def test_case1(self):
        assert gap_invariants(CASE1) == InvariantPair(1, 0)

    def test_case2(self):
        assert gap_invariants(CASE2) == InvariantPair(3, -2)

    def test_identity_drive_is_gapless(self):
        # tx = ty = 0 gives the identity operator: E == 0 everywhere, the
        # invariants are undefined (phase-boundary corner), so this errors
        with pytest.raises(GaplessPointError):
            gap_invariants(ModelParams(0.0, 0.0))

    def test_frame_windings_share_parity(self, rng):
        for params in random_nonboundary_params(rng, 10):
            nu1 = winding_number(params, Frame.SYM1)
            nu2 = winding_number(params, Frame.SYM2)
            assert (nu1 + nu2) % 2 == 0


def _dense_gap_minima(params, points=2**22, chunk=2**18):
    """Distances of E(k) to 0 and to pi, minimized over a dense k grid."""
    ks = brillouin_grid(points)
    lo, hi = np.pi, 0.0
    for start in range(0, points, chunk):
        energies = quasienergy(ks[start:start + chunk], params)
        lo, hi = min(lo, energies.min()), max(hi, energies.max())
    return float(lo), float(np.pi - hi)


class TestMinGap:
    def test_pi_gap_closes_on_tx_pi_line(self):
        assert min_gap(ModelParams(np.pi, 0.5 * np.pi), "pi") == pytest.approx(0.0, abs=1e-12)

    def test_zero_gap_closed_at_origin(self):
        assert min_gap(ModelParams(0.0, 0.0), 0) == pytest.approx(0.0, abs=1e-15)

    def test_case1_both_gaps_open(self):
        assert min_gap(CASE1, 0) > 0.5
        assert min_gap(CASE1, "pi") > 0.5

    def test_matches_direct_scan(self):
        # the refinement goes below the 2048-grid minimum by design, so the
        # reference is a 2^22-point scan; (1.325pi, 1.525pi) has a 0-gap of
        # 9.03e-4 between grid points
        for params in (CASE2, ModelParams(1.325 * np.pi, 1.525 * np.pi)):
            gap0, gap_pi = _dense_gap_minima(params)
            assert min_gap(params, 0) == pytest.approx(gap0)
            assert min_gap(params, "pi") == pytest.approx(gap_pi)

    @pytest.mark.parametrize(
        "tx,ty", [(1.075 * np.pi, 2.725 * np.pi), (2.725 * np.pi, 1.075 * np.pi)]
    )
    def test_finds_closing_between_grid_points(self, tx, ty):
        # (pi/tx)^2 + (pi/ty)^2 is close to 1: the 0 gap nearly closes
        params = ModelParams(tx, ty)
        gap0, _ = _dense_gap_minima(params)
        assert gap0 < 4.1e-6
        assert min_gap(params, 0) <= gap0

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.integers(1, 2),
        b=st.integers(1, 2),
        u=st.floats(0.0, 1.0),
    )
    def test_closes_on_the_drive_closing_curves(self, a, b, u):
        # cos E = cos(tx cos k) cos(ty sin k) reaches +-1 only where
        # tx cos k = a pi and ty sin k = b pi, i.e. on
        # (a pi / tx)^2 + (b pi / ty)^2 = 1; the 0 gap closes there when
        # a + b is even and the pi gap when it is odd.  phi ranges over the
        # part of the curve with tx and ty in [0, 3pi].
        lo, hi = np.arcsin(b / 3.0), np.arccos(a / 3.0)
        phi = lo + u * (hi - lo)
        params = ModelParams(a * np.pi / np.cos(phi), b * np.pi / np.sin(phi))
        assert min_gap(params, "pi" if (a + b) % 2 else 0) <= 1e-6


class TestPhaseDiagram:
    def test_single_cell_case1(self):
        pd = phase_diagram((CASE1.tx, CASE1.tx), (CASE1.ty, CASE1.ty), cells=1,
                           resolution=512)
        cell = pd.cells[0]
        assert not cell.boundary
        assert cell.invariants == InvariantPair(1, 0)

    def test_single_cell_case2(self):
        pd = phase_diagram((CASE2.tx, CASE2.tx), (CASE2.ty, CASE2.ty), cells=1,
                           resolution=512)
        assert pd.cells[0].invariants == InvariantPair(3, -2)

    def test_cell_on_pi_gap_line_is_boundary(self):
        pd = phase_diagram((np.pi, np.pi), (0.3, 0.3), cells=1, resolution=512)
        cell = pd.cells[0]
        assert cell.boundary
        assert cell.invariants is None
        assert cell.min_gap_pi < cell.min_gap0

    def test_grid_covers_both_paper_cells(self):
        pd = phase_diagram((0.2, 3 * np.pi - 0.2), (0.2, 3 * np.pi - 0.2),
                           cells=10, resolution=512)
        c1, c2 = (
            min(pd.cells, key=lambda c: (c.tx - p.tx) ** 2 + (c.ty - p.ty) ** 2)
            for p in (CASE1, CASE2)
        )
        assert c1.invariants == InvariantPair(1, 0)
        assert c2.invariants == InvariantPair(3, -2)

    def test_invariant_changes_cross_gap_closings(self):
        # crossing tx = pi at small ty flips nu_pi and leaves nu0 alone;
        # the pi gap (not the zero gap) must close in between
        left = gap_invariants(ModelParams(0.8 * np.pi, 0.3))
        right = gap_invariants(ModelParams(1.2 * np.pi, 0.3))
        assert left.nu0 == right.nu0
        assert left.nu_pi != right.nu_pi
        gaps_pi = [
            min_gap(ModelParams(tx, 0.3), "pi", 512)
            for tx in np.linspace(0.8 * np.pi, 1.2 * np.pi, 33)
        ]
        gaps_0 = [
            min_gap(ModelParams(tx, 0.3), 0, 512)
            for tx in np.linspace(0.8 * np.pi, 1.2 * np.pi, 33)
        ]
        assert min(gaps_pi) < 0.05
        assert min(gaps_0) > 0.2
