import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    CASE1,
    CASE2,
    closing_distance,
    enclosed_winding,
    golden_min_gap,
    grid_winding,
    near_drive_closing,
    numpy_crossing_count,
    random_nonboundary_params,
    single_gap_newton,
    single_gap_newton_states,
)
from floqlab import topology
from floqlab.errors import GaplessPointError, ParityError
from floqlab.model import (
    Frame,
    ModelParams,
    angle_quasienergy,
    brillouin_grid,
    grid_trig,
    quasienergy,
)
from floqlab.topology import (
    BOUNDARY_TOL,
    DEFAULT_RESOLUTION,
    NEWTON_STEPS,
    InvariantPair,
    _cell_centers,
    _crossing_count,
    band_gaps,
    combine_windings,
    gap_invariants,
    local_minima,
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

    @given(nu1=st.integers(-60, 60), nu2=st.integers(-60, 60))
    def test_combine_windings_halves_or_refuses(self, nu1, nu2):
        if (nu1 + nu2) % 2:
            with pytest.raises(ParityError, match="parity violation"):
                combine_windings(nu1, nu2)
        else:
            pair = combine_windings(nu1, nu2)
            assert (pair.nu0 + pair.nu_pi, pair.nu0 - pair.nu_pi) == (nu1, nu2)


class TestGapBound:
    # Both gaps are 1-Lipschitz in (tx, ty) and vanish on their closing
    # curves, so neither can exceed the distance to the nearest one.  A
    # band_gaps that overshoots a minimum by more than a few percent fails.
    @staticmethod
    def assert_within_bound(gap, distance):
        assert np.all(gap <= distance * (1.0 + 1e-9) + 1e-12)

    def test_every_cell_of_the_default_diagram(self):
        cells = phase_diagram().cells
        tx, ty = np.array([[c.tx, c.ty] for c in cells]).T
        gaps = np.array([[c.min_gap0, c.min_gap_pi] for c in cells]).T
        for parity, gap in enumerate(gaps):
            distance = closing_distance(tx, ty, parity)
            self.assert_within_bound(gap, distance)
            # so a cell this close to a closing must be a boundary cell
            assert all(c.boundary for c in np.array(cells)[distance < BOUNDARY_TOL])

    @settings(max_examples=200, deadline=None)
    @given(tx=st.floats(-40 * np.pi, 40 * np.pi), ty=st.floats(-40 * np.pi, 40 * np.pi))
    def test_sampled_drives_of_both_signs(self, tx, ty):
        for parity, gap in enumerate(band_gaps(ModelParams(tx, ty))):
            self.assert_within_bound(gap, closing_distance(tx, ty, parity))


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

    @settings(max_examples=200, deadline=None)
    @given(
        tx=st.floats(-3 * np.pi, 3 * np.pi),
        ty=st.floats(-3 * np.pi, 3 * np.pi),
        which=st.sampled_from([0, "pi"]),
    )
    def test_matches_golden_section_oracle(self, tx, ty, which):
        params = ModelParams(tx, ty)
        assert min_gap(params, which) == pytest.approx(
            golden_min_gap(params, which), abs=1e-12
        )

    @settings(max_examples=200, deadline=None)
    @given(
        tx=st.floats(-3 * np.pi, 3 * np.pi),
        ty=st.floats(-3 * np.pi, 3 * np.pi),
        resolution=st.sampled_from([512, 2048]),
    )
    def test_both_gaps_equal_the_single_gap_passes(self, tx, ty, resolution):
        # one pass over both gaps' brackets is elementwise, so it must give
        # each gap bit for bit as a pass over that gap's brackets alone
        params = ModelParams(tx, ty)
        assert band_gaps(params, resolution) == (
            single_gap_newton(params, 0, resolution),
            single_gap_newton(params, "pi", resolution),
        )

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("swap", [False, True], ids=["tx", "ty"])
    def test_merged_closings_stay_near_the_oracle(self, m, swap):
        # near |tx| = m pi with |ty| small two closings of the gap of
        # parity m merge (g'' = 0 there), and Newton converges only
        # linearly; (3pi + 3.2e-8, 1e-6) reads 2.5e-8 where the golden
        # oracle reads 8.2e-11.  The true gap is at most |tx| - m pi.
        which = 1 if m % 2 else 0
        for sign, delta, small in itertools.product(
            (1.0, -1.0),
            (1e-12, 1e-10, 1e-8, 3.2e-8, 1e-7, 3e-7),
            (0.0, 1e-10, -1e-8, 1e-6, -1e-4, 1e-3, -1e-2, 1e-2),
        ):
            tx, ty = sign * (m * np.pi + delta), small
            params = ModelParams(*((ty, tx) if swap else (tx, ty)))
            gap = band_gaps(params)[which]
            assert gap < 1e-6
            assert gap == pytest.approx(
                golden_min_gap(params, (0, "pi")[which]), abs=5e-8
            )

    def test_one_pass_per_phase_diagram_cell(self, monkeypatch):
        # a cell scans the grid once for both gaps and evaluates the refined
        # momenta of both in one call; two min_gap passes would make four
        calls = []

        def counting(thx, thy):
            calls.append(np.size(thx))
            return angle_quasienergy(thx, thy)

        monkeypatch.setattr(topology, "angle_quasienergy", counting)
        phase_diagram((CASE2.tx, CASE2.tx), (CASE2.ty, CASE2.ty), cells=1)
        assert len(calls) == 2
        assert calls[0] == DEFAULT_RESOLUTION

    @pytest.mark.parametrize("which", [0, "pi"])
    def test_two_quasienergy_calls_per_gap(self, monkeypatch, which):
        # the grid and the refined momenta; a refinement loop that evaluated
        # E once per step would show here
        calls = []

        def counting(thx, thy):
            calls.append(np.size(thx))
            return angle_quasienergy(thx, thy)

        monkeypatch.setattr(topology, "angle_quasienergy", counting)
        for params in (CASE1, CASE2, ModelParams(1.075 * np.pi, 2.725 * np.pi)):
            calls.clear()
            min_gap(params, which)
            assert len(calls) == 2
            assert calls[0] == DEFAULT_RESOLUTION

    @pytest.mark.parametrize("resolution", [1, 7, 512, DEFAULT_RESOLUTION])
    def test_grid_trig_is_the_fresh_trig_read_only(self, resolution):
        ks = brillouin_grid(resolution)
        cached = grid_trig(resolution)
        for got, want in zip(cached, (ks, np.cos(ks), np.sin(ks))):
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[0] = 0.0

    def test_a_diagram_fills_the_grid_cache_once(self):
        grid_trig.cache_clear()
        phase_diagram((0.5, 2.5), (0.5, 2.5), cells=3, resolution=256)
        info = grid_trig.cache_info()
        assert (info.misses, info.hits) == (1, 8)

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(
            st.sampled_from([-1.0, 0.0, 0.5, 1.0, np.nan]), min_size=1, max_size=64
        )
    )
    def test_local_minima_is_the_rolled_test(self, values):
        v = np.array(values)
        rolled = (v <= np.roll(v, 1)) & (v <= np.roll(v, -1))
        assert np.array_equal(local_minima(v), rolled)


def _counted_band_gaps(params, resolution=DEFAULT_RESOLUTION):
    """band_gaps of params, the number of Newton steps it took (calls of
    _cos_energy_slopes), and the bytes of the refined momenta it evaluates
    (the k it passes to step_angles)."""
    calls, refined = [], []
    slopes, angles = topology._cos_energy_slopes, topology.step_angles

    def counting(k, p):
        calls.append(k.size)
        return slopes(k, p)

    def recording(k, p):
        refined.append(k.tobytes())
        return angles(k, p)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(topology, "_cos_energy_slopes", counting)
        patch.setattr(topology, "step_angles", recording)
        gaps = band_gaps(params, resolution)
    return gaps, len(calls), refined


def _oracle_pass(params, resolution=DEFAULT_RESOLUTION):
    """The oracle's full Newton pass over both gaps' brackets, stacked as
    band_gaps stacks them: (n, states, curvatures), with states[i] the bytes
    of the momenta after step i, curvatures[i] the signed g'' of step i + 1,
    and n the first step whose momenta repeat the bytes of step n - 2 (None
    when no step does)."""
    passes = [single_gap_newton_states(params, which, resolution)
              for which in (0, "pi")]
    states = [np.concatenate(pair).tobytes()
              for pair in zip(passes[0][1], passes[1][1])]
    curvatures = [np.concatenate(pair) for pair in zip(passes[0][2], passes[1][2])]
    n = next((n for n in range(2, len(states)) if states[n] == states[n - 2]), None)
    return n, states, curvatures


class TestNewtonExit:
    """band_gaps stops its Newton loop once the momenta repeat the bytes they
    had two steps before; the oracle always runs all NEWTON_STEPS steps."""

    # enters a period-2 cycle at step 5 with 3 steps left, so the result is
    # the other member of the cycle, the momenta after step 4
    PERIOD_TWO = ModelParams(0.025 * np.pi, 1.275 * np.pi)
    # merged closings: 2 of its 12 brackets bisect at step 1
    BISECTS = ModelParams(3.0 * np.pi + 3.2e-8, 1e-6)
    # a default-diagram cell whose momenta never repeat within the cap
    NEVER = ModelParams(1.075 * np.pi, 1.425 * np.pi)

    @staticmethod
    def assert_exact(params, resolution=DEFAULT_RESOLUTION):
        """band_gaps refines the oracle's momenta after all NEWTON_STEPS
        steps, bit for bit, in at most NEWTON_STEPS steps; returns the
        number of steps it took."""
        gaps, steps, refined = _counted_band_gaps(params, resolution)
        _, states, _ = _oracle_pass(params, resolution)
        assert refined == [states[NEWTON_STEPS]]
        assert gaps == (
            single_gap_newton(params, 0, resolution),
            single_gap_newton(params, "pi", resolution),
        )
        assert steps <= NEWTON_STEPS
        return steps

    @settings(max_examples=200, deadline=None)
    @given(
        tx=st.floats(-40 * np.pi, 40 * np.pi),
        ty=st.floats(-40 * np.pi, 40 * np.pi),
        resolution=st.sampled_from([512, 2048]),
    )
    def test_equals_the_full_pass_oracle(self, tx, ty, resolution):
        # at 40 pi most drives run all 8 steps, near 3 pi most stop early
        self.assert_exact(ModelParams(tx, ty), resolution)

    def test_period_two_cycle_at_an_odd_remainder(self):
        n, states, _ = _oracle_pass(self.PERIOD_TWO)
        assert n == 5 and states[n] != states[n - 1]
        assert states[NEWTON_STEPS] == states[n - 1]
        self.assert_exact(self.PERIOD_TWO)

    def test_bisect_branch(self):
        _, _, curvatures = _oracle_pass(self.BISECTS)
        assert curvatures[0].size == 12
        assert np.count_nonzero(~(curvatures[0] < 0.0)) == 2
        self.assert_exact(self.BISECTS)

    def test_no_repeat_runs_the_cap(self):
        n, _, _ = _oracle_pass(self.NEVER)
        assert n is None
        assert self.assert_exact(self.NEVER) == NEWTON_STEPS

    @pytest.mark.parametrize("params", [CASE1, PERIOD_TWO], ids=["case1", "period-two"])
    def test_stops_at_the_first_repeat(self, params):
        # the cost guard of the exit: a loop that ran to the cap would make
        # NEWTON_STEPS calls here
        n, _, _ = _oracle_pass(params)
        assert self.assert_exact(params) == n < NEWTON_STEPS


class TestCrossingCount:
    @staticmethod
    def outcome(count, drive, other):
        try:
            return count(drive, other)
        except Exception as exc:
            return type(exc)

    amplitude = st.floats(-40 * np.pi, 40 * np.pi)
    near_closing = st.builds(
        lambda m, delta, sign: sign * (m * np.pi + delta),
        st.integers(0, 40),
        st.one_of(st.floats(1e-12, 1e-8), st.floats(-1e-8, -1e-12)),
        st.sampled_from([1.0, -1.0]),
    )

    @settings(max_examples=1000, deadline=None)
    @given(drive=st.one_of(amplitude, near_closing), other=amplitude)
    def test_matches_the_numpy_count(self, drive, other):
        assert self.outcome(_crossing_count, drive, other) == self.outcome(
            numpy_crossing_count, drive, other
        )


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
