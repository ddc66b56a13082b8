import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    CASE1,
    CASE2,
    expectation,
    loop_find_bis,
    per_step_polarizations,
    random_nonboundary_params,
    spin_state,
)
from floqlab import quench
from floqlab.errors import AmbiguousSlopeError, GaplessPointError, NoBisError
from floqlab.model import (
    Frame,
    ModelParams,
    axis_field,
    brillouin_grid,
    floquet_operator,
    quasienergy,
)
from floqlab.quench import (
    QuenchSpec,
    bis_report,
    evolve_polarizations,
    find_bis,
    sample_shots,
    slope_at_bis,
    winding_from_quench,
)
from floqlab.topology import winding_number

CASE2_BIS_SYM2 = sorted(
    [0.5 * np.pi, -0.5 * np.pi]
    + [s * np.arccos(c) for s in (1, -1) for c in (0.4, -0.4, 0.8, -0.8)]
)
CASE2_KPLUS = {
    round(k, 6)
    for k in (
        0.5 * np.pi,
        np.arccos(0.8),
        np.arccos(-0.8),
        -np.arccos(0.4),
        -np.arccos(-0.4),
    )
}


def spinor_oracle(spec):
    """(x, y, z) spin after t = 1..N periods, shape (3, resolution, steps):
    the -1 eigenstate of the quench axis pushed through N products of
    floquet_operator."""
    u = floquet_operator(brillouin_grid(spec.resolution), spec.params, spec.frame)
    axis = "xy"[spec.frame.quench_axis]
    psi0 = spin_state({"x": [1.0, -1.0], "y": [1.0, -1.0j]}[axis])
    assert expectation(psi0, axis) == pytest.approx(-1.0, abs=1e-15)
    psi = np.broadcast_to(psi0, (spec.resolution, 2)).copy()
    out = np.empty((3, spec.resolution, spec.steps))
    for t in range(spec.steps):
        psi = np.einsum("kij,kj->ki", u, psi)
        out[:, :, t] = [expectation(psi, a) for a in "xyz"]
    return out


def assert_matches_spinor_oracle(spec):
    trace = evolve_polarizations(spec)
    oracle = spinor_oracle(spec)
    assert trace.measured.shape == (2, spec.resolution)
    assert np.max(np.abs(trace.measured - oracle[:2].mean(axis=2))) <= 1e-12
    s_t = per_step_polarizations(spec)
    assert np.max(np.abs(s_t - oracle[:2])) <= 1e-12
    # the in-plane per-step form and the oracle's sigma_z form a unit vector
    norm = s_t[0] ** 2 + s_t[1] ** 2 + oracle[2] ** 2
    assert np.allclose(norm, 1.0, atol=1e-10)


class TestEvolvePolarizations:
    def test_bloch_norm_preserved(self, sym_frame):
        assert_matches_spinor_oracle(QuenchSpec(CASE2, sym_frame, steps=25, resolution=64))

    @settings(max_examples=40, deadline=None)
    @given(
        tx=st.floats(0.0, 3.0 * np.pi),
        ty=st.floats(0.0, 3.0 * np.pi),
        steps=st.integers(1, 80),
        frame=st.sampled_from([Frame.SYM1, Frame.SYM2]),
    )
    # E is about 0.017 here; E taken as arccos(cos E) gives an error of 1.04e-12
    @example(tx=0.0078125, ty=0.015625, steps=49, frame=Frame.SYM2)
    def test_matches_spinor_oracle_on_gapped_drives(self, tx, ty, steps, frame):
        params = ModelParams(tx, ty)
        energy = quasienergy(brillouin_grid(32), params)
        assume(np.min(np.minimum(energy, np.pi - energy)) > 1e-3)
        assert_matches_spinor_oracle(QuenchSpec(params, frame, steps=steps, resolution=32))

    def test_stationary_when_initial_state_is_eigenstate(self):
        # SYM1 at k = pi/2 has theta_x = 0, so U = exp(-i theta_y sy) and
        # the initial -y spin is an eigenstate: the average stays at -y
        spec = QuenchSpec(CASE1, Frame.SYM1, steps=16, resolution=8)
        trace = evolve_polarizations(spec)
        i0 = np.argmin(np.abs(trace.k_grid - 0.5 * np.pi))
        assert trace.measured[:, i0] == pytest.approx([0.0, -1.0], abs=1e-12)

    def test_gapless_grid_point_rejected(self):
        # (2pi, pi/2) at k = 0 gives U = exp(-i 2pi sx) = identity: the
        # zero gap closes on a grid momentum and the axis is undefined there
        spec = QuenchSpec(ModelParams(2 * np.pi, 0.5 * np.pi), Frame.SYM1,
                          steps=16, resolution=8)
        with pytest.raises(GaplessPointError):
            evolve_polarizations(spec)

    def test_time_average_is_arithmetic_mean(self):
        spec = QuenchSpec(CASE1, Frame.SYM1, steps=7, resolution=16)
        trace = evolve_polarizations(spec)
        exact = per_step_polarizations(spec).mean(axis=2)
        assert np.max(np.abs(trace.measured - exact)) <= 1e-13
        assert np.array_equal(trace.stderr, np.zeros((2, 16)))

    @pytest.mark.parametrize(
        "tx,ty", [(np.pi - 1e-6, 0.5), (0.5, np.pi - 1e-6), (1e-6, 0.7)]
    )
    def test_folded_average_near_a_closing(self, tx, ty, sym_frame):
        # one grid quasienergy sits 1e-6 from pi or from 0; sin(N E) taken
        # at E near pi instead of at pi - E reads about 1e-11 off here
        spec = QuenchSpec(ModelParams(tx, ty), sym_frame, steps=5000, resolution=8)
        trace = evolve_polarizations(spec)
        assert np.min(np.minimum(trace.energy, np.pi - trace.energy)) < 2e-6
        exact = per_step_polarizations(spec).mean(axis=2)
        assert np.max(np.abs(trace.measured - exact)) <= 1e-12

    def test_memory_does_not_grow_with_steps(self):
        spec = QuenchSpec(CASE2, Frame.SYM1, steps=100_000, resolution=16)
        tracemalloc.start()
        try:
            evolve_polarizations(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_case1_sym1_average_vanishes_on_inversions(self):
        spec = QuenchSpec(CASE1, Frame.SYM1, steps=60, resolution=512)
        trace = evolve_polarizations(spec)
        for k_target in (0.0, np.pi):
            idx = np.argmin(np.abs(np.abs(trace.k_grid) - abs(k_target)) if k_target
                            else np.abs(trace.k_grid))
            assert abs(trace.measured[1, idx]) < 1e-12

    def test_case1_sym2_average_vanishes_at_half_pi(self):
        spec = QuenchSpec(CASE1, Frame.SYM2, steps=60, resolution=512)
        trace = evolve_polarizations(spec)
        for k_target in (0.5 * np.pi, -0.5 * np.pi):
            idx = np.argmin(np.abs(trace.k_grid - k_target))
            assert abs(trace.measured[0, idx]) < 1e-12


class TestSampleShots:
    def test_extreme_polarizations_exact(self):
        est, err = sample_shots(1.0, 1000, seed=1)
        assert est == 1.0 and err == 0.0
        est, err = sample_shots(-1.0, 1000, seed=1)
        assert est == -1.0 and err == 0.0

    def test_unbiased_near_zero(self):
        est, err = sample_shots(0.0, 10**6, seed=42)
        assert abs(est) <= 0.004
        assert err == pytest.approx(0.001, rel=0.05)

    def test_deterministic(self):
        a = sample_shots(0.3, 10**5, seed=(7, 1, 0))
        b = sample_shots(0.3, 10**5, seed=(7, 1, 0))
        assert a == b

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            sample_shots(1.5, 10, seed=0)

    def test_trace_sampling_deterministic(self):
        spec = QuenchSpec(CASE1, Frame.SYM1, steps=10, resolution=32,
                          shots=1000, seed=5)
        t1 = evolve_polarizations(spec)
        t2 = evolve_polarizations(spec)
        assert np.array_equal(t1.measured, t2.measured)
        assert np.array_equal(t1.stderr, t2.stderr)


class TestFindBis:
    def test_case1_sym1(self):
        trace = evolve_polarizations(QuenchSpec(CASE1, Frame.SYM1))
        bis = find_bis(trace)
        assert np.allclose(bis, [0.0, np.pi], atol=1e-9)

    def test_case1_sym2(self):
        trace = evolve_polarizations(QuenchSpec(CASE1, Frame.SYM2))
        bis = find_bis(trace)
        assert np.allclose(bis, [-0.5 * np.pi, 0.5 * np.pi], atol=1e-9)

    def test_case2_sym1(self):
        trace = evolve_polarizations(QuenchSpec(CASE2, Frame.SYM1))
        assert np.allclose(find_bis(trace), [0.0, np.pi], atol=1e-9)

    def test_case2_sym2_ten_points(self):
        trace = evolve_polarizations(QuenchSpec(CASE2, Frame.SYM2))
        bis = find_bis(trace)
        assert len(bis) == 10
        assert np.allclose(bis, CASE2_BIS_SYM2, atol=1e-6)

    def test_axis_component_vanishes_at_detections(self, sym_frame, rng):
        for params in random_nonboundary_params(rng, 4):
            trace = evolve_polarizations(QuenchSpec(params, sym_frame))
            for kb in find_bis(trace):
                _, n = axis_field(kb, params, sym_frame)
                component = n[1] if sym_frame is Frame.SYM1 else n[0]
                assert abs(component) < 1e-8

    def test_no_inversion_detected_raises(self):
        # a trace whose quench-direction average never dips or changes sign
        # yields no candidates (every zero of the axis field sits on a gap
        # closing line in this drive, so this is exercised synthetically)
        trace = evolve_polarizations(QuenchSpec(CASE1, Frame.SYM1))
        trace.measured[1] = -0.9
        with pytest.raises(NoBisError, match="no BIS found"):
            find_bis(trace)

    @staticmethod
    def outcome_and_field_calls(search, trace):
        """The roots (or the error type) and the number of axis_field calls."""
        real, calls = quench.axis_field, []

        def counting(*args):
            calls.append(args)
            return real(*args)

        with mock.patch.object(quench, "axis_field", counting):
            try:
                outcome = search(trace)
            except (NoBisError, GaplessPointError) as exc:
                outcome = type(exc)
        return outcome, len(calls)

    @settings(max_examples=40, deadline=None)
    @given(
        tx=st.floats(-3.0 * np.pi, 3.0 * np.pi),
        ty=st.floats(-3.0 * np.pi, 3.0 * np.pi),
        frame=st.sampled_from([Frame.SYM1, Frame.SYM2]),
        # even grids hold k = 0 and -pi, where one frame's field is exactly 0
        grid=st.sampled_from([3, 4, 8, 64, 512]),
        steps=st.sampled_from([1, 10, 60]),
        shots=st.sampled_from([None, 10**6]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_loop_oracle(self, tx, ty, frame, grid, steps, shots, seed):
        spec = QuenchSpec(ModelParams(tx, ty), frame, steps, grid, shots, seed)
        try:
            trace = evolve_polarizations(spec)
        except GaplessPointError:
            assume(False)
        assert self.outcome_and_field_calls(find_bis, trace) == (
            self.outcome_and_field_calls(loop_find_bis, trace)
        )

    @settings(max_examples=50, deadline=None)
    @given(
        points=st.lists(
            st.tuples(st.sampled_from([-1.0, -0.0, 0.0, 1.0]), st.sampled_from([-0.9, 0.0, 0.9])),
            min_size=1,
            max_size=8,
        )
    )
    def test_equals_the_loop_oracle_on_written_fields(self, points):
        # a drive's field is exactly 0 only where it crosses (SYM1 at k = 0),
        # so tangent and adjacent zeros are written into the trace by hand;
        # the bisection still reads the drive's own field
        trace = evolve_polarizations(QuenchSpec(CASE2, Frame.SYM1, resolution=len(points)))
        trace.n[:, 1], trace.measured[1] = np.array(points).T
        assert self.outcome_and_field_calls(find_bis, trace) == (
            self.outcome_and_field_calls(loop_find_bis, trace)
        )


class TestSlopes:
    def test_case1_sym1_signs(self):
        trace = evolve_polarizations(QuenchSpec(CASE1, Frame.SYM1))
        g = {round(kb, 6): slope_at_bis(trace, kb).g for kb in find_bis(trace)}
        assert g[0.0] == -1
        assert g[round(np.pi, 6)] == +1

    def test_case1_sym2_signs(self):
        trace = evolve_polarizations(QuenchSpec(CASE1, Frame.SYM2))
        g = {round(kb, 6): slope_at_bis(trace, kb).g for kb in find_bis(trace)}
        assert g[round(0.5 * np.pi, 6)] == +1
        assert g[round(-0.5 * np.pi, 6)] == -1

    def test_case2_sym2_group_classification(self):
        trace = evolve_polarizations(QuenchSpec(CASE2, Frame.SYM2))
        for kb in find_bis(trace):
            slope = slope_at_bis(trace, kb)
            in_kplus = round(kb, 6) in CASE2_KPLUS
            assert slope.positive_group == in_kplus
            assert slope.g == (+1 if in_kplus else -1)

    def test_magnitudes_near_unity_at_long_times(self):
        for params, frame in ((CASE1, Frame.SYM1), (CASE1, Frame.SYM2),
                              (CASE2, Frame.SYM2)):
            trace = evolve_polarizations(QuenchSpec(params, frame, steps=60))
            for kb in find_bis(trace):
                assert abs(slope_at_bis(trace, kb).raw_slope) == pytest.approx(
                    1.0, abs=0.05
                )

    def test_flat_orthogonal_average_is_ambiguous(self):
        trace = evolve_polarizations(QuenchSpec(CASE1, Frame.SYM1))
        trace.measured[0] = 0.0
        with pytest.raises(AmbiguousSlopeError, match="ambiguous slope"):
            slope_at_bis(trace, 0.0)

    def test_reversed_drive_flips_crossing_orientation(self):
        # ty -> -ty mirrors the quench-direction field: every crossing
        # direction (and with it the k+/k- split and the winding) reverses
        # while the slope signs, which read the orthogonal component, stay
        plus = evolve_polarizations(QuenchSpec(CASE1, Frame.SYM1))
        minus = evolve_polarizations(
            QuenchSpec(ModelParams(CASE1.tx, -CASE1.ty), Frame.SYM1)
        )
        rep_p = bis_report(plus)
        rep_m = bis_report(minus)
        assert rep_m.nu == -rep_p.nu
        by_k_p = {round(s.k, 6): s for s in rep_p.slopes}
        by_k_m = {round(s.k, 6): s for s in rep_m.slopes}
        assert by_k_p.keys() == by_k_m.keys()
        for k in by_k_p:
            assert by_k_m[k].g == by_k_p[k].g
            assert by_k_m[k].positive_group != by_k_p[k].positive_group


class TestWindingFromQuench:
    def test_case1_sym1(self):
        assert winding_from_quench(QuenchSpec(CASE1, Frame.SYM1)) == 1

    def test_case2_sym2(self):
        assert winding_from_quench(QuenchSpec(CASE2, Frame.SYM2)) == 5

    def test_case2_combined_invariants(self):
        nu1 = winding_from_quench(QuenchSpec(CASE2, Frame.SYM1))
        nu2 = winding_from_quench(QuenchSpec(CASE2, Frame.SYM2))
        assert ((nu1 + nu2) // 2, (nu1 - nu2) // 2) == (3, -2)

    def test_equals_static_winding_on_random_points(self, rng, sym_frame):
        for params in random_nonboundary_params(rng, 6):
            spec = QuenchSpec(params, sym_frame, steps=60, resolution=512)
            assert winding_from_quench(spec) == winding_number(params, sym_frame)


class TestSampledPipeline:
    # frozen seed: the per-point 4-sigma claim is a deterministic statement
    # about one realization (across arbitrary seeds the expected number of
    # Poisson-tail exceedances over ~4k samples is order one)
    SEED = 1

    def test_sampled_averages_within_four_true_stderr(self):
        # validity is judged against the exact binomial standard error; the
        # reported phat-based stderr collapses to zero whenever an estimate
        # saturates at +-1, which no finite-shot draw can satisfy
        for params in (CASE1, CASE2):
            for frame in (Frame.SYM1, Frame.SYM2):
                spec = QuenchSpec(params, frame, steps=10, resolution=512,
                                  shots=10**6, seed=self.SEED)
                trace = evolve_polarizations(spec)
                exact_avg = per_step_polarizations(spec).mean(axis=2)
                for exact, est, err_hat in zip(exact_avg, trace.measured, trace.stderr):
                    p = (1.0 + np.clip(exact, -1, 1)) / 2.0
                    sigma = 2.0 * np.sqrt(p * (1.0 - p) / spec.shots)
                    assert np.all(np.abs(est - exact) <= 4.0 * sigma + 1e-15)
                    assert np.all(err_hat <= 0.002 + 1e-12)

    def test_sampled_windings_match(self):
        for params, frame, expected in (
            (CASE1, Frame.SYM1, 1),
            (CASE1, Frame.SYM2, 1),
            (CASE2, Frame.SYM1, 1),
            (CASE2, Frame.SYM2, 5),
        ):
            spec = QuenchSpec(params, frame, steps=10, resolution=512,
                              shots=10**6, seed=self.SEED)
            assert winding_from_quench(spec) == expected
