"""Acceptance suite: one test per criterion, each printing a PASS line on
success (run with -s to see them).  Budgets are wall-clock upper bounds on
a single desktop core.
"""

import time

import numpy as np

from conftest import (
    CASE1,
    CASE2,
    enclosed_winding,
    per_step_polarizations,
    random_nonboundary_params,
)
from floqlab.lattice import count_edge_modes
from floqlab.model import Frame, ModelParams
from floqlab.pulsegen import compile_schedule, verify_schedule
from floqlab.quench import QuenchSpec, bis_report, evolve_polarizations
from floqlab.spinalg import SIGMA_Z
from floqlab.topology import gap_invariants, phase_diagram, winding_number

GRID_512 = 2.0 * np.pi / 512


def _report(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_1_invariant_golden_values():
    t0 = time.perf_counter()
    inv1 = gap_invariants(CASE1)
    nu1_1 = winding_number(CASE1, Frame.SYM1)
    nu2_1 = winding_number(CASE1, Frame.SYM2)
    inv2 = gap_invariants(CASE2)
    nu1_2 = winding_number(CASE2, Frame.SYM1)
    nu2_2 = winding_number(CASE2, Frame.SYM2)
    elapsed = time.perf_counter() - t0
    ok = (
        (inv1.nu0, inv1.nu_pi) == (1, 0)
        and (nu1_1, nu2_1) == (1, 1)
        and (inv2.nu0, inv2.nu_pi) == (3, -2)
        and (nu1_2, nu2_2) == (1, 5)
        and elapsed < 1.0
    )
    _report(1, ok, f"golden invariants (1,0)/(3,-2) in {elapsed:.2f}s")


def test_criterion_2_quench_equals_winding_on_random_points():
    rng = np.random.default_rng(20260810)
    t0 = time.perf_counter()
    params_list = random_nonboundary_params(rng, 50, gap_floor=0.05)
    mismatches = []
    for params in params_list:
        for frame in (Frame.SYM1, Frame.SYM2):
            static = winding_number(params, frame)
            spec = QuenchSpec(params, frame, steps=60, resolution=512)
            dynamic = bis_report(evolve_polarizations(spec)).nu
            if dynamic != static:
                mismatches.append((params.tx, params.ty, frame, static, dynamic))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 120.0
    _report(2, ok, f"50 points x 2 frames exact winding match in {elapsed:.1f}s"
            + (f"; mismatches: {mismatches[:3]}" if mismatches else ""))


def test_criterion_3_polarization_zeros_and_slopes():
    checks = []
    # case 1, y quench: averages vanish at k = 0, pi
    trace = evolve_polarizations(QuenchSpec(CASE1, Frame.SYM1, steps=60, resolution=512))
    for target in (0.0, np.pi):
        idx = np.argmin(np.abs(trace.k_grid - target)) if target else np.argmin(np.abs(trace.k_grid))
        checks.append(abs(trace.measured[1, idx]) < 0.02)
    rep = bis_report(trace)
    g = {round(s.k, 6): s.g for s in rep.slopes}
    checks.append(g.get(0.0) == -1 and g.get(round(np.pi, 6)) == +1)

    # case 1, x quench: averages vanish at +-pi/2
    trace = evolve_polarizations(QuenchSpec(CASE1, Frame.SYM2, steps=60, resolution=512))
    for target in (0.5 * np.pi, -0.5 * np.pi):
        idx = np.argmin(np.abs(trace.k_grid - target))
        checks.append(abs(trace.measured[0, idx]) < 0.02)

    # case 2, x quench: ten inversion points at the printed momenta with the
    # printed group classification
    trace = evolve_polarizations(QuenchSpec(CASE2, Frame.SYM2, steps=60, resolution=512))
    rep = bis_report(trace)
    analytic = sorted(
        [0.5 * np.pi, -0.5 * np.pi]
        + [s * np.arccos(c) for s in (1, -1) for c in (0.4, -0.4, 0.8, -0.8)]
    )
    found = sorted(s.k for s in rep.slopes)
    checks.append(len(found) == 10)
    checks.append(all(abs(a - b) <= GRID_512 for a, b in zip(found, analytic)))
    k_plus = {
        round(k, 6)
        for k in (0.5 * np.pi, np.arccos(0.8), np.arccos(-0.8),
                  -np.arccos(0.4), -np.arccos(-0.4))
    }
    for s in rep.slopes:
        expected_plus = round(s.k, 6) in k_plus
        checks.append(s.positive_group == expected_plus)
        checks.append(s.g == (+1 if expected_plus else -1))
    checks.append(rep.nu == 5)
    _report(3, all(checks), "trace zeros < 0.02, slope signs and 10-point "
            "inversion set as published")


def test_criterion_4_shot_noise_realism():
    seed = 1
    checks = []
    for params in (CASE1, CASE2):
        for frame in (Frame.SYM1, Frame.SYM2):
            spec = QuenchSpec(params, frame, steps=10, resolution=512,
                              shots=10**6, seed=seed)
            trace = evolve_polarizations(spec)
            exact_avg = per_step_polarizations(spec).mean(axis=2)
            for exact, est, err_hat in zip(exact_avg, trace.measured, trace.stderr):
                p = (1.0 + np.clip(exact, -1, 1)) / 2.0
                sigma = 2.0 * np.sqrt(p * (1.0 - p) / spec.shots)
                checks.append(bool(np.all(np.abs(est - exact) <= 4.0 * sigma + 1e-15)))
                checks.append(bool(np.all(err_hat <= 0.002 + 1e-12)))
    for params, frame, expected in (
        (CASE1, Frame.SYM1, 1), (CASE1, Frame.SYM2, 1),
        (CASE2, Frame.SYM1, 1), (CASE2, Frame.SYM2, 5),
    ):
        spec = QuenchSpec(params, frame, steps=10, resolution=512,
                          shots=10**6, seed=seed)
        checks.append(bis_report(evolve_polarizations(spec)).nu == expected)
    _report(4, all(checks), "sampled averages within 4 binomial stderr, "
            "stderr <= 0.002, N=10 sampled pipeline integers correct")


def test_criterion_5_symmetry_suite():
    rng = np.random.default_rng(99)
    n = 10_000
    ks = rng.uniform(-np.pi, np.pi, n)
    txs = rng.uniform(0, 3 * np.pi, n)
    tys = rng.uniform(0, 3 * np.pi, n)
    checks = []
    # per-sample params rule out a single broadcast floquet_operator call;
    # build the stacked angle arrays directly instead
    thx = txs * np.cos(ks)
    thy = tys * np.sin(ks)
    from floqlab import spinalg

    xhat = np.array([1.0, 0.0, 0.0])
    yhat = np.array([0.0, 1.0, 0.0])
    rx = spinalg.su2_exp(xhat, thx)
    ry = spinalg.su2_exp(yhat, thy)
    rxh = spinalg.su2_exp(xhat, thx / 2)
    ryh = spinalg.su2_exp(yhat, thy / 2)
    frames = {
        Frame.PLAIN: rx @ ry,
        Frame.SYM1: rxh @ ry @ rxh,
        Frame.SYM2: ryh @ rx @ ryh,
    }
    energy = np.arccos(np.clip(np.cos(thx) * np.cos(thy), -1, 1))
    for frame in (Frame.SYM1, Frame.SYM2):
        u = frames[frame]
        udag = np.conj(np.swapaxes(u, -1, -2))
        chiral_defect = np.max(np.abs(SIGMA_Z @ u @ SIGMA_Z - udag))
        checks.append(chiral_defect < 1e-12)
        # n_z = 0: the raw sigma_z moment vanishes
        nz = np.abs(np.real(1j * np.trace(u @ SIGMA_Z, axis1=-2, axis2=-1)) / 2.0)
        checks.append(bool(np.max(nz) < 1e-10))
        # quasienergy formula vs decomposition (c0 >= 0 convention folds
        # E onto [0, pi/2], i.e. returns |cos E|)
        c0 = np.real(np.trace(u, axis1=-2, axis2=-1)) / 2.0
        checks.append(bool(np.max(np.abs(np.abs(np.cos(energy)) - np.abs(c0))) < 1e-10))
    # eigenphase agreement across frames: traces agree exactly under
    # conjugation; verify eigenphases explicitly on a subsample
    tr = {f: np.trace(frames[f], axis1=-2, axis2=-1) for f in Frame}
    checks.append(bool(np.max(np.abs(tr[Frame.PLAIN] - tr[Frame.SYM1])) < 1e-12))
    checks.append(bool(np.max(np.abs(tr[Frame.PLAIN] - tr[Frame.SYM2])) < 1e-12))
    for i in range(0, n, 50):
        ph = [
            np.sort(np.angle(np.linalg.eigvals(frames[f][i])))
            for f in Frame
        ]
        checks.append(bool(np.allclose(ph[0], ph[1], atol=1e-10)))
        checks.append(bool(np.allclose(ph[0], ph[2], atol=1e-10)))
    _report(5, all(checks), "chiral symmetry 1e-12, planar axis 1e-10, frame "
            "eigenphase and quasienergy agreement 1e-10 on 10^4 samples")


def test_criterion_6_bulk_edge_correspondence():
    t0 = time.perf_counter()
    checks = []
    checks.append(count_edge_modes(CASE1, Frame.SYM1, 40)[:2] == (2, 0))
    checks.append(count_edge_modes(CASE1, Frame.SYM1, 50)[:2] == (2, 0))
    checks.append(count_edge_modes(CASE2, Frame.SYM1, 60)[:2] == (6, 4))
    checks.append(count_edge_modes(CASE2, Frame.SYM1, 70)[:2] == (6, 4))
    # weak-drive point: the diagonalization oracle gives (2, 0), matching
    # (nu0, nu_pi) = (1, 0); this drive has no invariant-free phase anywhere,
    # so no parameter point can yield (0, 0)
    weak = ModelParams(0.1, 0.1)
    checks.append(count_edge_modes(weak, Frame.SYM1, 40)[:2] == (2, 0))
    checks.append(count_edge_modes(weak, Frame.SYM1, 50)[:2] == (2, 0))
    elapsed = time.perf_counter() - t0
    checks.append(elapsed < 30.0)
    _report(6, all(checks), f"edge counts (2,0)/(6,4)/(2,0 at weak drive), "
            f"stable at L+10, in {elapsed:.1f}s")


def _closing_steps(p, q):
    """(d nu1, d nu2) of each drive closing curve that the axis-parallel
    segment from cell p to cell q crosses, for tx, ty > 0.

    The closings are (a pi / tx)^2 + (b pi / ty)^2 = 1 over a, b >= 0, not
    both 0 (a line |tx| = a pi or |ty| = b pi when the other is 0).  Moving
    inside one encloses the m = 2 (line) or 4 (ellipse) lattice points
    (+-a pi, +-b pi), whose indices change (nu1, nu2) by
    m ((-1)^a, (-1)^b).  Along an axis-parallel segment the left-hand side is
    monotone, so its sign at the two ends decides the crossing exactly.
    """
    (ux0, uy0), (ux1, uy1) = np.divide(p, np.pi), np.divide(q, np.pi)
    steps = []
    for a in range(int(max(ux0, ux1)) + 1):
        for b in range(int(max(uy0, uy1)) + 1):
            before = (a / ux0) ** 2 + (b / uy0) ** 2 < 1.0
            after = (a / ux1) ** 2 + (b / uy1) ** 2 < 1.0
            if (a or b) and before != after:
                m = (2 if a == 0 or b == 0 else 4) * (1 if after else -1)
                steps.append((m * (-1) ** a, m * (-1) ** b))
    return steps


def _frame_windings(cell):
    return (cell.invariants.nu0 + cell.invariants.nu_pi,
            cell.invariants.nu0 - cell.invariants.nu_pi)


def test_criterion_7_phase_diagram_consistency():
    t0 = time.perf_counter()
    diagram = phase_diagram(
        (0.0, 3 * np.pi), (0.0, 3 * np.pi), cells=60, resolution=2048
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"60x60 diagram took {elapsed:.0f}s single-threaded"

    nx, ny = diagram.cells_per_axis
    grid = np.array(diagram.cells, dtype=object).reshape(nx, ny)

    # every classified cell carries the windings of the lattice points its
    # drive encloses, and every neighboring pair of classified cells (checked
    # exhaustively, i.e. well beyond five spot checks) differs by the steps
    # of the closing curves between them: one curve with the invariants'
    # change for a transition, none where the invariants agree
    wrong_cells = [
        (c.tx, c.ty) for c in diagram.cells
        if not c.boundary and _frame_windings(c) != enclosed_winding(c.tx, c.ty)
    ]
    violations = []
    transitions_checked = 0
    for i in range(nx):
        for j in range(ny):
            a = grid[i, j]
            for b in ([grid[i + 1, j]] if i + 1 < nx else []) + (
                [grid[i, j + 1]] if j + 1 < ny else []
            ):
                if a.boundary or b.boundary:
                    continue
                (a1, a2), (b1, b2) = _frame_windings(a), _frame_windings(b)
                change = [(b1 - a1, b2 - a2)] if (a1, a2) != (b1, b2) else []
                transitions_checked += bool(change)
                steps = _closing_steps((a.tx, a.ty), (b.tx, b.ty))
                if steps != change:
                    violations.append(((a.tx, a.ty), (b.tx, b.ty), change, steps))
    ok = transitions_checked >= 5 and not wrong_cells and not violations
    _report(7, ok, f"60x60 diagram in {elapsed:.0f}s; {transitions_checked} "
            f"invariant transitions each cross one matching closing curve"
            + (f"; wrong cells: {wrong_cells[:3]}" if wrong_cells else "")
            + (f"; violations: {violations[:3]}" if violations else ""))


def test_criterion_8_pulse_round_trip():
    rng = np.random.default_rng(7)
    frames = [Frame.PLAIN, Frame.SYM1, Frame.SYM2]
    worst = 0.0
    for _ in range(20):
        k = rng.uniform(-np.pi, np.pi)
        params = ModelParams(*rng.uniform(0, 3 * np.pi, 2))
        frame = frames[rng.integers(0, 3)]
        periods = int(rng.integers(1, 21))
        sched = compile_schedule(k, params, frame, periods, omega_ref=2 * np.pi * 1e6)
        worst = max(worst, verify_schedule(sched, k, params, frame, periods))
    _report(8, worst < 1e-10, f"20 compile/simulate round trips, worst "
            f"distance {worst:.2e}")
