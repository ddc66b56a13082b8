import numpy as np
import pytest

from floqlab.model import Frame, ModelParams
from floqlab.spinalg import IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z, su2_exp

CASE1 = ModelParams(0.5 * np.pi, 0.5 * np.pi)
CASE2 = ModelParams(2.5 * np.pi, 0.5 * np.pi)

# Spinor oracles: plain matrix algebra that the closed forms of floqlab
# are checked against.
UNITARY_CHECK_TOL = 1e-9

PAULI = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}


def is_unitary(u, tol: float = UNITARY_CHECK_TOL) -> bool:
    u = np.asarray(u, dtype=complex)
    prod = u @ np.conj(np.swapaxes(u, -1, -2))
    return bool(np.max(np.abs(prod - IDENTITY)) <= tol)


def expectation(state, axis: str):
    """<state| sigma_axis |state> for normalized two-component states."""
    state = np.asarray(state, dtype=complex)
    val = np.real(np.einsum("...i,ij,...j->...", state.conj(), PAULI[axis], state))
    return float(val) if val.ndim == 0 else val


def spin_state(amplitudes) -> np.ndarray:
    """Normalize a two-component amplitude vector."""
    v = np.asarray(amplitudes, dtype=complex)
    return v / np.linalg.norm(v)


def random_su2(rng, size=None):
    """Haar-ish random SU(2) via random axis and angle."""
    shape = () if size is None else (size,)
    axis = rng.normal(size=shape + (3,))
    angle = rng.uniform(0.0, 2.0 * np.pi, size=shape)
    return su2_exp(axis, angle)


def grid_winding(params, frame, resolution):
    """Raw winding of the planar Bloch axis accumulated on a momentum grid.

    Sums the wrapped atan2 increments around the closed loop; the result is
    an integer up to rounding while every step turns the axis by less than pi.
    """
    from floqlab.model import axis_field, brillouin_grid

    _, n = axis_field(brillouin_grid(resolution), params, frame)
    phi = np.arctan2(n[:, 1], n[:, 0])
    dphi = np.diff(np.concatenate([phi, phi[:1]]))
    dphi = (dphi + np.pi) % (2 * np.pi) - np.pi
    return dphi.sum() / (2 * np.pi)


def enclosed_winding(tx, ty):
    """Exact (nu1, nu2): the indices of the lattice points the drive encloses.

    As k runs over the zone, (theta_x, theta_y) = (tx cos k, ty sin k) traces
    an ellipse in the direction sgn(tx ty).  The SYM1 field (sin theta_x
    cos theta_y, sin theta_y) vanishes at the points (a pi, b pi) with index
    (-1)^a, and the SYM2 field (sin theta_x, cos theta_x sin theta_y) at the
    same points with index (-1)^b.  So each winding sums those indices over
    the (a, b) with (a/ux)^2 + (b/uy)^2 < 1, where ux = |tx|/pi and
    uy = |ty|/pi.
    """
    ux, uy = abs(tx) / np.pi, abs(ty) / np.pi
    a = np.arange(-np.floor(ux), np.floor(ux) + 1.0)[:, None]
    b = np.arange(-np.floor(uy), np.floor(uy) + 1.0)[None, :]
    inside = (a / ux) ** 2 + (b / uy) ** 2 < 1.0
    sign = np.sign(tx * ty)
    nu1 = sign * np.sum(inside * (1.0 - 2.0 * (a % 2)))
    nu2 = sign * np.sum(inside * (1.0 - 2.0 * (b % 2)))
    return int(nu1), int(nu2)


def near_drive_closing(tx, ty, rel=1e-9):
    """True within `rel` (relative) of a gap closing of the drive: the lines
    |tx| = a pi and |ty| = b pi (a, b >= 0), or the ellipses
    (a pi / tx)^2 + (b pi / ty)^2 = 1 (a, b >= 1)."""
    ux, uy = abs(tx) / np.pi, abs(ty) / np.pi
    if any(abs(u - round(u)) <= rel * max(u, 1.0) for u in (ux, uy)):
        return True
    a = np.arange(1.0, np.floor(ux) + 1.0)[:, None]
    b = np.arange(1.0, np.floor(uy) + 1.0)[None, :]
    return bool(np.any(np.abs((a / ux) ** 2 + (b / uy) ** 2 - 1.0) <= rel))


def numpy_crossing_count(drive, other):
    """Oracle for topology._crossing_count: the same count on numpy arrays,
    with both zeros of every pair m and their (-1)^m partner signs spelt
    out."""
    from floqlab.errors import GaplessPointError
    from floqlab.model import TOL_GAP

    amplitude = abs(drive)
    if abs(amplitude - np.pi * np.rint(amplitude / np.pi)) < TOL_GAP:
        raise GaplessPointError(
            "gapless point: merging band inversions within tol_gap of 0 or pi"
        )
    top = np.floor(amplitude / np.pi)
    m = np.arange(-top, top + 1.0)
    g = np.sqrt(1.0 - (m * np.pi / drive) ** 2)
    g = np.concatenate([g, -g])
    parity = np.tile(1.0 - 2.0 * (m % 2), 2)
    partner = parity * np.sin(other * g)
    if np.any(np.abs(partner) < TOL_GAP):
        raise GaplessPointError(
            "gapless point: band inversion within tol_gap of 0 or pi"
        )
    return int(np.sum(np.where(partner > 0.0, parity * np.sign(drive * g), 0.0)))


def golden_min_gap(params, which, resolution=2048):
    """Oracle for topology.min_gap: the same grid scan and brackets, refined
    by 50 golden-section steps on E itself instead of Newton steps on cos E.

    Each step evaluates both interior points afresh and keeps [a, d] where
    f(c) < f(d), else [c, b]; the result is the smaller of the grid minimum
    and f at the final bracket centres.
    """
    from floqlab.model import brillouin_grid, quasienergy

    ks = brillouin_grid(resolution)
    energies = quasienergy(ks, params)
    if which == 0:
        f = lambda k: quasienergy(k, params)
        values = energies
    else:
        f = lambda k: np.pi - quasienergy(k, params)
        values = np.pi - energies
    local = (values <= np.roll(values, 1)) & (values <= np.roll(values, -1))
    h = 2.0 * np.pi / resolution
    a, b = ks[local] - h, ks[local] + h
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    for _ in range(50):
        c, d = b - invphi * (b - a), a + invphi * (b - a)
        keep_left = f(c) < f(d)
        a, b = np.where(keep_left, a, c), np.where(keep_left, d, b)
    return float(min(values.min(), f((a + b) / 2.0).min()))


def single_gap_newton_states(params, which, resolution=2048):
    """The grid values of one gap and every state of its full Newton pass.

    The same grid scan as topology.band_gaps, the brackets of that gap only,
    and all NEWTON_STEPS safeguarded Newton steps on sign * g', with no early
    exit.  Returns (values, states, curvatures): values is the gap on the
    grid, states[n] the momenta after step n (states[0] the grid minima), and
    curvatures[n] the signed g'' that step n + 1 saw.
    """
    from floqlab.model import brillouin_grid, quasienergy
    from floqlab.topology import NEWTON_STEPS, _cos_energy_slopes

    ks = brillouin_grid(resolution)
    energies = quasienergy(ks, params)
    if which == 0:
        sign, values = 1.0, energies
    else:
        sign, values = -1.0, np.pi - energies
    local = (values <= np.roll(values, 1)) & (values <= np.roll(values, -1))
    h = 2.0 * np.pi / resolution
    k = ks[local]
    lo, hi = k - h, k + h
    states, curvatures = [k], []
    for _ in range(NEWTON_STEPS):
        slope, curvature = _cos_energy_slopes(k, params)
        slope, curvature = sign * slope, sign * curvature
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = np.clip(k - slope / curvature, lo, hi)
        bisect = (k + np.where(slope >= 0.0, hi, lo)) / 2.0
        k = np.where(curvature < 0.0, newton, bisect)
        states.append(k)
        curvatures.append(curvature)
    return values, states, curvatures


def single_gap_newton(params, which, resolution=2048):
    """Oracle for topology.band_gaps: one gap on its own, from the last state
    of its full Newton pass and one quasienergy call at those momenta;
    band_gaps must equal it bit for bit.
    """
    from floqlab.model import quasienergy

    values, states, _ = single_gap_newton_states(params, which, resolution)
    refined = quasienergy(states[-1], params)
    if which == "pi":
        refined = np.pi - refined
    return float(min(values.min(), refined.min()))


def random_nonboundary_params(rng, count, gap_floor=0.05, resolution=1024):
    """Seeded (tx, ty) samples in [0, 3pi]^2 with both gaps open."""
    from floqlab.topology import band_gaps

    out = []
    while len(out) < count:
        tx, ty = rng.uniform(0.0, 3.0 * np.pi, size=2)
        params = ModelParams(tx, ty)
        if min(band_gaps(params, resolution)) > gap_floor:
            out.append(params)
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture(params=[Frame.SYM1, Frame.SYM2], ids=["sym1", "sym2"])
def sym_frame(request):
    return request.param


def per_step_polarizations(spec):
    """Oracle for quench.evolve_polarizations: the (x, y) spin after each
    period t = 1..N, shape (2, resolution, steps), from the per-step closed
    form s(t) = -n_q n (1 - cos 2tE) - cos(2tE) e_q; its mean over t is the
    noise-free average.
    """
    from floqlab.model import axis_field, brillouin_grid

    energy, n = axis_field(brillouin_grid(spec.resolution), spec.params, spec.frame)
    q = spec.frame.quench_axis
    c = np.cos(2.0 * np.outer(energy, np.arange(1, spec.steps + 1)))
    s_t = -(n[:, q] * n[:, :2].T)[:, :, None] * (1.0 - c)
    s_t[q] -= c
    return s_t


def loop_find_bis(trace, floor_tol=None):
    """Oracle for quench.find_bis: the same windows, marked and scanned one
    grid point at a time, and the same 60-step bisection per interval.

    The scalar field comes from `floqlab.quench.axis_field`, looked up at
    call time, so a counter patched in there counts both implementations.
    """
    from floqlab import quench
    from floqlab.errors import NoBisError

    spec = trace.spec
    ks = trace.k_grid
    nk = len(ks)
    h = 2.0 * np.pi / nk
    q = spec.frame.quench_axis
    avg_q = trace.measured[q]
    energy, nq = trace.energy, trace.n[:, q]

    base = (
        (quench.FLOOR_TOL_LONG if spec.steps >= 60 else quench.FLOOR_TOL_SHORT)
        if floor_tol is None
        else floor_tol
    )
    floor = base + 1.0 / (spec.steps * np.maximum(np.sin(energy), 1e-3))
    dips = np.abs(avg_q) < floor
    crossings = np.signbit(avg_q) != np.signbit(np.roll(avg_q, -1))
    flagged = np.where(dips | crossings | np.roll(crossings, 1))[0]

    window = quench.SEARCH_WINDOW
    marked = np.zeros(nk, dtype=bool)
    for i in flagged:
        marked[(i + np.arange(-window, window + 1)) % nk] = True

    roots = []
    for i in range(nk):
        j = (i + 1) % nk
        if not (marked[i] and marked[j]):
            continue
        fa, fb = nq[i], nq[j]
        if fa == 0.0:
            prev = nq[(i - 1) % nk]
            if prev != 0.0 and fb != 0.0 and np.signbit(prev) != np.signbit(fb):
                roots.append(ks[i])
            continue
        if fb == 0.0 or np.signbit(fa) == np.signbit(fb):
            continue
        a, b = ks[i], ks[i] + h
        for _ in range(60):
            m = 0.5 * (a + b)
            fm = float(quench.axis_field(m, spec.params, spec.frame)[1][q])
            if fm == 0.0:
                a = b = m
                break
            if np.signbit(fm) == np.signbit(fa):
                a, fa = m, fm
            else:
                b = m
        roots.append(0.5 * (a + b))

    out = []
    for r in sorted(roots):
        r = (r + np.pi) % (2.0 * np.pi) - np.pi
        if r <= -np.pi + 1e-9:
            r = np.pi
        if all(
            abs(r - o) > quench._DEDUP_TOL
            and abs(abs(r - o) - 2.0 * np.pi) > quench._DEDUP_TOL
            for o in out
        ):
            out.append(r)
    if not out:
        raise NoBisError("no BIS found")
    return sorted(out)


def closing_distance(tx, ty, parity):
    """Distance in (tx, ty) from each drive to the nearest closing curve of
    the 0 gap (parity 0) or the pi gap (parity 1), broadcast over tx and ty.

    The ellipse (tx cos k, ty sin k) passes through the lattice point
    (a pi, b pi), a, b >= 0, on the curve (a pi / tx)^2 + (b pi / ty)^2 = 1,
    which is the line |tx| = a pi when b = 0 and |ty| = b pi when a = 0.
    There E = 0 when a + b is even and E = pi when it is odd.  Both gaps are
    1-Lipschitz in (tx, ty), so each is at most this distance.

    Every distance is taken to a point on a curve, so the result can only
    over-estimate the true one.  That also holds for the curves left out:
    of the curves (a pi sec phi, b pi csc phi), a, b >= 1, only those with
    r = sqrt((a pi / |tx|)^2 + (b pi / |ty|)^2) in [1/2, 2] are kept (r = 1
    on the curve).  Each kept curve takes six Newton steps on the squared
    distance from three starts: the radial projection of the drive,
    phi = atan2(b pi / |ty|, a pi / |tx|), and the curve points level with
    it in tx and in ty.  The smallest distance seen counts.
    """
    x = np.abs(np.asarray(tx, dtype=float))[..., None]
    y = np.abs(np.asarray(ty, dtype=float))[..., None]
    m = np.arange(int(max(x.max(), y.max()) / np.pi) + 2.0)
    level = np.pi * m[m % 2 == parity]
    lines = np.minimum(np.abs(x - level).min(-1), np.abs(y - level).min(-1))
    a, b = np.meshgrid(m[1:], m[1:], indexing="ij")
    pairs = (a + b) % 2 == parity
    A, B = np.pi * a[pairs], np.pi * b[pairs]
    with np.errstate(all="ignore"):
        r = np.hypot(A / x, B / y)
        near = (r >= 0.5) & (r <= 2.0)
        used = near.any(axis=tuple(range(near.ndim - 1)))
        A, B, near = A[used, None], B[used, None], near[..., used]
        x, y = x[..., None], y[..., None]
        phi = np.concatenate(np.broadcast_arrays(
            np.arctan2(B / y, A / x),
            np.arccos(np.minimum(A / x, 1.0)),
            np.arcsin(np.minimum(B / y, 1.0)),
        ), axis=-1)
        best = np.full(phi.shape, np.inf)
        for _ in range(7):
            sec, csc = 1.0 / np.cos(phi), 1.0 / np.sin(phi)
            X, Y = A * sec, B * csc
            best = np.fmin(best, np.hypot(X - x, Y - y))
            tan, cot = sec * np.sin(phi), csc * np.cos(phi)
            dX, dY = X * tan, -Y * cot
            ddX, ddY = X * (tan * tan + sec * sec), Y * (cot * cot + csc * csc)
            slope = (X - x) * dX + (Y - y) * dY
            curvature = dX * dX + (X - x) * ddX + dY * dY + (Y - y) * ddY
            step = np.where(curvature > 0.0, slope / curvature, 0.0)
            phi = np.clip(phi - step, 1e-12, 0.5 * np.pi - 1e-12)
    curves = np.where(near, best.min(-1), np.inf).min(-1, initial=np.inf)
    return np.minimum(lines, curves)
