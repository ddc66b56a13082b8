"""Quench protocol: stroboscopic evolution from a deep-trivial ground
state, time-averaged spin polarizations, band-inversion momenta, slopes,
and the winding number they encode.

The quench direction is set by the frame: SYM1 is probed along y (initial
state the sigma_y = -1 eigenstate), SYM2 along x.  Band inversions are the
momenta where the quench-direction component of the Bloch axis vanishes;
there the time-averaged polarization along the quench axis dips to zero.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousSlopeError, NoBisError, ParityError
from .model import Frame, ModelParams, axis_field, brillouin_grid

DEFAULT_GRID = 512
DEFAULT_STEPS = 60

# Detection floor for |time-averaged quench polarization| at an inversion.
# Finite N leaves the averages "not strictly zero"; on top of the base
# floor the detector adds the k-local oscillation envelope 1/(N sin E).
FLOOR_TOL_LONG = 0.05   # N >= 60
FLOOR_TOL_SHORT = 0.12  # N < 60

# Trusted window for |slope|; outside it a candidate is rejected.
SLOPE_MIN = 0.2
SLOPE_MAX = 1.5

# Grid steps around a candidate within which the axis field is searched
# for sign changes.
SEARCH_WINDOW = 4

_DEDUP_TOL = 1e-6


@dataclass(frozen=True)
class QuenchSpec:
    params: ModelParams
    frame: Frame
    steps: int = DEFAULT_STEPS
    resolution: int = DEFAULT_GRID
    shots: int | None = None
    seed: int = 0

    def __post_init__(self):
        self.frame.quench_axis  # raises for the plain frame
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.shots is not None and self.shots < 1:
            raise ValueError("shots must be >= 1")


@dataclass
class PolarizationTrace:
    spec: QuenchSpec
    k_grid: np.ndarray
    energy: np.ndarray      # quasienergy E on the grid
    n: np.ndarray           # Bloch axis on the grid, shape (resolution, 3)
    s_t: np.ndarray         # (x, y) spin, shape (2, resolution, steps), t = 1..N
    measured: np.ndarray    # (x, y) means over t = 1..N, sampled if spec.shots is set
    stderr: np.ndarray      # standard errors of `measured`; zeros when noise-free


@dataclass(frozen=True)
class BisSlope:
    k: float
    g: int          # +1 / -1, paper-convention slope sign
    raw_slope: float
    positive_group: bool  # True for the k+ classification group


@dataclass(frozen=True)
class BisReport:
    slopes: list    # BisSlope per inversion momentum in (-pi, pi], ascending
    nu: int


def sample_shots(polarization, shots: int, seed) -> tuple:
    """Binomial readout of a polarization value (or array of values).

    Each value p in [-1, 1] is estimated from `shots` two-outcome samples
    with success probability (1+p)/2; returns (estimate, standard error)
    with stderr = 2*sqrt(phat*(1-phat)/shots).  Deterministic per seed.
    """
    pol = np.asarray(polarization, dtype=float)
    if np.any(np.abs(pol) > 1.0 + 1e-12):
        raise ValueError("|polarization| must not exceed 1")
    prob = np.clip((1.0 + pol) / 2.0, 0.0, 1.0)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    successes = rng.binomial(shots, prob)
    phat = successes / shots
    estimate = 2.0 * phat - 1.0
    stderr = 2.0 * np.sqrt(phat * (1.0 - phat) / shots)
    return estimate, stderr


def _stream_seed(master: int, k_index: int, observable: str):
    # one independent stream per (k, observable), so the draws at one
    # momentum do not depend on the grid or on the other observable
    return (int(master), int(k_index), 0 if observable == "x" else 1)


def evolve_polarizations(spec: QuenchSpec) -> PolarizationTrace:
    """Stroboscopic traces and their time averages, sampled per point with
    binomial shot noise when spec.shots is set.

    Each period turns the spin by 2E about the in-plane axis n, so the
    initial -e_q spin reads s(t) = -n_q n (1 - cos 2tE) - cos(2tE) e_q.
    Raises GaplessPointError when a grid momentum sits on a gap closing.
    """
    ks = brillouin_grid(spec.resolution)
    energy, n = axis_field(ks, spec.params, spec.frame)
    q = spec.frame.quench_axis
    c = np.cos(2.0 * np.outer(energy, np.arange(1, spec.steps + 1)))
    s_t = -(n[:, q] * n[:, :2].T)[:, :, None] * (1.0 - c)
    s_t[q] -= c
    avg = s_t.mean(axis=2)
    if spec.shots is None:
        return PolarizationTrace(spec, ks, energy, n, s_t, avg, np.zeros_like(avg))
    est, err = zip(*(_sample_grid(avg[a], spec, "xy"[a]) for a in (0, 1)))
    return PolarizationTrace(spec, ks, energy, n, s_t, np.array(est), np.array(err))


def _sample_grid(avg, spec: QuenchSpec, observable: str):
    est = np.empty_like(avg)
    err = np.empty_like(avg)
    for i, value in enumerate(avg):
        est[i], err[i] = sample_shots(
            np.clip(value, -1.0, 1.0),
            spec.shots,
            _stream_seed(spec.seed, i, observable),
        )
    return est, err


def find_bis(trace: PolarizationTrace, floor_tol: float | None = None) -> list:
    """Band-inversion momenta from the quench-direction time average.

    Grid points where the average dips below the detection floor or changes
    sign seed search windows; within each window every sign change of the
    axis-field quench component is bisected to machine precision.  Raises
    NoBisError when nothing survives.
    """
    spec = trace.spec
    ks = trace.k_grid
    nk = len(ks)
    h = 2.0 * np.pi / nk
    q = spec.frame.quench_axis
    avg_q = trace.measured[q]
    energy, nq = trace.energy, trace.n[:, q]

    base = (
        (FLOOR_TOL_LONG if spec.steps >= 60 else FLOOR_TOL_SHORT)
        if floor_tol is None
        else floor_tol
    )
    floor = base + 1.0 / (spec.steps * np.maximum(np.sin(energy), 1e-3))
    dips = np.abs(avg_q) < floor
    crossings = np.signbit(avg_q) != np.signbit(np.roll(avg_q, -1))
    flagged = np.where(dips | crossings | np.roll(crossings, 1))[0]

    marked = np.zeros(nk, dtype=bool)
    for i in flagged:
        marked[(i + np.arange(-SEARCH_WINDOW, SEARCH_WINDOW + 1)) % nk] = True

    roots = []
    for i in range(nk):
        j = (i + 1) % nk
        if not (marked[i] and marked[j]):
            continue
        fa, fb = nq[i], nq[j]
        if fa == 0.0:
            # exact grid-point zero counts only if the field crosses there
            prev = nq[(i - 1) % nk]
            if prev != 0.0 and fb != 0.0 and np.signbit(prev) != np.signbit(fb):
                roots.append(ks[i])
            continue
        if fb == 0.0 or np.signbit(fa) == np.signbit(fb):
            continue
        a, b = ks[i], ks[i] + h
        for _ in range(60):
            m = 0.5 * (a + b)
            fm = float(axis_field(m, spec.params, spec.frame)[1][q])
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
            abs(r - o) > _DEDUP_TOL and abs(abs(r - o) - 2.0 * np.pi) > _DEDUP_TOL
            for o in out
        ):
            out.append(r)
    if not out:
        raise NoBisError(
            "no BIS found: trivial field configuration or insufficient grid"
        )
    return sorted(out)


def slope_at_bis(trace: PolarizationTrace, k_bis: float) -> BisSlope:
    """Slope sign of the orthogonal time average across one inversion point.

    The finite difference uses the two nearest grid neighbors on each side
    and is normalized by the same difference of the axis-field quench
    component, which orients the crossing and scales the theoretical
    magnitude to 1.  Raises AmbiguousSlopeError outside the trusted window.
    """
    spec = trace.spec
    ks = trace.k_grid
    nk = len(ks)
    h = 2.0 * np.pi / nk
    q = spec.frame.quench_axis
    nq = trace.n[:, q]
    avg_o = trace.measured[1 - q]

    i0 = int(np.rint((k_bis + np.pi) / h)) % nk
    stencil = np.array([(i0 - 2) % nk, (i0 - 1) % nk, (i0 + 1) % nk, (i0 + 2) % nk])
    weights = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0
    d_orth = float(weights @ avg_o[stencil])
    d_nq = float(weights @ nq[stencil])
    if d_nq == 0.0:
        raise AmbiguousSlopeError("ambiguous slope: flat quench component")
    raw = d_orth / d_nq
    if not (SLOPE_MIN <= abs(raw) <= SLOPE_MAX):
        raise AmbiguousSlopeError(
            f"ambiguous slope: |{raw:.3f}| outside [{SLOPE_MIN}, {SLOPE_MAX}]"
        )
    # Sign convention reproducing the published values for both quench
    # directions while keeping nu = (sum_k+ g - sum_k- g)/2 equal to the
    # static winding: the y-quench reads the slope directly, the x-quench
    # with the opposite sign.
    g = int(np.sign(raw)) if q == 1 else -int(np.sign(raw))
    return BisSlope(
        k=k_bis,
        g=g,
        raw_slope=raw,
        positive_group=bool(d_nq < 0.0),
    )


def bis_report(trace: PolarizationTrace, floor_tol: float | None = None) -> BisReport:
    """Locate inversions, classify slopes, and combine them into the winding."""
    momenta = find_bis(trace, floor_tol=floor_tol)
    slopes = [slope_at_bis(trace, kb) for kb in momenta]
    acc = 0
    for s in slopes:
        acc += s.g if s.positive_group else -s.g
    if acc % 2:
        raise ParityError("unpaired inversion points: slope sum is odd")
    return BisReport(slopes=slopes, nu=acc // 2)


def winding_from_quench(spec: QuenchSpec) -> int:
    """Winding number measured through the quench protocol."""
    return bis_report(evolve_polarizations(spec)).nu
