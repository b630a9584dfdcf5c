"""The four robustness measures, over either backend.

Purification time, efficiency threshold, mixing time and survival time,
all defined against the shared halfway threshold theta = (1 + Tr[rho_ss^2])/2.
The Brownian-particle backend is deterministic (closed-form Riccati and
Lyapunov curves, closed-form survival); the two-level-atom backend is Monte
Carlo with explicit statistical uncertainties, in the atom's unit gamma
(times in 1/gamma, so Omega alone sets a result).  Each QBM measure has
one body over a stack of disk points, which the detection-disk optimizer
calls once for its coarse grid and once per compass-search iteration; the
module also hosts the unravelling ranking harness.
"""

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import gaussian as G
from . import trajectories as T
from .errors import (
    AssumptionError,
    BracketError,
    ConvergenceError,
    HorizonError,
)
from .gaussian import DiskPoint, QbmParams, qbm_generators
from .hilbert import propagate_matrices, purity, steady_state
from .systems import TlaParams, build_tla
from .trajectories import TrajectoryConfig

MEASURE_KINDS = ("purification", "efficiency_threshold", "mixing", "survival")


@dataclass(frozen=True)
class ThetaThreshold:
    """Halfway purity threshold shared by all four measures of a system."""

    theta: float
    rho_ss_purity: float

    def __post_init__(self):
        expect = 0.5 * (1.0 + self.rho_ss_purity)
        if abs(self.theta - expect) > 1e-12:
            raise ValueError("theta must equal (1 + purity(rho_ss))/2 exactly")

    @staticmethod
    def from_purity(p):
        return ThetaThreshold(theta=0.5 * (1.0 + p), rho_ss_purity=p)


# the unconditional particle state spreads without bound, so its purity
# (and hence theta) sits at the bottom of the halfway scale
QBM_THETA = ThetaThreshold.from_purity(0.0)


@dataclass(frozen=True)
class MeasureResult:
    kind: str
    value: float
    uncertainty: float = 0.0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in MEASURE_KINDS:
            raise ValueError(f"unknown measure kind {self.kind!r}")
        if self.value < 0:
            raise ValueError("measure values are non-negative")
        if self.kind == "efficiency_threshold" and not 0.0 <= self.value <= 1.0:
            raise ValueError("efficiency threshold must lie in [0, 1]")


@dataclass(frozen=True)
class CrossingCurve:
    times: np.ndarray
    values: np.ndarray
    threshold: float

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or np.shape(self.values)[-1:] != t.shape:
            raise ValueError("times must be 1-d and as long as each curve")
        if np.any(t[1:] <= t[:-1]):
            raise ValueError("time grid must be strictly increasing")


def first_crossing(curve):
    """Earliest time at which the curve meets its threshold, by linear
    interpolation inside the first straddling grid interval: a float, or
    HorizonError; for a stack of curves (values (..., len(times))), (times,
    faults) row by row, a HorizonError for each row that never meets it."""
    t, theta = np.asarray(curve.times, dtype=float), curve.threshold
    values = np.asarray(curve.values, dtype=float)
    v = values.reshape(-1, len(t))
    d = v - theta
    # each row's first interval whose ends straddle (or touch) theta, or its first
    ends = np.argmax(d[:, :-1] * d[:, 1:] <= 0, axis=1)[:, None] + [0, 1]
    (d_i, d_next), (t_i, t_next) = d[np.arange(len(d))[:, None], ends].T, t[ends].T
    faults = np.full(len(d), None, dtype=object)
    G._flag(faults, ~(d_i * d_next <= 0), lambda k: HorizonError(
        f"no crossing of {theta:.6g} within the horizon "
        f"(curve spans {v[k, 0]:.6g} .. {v[k, -1]:.6g})",
        first_value=float(v[k, 0]), last_value=float(v[k, -1]), threshold=theta))
    # a flat straddle lies on theta, which it meets at the interval's start
    frac = d_i / np.where(d_next == d_i, 1.0, d_i - d_next)
    return G._settle(t_i + frac * (t_next - t_i), faults, values.shape[:-1])


def crossing_with_uncertainty(times, values, stderr, theta):
    """Crossing time of a noisy mean curve and its propagated 1-sigma error."""
    tau = first_crossing(CrossingCurve(times, values, theta))
    i = int(np.searchsorted(times, tau, side="right") - 1)
    i = min(max(i, 0), len(times) - 2)
    slope = (values[i + 1] - values[i]) / (times[i + 1] - times[i])
    local_err = 0.5 * (stderr[i] + stderr[i + 1])
    if slope == 0:
        return tau, float("inf")
    return tau, float(abs(local_err / slope))


# ---------------------------------------------------------------------------
# Brownian-particle backend (deterministic)

# every QBM curve runs from 0 to this time (units of the inverse damping
# rate), on a log grid of this many points after t = 0
_QBM_HORIZON = 200.0
_QBM_GRID_POINTS = 400
# Reported error of the QBM efficiency threshold.  Newton solves the root to
# rounding: it agrees with the bracketed reference root of tests/oracles.py
# (xtol 1e-12) to 1e-11 over T in [0.01, 1000] x the default disk grid.  It
# rests on the algebraic stationary solve, so 1e-9 is a conservative bound.
_QBM_ETA_UNCERTAINTY = 1e-9
_QBM_STACK = 16     # disk points per stacked evaluation: keeps work arrays near 2 MB


@functools.lru_cache(maxsize=128)
def _log_grid(t_fast, horizon):
    """Time grid of the QBM curves, shared read-only between calls."""
    lo = min(1e-6 / max(t_fast, 1e-12), horizon * 1e-3)
    grid = np.concatenate([[0.0], np.geomspace(lo, horizon, _QBM_GRID_POINTS)])
    grid.setflags(write=False)
    return grid


def _qbm_rate_scale(params):
    return max(1.0, 2.0 * params.temperature, 1.0 / (4.0 * params.temperature))


def _qbm_measure(kind, params, u):
    """One QBM measure at disk point u: its stacked body on a stack of one."""
    value = G._settle(*_qbm_values(kind, params, [u]), ())
    err = _QBM_ETA_UNCERTAINTY if kind == "efficiency_threshold" else 0.0
    return MeasureResult(kind, value, err,
                         metadata={"temperature": params.temperature, "r": u.r, "phi": u.phi})


def _qbm_values(kind, params, points):
    """One QBM measure at each of a sequence of disk points: (values,
    faults), a fault being the SimulationError the point's measure raises
    (its value is then NaN).  The three times are first crossings of theta
    by the stacked curves of the points' unit-efficiency generators."""
    if len(points) > _QBM_STACK:
        return tuple(map(np.concatenate, zip(*(_qbm_values(kind, params, points[i:i + _QBM_STACK])
                                                for i in range(0, len(points), _QBM_STACK)))))
    if kind == "efficiency_threshold":
        return _threshold_values(params, points)
    gen = qbm_generators(params, points, eta=1.0)
    grid = _log_grid(_qbm_rate_scale(params), _QBM_HORIZON)
    if kind == "purification":
        curves, faults = G.conditioned_purity_curve(gen, grid, G.qbm_information_start(params))
    else:
        v_c, faults = G._riccati_stationary_algebraic(gen)
        if kind == "mixing":
            curves = G.gaussian_purity(G.unconditional_covariance_curve(gen, v_c, grid))
        else:
            curves, later = G.survival_overlap_curve(gen, v_c, grid)
            faults = np.where(faults.astype(bool), faults, later)
    taus, later = first_crossing(CrossingCurve(grid, curves, QBM_THETA.theta))
    faults = np.where(faults.astype(bool), faults, later)
    taus[faults.astype(bool)] = np.nan
    return taus, faults


def purification_time_qbm(params, u):
    """Time for the conditional purity to climb to 1/2, conditioning from the
    unconditional long-time state (information-form flow from Y = diag(0, 1/T))."""
    return _qbm_measure("purification", params, u)


def mixing_time_qbm(params, u):
    """Time for an unobserved, conditionally-pure state to mix down to theta."""
    return _qbm_measure("mixing", params, u)


def survival_time_qbm(params, u):
    """Time for a frozen conditioned state's mean overlap with its
    unconditionally evolved copy to fall to theta."""
    return _qbm_measure("survival", params, u)


def efficiency_threshold_qbm(params, u):
    """Detection efficiency at which the stationary conditional purity sits
    halfway between no observation (0) and perfect observation
    (_threshold_values on a stack of one)."""
    return _qbm_measure("efficiency_threshold", params, u)


def _threshold_values(params, points):
    """The efficiency threshold at each disk point, as _qbm_values gives it.

    The four probes of all points (monotonicity check and bracket) are one
    stacked stationary solve; one vectorised Newton on (V, eta)
    (G.stationary_efficiency, purity theta being det V = 1 / (4 theta^2))
    solves the roots, started at the secant point of each bracket's purities
    and the stationary V of its upper probe.  A root Newton does not accept
    is the point's ConvergenceError.
    """
    theta = QBM_THETA.theta
    gen = qbm_generators(params, points, eta=1.0)
    probe = np.array([0.25, 0.5, 0.75, 1.0])
    covs, probe_faults = G._riccati_stationary_algebraic(gen, probe)
    vals = G.gaussian_purity(covs)
    # a point's fault is that of its first failing probe
    faults = probe_faults[np.arange(len(points)), probe_faults.astype(bool).argmax(axis=1)]
    G._flag(faults, (np.diff(vals, axis=1) < 0).any(axis=1), lambda i: AssumptionError(
        f"stationary purity not monotone in eta: {vals[i].tolist()}"))
    G._flag(faults, vals[:, -1] < theta, lambda _i: BracketError(
        "even perfect efficiency stays below theta"))
    ok = ~faults.astype(bool)
    rows, i_hi = np.arange(len(points)), np.argmax(vals >= theta, axis=1)
    hi, lo = probe[i_hi], np.where(i_hi > 0, probe[i_hi - 1], 0.0)
    p_hi = vals[rows, i_hi]
    p_lo = np.where(i_hi > 0, vals[rows, i_hi - 1], QBM_THETA.rho_ss_purity)
    eta_start = lo + (hi - lo) * (theta - p_lo) / np.where(ok, p_hi - p_lo, 1.0)
    v_start = np.where(ok[:, None, None], covs[rows, i_hi], np.nan)
    eta, accepted = G.stationary_efficiency(gen, 0.25 / theta ** 2, v_start, eta_start, (lo, hi))
    G._flag(faults, ~accepted, lambda i: ConvergenceError(
        f"no efficiency threshold accepted in the bracket [{lo[i]:g}, {hi[i]:g}]: "
        f"Newton reached eta = {eta[i]:.6g}"))
    eta[faults.astype(bool)] = np.nan
    return eta, faults


_QBM_MEASURES = {
    "purification": purification_time_qbm,
    "efficiency_threshold": efficiency_threshold_qbm,
    "mixing": mixing_time_qbm,
    "survival": survival_time_qbm,
}


# ---------------------------------------------------------------------------
# two-level-atom backend (Monte Carlo)


@dataclass(frozen=True)
class McOptions:
    """Ensemble sizing for the Monte Carlo measures; dt in units of 1/gamma."""

    n_traj: int = 10_000
    dt: float = 1e-3
    seed: int = 2024

    def __post_init__(self):
        T._check_seed(self.seed)


# run lengths of the Monte Carlo measures, in units of 1/gamma: the
# purification curve, the conditioning run before freezing states, the
# mixing/survival delay grid and the long-run purity of the efficiency
# threshold; curves are sampled every _TLA_SAMPLE_STRIDE steps
_TLA_PUR_HORIZON = 10.0
_TLA_RELAX_TIME = 8.0
_TLA_TAU_HORIZON = 12.0
_TLA_ETA_TIME = 20.0
_TLA_SAMPLE_STRIDE = 20


def tla_theta(params):
    rho_ss = steady_state(build_tla(params))
    return ThetaThreshold.from_purity(purity(rho_ss)), rho_ss


def _mixed_steady_state(params, degenerate):
    """tla_theta, or, for an undriven atom's pure steady state (theta = 1),
    an AssumptionError that the measure is `degenerate`."""
    theta, rho_ss = tla_theta(params)
    if theta.rho_ss_purity >= 1.0 - 1e-9:
        raise AssumptionError(
            f"steady state is already pure (theta = 1): {degenerate} for an undriven atom")
    return theta, rho_ss


def purification_time_tla(params, spec, opts=McOptions()):
    """First crossing of the mean conditional purity up through theta,
    conditioning from the unconditional steady state at unit efficiency."""
    theta, rho_ss = tla_theta(params)
    if theta.rho_ss_purity >= 1.0 - 1e-12:
        return MeasureResult("purification", 0.0,
                             metadata={"rabi": params.rabi, "scheme": spec.kind,
                                       "degenerate": True})
    spec1 = replace(spec, eta=1.0)
    model = build_tla(params)
    cfg = TrajectoryConfig(dt=opts.dt, horizon=_TLA_PUR_HORIZON, seed=opts.seed,
                           sample_stride=_TLA_SAMPLE_STRIDE)
    curve = T.run_ensemble(model, spec1, rho_ss, cfg, opts.n_traj, "purity")
    tau, err = crossing_with_uncertainty(curve.times, curve.mean, curve.stderr,
                                         theta.theta)
    return MeasureResult("purification", tau, err,
                         metadata=_mc_meta(params, spec, opts, curve.n))


def _mc_meta(params, spec, opts, n):
    return {"rabi": params.rabi, "scheme": spec.kind,
            "n_traj": n, "dt": opts.dt, "seed": opts.seed}


def _superop_steps(model, mats, tau_grid):
    """Deterministic evolution of a batch of frozen states: yields (tau,
    states) for each tau of tau_grid, exactly (hilbert.propagate_matrices)."""
    return propagate_matrices(model, mats, tau_grid)


def conditioned_stationary_states(params, spec, opts):
    """Sample stationary conditioned states from long unit-efficiency runs."""
    model = build_tla(params)
    _, rho_ss = tla_theta(params)
    cfg = TrajectoryConfig(dt=opts.dt, horizon=_TLA_RELAX_TIME, seed=opts.seed)
    return T.run_final_states(model, replace(spec, eta=1.0), rho_ss, cfg, opts.n_traj)


def mixing_and_survival_tla(params, spec, opts=McOptions()):
    """Both unobserved-decay measures from one conditioned ensemble.

    Freeze each conditioned state, evolve a copy deterministically, and
    average purity (mixing) and frozen-against-evolved overlap (survival)
    across the ensemble at each delay.
    """
    theta, _ = _mixed_steady_state(params, "the mixing and survival times are degenerate")
    model = build_tla(params)
    frozen = conditioned_stationary_states(params, spec, opts)
    n = frozen.shape[0]
    tau_grid = np.linspace(0.0, _TLA_TAU_HORIZON, 241)
    # mean and standard error of the purity and the overlap at each delay
    stats, root_n = [], math.sqrt(n)
    for _, states in _superop_steps(model, frozen, tau_grid):
        p = np.einsum("bij,bji->b", states, states).real
        ov = np.einsum("bij,bji->b", frozen, states).real
        stats.append([p.mean(), p.std(ddof=1) / root_n, ov.mean(), ov.std(ddof=1) / root_n])
    pur_mean, pur_err, ov_mean, ov_err = np.array(stats).T
    meta = _mc_meta(params, spec, opts, n)
    t_mix, e_mix = crossing_with_uncertainty(tau_grid, pur_mean, pur_err, theta.theta)
    t_sur, e_sur = crossing_with_uncertainty(tau_grid, ov_mean, ov_err, theta.theta)
    return (MeasureResult("mixing", t_mix, e_mix, metadata=meta),
            MeasureResult("survival", t_sur, e_sur, metadata=meta))


def mixing_time_tla(params, spec, opts=McOptions()):
    return mixing_and_survival_tla(params, spec, opts)[0]


def survival_time_tla(params, spec, opts=McOptions()):
    return mixing_and_survival_tla(params, spec, opts)[1]


def _long_run_purity(params, spec, etas, opts):
    """Each trajectory's mean purity over the final quarter of a 20/gamma run,
    at every efficiency in `etas` from one pass on shared noise: (E, n_traj)."""
    model = build_tla(params)
    _, rho_ss = tla_theta(params)
    cfg = TrajectoryConfig(dt=opts.dt, horizon=_TLA_ETA_TIME, seed=opts.seed,
                           sample_stride=_TLA_SAMPLE_STRIDE)
    return T.run_purity_averages(model, spec, rho_ss, cfg, opts.n_traj, etas)


_JACKKNIFE_BLOCKS = 20


def _eta_crossing(etas, values, theta):
    """Where a rising curve of long-run purities meets theta: the root of a
    quadratic through the three points nearest theta if exactly one lies
    between them, else the line through the two nearest, kept in range."""
    order = np.argsort(np.abs(values - theta))
    x, v = etas[np.sort(order[:3])], values[np.sort(order[:3])]
    roots = np.roots(np.polyfit(x, v - theta, 2))
    inside = [r.real for r in roots if r.imag == 0 and x[0] <= r.real <= x[-1]]
    if len(inside) == 1:
        return float(inside[0])
    (e0, e1), (v0, v1) = etas[order[:2]], values[order[:2]]
    return float(np.clip(e0 + (theta - v0) * (e1 - e0) / (v1 - v0), etas[0], etas[-1]))


def efficiency_threshold_tla(params, spec, opts=McOptions()):
    """Efficiency at which the long-run purity reaches theta, from two
    stacked passes over common random numbers.

    Pass 1 runs the probes 0.25, 0.5, 0.75 and 1: the monotonicity check and
    the bracket [lo, hi] of adjacent grid points (eta = 0 is the steady state).
    Pass 2 runs lo + (hi - lo) * {1/4, 1/2, 3/4} on the same seed and
    trajectories.  The error is a jackknife over _JACKKNIFE_BLOCKS blocks of
    trajectories (Efron & Stein, Ann. Stat. 9, 586, 1981).
    """
    theta, _ = _mixed_steady_state(params, "the efficiency threshold is degenerate")
    probe = np.array([0.25, 0.5, 0.75, 1.0])
    first = _long_run_purity(params, spec, probe, opts)
    n = first.shape[1]
    vals, errs = first.mean(axis=1), first.std(axis=1, ddof=1) / math.sqrt(n)
    for va, vb, sa, sb in zip(vals, vals[1:], errs, errs[1:]):
        if vb < va - 3.0 * math.hypot(sa, sb):
            raise AssumptionError(
                f"long-run purity not monotone in eta: {[float(v) for v in vals]}")
    if vals[-1] < theta.theta:
        raise BracketError(
            f"no bracket in (0, 1]: purity spans {theta.rho_ss_purity:.4f} .. "
            f"{vals[-1]:.4f} vs theta = {theta.theta:.4f}")
    # eta = 0 is the steady state itself, a row of constants
    grid = np.vstack([np.full(n, theta.rho_ss_purity), first])
    hi = int(np.argmax(vals >= theta.theta)) + 1
    lo_eta, hi_eta = ([0.0] + probe.tolist())[hi - 1:hi + 1]
    inner = lo_eta + (hi_eta - lo_eta) * np.array([0.25, 0.5, 0.75])
    second = _long_run_purity(params, spec, inner, opts)
    bracket = np.vstack([grid[hi - 1], second, grid[hi]])
    etas = np.concatenate([[lo_eta], inner, [hi_eta]])
    eta_thr = _eta_crossing(etas, bracket.mean(axis=1), theta.theta)
    blocks = np.array_split(np.arange(n), min(_JACKKNIFE_BLOCKS, n))
    total = bracket.sum(axis=1)
    reps = np.array([_eta_crossing(etas, (total - bracket[:, b].sum(axis=1)) / (n - len(b)),
                                   theta.theta) for b in blocks])
    uncertainty = math.sqrt((len(blocks) - 1) * np.mean((reps - reps.mean()) ** 2))
    meta = dict(_mc_meta(params, spec, opts, n), passes=2, jackknife_blocks=len(blocks),
                eta_grid=[probe.tolist(), inner.tolist()],
                long_run_purity=[vals.tolist(), second.mean(axis=1).tolist()],
                long_run_stderr=[errs.tolist(),
                                 (second.std(axis=1, ddof=1) / math.sqrt(n)).tolist()])
    return MeasureResult("efficiency_threshold", eta_thr, uncertainty, metadata=meta)


_TLA_MEASURES = {
    "purification": purification_time_tla,
    "efficiency_threshold": efficiency_threshold_tla,
    "mixing": mixing_time_tla,
    "survival": survival_time_tla,
}


# ---------------------------------------------------------------------------
# dispatch front door

def purification_time(system, spec, **kw):
    return _dispatch("purification", system, spec, **kw)


def efficiency_threshold(system, spec, **kw):
    return _dispatch("efficiency_threshold", system, spec, **kw)


def mixing_time(system, spec, **kw):
    return _dispatch("mixing", system, spec, **kw)


def survival_time(system, spec, **kw):
    return _dispatch("survival", system, spec, **kw)


def _dispatch(kind, system, spec, **kw):
    if isinstance(system, QbmParams):
        return _QBM_MEASURES[kind](system, spec, **kw)
    if isinstance(system, TlaParams):
        return _TLA_MEASURES[kind](system, spec, **kw)
    raise TypeError(f"unsupported system {type(system).__name__}")


# ---------------------------------------------------------------------------
# detection-disk optimizer (deterministic backend only)

# the optimizer's coarse grid: these rings, each but the centre at this
# many equally spaced phi (97 points)
_DISK_RINGS = (0.0, 0.25, 0.5, 0.75, 1.0)
_DISK_PHI_POINTS = 24


def optimize_disk(params, kind):
    """Most robust general-dyne point for one robustness measure.

    Coarse grid over the disk (_DISK_RINGS x _DISK_PHI_POINTS), evaluated
    as one stacked call of the measure's body (_qbm_values), followed by a
    compass search whose stencils are stacked calls too (_compass_search).
    It starts from the best grid point, and from the runner-up only when
    that is no grid neighbour of the best (one ring and one phi step away at
    most; the centre neighbours the first ring), since only then can it lie
    in another basin.  Robust means fast information gain (purification
    time and efficiency threshold minimized) but slow degradation while
    unobserved (mixing and survival times maximized).  Points where the
    measure fails (e.g. pure momentum homodyne) are recorded, once each,
    and skipped.
    """
    if kind not in MEASURE_KINDS:
        raise ValueError(f"unknown measure kind {kind!r}")
    sign = -1.0 if kind in ("mixing", "survival") else 1.0
    failures = {}       # failing disk point -> its fault

    def objective(points):
        values, faults = _qbm_values(kind, params, points)
        failures.update((u, fault) for u, fault in zip(points, faults) if fault is not None)
        return np.where(faults.astype(bool), np.inf, sign * values)

    rings, n_phi = _DISK_RINGS, _DISK_PHI_POINTS
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    # grid points by (ring index, phi index); the centre has one phi
    grid = [(i, j) for i, r in enumerate(rings) for j in (range(n_phi) if r > 0 else (0,))]
    points = [DiskPoint(rings[i], phis[j]) for i, j in grid]
    values = objective(points)
    if len(failures) == len(points):
        first = next(iter(failures.values()))
        raise ConvergenceError(
            f"every grid point failed to converge ({len(points)} of {len(points)}); "
            f"the first raised {type(first).__name__}: {first}")
    # a stable sort: ties go to the smaller ring, then the smaller phi
    order = np.argsort(values, kind="stable")
    i0, j0 = grid[order[0]]

    def near_best(n):
        # one ring and one phi step (wrapping at 2 pi) from the best point;
        # the centre is next to every point on the first ring
        i, j = grid[n]
        dj = abs(j - j0)
        return abs(i - i0) <= 1 and (
            min(dj, n_phi - dj) <= 1 or 0.0 in (rings[i], rings[i0]))

    starts = [(points[n], values[n]) for n in order[:2]
              if n == order[0] or not (near_best(n) or np.isinf(values[n]))]
    u = _compass_search(objective, starts)
    result = _QBM_MEASURES[kind](params, u)
    meta = dict(result.metadata, grid_failures=len(failures))
    return u, MeasureResult(result.kind, result.value, result.uncertainty, meta)


# the compass stencil's eight directions at the start steps (0.08 in r, 0.12
# in phi), the scales of the current step that one iteration probes, the
# step's shrink after an iteration that finds no better point, and the step
# scale at which a search stops: a phi step of 1e-6
_COMPASS = [(0.08 * dr, 0.12 * dp) for dr in (-1, 0, 1) for dp in (-1, 0, 1) if dr or dp]
_COMPASS_SCALES = (1.0, 0.25)
_COMPASS_SHRINK = 16.0
_COMPASS_TOL = 1e-6 / 0.12


def _compass_search(objective, starts):
    """Best disk point found by compass searches (Hooke & Jeeves, J. ACM 8,
    212, 1961; Torczon, SIAM J. Optim. 7, 1, 1997) from each (point, value)
    of starts; objective maps a list of disk points to their values.  Each
    iteration evaluates all live stencils, r clipped to [0, 1], as one list
    that names each point once.  A search moves to its best stencil point
    when that is better, taking on that point's step, and else shrinks it."""
    seen = dict(starts)
    searches = [[u, 1.0] for u, _ in starts]      # point, step scale
    while live := [s for s in searches if s[1] >= _COMPASS_TOL]:
        stencils = [[(DiskPoint(min(max(u.r + h * c * dr, 0.0), 1.0), u.phi + h * c * dp), c)
                     for c in _COMPASS_SCALES for dr, dp in _COMPASS] for u, h in live]
        new = list(dict.fromkeys(v for stencil in stencils for v, _ in stencil if v not in seen))
        seen.update(zip(new, objective(new)))
        for search, stencil in zip(live, stencils):
            v, c = min(stencil, key=lambda vc: seen[vc[0]])
            if seen[v] < seen[search[0]]:
                search[:] = v, search[1] * c
            else:
                search[1] /= _COMPASS_SHRINK
    return min((u for u, _ in searches), key=seen.get)


# ---------------------------------------------------------------------------
# ranking harness

@dataclass(frozen=True)
class RankingEntry:
    scheme: str
    value: float
    uncertainty: float
    resolved_vs_next: bool


# adjacent ranked schemes are resolved when their gap exceeds this many
# combined standard errors (95 percent intervals)
_RANK_Z = 1.96


def rank_unravellings(params, kind, schemes, opts=McOptions()):
    """Schemes ordered most-robust first, with 95 percent CI tie detection.

    Larger is more robust for the mixing and survival times (the state
    degrades slowly while unobserved); smaller is more robust for the
    purification time (information arrives fast) and the efficiency
    threshold (less of the environment is needed).  Adjacent pairs whose
    intervals overlap are flagged unresolved rather than broken
    arbitrarily.
    """
    results = {}
    for name in schemes:
        spec = T.UnravellingSpec(name)
        results[name] = _TLA_MEASURES[kind](params, spec, opts=opts)
    reverse = kind in ("mixing", "survival")
    ordered = sorted(results.items(), key=lambda kv: kv[1].value, reverse=reverse)
    entries = []
    for i, (name, res) in enumerate(ordered):
        resolved = True
        if i + 1 < len(ordered):
            nxt = ordered[i + 1][1]
            gap = abs(res.value - nxt.value)
            resolved = gap > _RANK_Z * math.hypot(res.uncertainty, nxt.uncertainty)
        entries.append(RankingEntry(scheme=name, value=res.value,
                                    uncertainty=res.uncertainty,
                                    resolved_vs_next=resolved))
    return entries
