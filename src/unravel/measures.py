"""The four robustness measures, over either backend.

Purification time, efficiency threshold, mixing time and survival time,
all defined against the shared halfway threshold theta = (1 + Tr[rho_ss^2])/2.
The Brownian-particle backend is deterministic (closed-form Riccati and
Lyapunov curves, closed-form survival); the two-level-atom backend is Monte
Carlo with explicit statistical uncertainties.  Also hosts the detection-disk
optimizer and the unravelling ranking harness.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm
from scipy.optimize import brentq, minimize

from . import gaussian as G
from . import trajectories as T
from .errors import (
    AssumptionError,
    BracketError,
    ConvergenceError,
    HorizonError,
    SimulationError,
)
from .gaussian import DiskPoint, QbmParams, qbm_generators
from .hilbert import liouvillian_matrix, purity, steady_state
from .systems import TlaParams, build_tla
from .trajectories import TrajectoryConfig, UnravellingSpec

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
        if t.ndim != 1 or len(t) != len(self.values):
            raise ValueError("times and values must be 1-d and equally long")
        if np.any(np.diff(t) <= 0):
            raise ValueError("time grid must be strictly increasing")


def first_crossing(curve):
    """Earliest time at which the curve meets its threshold, by linear
    interpolation inside the first straddling grid interval."""
    t = np.asarray(curve.times, dtype=float)
    v = np.asarray(curve.values, dtype=float)
    theta = curve.threshold
    d = v - theta
    if d[0] == 0.0:
        return float(t[0])
    straddle = np.nonzero(d[:-1] * d[1:] <= 0)[0]
    if len(straddle) == 0:
        raise HorizonError(
            f"no crossing of {theta:.6g} within the horizon "
            f"(curve spans {v[0]:.6g} .. {v[-1]:.6g})",
            first_value=float(v[0]), last_value=float(v[-1]), threshold=theta)
    i = int(straddle[0])
    if d[i + 1] == d[i]:
        return float(t[i])
    frac = d[i] / (d[i] - d[i + 1])
    return float(t[i] + frac * (t[i + 1] - t[i]))


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

_QBM_HORIZON = 200.0
_QBM_ETA_XTOL = 1e-12
# Reported error of the QBM efficiency threshold.  Newton solves the root to
# rounding (within 2.4e-13 of brentq over T in [0.01, 1000] x the default
# disk grid) and its brentq fallback to _QBM_ETA_XTOL, but riccati_steady's
# flow fallback stops at a right-hand side below 1e-10; forcing that route at
# r = 1, T in {0.5, 1, 10, 100} moved the threshold by at most 1.1e-11
# against the algebraic solve.
_QBM_ETA_UNCERTAINTY = 1e-9


@functools.lru_cache(maxsize=128)
def _log_grid(t_fast, horizon, n=400):
    """Time grid of the QBM curves, shared read-only between calls."""
    lo = min(1e-6 / max(t_fast, 1e-12), horizon * 1e-3)
    grid = np.concatenate([[0.0], np.geomspace(lo, horizon, n)])
    grid.setflags(write=False)
    return grid


def _qbm_rate_scale(params):
    return max(1.0, 2.0 * params.temperature, 1.0 / (4.0 * params.temperature))


def purification_time_qbm(params, u, horizon=_QBM_HORIZON):
    """Time for the conditional purity to climb to 1/2, conditioning from the
    unconditional long-time state (information-form flow from Y = diag(0, 1/T))."""
    gen = qbm_generators(params, u, eta=1.0)
    grid = _log_grid(_qbm_rate_scale(params), horizon)
    p = G.conditioned_purity_curve(gen, grid, G.qbm_information_start(params))
    tau = first_crossing(CrossingCurve(grid, p, QBM_THETA.theta))
    return MeasureResult("purification", tau,
                         metadata={"temperature": params.temperature,
                                   "r": u.r, "phi": u.phi})


def mixing_time_qbm(params, u, horizon=_QBM_HORIZON):
    """Time for an unobserved, conditionally-pure state to mix down to theta."""
    gen = qbm_generators(params, u, eta=1.0)
    v_c = G.riccati_steady(gen)
    grid = _log_grid(_qbm_rate_scale(params), horizon)
    v_u = G.unconditional_covariance_curve(gen, v_c, grid)
    dets = v_u[:, 0, 0] * v_u[:, 1, 1] - v_u[:, 0, 1] ** 2
    p = 1.0 / np.sqrt(4.0 * dets)
    tau = first_crossing(CrossingCurve(grid, p, QBM_THETA.theta))
    return MeasureResult("mixing", tau,
                         metadata={"temperature": params.temperature,
                                   "r": u.r, "phi": u.phi})


def survival_time_qbm(params, u, horizon=_QBM_HORIZON):
    gen = qbm_generators(params, u, eta=1.0)
    v_c = G.riccati_steady(gen)
    grid = _log_grid(_qbm_rate_scale(params), horizon)
    s = G.survival_overlap_curve(gen, v_c, grid)
    tau = first_crossing(CrossingCurve(grid, s, QBM_THETA.theta))
    return MeasureResult("survival", tau,
                         metadata={"temperature": params.temperature,
                                   "r": u.r, "phi": u.phi})


def efficiency_threshold_qbm(params, u):
    """Detection efficiency at which the stationary conditional purity sits
    halfway between no observation (0) and perfect observation.

    The four probes, which check monotonicity and bracket the root, come
    from one stacked stationary solve.  The root itself is solved exactly
    by Newton on (V, eta) (G.stationary_efficiency, purity theta being
    det V = 1 / (4 theta^2)), started from the stationary covariance at the
    bracket's upper probe.  If Newton's root is not accepted, brentq on the
    stationary purity finds it instead (_efficiency_threshold_brentq).
    """
    theta = QBM_THETA.theta
    gen = qbm_generators(params, u, eta=1.0)
    probe = [0.25, 0.5, 0.75, 1.0]
    try:
        covs = [G.CovarianceState.from_matrix(v)
                for v in G._riccati_stationary_algebraic(gen, probe)]
    except ConvergenceError:
        covs = [G.riccati_steady(gen.with_eta(e)) for e in probe]
    vals = [float(G.gaussian_purity(v)) for v in covs]
    if any(b < a for a, b in zip(vals, vals[1:])):
        raise AssumptionError(f"stationary purity not monotone in eta: {vals}")
    if vals[-1] < theta:
        raise BracketError("even perfect efficiency stays below theta")
    lo = max([0.0] + [e for e, v in zip(probe, vals) if v < theta])
    i_hi = min(i for i, v in enumerate(vals) if v >= theta)
    hi = probe[i_hi]
    try:
        eta_thr, _ = G.stationary_efficiency(gen, 0.25 / theta ** 2, covs[i_hi].matrix,
                                             hi, (lo, hi))
    except ConvergenceError:
        eta_thr = _efficiency_threshold_brentq(gen, lo, hi)
    return MeasureResult("efficiency_threshold", eta_thr, uncertainty=_QBM_ETA_UNCERTAINTY,
                         metadata={"temperature": params.temperature,
                                   "r": u.r, "phi": u.phi})


def _efficiency_threshold_brentq(gen, lo, hi):
    """Root of the stationary purity at theta in [lo, hi] by brentq: the
    fallback of efficiency_threshold_qbm's Newton solve and its test
    reference.  Each step only rescales gen's eta-dependent terms
    (GaussianGenerators.with_eta)."""
    theta = QBM_THETA.theta

    def stationary_purity(eta):
        if eta == 0.0:
            return 0.0
        return G.gaussian_purity(G.riccati_steady(gen.with_eta(eta)))

    # a root to machine precision keeps the disk objective smooth in phi
    return brentq(lambda e: stationary_purity(e) - theta, lo, hi, xtol=_QBM_ETA_XTOL)


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
    """Ensemble sizing for the Monte Carlo measures; times in units of 1/gamma."""

    n_traj: int = 10_000
    dt: float = 1e-3
    seed: int = 2024
    pur_horizon: float = 10.0
    relax_time: float = 8.0
    tau_horizon: float = 12.0
    eta_time: float = 20.0
    sample_stride: int = 20


def tla_theta(params):
    rho_ss = steady_state(build_tla(params))
    return ThetaThreshold.from_purity(purity(rho_ss)), rho_ss


def _scaled(params, value):
    # internal times are in 1/gamma units already when gamma = 1; rescale
    return value / params.gamma


def purification_time_tla(params, spec, opts=McOptions()):
    """First crossing of the mean conditional purity up through theta,
    conditioning from the unconditional steady state at unit efficiency."""
    theta, rho_ss = tla_theta(params)
    if theta.rho_ss_purity >= 1.0 - 1e-12:
        return MeasureResult("purification", 0.0,
                             metadata={"rabi": params.rabi, "gamma": params.gamma,
                                       "scheme": spec.kind, "degenerate": True})
    spec1 = _with_eta(spec, 1.0)
    model = build_tla(params)
    cfg = TrajectoryConfig(dt=_scaled(params, opts.dt),
                           horizon=_scaled(params, opts.pur_horizon),
                           seed=opts.seed, sample_stride=opts.sample_stride)
    curve = T.run_ensemble(model, spec1, rho_ss, cfg, opts.n_traj, "purity")
    tau, err = crossing_with_uncertainty(curve.times, curve.mean, curve.stderr,
                                         theta.theta)
    return MeasureResult("purification", tau * params.gamma, err * params.gamma,
                         metadata=_mc_meta(params, spec, opts, curve.n))


def _with_eta(spec, eta):
    return UnravellingSpec(spec.kind, eta, disk=spec.disk,
                           lo_amplitude=spec.lo_amplitude)


def _mc_meta(params, spec, opts, n):
    return {"rabi": params.rabi, "gamma": params.gamma, "scheme": spec.kind,
            "n_traj": n, "dt": opts.dt, "seed": opts.seed}


def _superop_steps(model, mats, tau_grid):
    """Deterministic evolution of a batch of small states, sampled on tau_grid.

    Exact exponential stepping of the vectorized generator; yields (tau,
    states) including tau = 0.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    liou = liouvillian_matrix(model)
    d = model.dim
    y = mats.reshape(mats.shape[0], -1).astype(complex)
    yield 0.0, mats
    prev = 0.0
    prop_cache = {}
    for tau in tau_grid:
        if tau == 0.0:
            continue
        step = round(tau - prev, 15)
        if step not in prop_cache:
            prop_cache[step] = expm(liou * step)
        y = y @ prop_cache[step].T
        prev = tau
        yield tau, y.reshape(-1, d, d)


def conditioned_stationary_states(params, spec, opts):
    """Sample stationary conditioned states from long unit-efficiency runs."""
    model = build_tla(params)
    _, rho_ss = tla_theta(params)
    cfg = TrajectoryConfig(dt=_scaled(params, opts.dt),
                           horizon=_scaled(params, opts.relax_time),
                           seed=opts.seed)
    return T.run_final_states(model, _with_eta(spec, 1.0), rho_ss, cfg, opts.n_traj)


def mixing_and_survival_tla(params, spec, opts=McOptions()):
    """Both unobserved-decay measures from one conditioned ensemble.

    Freeze each conditioned state, evolve a copy deterministically, and
    average purity (mixing) and frozen-against-evolved overlap (survival)
    across the ensemble at each delay.
    """
    theta, _ = tla_theta(params)
    model = build_tla(params)
    frozen = conditioned_stationary_states(params, spec, opts)
    n = frozen.shape[0]
    n_tau = 240
    tau_grid = np.linspace(0.0, _scaled(params, opts.tau_horizon), n_tau + 1)[1:]
    pur0 = np.einsum("bij,bji->b", frozen, frozen).real
    err0 = pur0.std(ddof=1) / math.sqrt(n)
    taus = [0.0]
    pur_mean, pur_err = [pur0.mean()], [err0]
    ov_mean, ov_err = [pur0.mean()], [err0]
    for tau, states in _superop_steps(model, frozen, tau_grid):
        if tau == 0.0:
            continue
        p = np.einsum("bij,bji->b", states, states).real
        ov = np.einsum("bij,bji->b", frozen, states).real
        taus.append(tau)
        pur_mean.append(p.mean())
        pur_err.append(p.std(ddof=1) / math.sqrt(n))
        ov_mean.append(ov.mean())
        ov_err.append(ov.std(ddof=1) / math.sqrt(n))
    taus = np.array(taus)
    meta = _mc_meta(params, spec, opts, n)
    t_mix, e_mix = crossing_with_uncertainty(taus, np.array(pur_mean),
                                             np.array(pur_err), theta.theta)
    t_sur, e_sur = crossing_with_uncertainty(taus, np.array(ov_mean),
                                             np.array(ov_err), theta.theta)
    return (MeasureResult("mixing", t_mix * params.gamma, e_mix * params.gamma,
                          metadata=meta),
            MeasureResult("survival", t_sur * params.gamma, e_sur * params.gamma,
                          metadata=meta))


def mixing_time_tla(params, spec, opts=McOptions()):
    return mixing_and_survival_tla(params, spec, opts)[0]


def survival_time_tla(params, spec, opts=McOptions()):
    return mixing_and_survival_tla(params, spec, opts)[1]


def _long_run_purity(params, spec, etas, opts):
    """Each trajectory's mean purity over the final quarter of a 20/gamma run,
    at every efficiency in `etas` from one pass on shared noise: (E, n_traj)."""
    model = build_tla(params)
    _, rho_ss = tla_theta(params)
    cfg = TrajectoryConfig(dt=_scaled(params, opts.dt),
                           horizon=_scaled(params, opts.eta_time),
                           seed=opts.seed, sample_stride=opts.sample_stride)
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
    theta, _ = tla_theta(params)
    if theta.rho_ss_purity >= 1.0 - 1e-9:
        raise AssumptionError(
            "steady state is already pure (theta = 1): the efficiency "
            "threshold is degenerate for an undriven atom")
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

def optimize_disk(params, kind, r_grid=None, phi_points=24, refine=True,
                  horizon=_QBM_HORIZON):
    """Most robust general-dyne point for one robustness measure.

    Coarse grid over the disk followed by Nelder-Mead refinement from the
    two best grid points, bounded to r in [0, 1]: scipy clips every simplex
    vertex onto the disk, so no evaluation is spent outside it.  Robust
    means fast information gain (purification time and efficiency threshold
    minimized) but slow degradation while unobserved (mixing and survival
    times maximized).  Points where the measure fails (e.g. pure momentum
    homodyne) are recorded and skipped.
    """
    if kind not in MEASURE_KINDS:
        raise ValueError(f"unknown measure kind {kind!r}")
    measure = _QBM_MEASURES[kind]
    sign = -1.0 if kind in ("mixing", "survival") else 1.0
    kw = {} if kind == "efficiency_threshold" else {"horizon": horizon}

    failures = []

    def objective(x):
        u = DiskPoint(x[0], x[1])
        try:
            res = measure(params, u, **kw)
        except SimulationError as exc:
            failures.append((u.r, u.phi, str(exc)))
            return np.inf
        return sign * res.value

    if r_grid is None:
        r_grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    phis = np.linspace(0.0, 2.0 * math.pi, phi_points, endpoint=False)
    evals = []
    for r in r_grid:
        for phi in (phis if r > 0 else phis[:1]):
            val = objective((r, phi))
            if np.isfinite(val):
                evals.append((val, r, phi))
    if not evals:
        raise ConvergenceError("every grid point failed to converge")
    evals.sort()
    best_val, best_r, best_phi = evals[0]

    if refine:
        starts = {(round(r, 6), round(p, 6)) for _, r, p in evals[:2]}
        for r0, p0 in starts:
            res = minimize(objective, x0=[r0, p0], method="Nelder-Mead",
                           bounds=[(0.0, 1.0), (None, None)],
                           options={"xatol": 1e-6, "fatol": 1e-12,
                                    "initial_simplex": _simplex(r0, p0),
                                    "maxfev": 400})
            if res.fun < best_val:
                best_val, best_r, best_phi = res.fun, res.x[0], res.x[1]

    u = DiskPoint(best_r, best_phi)
    result = measure(params, u, **kw)
    meta = dict(result.metadata)
    meta["grid_failures"] = len(failures)
    return u, MeasureResult(result.kind, result.value, result.uncertainty, meta)


def _simplex(r0, phi0):
    base = np.array([r0, phi0])
    return np.array([base, base + [-0.08, 0.0], base + [0.0, 0.12]])


# ---------------------------------------------------------------------------
# ranking harness

@dataclass(frozen=True)
class RankingEntry:
    scheme: str
    value: float
    uncertainty: float
    resolved_vs_next: bool = True


def rank_unravellings(params, kind, schemes, opts=McOptions(), z=1.96):
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
        spec = T.named_scheme(name)
        if kind in ("mixing", "survival"):
            mix, sur = mixing_and_survival_tla(params, spec, opts)
            results[name] = mix if kind == "mixing" else sur
        else:
            results[name] = _TLA_MEASURES[kind](params, spec, opts=opts)
    reverse = kind in ("mixing", "survival")
    ordered = sorted(results.items(), key=lambda kv: kv[1].value, reverse=reverse)
    entries = []
    for i, (name, res) in enumerate(ordered):
        resolved = True
        if i + 1 < len(ordered):
            nxt = ordered[i + 1][1]
            gap = abs(res.value - nxt.value)
            resolved = gap > z * math.hypot(res.uncertainty, nxt.uncertainty)
        entries.append(RankingEntry(scheme=name, value=res.value,
                                    uncertainty=res.uncertainty,
                                    resolved_vs_next=resolved))
    return entries
