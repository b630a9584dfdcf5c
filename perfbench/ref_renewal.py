"""Renewal-process reference for the driven atom under direct detection.

Resonance fluorescence, H = (Omega/2) sigma_x and L = sqrt(gamma) sigma_-
in the basis (e, g), watched by a photodetector of efficiency eta.  A
detected click always resets the atom to |g><g|, so a conditioned state is
fixed by its age s, the time since the last click:

    rho(s) = sigma(s) / Tr sigma(s),   sigma(s) = e^{(L - eta J) s} |g><g|,

with L the Lindblad generator and J rho = L rho L^dag.  Runs start from
rho_ss, whose unconditional state never moves, so clicks arrive at the
constant mean rate u = eta gamma <e|rho_ss|e> and the age density at time t
is u Tr sigma(s) on [0, t).  Trajectories that have not clicked yet carry
the weight Tr e^{(L - eta J) t} rho_ss and that state.  Ensemble averages of
purity and overlap then follow by quadrature, and crossings by brentq.

`simulate` is the second route: an event-driven Monte Carlo that draws
waiting times from the tabulated no-click probability.  It is used only by
the self-tests.
"""

import math

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.linalg import expm, null_space
from scipy.optimize import brentq

GAMMA = 1.0
_SM = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)    # |g><e|
_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_GG = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
_I2 = np.eye(2)


def _left(a):
    return np.kron(a, _I2)


def _right(b):
    # row-stacked vec(X b) = (I kron b^T) vec(X)
    return np.kron(_I2, b.T)


def generators(omega):
    """(Lindblad generator, detected-jump superoperator) on row-stacked 2x2."""
    h = 0.5 * omega * _SX
    c = math.sqrt(GAMMA) * _SM
    cdc = c.conj().T @ c
    jump = np.kron(c, c.conj())
    lind = -1j * (_left(h) - _right(h)) + jump - 0.5 * (_left(cdc) + _right(cdc))
    return lind, jump


def steady_state(omega):
    lind, _ = generators(omega)
    v = null_space(lind)[:, 0].reshape(2, 2)
    v = 0.5 * (v + v.conj().T)
    return v / np.trace(v).real


def _vec(m):
    return np.asarray(m, dtype=complex).reshape(-1)


def _mats(vecs):
    return np.asarray(vecs).reshape(-1, 2, 2)


def _purity(m):
    return np.einsum("...ij,...ji->...", m, m).real


def _trace(m):
    return np.einsum("...ii->...", m).real


def theta(omega):
    return 0.5 * (1.0 + float(_purity(steady_state(omega))))


def _gauss_legendre(t, panels=64, order=16):
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, t, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    return ((mid[:, None] + half[:, None] * x).ravel(),
            (half[:, None] * w).ravel())


def conditioned_ensemble(omega, eta, t):
    """(weights, states) of the conditioned ensemble at time t after rho_ss."""
    lind, jump = generators(omega)
    no_click = lind - eta * jump
    rho_ss = steady_state(omega)
    rate = eta * GAMMA * rho_ss[0, 0].real
    ages, w = _gauss_legendre(t)
    sig = _mats(expm(ages[:, None, None] * no_click) @ _vec(_GG))
    sig0 = _mats(expm(t * no_click) @ _vec(rho_ss))
    sig = np.concatenate([sig, sig0])
    tr = _trace(sig)
    weights = np.concatenate([rate * w * tr[:-1], tr[-1:]])
    return weights, sig / tr[:, None, None]


def _crossing(curve, tau_max, step=0.05):
    th_grid = np.arange(0.0, tau_max + step / 2, step)
    d = np.array([curve(t) for t in th_grid])
    idx = np.nonzero((d[:-1] > 0) & (d[1:] <= 0))[0]
    if len(idx) == 0:
        return math.nan
    i = int(idx[0])
    return brentq(curve, th_grid[i], th_grid[i + 1], xtol=1e-13)


def mixing_and_survival_times(omega, relax_time=8.0, tau_max=12.0):
    """(tau_mix, tau_sur) at unit efficiency, conditioning for relax_time."""
    lind, _ = generators(omega)
    weights, states = conditioned_ensemble(omega, 1.0, relax_time)
    th = theta(omega)

    def evolved(tau):
        return _mats(states.reshape(-1, 4) @ expm(lind * tau).T)

    mix = lambda tau: float(weights @ _purity(evolved(tau))) - th
    sur = lambda tau: float(weights @ np.einsum(
        "kij,kji->k", states, evolved(tau)).real) - th
    return _crossing(mix, tau_max), _crossing(sur, tau_max)


def long_run_purity(omega, eta, horizon=20.0, stride=0.02, h=0.005):
    """Mean conditional purity averaged over the last quarter of the samples.

    Matches the program's estimator: samples every `stride` up to the
    horizon, of which the last quarter are averaged.
    """
    lind, jump = generators(omega)
    no_click = lind - eta * jump
    rho_ss = steady_state(omega)
    rate = eta * GAMMA * rho_ss[0, 0].real
    n_samples = int(round(horizon / stride)) + 1
    t_samples = stride * np.arange(n_samples - n_samples // 4, n_samples)
    s = h * np.arange(int(round(horizon / h)) + 1)
    # E[purity](t) = int_0^t u Tr sigma(s) purity(rho(s)) ds + no-click term,
    # and Tr sigma * purity(sigma / Tr sigma) = Tr sigma^2 / Tr sigma
    sig = _mats(expm(s[:, None, None] * no_click) @ _vec(_GG))
    density = rate * _purity(sig) / _trace(sig)
    clicked = cumulative_simpson(density, x=s, initial=0.0)
    idx = np.rint(t_samples / h).astype(int)
    sig0 = _mats(expm(t_samples[:, None, None] * no_click) @ _vec(rho_ss))
    return float(np.mean(clicked[idx] + _purity(sig0) / _trace(sig0)))


def efficiency_threshold(omega):
    th = theta(omega)
    return brentq(lambda eta: long_run_purity(omega, eta) - th, 0.3, 1.0,
                  xtol=1e-10)


def threshold_stderr(omega, eta, n_traj, d_eta=1e-3):
    """Upper bound on the standard error of a threshold estimated from n_traj
    trajectories: the spread of the conditional purity at eta over
    sqrt(n_traj), divided by the slope of the long-run purity in eta.  Time
    averaging only lowers the spread, so the bound is conservative."""
    weights, states = conditioned_ensemble(omega, eta, 20.0)
    p = _purity(states)
    spread = math.sqrt(weights @ p ** 2 - (weights @ p) ** 2)
    slope = (long_run_purity(omega, eta + d_eta)
             - long_run_purity(omega, eta - d_eta)) / (2.0 * d_eta)
    return spread / math.sqrt(n_traj) / slope


def simulate(omega, eta, t_end, n, rng, step=1e-3):
    """Second route: event-driven Monte Carlo of the detected-click process.

    `t_end` is a scalar or one end time per trajectory.  Waiting times are
    drawn by inverting the tabulated no-click probability, starting from
    rho_ss and from |g><g| after every click.  Returns the final
    conditioned states, shape (n, 2, 2).
    """
    lind, jump = generators(omega)
    no_click = lind - eta * jump
    rho_ss = steady_state(omega)
    t_end = np.broadcast_to(np.asarray(t_end, dtype=float), (n,))
    grid = step * np.arange(int(np.ceil(t_end.max() / step)) + 2)
    props = expm(grid[:, None, None] * no_click)
    surv_g = _trace(_mats(props @ _vec(_GG)))
    surv_ss = _trace(_mats(props @ _vec(rho_ss)))

    def wait(survival, r):
        # first grid time at which the no-click probability falls below r
        k = np.searchsorted(-survival, -r, side="left")
        return np.where(k < len(grid), grid[np.minimum(k, len(grid) - 1)], np.inf)

    last = np.full(n, -1.0)
    t = wait(surv_ss, rng.random(n))
    active = t < t_end
    while active.any():
        last[active] = t[active]
        t[active] = t[active] + wait(surv_g, rng.random(int(active.sum())))
        active &= t < t_end
    clicked = last >= 0
    out = np.empty((n, 2, 2), dtype=complex)
    age = t_end[clicked] - last[clicked]
    out[clicked] = _mats(expm(age[:, None, None] * no_click) @ _vec(_GG))
    out[~clicked] = _mats(expm(t_end[~clicked][:, None, None] * no_click)
                          @ _vec(rho_ss))
    return out / _trace(out)[:, None, None]


def evolve(omega, states, tau):
    lind, _ = generators(omega)
    return _mats(states.reshape(-1, 4) @ expm(lind * tau).T)
