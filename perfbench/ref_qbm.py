"""Independent reference for the monitored Brownian particle.

The model matrices are built from the formulae in the docstring of
`unravel.gaussian` (scaled units, coupling c = alpha q + i beta p with
alpha = sqrt(2T), beta = 1/sqrt(8T)); nothing is imported from the package.

    dV/dt = A V + V A^T + D - 2 eta (V F - G) Q (V F - G)^T
    A = [[0, 1], [0, -1]]   D = diag(beta^2, alpha^2)
    F = diag(alpha, beta)   G = diag(beta/2, alpha/2)
    Q = [[1 + r cos phi, -r sin phi], [-r sin phi, 1 - r cos phi]]

Primary routes, used to check the program's outputs:

- stationary conditional covariance V_c from `scipy.linalg.solve_continuous_are`;
- unconditional covariance V_u(tau) in closed form, with
  e^{A tau} = I + (1 - e^{-tau}) A because A^2 = -A;
- survival curve 1/sqrt(det(V_c + V_u + W)) with
  W(tau) = (R_pp/2) (1 - e^{-tau})^2 [[1, -1], [-1, 1]];
- purification curve by integrating the information-form flow for
  Y = V^{-1} from Y = diag(0, 1/T) with an explicit Runge-Kutta method;
- every crossing of theta = 1/2, and the efficiency threshold, by brentq.

Second routes, used only by the self-tests: Riccati flow integrated to
stationarity, Lyapunov flow integrated numerically, Gauss-Hermite average of
the overlap over the mean distribution, and the linear-fractional (Radon)
solution of the information flow from one 4x4 matrix exponential.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm, solve_continuous_are
from scipy.optimize import brentq, minimize_scalar

THETA = 0.5            # unconditional purity is 0, so theta = (1 + 0)/2
HORIZON = 200.0        # longest delay the program searches
MEASURES = ("purification", "efficiency_threshold", "mixing", "survival")
MAXIMIZED = ("mixing", "survival")

_A = np.array([[0.0, 1.0], [0.0, -1.0]])
_TAU_SCAN = np.concatenate([[0.0], np.geomspace(1e-8, HORIZON, 4000)])


@dataclass(frozen=True)
class Model:
    temperature: float
    r: float
    phi: float
    eta: float = 1.0

    @property
    def alpha(self):
        return math.sqrt(2.0 * self.temperature)

    @property
    def beta(self):
        return 1.0 / math.sqrt(8.0 * self.temperature)

    def matrices(self):
        """(A, D, F, G, Q) exactly as written in the model docstring."""
        a, b = self.alpha, self.beta
        c, s = self.r * math.cos(self.phi), self.r * math.sin(self.phi)
        return (_A, np.diag([b * b, a * a]), np.diag([a, b]),
                np.diag([b / 2.0, a / 2.0]),
                np.array([[1.0 + c, -s], [-s, 1.0 - c]]))

    def care_form(self):
        """dV/dt = At V + V At^T + Qt - V Rt V, expanded from the flow."""
        a, d, f, g, q = self.matrices()
        k = 2.0 * self.eta
        return a + k * g @ q @ f.T, d - k * g @ q @ g.T, k * f @ q @ f.T


def _sym(v):
    return 0.5 * (v + v.T)


def purity(v):
    """Purity 1/(2 sqrt(det V)) of a Gaussian state, batched over leading axes."""
    v = np.asarray(v)
    det = v[..., 0, 0] * v[..., 1, 1] - v[..., 0, 1] * v[..., 1, 0]
    return 0.5 / np.sqrt(det)


def riccati_rhs(m, v):
    at, qt, rt = m.care_form()
    return at @ v + v @ at.T + qt - v @ rt @ v


def stationary_cov(m):
    """V_c from scipy's algebraic Riccati solver.

    solve_continuous_are solves a^T X + X a - X b b^T X + q = 0; with
    a = At^T and b b^T = Rt = 2 eta F Q F^T this is the stationary flow.
    Q is PSD but singular at r = 1, so b uses its symmetric square root.
    """
    at, qt, rt = m.care_form()
    _, _, f, _, q = m.matrices()
    lam, u = np.linalg.eigh(q)
    b = math.sqrt(2.0 * m.eta) * f @ (u * np.sqrt(np.clip(lam, 0.0, None)))
    v = _sym(solve_continuous_are(at.T, b, qt, np.eye(2)))
    scale = max(1.0, np.abs(v).max() ** 2)
    if np.abs(riccati_rhs(m, v)).max() > 1e-8 * scale:
        raise ValueError("Riccati residual too large")
    if np.linalg.eigvals(at - v @ rt).real.max() >= 0:
        raise ValueError("Riccati solution is not stabilizing")
    return v


def stationary_cov_alt(m, horizon=400.0, chunk=5.0):
    """Second route: integrate the Riccati flow until it stops moving."""
    def rhs(_t, y):
        v = np.array([[y[0], y[2]], [y[2], y[1]]])
        dv = riccati_rhs(m, v)
        return [dv[0, 0], dv[1, 1], dv[0, 1]]

    span = 1.0 + np.abs(m.matrices()[1]).max()
    y, t = np.array([span, span, 0.0]), 0.0
    while t < horizon:
        y = solve_ivp(rhs, (t, t + chunk), y, method="LSODA",
                      rtol=1e-12, atol=1e-14).y[:, -1]
        t += chunk
        if np.abs(rhs(t, y)).max() < 1e-12 * max(1.0, np.abs(y).max()):
            break
    return np.array([[y[0], y[2]], [y[2], y[1]]])


def unconditional_cov(m, v0, tau):
    """Closed-form Lyapunov flow from v0, batched over the delays tau."""
    a, d, _, _, _ = m.matrices()
    tau = np.asarray(tau, dtype=float)[..., None, None]
    g = -np.expm1(-tau)                                  # 1 - e^{-tau}
    e = np.eye(2) + g * a                                 # e^{A tau}
    int_g = tau - g                                       # int_0^tau g
    int_g2 = tau - 2.0 * g - 0.5 * np.expm1(-2.0 * tau)   # int_0^tau g^2
    return (e @ v0 @ np.swapaxes(e, -1, -2) + tau * d
            + int_g * (a @ d + d @ a.T) + int_g2 * (a @ d @ a.T))


def unconditional_cov_alt(m, v0, tau):
    """Second route: integrate dV/dt = A V + V A^T + D numerically."""
    a, d, _, _, _ = m.matrices()

    def rhs(_t, y):
        v = y.reshape(2, 2)
        return (a @ v + v @ a.T + d).ravel()

    sol = solve_ivp(rhs, (0.0, float(tau)), np.asarray(v0).ravel(),
                    method="DOP853", rtol=1e-12, atol=1e-14)
    return sol.y[:, -1].reshape(2, 2)


def mean_noise_pp(m, v_c):
    """Momentum entry of the diffusion 2 eta (V F - G) Q (V F - G)^T of the means."""
    _, _, f, g, q = m.matrices()
    z = v_c @ f - g
    return float((2.0 * m.eta * z @ q @ z.T)[1, 1])


def survival(m, v_c, tau):
    """Mean overlap of the frozen state with its evolved copy (W formula)."""
    tau = np.asarray(tau, dtype=float)
    w = 0.5 * mean_noise_pp(m, v_c) * np.expm1(-tau) ** 2
    sigma = v_c + unconditional_cov(m, v_c, tau)
    sigma = sigma + w[..., None, None] * np.array([[1.0, -1.0], [-1.0, 1.0]])
    det = sigma[..., 0, 0] * sigma[..., 1, 1] - sigma[..., 0, 1] ** 2
    return 1.0 / np.sqrt(det)


def survival_alt(m, v_c, tau, nodes=80):
    """Second route: average the Gaussian overlap over the mean displacement.

    The mean of the frozen state minus its evolved copy is (1 - e^{-tau})
    (p, -p) with p the stationary momentum mean, an Ornstein-Uhlenbeck
    variable of variance R_pp/2; Gauss-Hermite quadrature averages the
    overlap exp(-delta^T S^{-1} delta / 2) / sqrt(det S) over it.
    """
    sigma = v_c + unconditional_cov(m, v_c, tau)
    x, wts = np.polynomial.hermite_e.hermegauss(nodes)
    sd = math.sqrt(0.5 * mean_noise_pp(m, v_c))
    direction = -math.expm1(-tau) * np.array([1.0, -1.0])
    inv = np.linalg.inv(sigma)
    deltas = (sd * x)[:, None] * direction[None, :]
    expo = -0.5 * np.einsum("ki,ij,kj->k", deltas, inv, deltas)
    return float(wts @ np.exp(expo) / math.sqrt(2.0 * math.pi)
                 / math.sqrt(np.linalg.det(sigma)))


def _first_down_crossing(fn, grid_values):
    """brentq on the first grid interval where fn drops through theta."""
    d = grid_values - THETA
    idx = np.nonzero((d[:-1] > 0) & (d[1:] <= 0))[0]
    if len(idx) == 0:
        return math.nan
    i = int(idx[0])
    lo, hi = _TAU_SCAN[i], _TAU_SCAN[i + 1]
    return brentq(lambda t: fn(t) - THETA, lo, hi, xtol=1e-14, rtol=1e-13)


def mixing_time(m):
    v_c = stationary_cov(m)
    return _first_down_crossing(
        lambda t: float(purity(unconditional_cov(m, v_c, t))),
        purity(unconditional_cov(m, v_c, _TAU_SCAN)))


def survival_time(m):
    v_c = stationary_cov(m)
    return _first_down_crossing(lambda t: float(survival(m, v_c, t)),
                                survival(m, v_c, _TAU_SCAN))


def _info_rhs(m):
    at, qt, rt = m.care_form()

    def rhs(_t, y):
        ym = np.array([[y[0], y[2]], [y[2], y[1]]])
        dy = -(ym @ at + at.T @ ym) - ym @ qt @ ym + rt
        return [dy[0, 0], dy[1, 1], dy[0, 1]]
    return rhs


def _info_purity(y):
    return 0.5 * math.sqrt(max(y[0] * y[1] - y[2] ** 2, 0.0))


def purification_time(m):
    """Integrate the information flow (DOP853) and brentq the crossing.

    Purity sqrt(det Y)/2 climbs from 0; the integration stops at the first
    step that passes theta, and brentq locates the crossing on the dense
    output of that step.
    """
    event = lambda _t, y: _info_purity(y) - THETA
    event.terminal = True
    event.direction = 1.0
    y0 = [0.0, 1.0 / m.temperature, 0.0]
    sol = solve_ivp(_info_rhs(m), (0.0, HORIZON), y0, method="DOP853",
                    rtol=1e-12, atol=1e-14, events=event, dense_output=True)
    if not sol.t_events[0].size:
        return math.nan
    t_hit = float(sol.t_events[0][0])
    lo = float(sol.t[-2]) if len(sol.t) > 1 else 0.0
    hi = min(t_hit * (1.0 + 1e-9) + 1e-15, float(sol.t[-1]))
    f = lambda t: _info_purity(sol.sol(t)) - THETA
    if f(lo) >= 0 or f(hi) <= 0:
        return t_hit
    return brentq(f, lo, hi, xtol=1e-15, rtol=1e-13)


def _radon_purity(m, t):
    """Purity from Y(t) = W(t) U(t)^{-1}, [U; W] = exp(t H) [I; Y0]."""
    at, qt, rt = m.care_form()
    ham = np.block([[at, qt], [rt, -at.T]])
    y0 = np.diag([0.0, 1.0 / m.temperature])
    t = np.atleast_1d(np.asarray(t, dtype=float))
    uw = expm(t[:, None, None] * ham) @ np.vstack([np.eye(2), y0])
    det_u = np.linalg.det(uw[:, :2, :])
    det_w = np.linalg.det(uw[:, 2:, :])
    return 0.5 * np.sqrt(np.clip(det_w / det_u, 0.0, None))


def purification_time_alt(m, t_max=20.0):
    """Second route: linear-fractional solution of the information flow."""
    grid = np.concatenate([[0.0], np.geomspace(1e-6, t_max, 120)])
    d = _radon_purity(m, grid) - THETA
    idx = np.nonzero((d[:-1] < 0) & (d[1:] >= 0))[0]
    if len(idx) == 0:
        return math.nan
    i = int(idx[0])
    return brentq(lambda t: float(_radon_purity(m, t)[0]) - THETA,
                  grid[i], grid[i + 1], xtol=1e-15, rtol=1e-13)


def efficiency_threshold(m):
    """Efficiency at which the stationary conditional purity reaches 1/2."""
    def f(eta):
        return float(purity(stationary_cov(Model(m.temperature, m.r, m.phi, eta)))) - THETA
    return brentq(f, 1e-4, 1.0, xtol=1e-12, rtol=4 * np.finfo(float).eps)


_ROUTES = {
    "purification": purification_time,
    "efficiency_threshold": efficiency_threshold,
    "mixing": mixing_time,
    "survival": survival_time,
}


def measure(kind, temperature, r, phi):
    """Reference value of one measure at the disk point r e^{i phi}."""
    return _ROUTES[kind](Model(temperature, r, phi))


def _scan_value(kind, temperature, phi):
    try:
        if kind == "purification":
            # the Radon form is exact and an order faster than the ODE
            value = purification_time_alt(Model(temperature, 1.0, phi))
        else:
            value = measure(kind, temperature, 1.0, phi)
    except (ValueError, np.linalg.LinAlgError):
        return math.nan        # undetectable point, e.g. pure momentum homodyne
    return value


def best_on_circle(kind, temperature, points=48):
    """Best value of a measure over phi on the homodyne circle r = 1.

    A uniform scan of `points` phases, then a bounded scalar minimization
    around the best scanned phase.  Returns (phi, value).
    """
    sign = -1.0 if kind in MAXIMIZED else 1.0
    phis = np.linspace(0.0, 2.0 * math.pi, points, endpoint=False)
    vals = np.array([sign * _scan_value(kind, temperature, p) for p in phis])
    vals[~np.isfinite(vals)] = np.inf
    i = int(np.argmin(vals))
    step = phis[1] - phis[0]

    def obj(phi):
        v = _scan_value(kind, temperature, phi % (2.0 * math.pi))
        return sign * v if np.isfinite(v) else np.inf

    res = minimize_scalar(obj, bounds=(phis[i] - step, phis[i] + step),
                          method="bounded", options={"xatol": 1e-9})
    if res.fun < vals[i]:
        return float(res.x % (2.0 * math.pi)), float(sign * res.fun)
    return float(phis[i]), float(sign * vals[i])
