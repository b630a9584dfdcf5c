"""Deterministic phase-space backend for the monitored Brownian particle.

The conditional state of the damped particle stays Gaussian under every
continuous Markovian unravelling, so the conditional covariance obeys a
matrix Riccati equation and no stochastic simulation is needed.  Working
in scaled units (damping rate, mass and hbar all unity) with coupling
operator c = alpha*q + i*beta*p, alpha = sqrt(2T), beta = 1/sqrt(8T):

    dV/dt = A V + V A^T + D - 2 eta (V F - G) Q (V F - G)^T

    A = [[0, 1], [0, -1]]      D = diag(beta^2, alpha^2)
    F = diag(alpha, beta)      G = diag(beta/2, alpha/2)
    Q = [[1 + r cos(phi), -r sin(phi)], [-r sin(phi), 1 - r cos(phi)]]

(r, phi) parametrize the detection point upsilon = r e^{i phi} on the unit
disk through the Wiener algebra dW dW* = dt, dW^2 = upsilon dt; r = 1 is
homodyne detection of the quadrature c e^{i phi/2} + c^dag e^{-i phi/2}
(position for phi = 0, momentum for phi = pi), r = 0 heterodyne.  The correction vanishes identically at eta = 0,
recovering the unconditional Lyapunov flow.  The drift has a zero
eigenvalue (free particle), so the unconditional covariance never
reaches a stationary point: position variance grows without bound and
the unconditional purity tends to zero.  Quantities defined "starting
from the unconditional steady state" are therefore computed in inverse
covariance (information) coordinates, where that start is the regular
point Y = diag(0, 1/T).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm, solve_continuous_lyapunov

from .errors import (
    ConvergenceError,
    DecompositionError,
    InvariantViolationError,
    StabilityError,
    StepSizeError,
)

HEISENBERG_SLACK = 1e-9


@dataclass(frozen=True)
class QbmParams:
    """Bath temperature in scaled units; the only free system parameter."""

    temperature: float

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")

    @property
    def alpha(self):
        return math.sqrt(2.0 * self.temperature)

    @property
    def beta(self):
        return 1.0 / math.sqrt(8.0 * self.temperature)


@dataclass(frozen=True)
class DiskPoint:
    """General-dyne detection point upsilon = r e^{i phi} on the unit disk."""

    r: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.r <= 1.0:
            raise ValueError(f"r must lie in [0, 1], got {self.r}")
        object.__setattr__(self, "phi", float(self.phi) % (2.0 * math.pi))

    @staticmethod
    def homodyne(phi=0.0):
        return DiskPoint(1.0, phi)

    @staticmethod
    def heterodyne():
        return DiskPoint(0.0, 0.0)


@dataclass(frozen=True)
class CovarianceState:
    """Second moments (V_q, V_p, C_qp) and means of a single-mode Gaussian state."""

    v_q: float
    v_p: float
    c_qp: float
    mean_q: float = 0.0
    mean_p: float = 0.0

    def __post_init__(self):
        if self.v_q <= 0 or self.v_p <= 0:
            raise InvariantViolationError(
                f"variances must be positive: V_q={self.v_q}, V_p={self.v_p}")
        if self.det() < 0.25 - HEISENBERG_SLACK:
            raise InvariantViolationError(
                f"Heisenberg bound violated: det V = {self.det():.12f} < 1/4")

    def det(self):
        return self.v_q * self.v_p - self.c_qp ** 2

    @property
    def matrix(self):
        return np.array([[self.v_q, self.c_qp], [self.c_qp, self.v_p]])

    @property
    def means(self):
        return np.array([self.mean_q, self.mean_p])

    @staticmethod
    def from_matrix(v, means=(0.0, 0.0)):
        v = np.asarray(v, dtype=float)
        return CovarianceState(v_q=float(v[0, 0]), v_p=float(v[1, 1]),
                               c_qp=float(0.5 * (v[0, 1] + v[1, 0])),
                               mean_q=float(means[0]), mean_p=float(means[1]))


@dataclass(frozen=True)
class GaussianGenerators:
    """Drift, diffusion and measurement matrices of a linear Gaussian model.

    The conditioning correction to the covariance flow is
    2*eta*(V F - G) Q (V F - G)^T; the same matrix is the diffusion of the
    conditional means, which is what makes the excess-noise bookkeeping in
    :func:`survival_curve` exact.
    """

    drift: np.ndarray
    diffusion: np.ndarray
    meas_gain: np.ndarray      # F
    meas_offset: np.ndarray    # G
    dyne_matrix: np.ndarray    # Q, symmetric PSD
    eta: float

    def __post_init__(self):
        for name in ("drift", "diffusion", "meas_gain", "meas_offset", "dyne_matrix"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        d = self.diffusion
        if np.abs(d - d.T).max() > 1e-12 or np.linalg.eigvalsh(d).min() < -1e-12:
            raise InvariantViolationError("diffusion matrix must be symmetric PSD")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")

    def correction(self, v):
        """Measurement back-action term of the covariance flow (2x2, symmetric)."""
        if self.eta == 0.0:
            return np.zeros((2, 2))
        z = v @ self.meas_gain - self.meas_offset
        return 2.0 * self.eta * z @ self.dyne_matrix @ z.T

    def mean_noise(self, v):
        """Diffusion matrix of the conditional means at covariance v."""
        return self.correction(v)

    def care_form(self):
        """Rewrite the flow as Atil V + V Atil^T + Qtil - V Rtil V (exact)."""
        a, d = self.drift, self.diffusion
        f, g, q = self.meas_gain, self.meas_offset, self.dyne_matrix
        two_eta = 2.0 * self.eta
        atil = a + two_eta * g @ q @ f.T
        qtil = d - two_eta * g @ q @ g.T
        rtil = two_eta * f @ q @ f.T
        return atil, qtil, rtil

    def rhs(self, v):
        a, d = self.drift, self.diffusion
        return a @ v + v @ a.T + d - self.correction(v)


def qbm_generators(params, u, eta):
    """Generators of the conditional Gaussian flow for detection point u.

    The dyne matrix encodes the complex Wiener algebra dW dW* = dt,
    dW^2 = upsilon dt with upsilon = r e^{i phi}; at r = 1 this monitors
    the single quadrature c e^{i phi/2} + c^dag e^{-i phi/2}.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    alpha, beta = params.alpha, params.beta
    a = np.array([[0.0, 1.0], [0.0, -1.0]])
    d = np.diag([beta ** 2, alpha ** 2])
    f = np.diag([alpha, beta])
    g = np.diag([beta / 2.0, alpha / 2.0])
    ups_r = u.r * math.cos(u.phi)
    ups_i = u.r * math.sin(u.phi)
    q = np.array([[1.0 + ups_r, -ups_i], [-ups_i, 1.0 - ups_r]])
    return GaussianGenerators(drift=a, diffusion=d, meas_gain=f, meas_offset=g,
                              dyne_matrix=q, eta=float(eta))


def gaussian_purity(v):
    """Purity 1/sqrt(4 det V) of a Gaussian state."""
    det = v.det() if isinstance(v, CovarianceState) else float(np.linalg.det(np.asarray(v)))
    return 1.0 / math.sqrt(4.0 * det)


def gaussian_overlap(v1, mu1, v2, mu2):
    """Tr[rho1 rho2] for two single-mode Gaussians.

    exp(-delta^T (V1+V2)^{-1} delta / 2) / sqrt(det(V1+V2)); validated
    against the Fock-basis overlap in the test suite before anything
    downstream relies on it.
    """
    m1 = v1.matrix if isinstance(v1, CovarianceState) else np.asarray(v1, dtype=float)
    m2 = v2.matrix if isinstance(v2, CovarianceState) else np.asarray(v2, dtype=float)
    sigma = m1 + m2
    det = float(np.linalg.det(sigma))
    if det <= 0:
        raise InvariantViolationError(f"singular covariance sum, det = {det}")
    delta = np.asarray(mu1, dtype=float) - np.asarray(mu2, dtype=float)
    expo = -0.5 * float(delta @ np.linalg.solve(sigma, delta))
    return math.exp(expo) / math.sqrt(det)


# ---------------------------------------------------------------------------
# flows

def _flow(gen, v0, duration, dt, conditioned):
    v = v0.matrix
    mu = v0.means.copy()
    a = gen.drift
    times = [0.0]
    states = [v0]
    if duration == 0:
        return times, states
    if dt <= 0:
        raise ValueError("dt must be positive")
    n_steps = int(np.ceil(duration / dt))
    step = duration / n_steps

    def rhs(mat):
        out = a @ mat + mat @ a.T + gen.diffusion
        if conditioned:
            out = out - gen.correction(mat)
        return out

    prop = expm(a * step)
    for i in range(n_steps):
        k1 = rhs(v)
        k2 = rhs(v + 0.5 * step * k1)
        k3 = rhs(v + 0.5 * step * k2)
        k4 = rhs(v + step * k3)
        v = v + (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        v = 0.5 * (v + v.T)
        mu = prop @ mu
        try:
            states.append(CovarianceState.from_matrix(v, mu))
        except InvariantViolationError as exc:
            raise StepSizeError(
                f"covariance left the physical cone at t={(i + 1) * step:.6g} "
                f"(reduce dt): {exc}") from exc
        times.append((i + 1) * step)
    return np.array(times), states


def riccati_flow(gen, v0, duration, dt):
    """Conditional covariance flow, fixed-step RK4.

    Returns (times, states).  Means are propagated with the deterministic
    drift only; conditional mean noise is handled by the survival-time
    machinery, never here.
    """
    return _flow(gen, v0, duration, dt, conditioned=True)


def lyapunov_flow(gen, v0, duration, dt):
    """Unconditional covariance flow (measurement correction dropped)."""
    return _flow(gen, v0, duration, dt, conditioned=False)


def solve_lyapunov(a, d):
    """Stationary solution of a V + V a^T + d = 0 for Hurwitz a (any size)."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    d = np.atleast_2d(np.asarray(d, dtype=float))
    if np.linalg.eigvals(a).real.max() >= 0:
        raise StabilityError("drift matrix is not Hurwitz; no stationary covariance")
    v = solve_continuous_lyapunov(a, -d)
    resid = np.abs(a @ v + v @ a.T + d).max()
    if resid > 1e-10:
        raise ConvergenceError(f"Lyapunov residual {resid:.3e}")
    return 0.5 * (v + v.T)


def lyapunov_steady(gen):
    """Unconditional stationary covariance; StabilityError if the drift is not Hurwitz.

    The Brownian-motion drift itself is not Hurwitz (free particle), so for
    that system this raises; it exists for the synthetic stable models used
    by the solver tests and as the eta = 0 limit of stable problems.
    """
    v = solve_lyapunov(gen.drift, gen.diffusion)
    return CovarianceState.from_matrix(v)


def _riccati_stationary_algebraic(gen):
    atil, qtil, rtil = gen.care_form()
    m = np.block([[-atil.T, rtil], [qtil, atil]])
    eigvals, eigvecs = np.linalg.eig(m)
    pos = eigvals.real > 1e-9
    if pos.sum() != 2:
        raise ConvergenceError(
            f"Hamiltonian matrix has {pos.sum()} unstable eigenvalues, need 2 "
            "(stationary conditional covariance does not exist)")
    basis = eigvecs[:, pos]
    x, y = basis[:2, :], basis[2:, :]
    if abs(np.linalg.det(x)) < 1e-12:
        raise ConvergenceError("singular invariant-subspace basis")
    v = y @ np.linalg.inv(x)
    if np.abs(v.imag).max() > 1e-8:
        raise ConvergenceError("stationary covariance came out complex")
    v = 0.5 * (v.real + v.real.T)
    resid = np.abs(gen.rhs(v)).max()
    scale = max(1.0, np.abs(v).max())
    if resid > 1e-8 * scale:
        raise ConvergenceError(f"stationary residual {resid:.3e}")
    # reject pseudo-solutions at undetectable points (e.g. pure-momentum
    # homodyne): the filter must actually relax towards the fixed point
    closed_loop = atil - v @ rtil
    if np.linalg.eigvals(closed_loop).real.max() > -1e-6:
        raise ConvergenceError("stationary covariance is not attracting")
    return v


def _riccati_stationary_flow(gen, v0=None, horizon=200.0, tol=1e-10):
    if v0 is None:
        span = 1.0 + float(np.abs(gen.diffusion).max())
        v0 = np.diag([span, span])
    else:
        v0 = v0.matrix

    def rhs(_t, y):
        v = np.array([[y[0], y[2]], [y[2], y[1]]])
        dv = gen.rhs(v)
        return [dv[0, 0], dv[1, 1], dv[0, 1]]

    y = np.array([v0[0, 0], v0[1, 1], v0[0, 1]])
    t = 0.0
    chunk = 10.0
    while t < horizon:
        sol = solve_ivp(rhs, (t, t + chunk), y, method="LSODA",
                        rtol=1e-12, atol=1e-14)
        if not sol.success:
            raise ConvergenceError(f"stationary flow integration failed: {sol.message}")
        y = sol.y[:, -1]
        t += chunk
        if np.abs(rhs(t, y)).max() < tol:
            v = np.array([[y[0], y[2]], [y[2], y[1]]])
            return 0.5 * (v + v.T)
    raise ConvergenceError(
        f"conditional covariance did not reach stationarity within t={horizon}")


def riccati_steady(gen, v0=None):
    """Stationary conditional covariance for the given unravelling and efficiency.

    Primary route is the algebraic Riccati solve through the unstable
    invariant subspace of the 4x4 Hamiltonian matrix (exact, fast, valid at
    the stiff high-temperature corner); integration of the flow to
    stationarity remains as fallback and as the cross-check used in tests.
    At eta = 0 this coincides with lyapunov_steady when the drift is stable.
    """
    try:
        v = _riccati_stationary_algebraic(gen)
    except ConvergenceError:
        v = _riccati_stationary_flow(gen, v0)
    return CovarianceState.from_matrix(v)


# ---------------------------------------------------------------------------
# information-form conditioning from the unconditional steady state

def qbm_information_start(params):
    """Inverse covariance of the unconditional long-time state: diag(0, 1/T).

    Position variance diverges (free particle), momentum variance relaxes
    to T; in information coordinates that limit is a regular starting
    point, which is how "switching on the observation at the steady state"
    is realized exactly.
    """
    return np.array([[0.0, 0.0], [0.0, 1.0 / params.temperature]])


def conditioned_purity_curve(gen, t_grid, y0):
    """Mean conditional purity against time, starting from inverse covariance y0.

    The covariance flow is deterministic, so the ensemble average in the
    purification-time definition is the curve itself.  Purity equals
    sqrt(det Y)/2.
    """
    atil, qtil, rtil = gen.care_form()

    def rhs(_t, y):
        ym = np.array([[y[0], y[2]], [y[2], y[1]]])
        dy = -(ym @ atil + atil.T @ ym) - ym @ qtil @ ym + rtil
        return [dy[0, 0], dy[1, 1], dy[0, 1]]

    t_grid = np.asarray(t_grid, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    sol = solve_ivp(rhs, (0.0, float(t_grid[-1])),
                    [y0[0, 0], y0[1, 1], y0[0, 1]],
                    method="LSODA", t_eval=t_grid, rtol=1e-10, atol=1e-13)
    if not sol.success:
        raise ConvergenceError(f"information flow failed: {sol.message}")
    dets = sol.y[0] * sol.y[1] - sol.y[2] ** 2
    dets = np.clip(dets, 0.0, None)
    return 0.5 * np.sqrt(dets)


def unconditional_covariance_curve(gen, v0, t_grid):
    """Lyapunov flow evaluated on an arbitrary time grid (adaptive integrator)."""
    a, d = gen.drift, gen.diffusion

    def rhs(_t, y):
        v = np.array([[y[0], y[2]], [y[2], y[1]]])
        dv = a @ v + v @ a.T + d
        return [dv[0, 0], dv[1, 1], dv[0, 1]]

    t_grid = np.asarray(t_grid, dtype=float)
    v0m = v0.matrix
    sol = solve_ivp(rhs, (0.0, float(t_grid[-1])), [v0m[0, 0], v0m[1, 1], v0m[0, 1]],
                    method="LSODA", t_eval=t_grid, rtol=1e-11, atol=1e-13)
    if not sol.success:
        raise ConvergenceError(f"Lyapunov flow failed: {sol.message}")
    return np.stack([np.array([[vq, c], [c, vp]])
                     for vq, vp, c in zip(sol.y[0], sol.y[1], sol.y[2])])


def stationary_mean_noise(gen, v_c, horizon=60.0, tol=1e-11):
    """Long-time covariance of A mu mu^T A^T for the stationary conditional means.

    The means diffuse with matrix R = mean_noise(V_c) around drift A; their
    raw covariance M(t) grows without bound along the neutral position
    direction, but N = A M A^T converges (exponentially, at the momentum
    damping rate) and is all the survival curve needs.
    """
    a = gen.drift
    r = gen.mean_noise(v_c.matrix if isinstance(v_c, CovarianceState) else v_c)
    ara = a @ r @ a.T

    def rhs(_t, y):
        n = np.array([[y[0], y[2]], [y[2], y[1]]])
        dn = a @ n + n @ a.T + ara
        return [dn[0, 0], dn[1, 1], dn[0, 1]]

    sol = solve_ivp(rhs, (0.0, horizon), [0.0, 0.0, 0.0], method="LSODA",
                    rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise ConvergenceError(f"mean-noise flow failed: {sol.message}")
    y = sol.y[:, -1]
    if np.abs(rhs(0.0, y)).max() > tol * max(1.0, np.abs(y).max()):
        raise ConvergenceError("projected mean covariance did not converge")
    n = np.array([[y[0], y[2]], [y[2], y[1]]])
    if np.linalg.eigvalsh(n).min() < -1e-9 * max(1.0, np.abs(n).max()):
        raise DecompositionError("projected mean covariance is not PSD")
    return n


def survival_curve(params, u, tau_grid, eta=1.0, v_c=None):
    """Mean overlap between a frozen stationary conditional state and its
    unconditionally evolved copy, as a function of the delay.

    Closed form: the frozen state has covariance V_c and a Gaussian-
    distributed mean; the evolved copy has covariance V_u(tau) from the
    Lyapunov flow and mean e^{A tau} mu.  Averaging the Gaussian overlap
    over the stationary mean distribution collapses to

        S(tau) = 1 / sqrt(det(V_c + V_u(tau) + W(tau)))

    with W(tau) = F_tau N F_tau^T, F_tau = -int_0^tau e^{As} ds and
    N the stationary projected mean covariance; W is exactly the
    covariance of mu - e^{A tau} mu, finite even though the raw mean
    covariance diverges along the unmeasured position direction.
    Validated against Monte Carlo over sampled means in the test suite.

    The particle drift is fixed, so the propagator pieces have closed
    forms (e^{A tau} = I + (1 - e^{-tau}) A with A^2 = -A); N likewise
    reduces to (R_pp / 2) [[1, -1], [-1, 1]], cross-checked against the
    integrated form of stationary_mean_noise in the tests.
    """
    gen = qbm_generators(params, u, eta)
    if v_c is None:
        v_c = riccati_steady(gen)
    r_pp = float(gen.mean_noise(v_c.matrix)[1, 1])
    tau_grid = np.asarray(tau_grid, dtype=float)
    v_u = unconditional_covariance_curve(gen, v_c, tau_grid)
    # W(tau) = (R_pp/2) (F_tau v)(F_tau v)^T with v = (1,-1),
    # F_tau v = -(f, -f), f = 1 - e^{-tau}
    f = 1.0 - np.exp(-tau_grid)
    w_scale = 0.5 * r_pp * f ** 2
    sigma = v_u + v_c.matrix[None, :, :]
    sigma[:, 0, 0] += w_scale
    sigma[:, 1, 1] += w_scale
    sigma[:, 0, 1] -= w_scale
    sigma[:, 1, 0] -= w_scale
    dets = sigma[:, 0, 0] * sigma[:, 1, 1] - sigma[:, 0, 1] * sigma[:, 1, 0]
    if np.any(dets <= 0):
        raise DecompositionError("singular overlap covariance along the delay grid")
    return 1.0 / np.sqrt(dets)
