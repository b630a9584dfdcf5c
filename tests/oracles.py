"""Reference computations the tests check the package against.

None of these is on a path the package runs: each is either a generic
numerical route (adaptive ODE integration, scipy's Lyapunov solver) to a
quantity the package computes in closed form, or a small helper the tests
need to read states.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import solve_continuous_lyapunov

from unravel.errors import ConvergenceError, DecompositionError
from unravel.gaussian import CovarianceState
from unravel.hilbert import DensityMatrix


def _matrix(v):
    return v.matrix if isinstance(v, (CovarianceState, DensityMatrix)) else np.asarray(v)


def covariance_ode(gen, v0, times):
    """Covariances V(t), shape (len(times), 2, 2), of dV/dt = gen.rhs(V)
    from V(times[0]) = v0, by adaptive DOP853 at rtol = atol = 1e-12."""
    times = np.asarray(times, dtype=float)
    sol = solve_ivp(lambda _t, y: gen.rhs(y.reshape(2, 2)).ravel(),
                    (times[0], times[-1]), _matrix(v0).astype(float).ravel(),
                    method="DOP853", t_eval=times, rtol=1e-12, atol=1e-12)
    if not sol.success:
        raise ConvergenceError(f"covariance ODE failed: {sol.message}")
    return sol.y.T.reshape(-1, 2, 2)


def ode_purities(gen, v0, times):
    """Purity 1/sqrt(4 det V) along covariance_ode."""
    return 0.5 / np.sqrt(np.linalg.det(covariance_ode(gen, v0, times)))


def lyapunov_fixed_point(gen):
    """Unconditional stationary covariance A V + V A^T + D = 0 of a Hurwitz drift."""
    a, d = gen.drift, gen.diffusion
    if np.linalg.eigvals(a).real.max() >= 0:
        raise ValueError("drift matrix is not Hurwitz; no stationary covariance")
    v = solve_continuous_lyapunov(a, -d)
    return 0.5 * (v + v.T)


def gaussian_overlap(v1, mu1, v2, mu2):
    """Tr[rho1 rho2] for two single-mode Gaussians with covariances v1, v2:
    exp(-delta^T (V1+V2)^{-1} delta / 2) / sqrt(det(V1+V2)), delta = mu1 - mu2.
    The means may be stacks (..., 2); the result then has their leading shape."""
    sigma = _matrix(v1) + _matrix(v2)
    delta = np.asarray(mu1, dtype=float) - np.asarray(mu2, dtype=float)
    expo = -0.5 * np.einsum("...i,ij,...j->...", delta, np.linalg.inv(sigma), delta)
    return np.exp(expo) / math.sqrt(np.linalg.det(sigma))


def bloch(rho):
    """Bloch components (x, y, z) of a qubit state in the (e, g) basis."""
    m = _matrix(rho)
    return (float(np.real(m[0, 1] + m[1, 0])), float(np.real(1j * (m[0, 1] - m[1, 0]))),
            float(np.real(m[0, 0] - m[1, 1])))


def stationary_mean_noise(gen, v_c, horizon=60.0, tol=1e-11):
    """Long-time covariance of A mu mu^T A^T for the stationary conditional
    means, by integrating its flow (LSODA).

    The means diffuse with matrix R = gen.correction(V_c) around drift A;
    their raw covariance M(t) grows without bound along the neutral position
    direction, but N = A M A^T converges (exponentially, at the momentum
    damping rate).  survival_curve uses the closed form of its limit.
    """
    a = gen.drift
    r = gen.correction(v_c.matrix)
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
