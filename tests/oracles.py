"""Reference computations the tests check the package against.

None of these is on a path the package runs: each is either a generic
numerical route (adaptive ODE integration, scipy's Lyapunov solver) to a
quantity the package computes in closed form, or a small helper the tests
need to read states.
"""

import math

import numpy as np
from scipy.integrate import cumulative_simpson, solve_ivp
from scipy.linalg import expm, null_space, solve_continuous_lyapunov
from scipy.optimize import brentq

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


def _purity_times_trace(vecs):
    """Tr sigma^2 / Tr sigma of row-stacked 2x2 matrices: the purity of the
    normalised state, weighted by its trace."""
    sig = vecs.reshape(-1, 2, 2)
    return np.einsum("tij,tji->t", sig, sig).real / np.einsum("tii->t", sig).real


def direct_detection_threshold(omega, gamma=1.0, horizon=20.0, stride=0.08, h=0.0025):
    """Exact efficiency threshold of the driven atom under direct detection,
    for the package's estimator: the long-run purity is the mean over the
    last quarter of the samples, taken every `stride` up to `horizon`, of
    trajectories started in the steady state.

    Every detected click resets the atom to |g> (Cohen-Tannoudji &
    Dalibard, Europhys. Lett. 1, 441, 1986), so a conditioned state is
    fixed by its age s since the last click: sigma(s) = e^{N s} |g><g|
    normalised, with N = L - eta J the no-click generator.  Clicks arrive at
    the constant rate u = eta gamma <e|rho_ss|e>, so E[purity](t) is
    int_0^t u Tr sigma(s)^2 / Tr sigma(s) ds plus the same term for the
    trajectories still unclicked since t = 0, which is e^{N t} rho_ss.  The
    threshold is the root of the windowed mean against theta.
    """
    eye = np.eye(2)
    ham = 0.5 * omega * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    c = math.sqrt(gamma) * np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    cdc = c.conj().T @ c
    # row-stacked vec(A X B) = kron(A, B^T) vec(X)
    jump = np.kron(c, c.conj())
    lind = (-1j * (np.kron(ham, eye) - np.kron(eye, ham.T)) + jump
            - 0.5 * (np.kron(cdc, eye) + np.kron(eye, cdc.T)))
    rho_ss = null_space(lind)[:, 0].reshape(2, 2)
    rho_ss = 0.5 * (rho_ss + rho_ss.conj().T)
    rho_ss /= np.trace(rho_ss).real
    theta = 0.5 * (1.0 + np.trace(rho_ss @ rho_ss).real)
    ground = np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)
    n_samples = int(round(horizon / stride)) + 1
    window = stride * np.arange(n_samples - n_samples // 4, n_samples)
    ages = h * np.arange(int(round(horizon / h)) + 1)

    def long_run_purity(eta):
        no_click = lind - eta * jump
        step = expm(no_click * h)
        sig = np.empty((len(ages), 4), dtype=complex)
        sig[0] = ground
        for k in range(1, len(ages)):
            sig[k] = step @ sig[k - 1]
        rest = np.stack([expm(no_click * t) @ rho_ss.reshape(-1) for t in window])
        rate = eta * gamma * rho_ss[0, 0].real
        clicked = cumulative_simpson(rate * _purity_times_trace(sig), x=ages, initial=0.0)
        return float(np.mean(clicked[np.rint(window / h).astype(int)]
                             + _purity_times_trace(rest)))

    return brentq(lambda eta: long_run_purity(eta) - theta, 0.3, 1.0, xtol=1e-10)
