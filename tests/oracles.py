"""Reference computations the tests check the package against.

None of these is on a path the package runs: each is either a generic
numerical route (adaptive ODE integration, scipy's Lyapunov solver, the
stepped jump kernel, brentq) to a quantity the package computes in closed
form, event by event or by Newton, or a small helper the tests need to read
states.
"""

import math

import numpy as np
from scipy.integrate import cumulative_simpson, solve_ivp
from scipy.linalg import expm, null_space, solve_continuous_lyapunov
from scipy.optimize import brentq

from unravel import gaussian as G
from unravel import trajectories as T
from unravel.errors import ConvergenceError, DecompositionError
from unravel.gaussian import CovarianceState
from unravel.hilbert import DensityMatrix
from unravel.measures import QBM_THETA


def tla_steady_bloch(params):
    """Closed-form stationary Bloch vector of the resonance-fluorescence
    equation, in units of gamma."""
    omega = params.rabi
    denom = 2.0 * omega ** 2 + 1.0
    return 0.0, 2.0 * omega / denom, -1.0 / denom


def fock_covariance(workspace, rho):
    """(V_q, V_p, C_qp, <q>, <p>) of a Fock-space state."""
    m = _matrix(rho)
    q, p = workspace.position, workspace.momentum
    mean_q = float(np.real(np.einsum("ij,ji->", q, m)))
    mean_p = float(np.real(np.einsum("ij,ji->", p, m)))
    qq = float(np.real(np.einsum("ij,ji->", q @ q, m)))
    pp = float(np.real(np.einsum("ij,ji->", p @ p, m)))
    qp_sym = 0.5 * (q @ p + p @ q)
    qp = float(np.real(np.einsum("ij,ji->", qp_sym, m)))
    return (qq - mean_q ** 2, pp - mean_p ** 2, qp - mean_q * mean_p, mean_q, mean_p)


def _matrix(v):
    return v.matrix if isinstance(v, (CovarianceState, DensityMatrix)) else np.asarray(v)


def displaced(workspace, rho, means):
    """A Fock-space state displaced by the phase-space means (<q>, <p>):
    D rho D^dag with D = exp(alpha a^dag - alpha* a), alpha = (q + i p)/sqrt(2)."""
    a = workspace.annihilation
    alpha = (means[0] + 1j * means[1]) / math.sqrt(2.0)
    disp = expm(alpha * a.conj().T - np.conj(alpha) * a)
    m = disp @ _matrix(rho) @ disp.conj().T
    m = 0.5 * (m + m.conj().T)
    m = m / m.trace().real
    workspace.check_tail(m)
    return DensityMatrix(m)


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


def riccati_stationary_flow(gen):
    """Stationary conditional covariance by integrating dV/dt = gen.rhs(V)
    (LSODA, in chunks of 10 up to t = 200) from diag(s, s), s = 1 + max |D|,
    until the right-hand side falls below 1e-10."""
    span = 1.0 + float(np.abs(gen.diffusion).max())

    def rhs(_t, y):
        v = np.array([[y[0], y[2]], [y[2], y[1]]])
        dv = gen.rhs(v)
        return [dv[0, 0], dv[1, 1], dv[0, 1]]

    y = np.array([span, span, 0.0])
    t = 0.0
    while t < 200.0:
        sol = solve_ivp(rhs, (t, t + 10.0), y, method="LSODA", rtol=1e-12, atol=1e-14)
        if not sol.success:
            raise ConvergenceError(f"stationary flow integration failed: {sol.message}")
        y = sol.y[:, -1]
        t += 10.0
        if np.abs(rhs(t, y)).max() < 1e-10:
            v = np.array([[y[0], y[2]], [y[2], y[1]]])
            return 0.5 * (v + v.T)
    raise ConvergenceError("conditional covariance did not reach stationarity by t = 200")


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


def qbm_efficiency_threshold(params, u):
    """The QBM efficiency threshold at disk point u by brentq (xtol 1e-12) on
    the stationary purity, one scalar stationary solve per step, inside the
    package's bracket: the adjacent probes of 0, 0.25, 0.5, 0.75 and 1 whose
    purities straddle theta.  Each step only rescales the eta-dependent
    terms of the generators (GaussianGenerators.with_eta)."""
    gen, theta = G.qbm_generators(params, u, 1.0), QBM_THETA.theta

    def stationary_purity(eta):
        if eta == 0.0:
            return QBM_THETA.rho_ss_purity
        return G.gaussian_purity(G.riccati_steady(gen.with_eta(eta)))

    probe = [0.25, 0.5, 0.75, 1.0]
    vals = [stationary_purity(e) for e in probe]
    lo = max([0.0] + [e for e, v in zip(probe, vals) if v < theta])
    hi = min(e for e, v in zip(probe, vals) if v >= theta)
    return brentq(lambda e: stationary_purity(e) - theta, lo, hi, xtol=1e-12)


def _column_superop(left, right):
    """X -> left X right on column-stacked vec(X) = X.T.ravel()."""
    return np.kron(right.T, left)


def counting_step(model, eta, beta, rhos, uniforms, signs, dt):
    """One detection window of direct detection (beta = 0) or AID on complex
    matrices, for a batch: (states, clicked, signs after the step).

    The monitored channel is the displaced jump J = c + s beta for LO sign
    s, with the Hamiltonian H - (i/2)(s beta* c - s beta c^dag), which
    leaves the unconditional master equation unchanged.  A window without a
    detected click applies e^{L0 dt}, where L0 keeps the undetected
    (1 - eta) share of the emission as a dissipator and the detected share
    only as decay, -(eta/2){J^dag J, rho}.  The window clicks when the
    uniform falls below the trace that e^{L0 dt} loses (and that loss
    exceeds 1e-12); a click applies J . J^dag to the no-click-evolved state
    and, for AID, flips the sign.
    """
    d = model.dim
    c, others = model.jump_operators[0], model.jump_operators[1:]
    eye = np.eye(d)

    def dissipator(op, weight):
        odo = op.conj().T @ op
        return weight * (_column_superop(op, op.conj().T)
                         - 0.5 * (_column_superop(odo, eye) + _column_superop(eye, odo)))

    def no_click(s):
        j = c + s * beta * eye
        jdj = j.conj().T @ j
        h = model.hamiltonian - 0.5j * (np.conj(s * beta) * c - s * beta * c.conj().T)
        gen = -1j * (_column_superop(h, eye) - _column_superop(eye, h))
        gen += dissipator(j, 1.0 - eta)
        gen -= 0.5 * eta * (_column_superop(jdj, eye) + _column_superop(eye, jdj))
        for op in others:
            gen += dissipator(op, 1.0)
        return expm(gen * dt), j

    maps = {s: no_click(s) for s in np.unique(signs)}
    out = np.empty_like(rhos, dtype=complex)
    clicked = np.zeros(len(rhos), dtype=bool)
    signs = np.array(signs, dtype=float)
    for i, rho in enumerate(rhos):
        prop, j = maps[signs[i]]
        evolved = (prop @ rho.T.ravel()).reshape(d, d).T
        tr = np.trace(evolved).real
        p_click = 1.0 - tr
        if uniforms[i] < p_click and p_click > 1e-12:
            evolved = j @ evolved @ j.conj().T
            tr = np.trace(evolved).real
            clicked[i] = True
            if beta:
                signs[i] = -signs[i]
        out[i] = evolved / tr
    return out, clicked, signs


def stepped_counting(model, spec, rho0, dt, n_steps, n_traj, seed, etas=None):
    """The stepped reference of the event-driven counting runs: n_traj
    trajectories of direct detection or AID from rho0, stepped one window at
    a time by the jump kernel (`step_jump`'s step) with LO signs from +1.
    Every step takes one uniform per trajectory from one numpy stream,
    shared by the trajectory's rows at each efficiency of `etas`.  Yields
    (step, rows) after every step: real coordinates, eta-major as in the
    package."""
    kernel = T._SuperopJumpKernel(model, spec, dt, etas)
    n_eta = len(kernel.props[0])
    rho0 = np.asarray(_matrix(rho0))
    y = kernel.initial(np.broadcast_to(rho0, (n_eta * n_traj, *rho0.shape)))
    signs = np.ones(len(y))
    rng = np.random.default_rng(seed)
    for step in range(1, n_steps + 1):
        y, _ = kernel.step(y, rng.random((n_traj, 1)), signs)
        yield step, y


def purified_step(c, prop, zs, weights, dt, psi, dw_row):
    """One step of the eta = 1 purified bundle with dense operators in the
    caller's basis: c the measured operator, prop = expm(K dt) with K the
    no-jump generator, zs the channel coefficients.  The package's kernel
    steps the same map in the generator's block order."""
    # the bundle comes in with unit weighted norm: the kets start
    # orthonormal with weights summing to 1, and every step renormalises
    b, k, d = psi.shape
    u = (psi.reshape(b * k, d) @ c.T).reshape(b, k, d)     # (c psi)
    c_mean = np.vecdot(psi, u) @ weights                   # <c>
    new = psi.copy()
    for j, z in enumerate(zs):
        dy = 2.0 * (c_mean * z).real * dt + dw_row[:, j]
        new += (z * dy)[:, None, None] * u
    new = (new.reshape(b * k, d) @ prop.T).reshape(b, k, d)
    scale = np.sqrt(np.vecdot(new, new).real @ weights)
    return new / scale[:, None, None]
