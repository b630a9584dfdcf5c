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

Every curve the measures read has a closed form and is evaluated on the
whole time grid at once: the Lyapunov curve through A^2 = -A, the
information-form Riccati curve through its linear-fractional solution.
The stationary covariance is likewise algebraic (the invariant subspace
of the same Hamiltonian).  The only numerical integration in this module
is covariance_ode, an adaptive ODE integration of GaussianGenerators.rhs
that no measure calls: `validate properties` checks the closed forms
against it.
"""

import copy
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from .errors import ConvergenceError, DecompositionError, InvariantViolationError

HEISENBERG_SLACK = 1e-9
# largest eigenvector-basis condition number accepted by the closed-form
# information flow; off pure momentum homodyne the particle's basis sits at
# 2..140 for T in [0.01, 1000] and reaches ~1e3 at T = 1e5
_RADON_COND_MAX = 1e8
# an accepted stationary covariance's closed loop must relax at least this
# fast, relative to the Hamiltonian's largest entry; a Hamiltonian eigenvalue
# this close to the imaginary axis means no stabilising solution exists.
# Just off pure momentum homodyne at T >= 100 the solve lost up to 9e-6 of
# det V where the gap was below 6e-6 of that scale
_ATTRACTING_TOL = 1e-5
# Newton on (V, eta) in stationary_efficiency: iteration cap and the relative
# step below which it has converged (the step after it would be ~1e-24)
_NEWTON_MAX_ITER = 30
_NEWTON_STEP_TOL = 1e-12


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
        object.__setattr__(self, "r", float(self.r))
        if not 0.0 <= self.r <= 1.0:
            raise ValueError(f"r must lie in [0, 1], got {self.r}")
        object.__setattr__(self, "phi", float(self.phi) % (2.0 * math.pi))


@dataclass(frozen=True)
class CovarianceState:
    """Second moments (V_q, V_p, C_qp) of a single-mode Gaussian state; the
    means are not kept, since no measure reads them."""

    v_q: float
    v_p: float
    c_qp: float

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

    @staticmethod
    def from_matrix(v):
        v = np.asarray(v, dtype=float)
        return CovarianceState(v_q=float(v[0, 0]), v_p=float(v[1, 1]),
                               c_qp=float(0.5 * (v[0, 1] + v[1, 0])))


@dataclass(frozen=True)
class GaussianGenerators:
    """Drift, diffusion and measurement matrices of a linear Gaussian model.

    The conditioning correction to the covariance flow is
    2*eta*(V F - G) Q (V F - G)^T; the same matrix is the diffusion of the
    conditional means, which is what makes the excess-noise bookkeeping in
    :func:`survival_overlap_curve` exact.
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
        f, g, q = self.meas_gain, self.meas_offset, self.dyne_matrix
        # eta-independent pieces of care_form, shared by with_eta copies
        object.__setattr__(self, "_care_pieces", (g @ q @ f.T, g @ q @ g.T, f @ q @ f.T))

    def with_eta(self, eta):
        """The same model at efficiency eta.

        The matrices were validated when this instance was built; the copy
        shares them and the eta-independent products of care_form, so a
        root-find over eta pays for neither again.
        """
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {eta}")
        other = copy.copy(self)
        object.__setattr__(other, "eta", float(eta))
        return other

    def correction(self, v):
        """Measurement back-action term of the covariance flow (2x2, symmetric)."""
        if self.eta == 0.0:
            return np.zeros((2, 2))
        z = v @ self.meas_gain - self.meas_offset
        return 2.0 * self.eta * z @ self.dyne_matrix @ z.T

    def care_form(self, etas=None):
        """Rewrite the flow as Atil V + V Atil^T + Qtil - V Rtil V (exact).

        At the instance's own efficiency by default; an array of efficiencies
        gives (n, 2, 2) stacks of the three matrices, one per entry.
        """
        gqf, gqg, fqf = self._care_pieces
        two_eta = 2.0 * (self.eta if etas is None
                         else np.asarray(etas, dtype=float).reshape(-1, 1, 1))
        return (self.drift + two_eta * gqf, self.diffusion - two_eta * gqg,
                two_eta * fqf)

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


# ---------------------------------------------------------------------------
# stationary conditional covariance

def _hamiltonian(gen, etas=None):
    """H = [[Atil, Qtil], [Rtil, -Atil^T]]: [M; N]' = H [M; N] carries the
    information flow as Y = N M^{-1}, and [X; I] spans an invariant subspace
    of H exactly when X is a stationary covariance.  One (4, 4) matrix at
    gen's efficiency, or an (n, 4, 4) stack over etas."""
    atil, qtil, rtil = gen.care_form(etas)
    h = np.empty(atil.shape[:-2] + (4, 4))
    h[..., :2, :2] = atil
    h[..., :2, 2:] = qtil
    h[..., 2:, :2] = rtil
    h[..., 2:, 2:] = -np.swapaxes(atil, -1, -2)
    return h


def _attracting_floor(h):
    """Slowest closed-loop relaxation accepted for Hamiltonian(s) h."""
    return _ATTRACTING_TOL * np.abs(h).max(axis=(-1, -2))


def _riccati_stationary_algebraic(gen, etas=None):
    """Stationary covariances at each efficiency of etas (default: gen's own)
    as an (n, 2, 2) stack, through the unstable invariant subspace of each
    Hamiltonian.  Every check applies to each member; the first member that
    fails one raises ConvergenceError."""
    etas = np.atleast_1d(np.asarray(gen.eta if etas is None else etas, dtype=float))
    h = _hamiltonian(gen, etas)
    atil, qtil, rtil = h[:, :2, :2], h[:, :2, 2:], h[:, 2:, :2]
    eigvals, eigvecs = np.linalg.eig(h)

    def check(bad, message):
        if bad.any():
            i = int(np.argmax(bad))
            raise ConvergenceError(f"{message(i)} (eta = {float(etas[i]):.6g})")

    pos = eigvals.real > 1e-9
    n_pos = pos.sum(axis=-1)
    check(n_pos != 2, lambda i: (
        f"Hamiltonian matrix has {int(n_pos[i])} unstable eigenvalues, need 2 "
        "(stationary conditional covariance does not exist)"))
    # the two unstable eigenvectors of each member, in their original order
    basis = np.swapaxes(np.swapaxes(eigvecs, -1, -2)[pos].reshape(len(etas), 2, 4), -1, -2)
    check(np.abs(np.linalg.det(basis[:, 2:, :])) < 1e-12,
          lambda i: "singular invariant-subspace basis")
    v = basis[:, :2, :] @ np.linalg.inv(basis[:, 2:, :])
    if len(etas) > 1 and np.iscomplexobj(v):
        # eig returns a complex basis for the whole stack if any member has
        # a complex spectrum; members with a real one are solved again in
        # real arithmetic, as in a stack of one, so that a member's result
        # does not depend on the others
        real = (eigvals.imag == 0.0).all(axis=-1)
        if real.any():
            b = basis[real].real
            v[real] = b[:, :2, :] @ np.linalg.inv(b[:, 2:, :])
    check(np.abs(v.imag).max(axis=(-1, -2)) > 1e-8,
          lambda i: "stationary covariance came out complex")
    v = 0.5 * (v.real + np.swapaxes(v.real, -1, -2))
    resid = np.abs(atil @ v + v @ np.swapaxes(atil, -1, -2) + qtil
                   - v @ rtil @ v).max(axis=(-1, -2))
    scale = np.maximum(1.0, np.abs(v).max(axis=(-1, -2)))
    check(resid > 1e-8 * scale, lambda i: f"stationary residual {resid[i]:.3e}")
    # reject pseudo-solutions at undetectable points (e.g. pure-momentum
    # homodyne): the filter must actually relax towards the fixed point
    check(np.linalg.eigvals(atil - v @ rtil).real.max(axis=-1) > -_attracting_floor(h),
          lambda i: "stationary covariance is not attracting")
    return v


def riccati_steady(gen):
    """Stationary conditional covariance for the given unravelling and efficiency.

    The algebraic Riccati solve through the unstable invariant subspace of
    the 4x4 Hamiltonian matrix (exact, fast, valid at the stiff
    high-temperature corner), as a stack of one.  If it fails,
    ConvergenceError carries the failing efficiency and the smallest |Re|
    of the Hamiltonian spectrum; a gap within _ATTRACTING_TOL times the
    Hamiltonian's largest entry means no stabilising solution exists
    (undetectable points such as pure momentum homodyne).  At eta = 0 this is the
    unconditional (Lyapunov) fixed point when the drift is stable.
    """
    try:
        v = _riccati_stationary_algebraic(gen)[0]
    except ConvergenceError as exc:
        h = _hamiltonian(gen)
        gap = float(np.abs(np.linalg.eigvals(h).real).min())
        why = (", so no stabilising solution exists (undetectable point)"
               if gap <= _attracting_floor(h) else "")
        raise ConvergenceError(
            f"{exc}; the Hamiltonian's eigenvalue nearest the imaginary axis has "
            f"|Re| = {gap:.1e}{why}") from exc
    return CovarianceState.from_matrix(v)


def stationary_efficiency(gen, det_target, v_start, eta_start, eta_range):
    """Efficiency eta at which gen's stationary covariance V has determinant
    det_target: (eta, V).

    Newton on x = (v_q, v_p, c_qp, eta) for the three entries of gen.rhs(V)
    = 0 at efficiency eta plus det V = det_target, started from (v_start,
    eta_start).  The stationarity block of the Jacobian is dV -> K dV + dV K^T
    with the closed loop K = A - 2 eta (V F - G) Q F^T, the eta column is
    -2 (V F - G) Q (V F - G)^T and the det row is (v_p, v_q, -2 c_qp).  The
    root is accepted only if Newton converged, eta lies in eta_range, V is
    positive, the residual is at most 1e-10 max(1, |V|) and K is attracting
    (so V is the stabilising solution riccati_steady finds at that eta);
    otherwise ConvergenceError.
    """
    a, d = gen.drift, gen.diffusion
    f, g, q = gen.meas_gain, gen.meas_offset, gen.dyne_matrix
    x = np.array([v_start[0, 0], v_start[1, 1], v_start[0, 1], eta_start])
    step = None
    for _ in range(_NEWTON_MAX_ITER + 1):
        vq, vp, c, eta = x
        v = np.array([[vq, c], [c, vp]])
        z = v @ f - g
        zq = z @ q
        zqz = zq @ z.T
        rhs = a @ v + v @ a.T + d - 2.0 * eta * zqz
        res = np.array([rhs[0, 0], rhs[1, 1], rhs[0, 1], vq * vp - c * c - det_target])
        k = a - 2.0 * eta * zq @ f.T
        if (step is not None
                and np.abs(step).max() <= _NEWTON_STEP_TOL * max(1.0, np.abs(x).max())):
            break
        jac = np.array([[2.0 * k[0, 0], 0.0, 2.0 * k[0, 1], -2.0 * zqz[0, 0]],
                        [0.0, 2.0 * k[1, 1], 2.0 * k[1, 0], -2.0 * zqz[1, 1]],
                        [k[1, 0], k[0, 1], k[0, 0] + k[1, 1], -2.0 * zqz[0, 1]],
                        [vp, vq, -2.0 * c, 0.0]])
        try:
            step = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError("singular Jacobian in Newton on (V, eta)") from exc
        x = x + step
    else:
        raise ConvergenceError("Newton on (V, eta) did not converge")
    lo, hi = eta_range
    if not lo <= eta <= hi:
        raise ConvergenceError(f"Newton root eta = {eta:.6g} outside [{lo}, {hi}]")
    if vq <= 0.0 or vp <= 0.0 or vq * vp - c * c <= 0.0:
        raise ConvergenceError("Newton root covariance is not positive")
    if np.abs(res).max() > 1e-10 * max(1.0, np.abs(v).max()):
        raise ConvergenceError(f"Newton root residual {np.abs(res).max():.3e}")
    if np.linalg.eigvals(k).real.max() > -_attracting_floor(_hamiltonian(gen, [eta])[0]):
        raise ConvergenceError("Newton root covariance is not attracting")
    return float(eta), v


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
    sqrt(det Y)/2.  The information flow dY/dt = Rtil - Atil^T Y - Y Atil
    - Y Qtil Y is linear-fractional (Radon's lemma): Y = N M^{-1} with
    [M; N](t) = e^{Ht} [I; y0], H from _hamiltonian, so det Y = det N / det M
    on the whole grid at once.  Where e^{Ht} grows over the grid it is
    rewritten with decaying exponentials only (_decaying_radon); where it
    does not (undetectable points such as pure momentum homodyne, whose
    spectrum collapses onto zero) it is bounded and evaluated directly.
    """
    h = _hamiltonian(gen)
    t = np.asarray(t_grid, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    start = np.vstack([np.eye(2), y0])
    lam, w = np.linalg.eig(h)
    if np.abs(lam.real).max() * t.max() <= 1.0:
        mn = expm(t[:, None, None] * h) @ start
    else:
        mn = _decaying_radon(lam, w, start, t)
    dets = np.linalg.det(mn[:, 2:]) / np.linalg.det(mn[:, :2])
    if (not np.all(np.isfinite(dets))
            or np.abs(dets.imag).max() > 1e-8 * max(1.0, np.abs(dets).max())):
        raise ConvergenceError("closed-form information flow is not finite and real")
    dets = dets.real
    # at t = 0 the flow is the start itself, not its round trip through the
    # eigenbasis: det Y0 is often 0, where sqrt turns rounding into 1e-8 purity
    dets[t == 0.0] = np.linalg.det(y0)
    return 0.5 * np.sqrt(np.clip(dets, 0.0, None))


def _decaying_radon(lam, w, start, t):
    """[M; N](t) up to a right factor, which leaves N M^{-1} unchanged.

    With H = W diag(lam) W^{-1} and C = W^{-1} [I; y0] split into stable
    (s) and unstable (u) halves, e^{Ht} [I; y0] C_u^{-1} e^{-lam_u t}
    = W_s e^{lam_s t} C_s C_u^{-1} e^{-lam_u t} + W_u: every exponential decays.
    """
    stable = lam.real < 0.0
    if stable.sum() != 2:
        raise ConvergenceError(
            f"Hamiltonian matrix has {int(stable.sum())} stable eigenvalues, need 2 "
            "(no stable/unstable split of the information flow)")
    if np.linalg.cond(w) > _RADON_COND_MAX:
        raise ConvergenceError("ill-conditioned eigenbasis of the information flow")
    c = np.linalg.solve(w, start)
    c_u = c[~stable]
    if np.linalg.cond(c_u) > _RADON_COND_MAX:
        raise ConvergenceError("start covariance lies on the stable subspace")
    k = c[stable] @ np.linalg.inv(c_u)
    e_s = np.exp(np.outer(t, lam[stable]))
    e_u = np.exp(-np.outer(t, lam[~stable]))
    return w[:, stable] @ (e_s[:, :, None] * k * e_u[:, None, :]) + w[:, ~stable]


def unconditional_covariance_curve(gen, v0, t_grid):
    """Lyapunov flow evaluated on an arbitrary time grid, in closed form.

    The particle drift satisfies A^2 = -A, so e^{As} = I + g(s) A with
    g(s) = 1 - e^{-s}, and integrating e^{As} D e^{A^T s} gives

        V(t) = e^{At} V0 e^{A^T t} + t D + (t - g)(A D + D A^T)
               + (t - 2g + (1 - e^{-2t})/2) A D A^T.
    """
    a, d = gen.drift, gen.diffusion
    if not np.allclose(a @ a, -a, rtol=0.0, atol=1e-12):
        raise ValueError("the closed-form Lyapunov curve needs a drift with A^2 = -A")
    t = np.asarray(t_grid, dtype=float)[:, None, None]
    g = -np.expm1(-t)
    v0m = v0.matrix
    return (v0m + g * (a @ v0m + v0m @ a.T) + g ** 2 * (a @ v0m @ a.T)
            + t * d + (t - g) * (a @ d + d @ a.T)
            + (t - 2.0 * g - 0.5 * np.expm1(-2.0 * t)) * (a @ d @ a.T))


def covariance_ode(gen, v0, times):
    """Covariances V(t) on `times` from an adaptive DOP853 integration of
    dV/dt = gen.rhs(V), starting from covariance state v0 at times[0]: the
    reference the closed-form curves are checked against."""
    sol = solve_ivp(lambda _t, y: gen.rhs(y.reshape(2, 2)).ravel(),
                    (times[0], times[-1]), v0.matrix.ravel(), method="DOP853",
                    t_eval=times, rtol=1e-12, atol=1e-12)
    if not sol.success:
        raise ConvergenceError(f"covariance ODE failed: {sol.message}")
    return sol.y.T.reshape(-1, 2, 2)


def survival_curve(params, u, tau_grid):
    """Mean overlap between a frozen stationary conditional state and its
    unconditionally evolved copy, as a function of the delay.

    The frozen state is conditioned at detection point u with unit
    efficiency; see survival_overlap_curve for the closed form.
    """
    gen = qbm_generators(params, u, 1.0)
    return survival_overlap_curve(gen, riccati_steady(gen), tau_grid)


def survival_overlap_curve(gen, v_c, tau_grid):
    """Closed-form survival curve for generators gen and frozen covariance v_c.

    The frozen state has covariance V_c and a Gaussian-distributed mean;
    the evolved copy has covariance V_u(tau) from the Lyapunov flow and
    mean e^{A tau} mu.  Averaging the Gaussian overlap over the stationary
    mean distribution collapses to

        S(tau) = 1 / sqrt(det(V_c + V_u(tau) + W(tau)))

    with W(tau) = F_tau N F_tau^T, F_tau = -int_0^tau e^{As} ds and
    N the stationary projected mean covariance; W is exactly the
    covariance of mu - e^{A tau} mu, finite even though the raw mean
    covariance diverges along the unmeasured position direction.
    Validated against Monte Carlo over sampled means in the test suite.

    The particle drift is fixed, so the propagator pieces have closed
    forms (e^{A tau} = I + (1 - e^{-tau}) A with A^2 = -A); N likewise
    reduces to (R_pp / 2) [[1, -1], [-1, 1]], with R = correction(V_c).
    """
    r_pp = float(gen.correction(v_c.matrix)[1, 1])
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
