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
(position for phi = 0, momentum for phi = pi), r = 0 heterodyne.  The
correction vanishes identically at eta = 0, recovering the unconditional
Lyapunov flow.  The drift has a zero eigenvalue (free particle), so the
unconditional covariance never reaches a stationary point: position
variance grows without bound and the unconditional purity tends to zero.
Quantities defined "starting from the unconditional steady state" are
therefore computed in inverse covariance (information) coordinates, where
that start is the regular point Y = diag(0, 1/T).

Every curve the measures read has a closed form and is evaluated on the
whole time grid at once: the Lyapunov curve through A^2 = -A, the
information-form Riccati curve through its linear-fractional solution.
The stationary covariance is likewise algebraic (the invariant subspace
of the same Hamiltonian).  Each takes a leading stack axis of detection
points (qbm_generators of a sequence of points) and then returns, beside
the values, each member's fault instead of raising it.  The only numerical
integration here is covariance_ode, which no measure calls: `validate
properties` checks the closed forms against it.
"""

import copy
import math
from dataclasses import dataclass, replace

import numpy as np
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
# a flat symmetric 2x2's (qq, pp, qp) entries; flat K -> dV -> K dV + dV K^T on them
_ROWS, _SYMMETRIC = np.array([0, 3, 1]), np.array([0, 2, 2, 1])
_DET_PARTNERS, _DET_SCALE = np.array([1, 0, 2]), np.array([1.0, 1.0, -2.0])
_LYAPUNOV_JACOBIAN = np.array([[2, 0, 0, 0, 0, 0, 0, 0, 1],
                               [0, 0, 2, 0, 0, 0, 0, 1, 0],
                               [0, 0, 0, 0, 0, 2, 1, 0, 0],
                               [0, 0, 0, 0, 2, 0, 0, 0, 1]], dtype=float)


@dataclass(frozen=True)
class QbmParams:
    """Bath temperature in scaled units; the only free system parameter."""

    temperature: float

    def __post_init__(self):
        if not math.isfinite(self.temperature):
            raise ValueError(f"temperature must be finite, got {self.temperature}")
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
        if not math.isfinite(self.phi):
            raise ValueError(f"phi must be finite, got {self.phi}")
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

    def with_eta(self, eta):
        """The same model at efficiency eta."""
        return replace(self, eta=eta)

    def correction(self, v):
        """Measurement back-action term of the covariance flow (symmetric)."""
        if self.eta == 0.0:
            return np.zeros(np.broadcast_shapes(np.shape(v), self.dyne_matrix.shape))
        z = v @ self.meas_gain - self.meas_offset
        return 2.0 * self.eta * z @ self.dyne_matrix @ z.mT

    def care_form(self, etas=None):
        """Rewrite the flow as Atil V + V Atil^T + Qtil - V Rtil V (exact).

        At the instance's own efficiency, or for an array of efficiencies
        with a trailing stack axis over them ((k,) or (n, k) on (n, 2, 2)
        generators give (n, k, 2, 2)).
        """
        f, g, q = self.meas_gain, self.meas_offset, self.dyne_matrix
        two_eta, pieces = 2.0 * self.eta, (g @ q @ f.T, g @ q @ g.T, f @ q @ f.T)
        if etas is not None:
            two_eta = 2.0 * np.asarray(etas, dtype=float)[..., None, None]
            pieces = [p[..., None, :, :] for p in pieces]
        gqf, gqg, fqf = pieces
        return (self.drift + two_eta * gqf, self.diffusion - two_eta * gqg,
                two_eta * fqf)

    def rhs(self, v):
        a, d = self.drift, self.diffusion
        return a @ v + v @ a.T + d - self.correction(v)


def qbm_generators(params, u, eta):
    """Generators of the conditional Gaussian flow for detection point u, or
    one stack of them (dyne_matrix (n, 2, 2)) for a sequence of n points.

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
    ups = np.array([(p.r * math.cos(p.phi), p.r * math.sin(p.phi))
                    for p in ([u] if isinstance(u, DiskPoint) else u)]).reshape(-1, 2)
    q = np.stack([1.0 + ups[:, 0], -ups[:, 1], -ups[:, 1], 1.0 - ups[:, 0]], -1)
    return GaussianGenerators(drift=a, diffusion=d, meas_gain=f, meas_offset=g,
                              dyne_matrix=q.reshape((2, 2) if isinstance(u, DiskPoint)
                                                    else (-1, 2, 2)),
                              eta=float(eta))


def gaussian_purity(v):
    """Purity 1/sqrt(4 det V) of a Gaussian state, or of a stack of them."""
    return 1.0 / np.sqrt(4.0 * _det2(v.matrix if isinstance(v, CovarianceState) else v))


def _det2(x):
    return x[..., 0, 0] * x[..., 1, 1] - x[..., 0, 1] * x[..., 1, 0]


def _flag(faults, bad, error):
    """Give error(i) to each bad member i of a stack without a fault yet."""
    if bad.any():
        for i in np.flatnonzero(bad & ~faults.astype(bool)):
            faults[i] = error(i)


def _settle(values, faults, lead):
    """A stack's (values, faults) shaped to lead; unstacked, its value or fault raised."""
    if lead:
        return values.reshape(lead + values.shape[1:]), faults.reshape(lead)
    if faults[0] is not None:
        raise copy.copy(faults[0])  # the stored one would form a cycle with this frame
    return values[0] if values.ndim > 1 else float(values[0])


# ---------------------------------------------------------------------------
# stationary conditional covariance

def _hamiltonian(gen, etas=None):
    """H = [[Atil, Qtil], [Rtil, -Atil^T]]: [M; N]' = H [M; N] carries the
    information flow as Y = N M^{-1}, and [X; I] spans an invariant subspace
    of H exactly when X is a stationary covariance.  Stacked as care_form."""
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
    """Stationary covariance of each member (at gen's efficiency or at each
    of etas, stacked as care_form) through the unstable invariant subspace
    of its Hamiltonian; every member gets every check.  A stack gives (V,
    faults), V NaN where a member fails; an unstacked call gives V or raises.
    A ConvergenceError names the efficiency and the smallest |Re| of the
    spectrum: within _ATTRACTING_TOL of the Hamiltonian's largest entry, no
    stabilising solution exists (undetectable points such as pure momentum
    homodyne).
    """
    h = _hamiltonian(gen, etas)
    lead, h = h.shape[:-2], h.reshape(-1, 4, 4)
    atil, qtil, rtil = h[:, :2, :2], h[:, :2, 2:], h[:, 2:, :2]
    eigvals, eigvecs = np.linalg.eig(h)
    floor, gap = _attracting_floor(h), np.abs(eigvals.real).min(axis=-1)
    eta = np.broadcast_to(gen.eta if etas is None else etas, lead).ravel()
    faults = np.full(len(h), None, dtype=object)

    def check(bad, message):
        _flag(faults, bad, lambda i: ConvergenceError(
            f"{message(i)} (eta = {eta[i]:.6g}); the Hamiltonian's eigenvalue nearest the "
            f"imaginary axis has |Re| = {gap[i]:.1e}" + (
                ", so no stabilising solution exists (undetectable point)"
                if gap[i] <= floor[i] else "")))

    pos = eigvals.real > 1e-9
    n_pos = pos.sum(axis=-1)
    check(n_pos != 2, lambda i: (
        f"Hamiltonian matrix has {n_pos[i]} unstable eigenvalues, need 2 "
        "(stationary conditional covariance does not exist)"))
    # each member's unstable eigenvectors in order (stand-ins where it failed)
    pos[n_pos != 2] = (True, True, False, False)
    basis = np.swapaxes(np.swapaxes(eigvecs, -1, -2)[pos].reshape(-1, 2, 4), -1, -2)
    check(np.abs(np.linalg.det(basis[:, 2:, :])) < 1e-12,
          lambda i: "singular invariant-subspace basis")
    basis[faults.astype(bool), 2:, :] = np.eye(2)
    v = basis[:, :2, :] @ np.linalg.inv(basis[:, 2:, :])
    if np.iscomplexobj(v):
        # eig returns a complex basis for the whole stack if any member has a
        # complex spectrum; members with a real one are solved again in real
        # arithmetic, as alone, so that no member's result depends on others
        real = (eigvals.imag == 0.0).all(axis=-1)
        if real.any():
            b = basis[real].real
            v[real] = b[:, :2, :] @ np.linalg.inv(b[:, 2:, :])
    check(np.abs(v.imag).max(axis=(-1, -2)) > 1e-8,
          lambda i: "stationary covariance came out complex")
    v = 0.5 * (v.real + v.real.mT)
    resid = np.abs(atil @ v + v @ atil.mT + qtil - v @ rtil @ v).max(axis=(-1, -2))
    scale = np.maximum(1.0, np.abs(v).max(axis=(-1, -2)))
    check(resid > 1e-8 * scale, lambda i: f"stationary residual {resid[i]:.3e}")
    # reject pseudo-solutions at undetectable points (e.g. pure-momentum
    # homodyne): the closed loop Atil - V Rtil, minus the transpose of H on
    # [V; I], relaxes at the member's unstable rates; the slower must clear floor
    check(np.where(pos, eigvals.real, np.inf).min(axis=-1) < floor,
          lambda i: "stationary covariance is not attracting")
    _flag(faults, (v[:, 0, 0] <= 0) | (_det2(v) < 0.25 - HEISENBERG_SLACK),
          lambda i: InvariantViolationError(f"stationary covariance {v[i].tolist()} "
                                            "violates the Heisenberg bound"))
    v[faults.astype(bool)] = np.nan
    return _settle(v, faults, lead)


def riccati_steady(gen):
    """Stationary conditional covariance for one generator (exact, valid at
    the stiff high-temperature corner): ConvergenceError if no stabilising
    solution exists.  At eta = 0, the Lyapunov fixed point of a stable drift."""
    return CovarianceState.from_matrix(_riccati_stationary_algebraic(gen))


def stationary_efficiency(gen, det_target, v_start, eta_start, eta_range):
    """Efficiency eta at which each member's stationary covariance V has
    determinant det_target: (eta, accepted), over the members of gen.

    Newton on x = (v_q, v_p, c_qp, eta) for gen.rhs(V) = 0 at efficiency eta
    plus det V = det_target from (v_start, eta_start), vectorised: a member
    stops on its own converged step or singular Jacobian, and one with a
    non-finite start never runs.  The Jacobian's blocks: dV -> K dV + dV K^T
    with the closed loop K = A - 2 eta (V F - G) Q F^T, the eta column
    -2 (V F - G) Q (V F - G)^T and the det row (v_p, v_q, -2 c_qp).  A root
    is accepted only if Newton converged, eta lies in eta_range (lo, hi), V
    is positive, the residual is at most 1e-10 max(1, |V|) and K is
    attracting (so V is the stabilising solution riccati_steady finds)."""
    a, d = gen.drift, gen.diffusion
    f, g, q = gen.meas_gain, gen.meas_offset, gen.dyne_matrix
    x = np.column_stack([v_start.reshape(-1, 4)[:, _ROWS], eta_start])
    failed, done = ~np.isfinite(x).all(axis=-1), np.zeros(len(x), dtype=bool)
    step, jac, res = np.full_like(x, np.inf), np.zeros((len(x), 4, 4)), np.empty_like(x)
    for _ in range(_NEWTON_MAX_ITER + 1):
        v = x[:, _SYMMETRIC].reshape(-1, 2, 2)
        z = v @ f - g
        zq = z @ q
        zqz = (zq @ z.mT).reshape(-1, 4)[:, _ROWS]
        two_eta = 2.0 * x[:, 3:]
        det_row = x[:, _DET_PARTNERS] * _DET_SCALE     # twice grad det V
        res[:, :3] = (a @ v + v @ a.T + d).reshape(-1, 4)[:, _ROWS] - two_eta * zqz
        res[:, 3] = 0.5 * np.vecdot(x[:, :3], det_row) - det_target
        k = (a - two_eta[:, :, None] * zq @ f.T).reshape(-1, 4)
        done |= (np.abs(step).max(axis=-1)
                 <= _NEWTON_STEP_TOL * np.maximum(1.0, np.abs(x).max(axis=-1)))
        active = ~(done | failed)
        if not active.any():
            break
        jac[:, :3, :3] = (k @ _LYAPUNOV_JACOBIAN).reshape(-1, 3, 3)
        jac[:, :3, 3], jac[:, 3, :3] = -2.0 * zqz, det_row
        jac[~active] = np.eye(4)    # a member not running solves a stand-in
        try:
            step = np.linalg.solve(jac, res[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:       # a singular member fails alone
            det = np.linalg.det(jac)
            failed |= ~(np.isfinite(det) & (det != 0.0))
            jac[failed] = np.eye(4)
            step = np.linalg.solve(jac, res[:, :, None])[:, :, 0]
        step *= ~(done | failed)[:, None]       # 0 when not running (NaN if it never started)
        x -= step
    vq, vp, c, eta = x.T
    lo, hi = eta_range
    accepted = (done & ~failed & (lo <= eta) & (eta <= hi) & (vq > 0.0) & (vp > 0.0)
                & (vq * vp - c * c > 0.0) & (np.abs(res).max(axis=-1) <= 1e-10 * np.maximum(
                    1.0, np.abs(v).max(axis=(-1, -2)))))
    floor = _attracting_floor(_hamiltonian(gen, eta[:, None]))[:, 0]
    accepted[accepted] = (np.linalg.eigvals(k[accepted].reshape(-1, 2, 2)).real.max(axis=-1)
                          <= -floor[accepted])
    return eta, accepted


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
    The branch is chosen per member: a stack of generators gives (curves,
    faults) as _riccati_stationary_algebraic does.
    """
    h = _hamiltonian(gen)
    lead, h = h.shape[:-2], h.reshape(-1, 4, 4)
    t = np.asarray(t_grid, dtype=float)
    start = np.vstack([np.eye(2), y0])
    lam, w = np.linalg.eig(h)
    direct = np.abs(lam.real).max(axis=-1) * t.max() <= 1.0
    dets = np.empty((len(h), len(t)), dtype=lam.dtype)
    faults = np.full(len(h), None, dtype=object)
    with np.errstate(divide="ignore", invalid="ignore"):
        if direct.any():
            mn = expm(t[:, None, None] * h[direct, None]) @ start
            dets[direct] = _det2(mn[..., 2:, :]) / _det2(mn[..., :2, :])
        if not direct.all():
            mn, faults[~direct] = _decaying_radon(lam[~direct], w[~direct], start, t)
            dets[~direct] = _det2(mn[..., 2:, :]) / _det2(mn[..., :2, :])
    big = np.maximum(1.0, np.abs(dets).max(axis=-1))
    _flag(faults, ~np.isfinite(dets).all(axis=-1) | (np.abs(dets.imag).max(axis=-1) > 1e-8 * big),
          lambda _i: ConvergenceError("closed-form information flow is not finite and real"))
    dets = dets.real
    # at t = 0 the flow is the start itself, not its round trip through the
    # eigenbasis: det Y0 is often 0, where sqrt turns rounding into 1e-8 purity
    dets[:, t == 0.0] = np.linalg.det(y0)
    return _settle(0.5 * np.sqrt(np.clip(dets, 0.0, None)), faults, lead)


def _decaying_radon(lam, w, start, t):
    """([M; N](t), faults) over a stack of eigendecompositions, [M; N] up to
    a right factor, which leaves N M^{-1} unchanged.  With H = W diag(lam)
    W^{-1} and C = W^{-1} [I; y0] split into stable (s) and unstable (u)
    halves, e^{Ht} [I; y0] C_u^{-1} e^{-lam_u t}
    = W_s e^{lam_s t} C_s C_u^{-1} e^{-lam_u t} + W_u: every exponential decays.
    """
    stable, faults = lam.real < 0.0, np.full(len(lam), None, dtype=object)
    n_stable = stable.sum(axis=-1)
    _flag(faults, n_stable != 2, lambda i: ConvergenceError(
        f"Hamiltonian matrix has {n_stable[i]} stable eigenvalues, need 2 "
        "(no stable/unstable split of the information flow)"))
    # stable eigenpairs first, each half in its original order
    order = np.argsort(~stable, axis=-1, kind="stable")
    lam, w = np.take_along_axis(lam, order, -1), np.take_along_axis(w, order[:, None, :], -1)
    _flag(faults, np.linalg.cond(w) > _RADON_COND_MAX, lambda _i: ConvergenceError(
        "ill-conditioned eigenbasis of the information flow"))
    # failed members solve with stand-ins, so that no solve fails
    c = np.linalg.solve(np.where(faults.astype(bool)[:, None, None], np.eye(4), w), start)
    _flag(faults, np.linalg.cond(c[:, 2:]) > _RADON_COND_MAX, lambda _i: ConvergenceError(
        "start covariance lies on the stable subspace"))
    k = c[:, :2] @ np.linalg.inv(np.where(faults.astype(bool)[:, None, None], np.eye(2),
                                          c[:, 2:]))
    e_s = np.exp(t[:, None] * lam[:, None, :2])
    e_u = np.exp(-t[:, None] * lam[:, None, 2:])
    # W_s diag(e_s) K as one product per member, of e_s with W_s[i, a] K[a, b]
    ws_k = (w[:, :, :2, None] * k[:, None]).transpose(0, 2, 1, 3).reshape(-1, 2, 8)
    mn = (e_s @ ws_k).reshape(-1, len(t), 4, 2)
    mn *= e_u[:, :, None, :]
    mn += w[:, None, :, 2:]
    return mn, faults


def unconditional_covariance_curve(gen, v0, t_grid):
    """Lyapunov flow evaluated on an arbitrary time grid, in closed form.

    The particle drift satisfies A^2 = -A, so e^{As} = I + g(s) A with
    g(s) = 1 - e^{-s}, and integrating e^{As} D e^{A^T s} gives

        V(t) = e^{At} V0 e^{A^T t} + t D + (t - g)(A D + D A^T)
               + (t - 2g + (1 - e^{-2t})/2) A D A^T.

    v0 is a CovarianceState or a stack (..., 2, 2) of covariance matrices.
    """
    a, d = gen.drift, gen.diffusion
    if not np.abs(a @ a + a).max() <= 1e-12:
        raise ValueError("the closed-form Lyapunov curve needs a drift with A^2 = -A")
    t = np.asarray(t_grid, dtype=float)
    g = -np.expm1(-t)
    v0m = v0.matrix if isinstance(v0, CovarianceState) else np.asarray(v0)
    av0, ad = a @ v0m, a @ d
    # V(t) = sum_k phi_k(t) M_k as one product, each M_k flattened
    phi, m = np.empty((len(t), 6)), np.empty(v0m.shape[:-2] + (6, 4))
    phi[:, 0], phi[:, 1], phi[:, 2], phi[:, 3], phi[:, 4] = 1.0, g, g ** 2, t, t - g
    phi[:, 5] = t - 2.0 * g - 0.5 * np.expm1(-2.0 * t)
    for k, mk in enumerate((v0m, av0 + av0.mT, av0 @ a.T, d, ad + ad.T, ad @ a.T)):
        m[..., k, :] = mk.reshape(mk.shape[:-2] + (4,))
    v = phi @ m
    return v.reshape(v.shape[:-1] + (2, 2))


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported when first called: only
    covariance_ode integrates, so `import unravel` does not load it."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


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
    return survival_overlap_curve(gen, riccati_steady(gen).matrix, tau_grid)


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
    covariance diverges along the unmeasured position direction (checked
    against Monte Carlo over sampled means in the test suite).  With
    e^{A tau} = I + (1 - e^{-tau}) A (A^2 = -A), N reduces to
    (R_pp / 2) [[1, -1], [-1, 1]], R = correction(V_c).  A stack of v_c
    (one per member of gen) gives (curves, faults) as
    _riccati_stationary_algebraic does.
    """
    r_pp = gen.correction(v_c)[..., 1, 1]
    tau_grid = np.asarray(tau_grid, dtype=float)
    v_u = unconditional_covariance_curve(gen, v_c, tau_grid)
    # W(tau) = (R_pp/2) (F_tau v)(F_tau v)^T with v = (1,-1),
    # F_tau v = -(f, -f), f = 1 - e^{-tau}
    w_scale = 0.5 * r_pp[..., None] * (1.0 - np.exp(-tau_grid)) ** 2
    sigma = (v_u + v_c[..., None, :, :]
             + w_scale[..., None, None] * np.array([[1.0, -1.0], [-1.0, 1.0]]))
    lead = sigma.shape[:-3]
    dets = _det2(sigma).reshape(-1, len(tau_grid))
    faults = np.full(len(dets), None, dtype=object)
    _flag(faults, (dets <= 0).any(axis=-1), lambda _i: DecompositionError(
        "singular overlap covariance along the delay grid"))
    with np.errstate(invalid="ignore"):
        return _settle(1.0 / np.sqrt(dets), faults, lead)
