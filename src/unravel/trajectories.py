"""Stochastic unravelling engine over density matrices.

Diffusive (homodyne / heterodyne / general-dyne), jump (direct detection)
and adaptive-feedback jump (AID) steppers, plus a seeded ensemble runner
whose per-trajectory noise streams are derived from (master seed,
trajectory index) with a counter-based bit generator, so results depend
on chunking or thread count only through rounding.

One driver, `_drive`, steps every diffusive run and the counting runs
that keep per-step detail (single trajectories, final states), and hands
sampled states to a sink (purity collector, mean-state sum, final states,
or one trajectory's states and clicks).  A chunk of trajectories keeps one
noise stream per trajectory and draws it a block of steps at a time
(`_noise_blocks`), so its noise memory is bounded by _NOISE_BLOCK_BYTES
whatever the horizon; the block size changes no number, since a stream
drawn in pieces gives the numbers of one whole draw.  The driver runs one
of four kernels, Kraus-form steppers after Rouchon & Ralph, PRA 91, 012118
(2015):

* `_KrausDiffusiveKernel`: diffusive schemes at small dimension (the
  two-level atom), the one-step Kraus map expanded over precomputed real
  superoperators, with the deterministic part applied through an exact
  propagator so strong driving does not force tiny steps;
* `_SuperopJumpKernel`: direct detection and AID, with an exact no-click
  propagator and the local-oscillator sign as per-trajectory state;
* `_MatrixDiffusiveKernel`: diffusive schemes on raw matrices at large
  dimension (the Fock-space oracle);
* `_PurifiedKernel`: efficient diffusive runs at large dimension, which
  unravel a mixed initial state as a weighted bundle of pure states driven
  by a common measurement record (the conditional map is a pure Kraus map
  at eta = 1, so the bundle stays rank-one per component).

Purity curves and mean states of direct detection and AID, and so the
efficiency threshold's long-run purities, go through `_EventJumpSampler`
instead: the same no-click propagator, but one uniform per click rather
than per step, with the waiting time to each click drawn from the no-click
survival S(m) = Tr[y P^m], which is the stepped kernel's law exactly.  It
moves a state only at its clicks, at the steps a sink reads and at the
horizon, and hands its states to the same sinks.

Up to dimension 8 these kernels and the sampler hold each state as its d^2
real coordinates in an orthonormal Hermitian basis (`_coords`), so every
superoperator is a real d^2 x d^2 matrix (4 x 4 for the atom) and states
come back exactly Hermitian.  The stepping kernels store a batch
column-major, (b, d^2) with y.T contiguous, so each GEMM and each
per-trajectory scaling runs along the contiguous batch axis, and the noise
blocks are laid out step-major to match.

`_select_kernel` alone chooses among them, from the scheme, the
dimension, eta and what the run records.  The Kraus kernel, the jump
kernel and the sampler also run stacks of efficiencies on shared noise
(`run_purity_averages`).
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.linalg import expm

from .errors import InvariantViolationError, StepSizeError
from .hilbert import DensityMatrix, dag

DIFFUSIVE_KINDS = ("homodyne_x", "homodyne_y", "heterodyne", "general_dyne")
JUMP_KINDS = ("direct", "aid")

# bytes of one chunk's noise block, which holds as many steps as fit
_NOISE_BLOCK_BYTES = 16e6
# trajectories per chunk, at dimension <= _SUPEROP_DIM_LIMIT and above it
_MAX_SUPEROP_CHUNK = 8192
_MAX_DM_CHUNK = 512


@dataclass(frozen=True)
class UnravellingSpec:
    """Measurement strategy: named scheme or general-dyne disk point, plus efficiency."""

    kind: str
    eta: float = 1.0
    disk: object = None          # DiskPoint, general_dyne only

    def __post_init__(self):
        if self.kind not in DIFFUSIVE_KINDS + JUMP_KINDS:
            raise ValueError(f"unknown unravelling kind {self.kind!r}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")
        if self.kind == "general_dyne" and self.disk is None:
            raise ValueError("general_dyne requires a disk point")

    @property
    def is_diffusive(self):
        return self.kind in DIFFUSIVE_KINDS

    def channel_coefficients(self):
        """Complex weights z_k of the conditioning channels A_k = z_k * L.

        sum |z_k|^2 = 1, so the channels resolve the full emission.  The
        general-dyne point upsilon = r e^{i phi} splits into quadratures
        with weights sqrt((1 +- r)/2) at local-oscillator phase phi/2.
        """
        if self.kind == "homodyne_x":
            return [1.0 + 0.0j]
        if self.kind == "homodyne_y":
            return [1.0j]
        if self.kind == "heterodyne":
            s = 1.0 / math.sqrt(2.0)
            return [s + 0.0j, 1.0j * s]
        if self.kind == "general_dyne":
            r, phi = self.disk.r, self.disk.phi
            lo = np.exp(0.5j * phi)
            out = [math.sqrt((1.0 + r) / 2.0) * lo]
            if (1.0 - r) > 1e-15:
                out.append(1.0j * math.sqrt((1.0 - r) / 2.0) * lo)
            return out
        raise ValueError(f"{self.kind} is not diffusive")


def direct(eta=1.0):
    return UnravellingSpec("direct", eta)


def homodyne_x(eta=1.0):
    return UnravellingSpec("homodyne_x", eta)


def homodyne_y(eta=1.0):
    return UnravellingSpec("homodyne_y", eta)


def heterodyne(eta=1.0):
    return UnravellingSpec("heterodyne", eta)


def aid(eta=1.0):
    return UnravellingSpec("aid", eta)


def general_dyne(disk, eta=1.0):
    return UnravellingSpec("general_dyne", eta, disk=disk)


def named_scheme(name, eta=1.0):
    return UnravellingSpec(name, eta)


@dataclass(frozen=True)
class TrajectoryConfig:
    dt: float
    horizon: float
    seed: int = 0
    sample_stride: int = 1

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.horizon < 0:
            raise ValueError("horizon must be non-negative")
        if self.sample_stride < 1:
            raise ValueError("sample_stride must be at least 1")

    def grid(self):
        """(n_steps, actual dt, sample step indices)."""
        if self.horizon == 0:
            return 0, self.dt, np.array([0])
        n_steps = int(np.ceil(self.horizon / self.dt - 1e-12))
        dt = self.horizon / n_steps
        idx = np.arange(0, n_steps + 1, self.sample_stride)
        if idx[-1] != n_steps:
            idx = np.append(idx, n_steps)
        return n_steps, dt, idx


@dataclass(frozen=True)
class InnovationRecord:
    """Measurement record of one trajectory."""

    wiener: np.ndarray = None        # (n_steps, n_channels) for diffusive schemes
    jump_times: tuple = ()
    lo_signs: tuple = ()             # LO sign after each detected jump (AID)

    def __post_init__(self):
        times = np.asarray(self.jump_times, dtype=float)
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise InvariantViolationError("jump times must be strictly increasing")
        if self.lo_signs and len(self.lo_signs) != len(self.jump_times):
            raise InvariantViolationError("one LO sign per detected jump")


@dataclass(frozen=True)
class EnsembleCurve:
    times: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("an ensemble needs at least 2 trajectories")
        if np.any(self.stderr < 0):
            raise InvariantViolationError("standard errors must be non-negative")


@dataclass(frozen=True)
class MeanStateCurve:
    times: np.ndarray
    states: np.ndarray   # (n_times, d, d), ensemble-mean density matrices
    n: int


def trajectory_rng(master_seed, index):
    """Independent counter-derived stream for ensemble member `index`."""
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))))


def noise_width(spec):
    return len(spec.channel_coefficients()) if spec.is_diffusive else 1


def _noise_plan(spec, n_steps, rng):
    """The next n_steps steps of one trajectory's noise from its stream rng:
    a standard normal per channel (diffusive) or one uniform (counting)."""
    shape = (n_steps, noise_width(spec))
    return rng.standard_normal(shape) if spec.is_diffusive else rng.random(shape)


def _coords(mats):
    """Real coordinates (..., d^2) of Hermitian matrices (..., d, d) in the
    orthonormal Hermitian basis: the diagonal entries, then sqrt(2) Re and
    then sqrt(2) Im of the entries above it (row by row).

    The basis is orthonormal under Tr[A B], so Tr[rho sigma] = x . y, and a
    Hermiticity-preserving superoperator acts as a real d^2 x d^2 matrix.
    """
    d = mats.shape[-1]
    iu, ju = np.triu_indices(d, 1)
    upper = math.sqrt(2.0) * mats[..., iu, ju]
    return np.concatenate([np.real(np.diagonal(mats, axis1=-2, axis2=-1)),
                           np.real(upper), np.imag(upper)], axis=-1)


def _from_coords(x, d):
    """Hermitian (..., d, d) matrices of coordinates x, exactly Hermitian."""
    iu, ju = np.triu_indices(d, 1)
    half = len(iu)
    out = np.empty(x.shape[:-1] + (d, d), dtype=complex)
    diag = np.arange(d)
    out[..., diag, diag] = x[..., :d]
    upper = (x[..., d:d + half] + 1j * x[..., d + half:]) / math.sqrt(2.0)
    out[..., iu, ju] = upper
    out[..., ju, iu] = np.conj(upper)
    return out


def _real_superop(s):
    """The real matrix R of a Hermiticity-preserving superoperator s, given on
    row-major vec(rho) (vec(X rho Y^dag) = kron(X, conj(Y)) vec(rho)): the
    coordinates of s(rho) are R @ (the coordinates of rho)."""
    n = s.shape[0]
    d = math.isqrt(n)
    basis = _from_coords(np.eye(n), d).reshape(n, n)
    return _coords((basis @ s.T).reshape(n, d, d)).T


def _apply_blocks(mats, yt):
    """mats[e] applied to the e-th of E equal column blocks of yt (n, E*b),
    as one (m, E*b) array.  Each block takes one GEMM shaped as in a run at
    that efficiency alone, so a stacked block keeps the bits of its run."""
    n_eta, m, n = mats.shape
    out = np.empty((m, yt.shape[1]))
    np.matmul(mats, yt.reshape(n, n_eta, -1).swapaxes(0, 1),
              out=out.reshape(m, n_eta, -1).swapaxes(0, 1))
    return out


def _resolve_lo(jump_op):
    # AID's local oscillator is always beta = sqrt(gamma)/2, with gamma read
    # off the jump operator
    gamma = float(np.linalg.eigvalsh(dag(jump_op) @ jump_op).max())
    return 0.5 * math.sqrt(gamma)


def _measured_op(model):
    if not model.jump_operators:
        raise InvariantViolationError("model has no jump operator to monitor")
    return model.jump_operators[0]


def _no_jump_generator(model):
    """K = -iH - (1/2) sum_k L_k^dag L_k, the generator of e^{K dt}."""
    k = -1j * model.hamiltonian
    for op in model.jump_operators:
        k -= 0.5 * dag(op) @ op
    return k


def _basis_initial(kernel, mats):
    """`initial` of the small-dimension kernels: a (b, d^2) batch of
    coordinates stored column-major, so y.T is a contiguous (d^2, b) array."""
    return np.ascontiguousarray(_coords(mats).T).T


def _basis_to_matrices(kernel, y):
    """`to_matrices` of the small-dimension kernels: (b, d, d) states."""
    return _from_coords(y, kernel.dim)


class _KrausDiffusiveKernel:
    """Diffusive stepper for small dimensions via a per-trajectory Kraus map.

    One step applies rho -> M rho M^dag (+ undetected-emission sandwiches)
    with M = e^{K dt} + sum_k u_k A_k, K = -iH - (1/2) sum L^dag L and
    u_k = sqrt(eta) dW_k + eta <A_k + A_k^dag> dt.  Weak order 1, exactly
    positivity-preserving, keeps pure states exactly pure at eta = 1, and
    the exact drift exponential keeps strong driving accurate without tiny
    steps.  The map expands into fixed real superoperators with
    per-trajectory coefficients, S0 + sum_k u_k S_k + sum_{k<=l} u_k u_l S_kl,
    stacked into one (J n, n) matrix for one GEMM against the contiguous
    (n, b) view of the batch.  It steps E efficiencies `etas` (default
    (spec.eta,)) at once, in eta-major rows: row e*b + i is trajectory i at
    etas[e] and reads noise row i.  Only S0 (the (1 - eta) dt leak) depends
    on eta, so the stack is (E, J n, n), one GEMM per efficiency block.
    """

    def __init__(self, model, spec, dt, etas=None):
        self.dim = model.dim
        self.dt = dt
        etas = (spec.eta,) if etas is None else etas
        self.root_eta = np.sqrt(etas)[:, None]
        self.eta_dt = (np.array(etas) * dt)[:, None]
        c = _measured_op(model)
        prop = expm(_no_jump_generator(model) * dt)
        ops = [z * c for z in spec.channel_coefficients()]
        self.n_ch = len(ops)
        sandwich = lambda x, y: np.kron(x, y.conj())

        def leaky(eta):
            s0 = sandwich(prop, prop)
            for a in ops:
                s0 = s0 + (1.0 - eta) * dt * sandwich(a, a)
            for op in model.jump_operators[1:]:
                s0 = s0 + dt * sandwich(op, op)
            return _real_superop(s0)

        terms = [sandwich(a, prop) + sandwich(prop, a) for a in ops]
        self.pairs = [(k, l) for k in range(self.n_ch) for l in range(k, self.n_ch)]
        for k, l in self.pairs:
            term = sandwich(ops[k], ops[l])
            if l != k:
                term = term + sandwich(ops[l], ops[k])
            terms.append(term)
        shared = [_real_superop(t) for t in terms]
        self.stack = np.stack([np.concatenate([leaky(eta), *shared]) for eta in etas])
        self.weights = _coords(np.stack([a + dag(a) for a in ops]))

    initial = _basis_initial

    def step(self, y, dw_row):
        n_eta, n = len(self.stack), y.shape[1]
        yt = y.T
        means = (self.weights @ yt).reshape(self.n_ch, n_eta, -1)
        u = (self.root_eta * dw_row.T[:, None, :] + self.eta_dt * means).reshape(self.n_ch, -1)
        terms = _apply_blocks(self.stack, yt).reshape(-1, n, len(y))
        out = terms[0]
        # each coefficient scales a contiguous row of b trajectories
        for term, coef in zip(terms[1:], [*u, *(u[k] * u[l] for k, l in self.pairs)]):
            term *= coef
            out += term
        out /= out[:self.dim].sum(axis=0)
        return out.T

    to_matrices = _basis_to_matrices


class _MatrixDiffusiveKernel:
    """Diffusive stepper on raw matrices for large dimension, Kraus form.

    Same one-step completely positive map as the small-dimension kernel
    (M rho M^dag with M = e^{K dt} + sum_k u_k A_k, plus the undetected
    sandwich), built per trajectory since M depends on the record.  The
    earlier plain Euler-Maruyama variant was marginally unstable in the
    high Fock tail over long horizons; this form is unconditionally
    positivity-preserving.  Used for oracle cross-checks at modest batch
    sizes; the purified path is the throughput engine at eta = 1.
    """

    def __init__(self, model, spec, dt):
        d = model.dim
        self.dim = d
        self.dt = dt
        self.eta = spec.eta
        self.c = _measured_op(model)
        self.others = list(model.jump_operators[1:])
        self.prop = expm(_no_jump_generator(model) * dt)
        self.zs = np.array(spec.channel_coefficients())
        self.quad_weights = 2.0 * self.zs  # x_k = Re(2 z_k tr(c rho))

    def initial(self, mats):
        return np.array(mats, dtype=complex)

    def step(self, rho, dw_row):
        dt = self.dt
        root_eta = math.sqrt(self.eta)
        tr_c = np.einsum("ij,bji->b", self.c, rho)
        m = np.broadcast_to(self.prop, rho.shape).copy()
        for k, z in enumerate(self.zs):
            x_k = (self.quad_weights[k] * tr_c).real
            u = root_eta * dw_row[:, k] + self.eta * x_k * dt
            m += (u * z)[:, None, None] * self.c
        out = m @ rho @ np.conj(np.swapaxes(m, 1, 2))
        leak = (1.0 - self.eta) * dt
        if leak > 0:
            # sum_k A_k rho A_k^dag = c rho c^dag since sum |z_k|^2 = 1
            u_mat = self.c @ rho
            out += leak * (u_mat @ dag(self.c))
        for op in self.others:
            out += dt * (op @ rho @ dag(op))
        tr = np.einsum("bii->b", out).real
        return out / tr[:, None, None]

    def to_matrices(self, rho):
        return 0.5 * (rho + np.conj(np.swapaxes(rho, 1, 2)))


class _SuperopJumpKernel:
    """Jump stepper (direct detection and AID) with exact no-jump propagator.

    The no-jump propagator is trace-decreasing; the detected-jump
    probability per step is read off the trace decay.  For AID the
    local-oscillator sign is per-trajectory state: both signed variants of
    every operator are precomputed, and each column takes its sign's.
    States and efficiency stacks are laid out as in _KrausDiffusiveKernel;
    only the no-click propagators depend on eta, stacked (E, n, n) per sign
    in `props`.  Every map acts on coordinate columns: y.T -> P @ y.T.
    """

    def __init__(self, model, spec, dt, etas=None):
        d = model.dim
        if d > _SUPEROP_DIM_LIMIT:
            raise ValueError(
                f"jump unravellings are only implemented for dim <= {_SUPEROP_DIM_LIMIT}")
        self.dim = d
        self.dt = dt
        etas = (spec.eta,) if etas is None else etas
        self.adaptive = spec.kind == "aid"
        c = _measured_op(model)
        beta = _resolve_lo(c) if self.adaptive else 0.0
        rate_scale = float(np.linalg.eigvalsh(
            dag(c + beta * np.eye(d)) @ (c + beta * np.eye(d))).max())
        if dt * max(rate_scale, 1e-300) > 0.1:
            raise StepSizeError(
                f"dt * jump rate = {dt * rate_scale:.3f} > 0.1; first-order "
                "jump splitting is invalid, reduce dt")
        ident = np.eye(d)
        self.props = []
        self.jump_supers = []
        signs = (+1.0, -1.0) if self.adaptive else (+1.0,)
        for s in signs:
            j = c + s * beta * ident
            h = model.hamiltonian + 0.5j * (s * beta * dag(c) - np.conj(s * beta) * c)
            jj = dag(j) @ j

            def no_click(eta):
                q = -1j * (np.kron(h, ident) - np.kron(ident, h.T))
                q += (1.0 - eta) * (np.kron(j, j.conj())
                                    - 0.5 * (np.kron(jj, ident) + np.kron(ident, jj.T)))
                for op in model.jump_operators[1:]:
                    oo = dag(op) @ op
                    q += np.kron(op, op.conj()) - 0.5 * (np.kron(oo, ident)
                                                         + np.kron(ident, oo.T))
                q -= 0.5 * eta * (np.kron(jj, ident) + np.kron(ident, jj.T))
                return _real_superop(expm(q * dt))

            self.props.append(np.stack([no_click(eta) for eta in etas]))
            self.jump_supers.append(_real_superop(np.kron(j, j.conj())))
        self.tr_vec = _coords(ident)

    initial = _basis_initial

    def step(self, y, u_row, signs):
        """One step for the batch; mutates `signs` in place, returns (y, jumped)."""
        d, n_eta = self.dim, len(self.props[0])
        yt = y.T
        y_prop = _apply_blocks(self.props[0], yt)
        if self.adaptive:
            y_prop = np.where(signs < 0, _apply_blocks(self.props[1], yt), y_prop)
        tr = y_prop[:d].sum(axis=0)
        # click probability = trace decay of the no-click propagator; the
        # floor keeps roundoff from ever clicking a state with no emission
        p_jump = 1.0 - tr
        jumped = (u_row[:, 0] < p_jump.reshape(n_eta, -1)).ravel() & (p_jump > 1e-12)
        # the click acts on the no-click-evolved state, so a trajectory
        # sitting exactly in the ground state re-excites within the step
        # before it can emit (and the renormalization stays regular)
        idx = np.flatnonzero(jumped)
        clicked = y_prop[:, idx]
        y_prop /= tr
        if idx.size:
            post = self.jump_supers[0] @ clicked
            if self.adaptive:
                minus = signs[idx] < 0
                if minus.any():
                    post[:, minus] = self.jump_supers[1] @ clicked[:, minus]
                signs[idx] = -signs[idx]
            y_prop[:, idx] = post / post[:d].sum(axis=0)
        return y_prop.T, jumped

    to_matrices = _basis_to_matrices


# each trajectory's click uniforms are drawn this many at a time
_CLICK_DRAW = 32
# tolerance on the no-click survival's step-to-step rise, relative to S(0) = 1
_SURVIVAL_RISE_TOL = 1e-12


def _click_uniforms(seed, start, stop):
    """draw(traj, k): the k-th click uniform of each trajectory start + traj.

    A trajectory's uniforms are the numbers of its own stream in order,
    drawn _CLICK_DRAW at a time, so they do not depend on chunking."""
    rngs = [trajectory_rng(seed, i) for i in range(start, stop)]
    drawn = np.empty((len(rngs), 0))

    def draw(traj, k):
        nonlocal drawn
        while k.max() >= drawn.shape[1]:
            drawn = np.hstack([drawn, np.stack([rng.random(_CLICK_DRAW) for rng in rngs])])
        return drawn[traj, k]

    return draw


class _EventJumpSampler(_SuperopJumpKernel):
    """Event-driven direct detection and AID: one uniform per click, not per step.

    Between clicks a state follows the stepped kernel's no-click map P, so
    from a normalized state y no click comes in the next m steps with
    probability S(m) = Tr[y P^m], and the stepped kernel's next click step
    has the law of the smallest m with S(m) < r for one uniform r: the
    waiting-time form of the quantum-jump method (Dalibard, Castin & Molmer,
    PRL 68, 580 (1992)).  The sampler gathers and scatters rows, so it keeps
    row-major states and the row form y -> y P^T of every map.  Per table,
    one per (LO sign, eta) with index sign * E + eta, `prepare` keeps the
    trace rows t_m with S(m) = y . t_m for m up to the horizon (found by
    binary search) and the powers P^0 .. P^hop that carry a state from a
    click or checkpoint to the next.  An AID click flips the row's sign, so
    its table.  The k-th click of a trajectory, in each of its eta rows,
    takes the k-th uniform of the trajectory's own stream, so the rows share
    common random numbers.
    """

    _shape = None       # (n_steps, hop) of the tables built last

    def prepare(self, n_steps, hop):
        """Build the trace rows up to n_steps and the powers up to hop."""
        if self._shape == (n_steps, hop):
            return
        p = np.swapaxes(np.concatenate(self.props), 1, 2)      # (tables, n, n)
        n = p.shape[-1]
        traces = np.empty((len(p), n_steps + 1, n))
        traces[:, 0] = self.tr_vec
        done, power = 1, p
        while done <= n_steps:
            # t_{done + m} = P^done t_m, doubling the rows known
            take = min(done, n_steps + 1 - done)
            traces[:, done:done + take] = traces[:, :take] @ np.swapaxes(power, 1, 2)
            done += take
            power = power @ power
        self._check_survival_falls(traces)
        powers = np.empty((len(p), hop + 1, n, n))
        powers[:, 0] = np.eye(n)
        powers[:, 1:2] = p[:, None]
        done = 1
        while done < hop:
            # P^{done + m} = P^m P^done, doubling the powers known
            take = min(done, hop - done)
            np.matmul(powers[:, 1:take + 1], powers[:, done:done + 1],
                      out=powers[:, done + 1:done + take + 1])
            done += take
        self.traces = traces.reshape(-1, n)
        self.powers = powers
        self.jumps = np.swapaxes(np.stack(self.jump_supers), 1, 2)
        self._shape = (n_steps, hop)

    def _check_survival_falls(self, traces):
        """S(m) - S(m + 1) = Tr[y D_m] must be non-negative for every state
        y, that is each D_m, read off t_m - t_{m+1}, positive semi-definite."""
        steps = traces[:, :-1] - traces[:, 1:]
        if not steps.size:
            return
        low = np.linalg.eigvalsh(_from_coords(steps, self.dim)).min(axis=-1)
        if low.min() < -_SURVIVAL_RISE_TOL:
            table, m = np.unravel_index(np.argmin(low), low.shape)
            raise InvariantViolationError(
                f"no-click survival rises by up to {-low.min():.3e} from step {m} to "
                f"{m + 1} (table {table}): the no-click map is not trace-decreasing")

    def _normalized(self, y, what):
        tr = y @ self.tr_vec
        if not np.all(tr > 0.0):
            bad = int(np.argmin(np.where(tr > 0.0, np.inf, -1.0)))
            raise InvariantViolationError(f"{what} trace {tr[bad]:.3e} is not positive")
        return y / tr[:, None]

    def _wait(self, y, table, held, n_steps, r):
        """Click step of each row held at step `held`: held + the smallest m
        with S(m) < r, or n_steps + 1 if none comes by the horizon."""
        base = table * (n_steps + 1)
        room = n_steps - held
        # binary lifting to the largest m <= room with S(m) >= r (S(0) = 1)
        m = np.zeros(len(y), dtype=int)
        for half in 2 ** np.arange(n_steps.bit_length())[::-1]:
            probe = np.minimum(m + half, room)
            m = np.where(np.einsum("ij,ij->i", self.traces[base + probe], y) >= r, probe, m)
        return held + m + 1

    def _carry(self, y, table, gap):
        """Unnormalized rows y P^gap, row by row."""
        return (y[:, None, :] @ self.powers[table, gap])[:, 0]

    def _click(self, y, table, gap):
        """Post-click states of rows y clicking `gap` steps after being held,
        and their tables after the click."""
        n_eta = len(self.props[0])
        z = (self._carry(y, table, gap)[:, None, :] @ self.jumps[table // n_eta])[:, 0]
        return self._normalized(z, "post-click"), (table + n_eta) % (len(self.props) * n_eta)

    def _advance(self, y, table, held, last, step):
        """Rows y, held since step `held` (at or after the checkpoint `last`)
        and clicking no more before `step`, carried to `step` and normalized."""
        n_eta, n = len(self.props[0]), y.shape[1]
        # rows held since `last`: one GEMM per table over each efficiency's
        # rows, shaped as in a run at that efficiency alone, and each row
        # keeps the product with its own sign's table
        out = y.reshape(n_eta, -1, n) @ self.powers[:, step - last].reshape(-1, n_eta, n, n)
        out = out.reshape(len(self.props), -1, n)[table // n_eta, np.arange(len(y))]
        moved = np.flatnonzero(held != last)
        out[moved] = self._carry(y[moved], table[moved], step - held[moved])
        return self._normalized(out, "no-click")

    def run(self, y, n_steps, sample_pos, sink, draw):
        """Drive rows y to n_steps steps and hand them to sink(j, y) after
        every step of sample_pos, as _drive does.  Rows are carried and
        renormalized only at those steps and the horizon (the checkpoints);
        in between, a row moves only when it clicks.  Row e * b + i is
        trajectory i at the e-th efficiency and takes its uniforms from
        draw(i, k)."""
        stops = sorted({*sample_pos, n_steps} - {0})
        self.prepare(n_steps, int(np.diff([0, *stops]).max()))
        n_eta = len(self.props[0])
        b = len(y) // n_eta
        traj = np.arange(len(y)) % b
        table = np.repeat(np.arange(n_eta), b)
        clicks = np.zeros(len(y), dtype=int)
        held = np.zeros(len(y), dtype=int)       # step at which each row's y holds
        due = self._wait(y, table, held, n_steps, draw(traj, clicks))
        if 0 in sample_pos:
            sink(sample_pos[0], y)
        last = 0
        for step in stops:
            while True:
                hit = np.flatnonzero(due <= step)
                if not hit.size:
                    break
                y[hit], table[hit] = self._click(y[hit], table[hit], due[hit] - held[hit])
                held[hit] = due[hit]
                clicks[hit] += 1
                due[hit] = self._wait(y[hit], table[hit], held[hit], n_steps,
                                      draw(traj[hit], clicks[hit]))
            y = self._advance(y, table, held, last, step)
            held[:] = step
            last = step
            if step in sample_pos:
                sink(sample_pos[step], y)


# eigenvalues of rho0 below this fraction of the largest are dropped from
# the purified bundle
_PURIFIED_WEIGHT_CUT = 1e-7


class _PurifiedKernel:
    """Efficient-measurement diffusive ensembles as pure-state bundles.

    At eta = 1 the conditional map is a pure Kraus map, so a mixed start
    rho0 = sum_m p_m |m><m| evolves as a bundle of pure states driven by
    one common record per trajectory.  The record is generated from the
    physical law using the normalized bundle expectation, which keeps the
    trajectory distribution exact; per-component norms encode the
    conditional weights.  Orders of magnitude faster than the matrix path
    at Fock dimensions.
    """

    def __init__(self, model, spec, rho0, dt):
        if spec.eta != 1.0:
            raise ValueError("purified path requires eta = 1")
        d = model.dim
        self.dim = d
        self.dt = dt
        c = _measured_op(model)
        if len(model.jump_operators) != 1:
            raise ValueError("purified path supports a single jump operator")
        vals, vecs = np.linalg.eigh(rho0)
        keep = vals > _PURIFIED_WEIGHT_CUT * vals.max()
        self.weights = vals[keep] / vals[keep].sum()
        self.kets = vecs[:, keep].T            # (K, d)
        self.n_comp = len(self.weights)
        self.c = c
        self.prop = expm(_no_jump_generator(model) * dt)
        self.zs = np.array(spec.channel_coefficients())

    def initial(self, mats):
        # the bundle of the rho0 given at construction; mats sets the batch size
        psi = np.broadcast_to(self.kets, (len(mats), self.n_comp, self.dim))
        return np.ascontiguousarray(psi).astype(complex)

    def step(self, psi, dw_row):
        # the bundle comes in with unit weighted norm: the kets start
        # orthonormal with weights summing to 1, and every step renormalises
        b, k, d = psi.shape
        u = (psi.reshape(b * k, d) @ self.c.T).reshape(b, k, d)     # (c psi)
        c_mean = np.vecdot(psi, u) @ self.weights                   # <c>
        new = psi.copy()
        for j, z in enumerate(self.zs):
            dy = 2.0 * (c_mean * z).real * self.dt + dw_row[:, j]
            new += (z * dy)[:, None, None] * u
        new = (new.reshape(b * k, d) @ self.prop.T).reshape(b, k, d)
        scale = np.sqrt(np.vecdot(new, new).real @ self.weights)
        return new / scale[:, None, None]

    def purity(self, psi):
        gram = np.einsum("bki,bli->bkl", psi.conj(), psi)
        norm = np.einsum("bkk->bk", gram).real @ self.weights
        quad = np.einsum("k,l,bkl->b", self.weights, self.weights,
                         np.abs(gram) ** 2)
        return quad / norm ** 2

    def to_matrices(self, psi):
        scaled = psi * np.sqrt(self.weights)[None, :, None]
        rho = np.einsum("bki,bkj->bij", scaled, scaled.conj())
        tr = np.einsum("bii->b", rho).real
        return rho / tr[:, None, None]


_SUPEROP_DIM_LIMIT = 8


def _select_kernel(model, spec, rho0, dt, statistic, etas=None):
    """The stepping kernel or sampler for one run; no other code chooses one.

    Counting schemes run event-driven for purities and mean states
    ("purity", "mean_state") and step through the jump kernel for final
    states and single trajectories.  Diffusive schemes use
    the Kraus superoperators up to dimension _SUPEROP_DIM_LIMIT.  Above it,
    eta = 1 runs that need only purities or final states ("purity",
    "final_states") use the purified bundle, and the rest ("mean_state",
    "trajectory") the matrix kernel.  Only the matrix kernel and the purified
    bundle take no `etas` stack.
    """
    if not spec.is_diffusive:
        if statistic in ("purity", "mean_state"):
            return _EventJumpSampler(model, spec, dt, etas)
        return _SuperopJumpKernel(model, spec, dt, etas)
    if model.dim <= _SUPEROP_DIM_LIMIT:
        return _KrausDiffusiveKernel(model, spec, dt, etas)
    if etas is not None and tuple(etas) != (spec.eta,):
        raise ValueError(f"efficiency stacks need dimension <= {_SUPEROP_DIM_LIMIT}")
    if spec.eta == 1.0 and statistic in ("purity", "final_states"):
        return _PurifiedKernel(model, spec, rho0, dt)
    return _MatrixDiffusiveKernel(model, spec, dt)


def _as_matrix(rho):
    return np.asarray(rho.matrix if isinstance(rho, DensityMatrix) else rho)


# ---------------------------------------------------------------------------
# public single-state steps (the contract surface; ensembles use the same kernels)

def _sample_pos_tol(dt):
    # Euler-Maruyama samples hover within O(dt) of the positive cone;
    # anything beyond this slack is a genuine step-size failure
    return max(1e-6, min(0.05, 100.0 * dt))


def step_diffusive(model, spec, rho, noise, dt):
    """One conditional update of length dt for a diffusive scheme.

    `noise` holds one zero-mean, variance-dt Gaussian increment per
    channel.  The update is trace-renormalized; at eta = 0 it reduces to
    the deterministic master-equation step regardless of the noise.
    """
    if not spec.is_diffusive:
        raise ValueError(f"{spec.kind} is not a diffusive scheme")
    noise = np.atleast_1d(np.asarray(noise, dtype=float))
    k = len(spec.channel_coefficients())
    if noise.shape != (k,):
        raise ValueError(f"expected {k} noise increments, got shape {noise.shape}")
    m = _as_matrix(rho)
    kernel = _select_kernel(model, spec, m, dt, "trajectory")
    y = kernel.initial(m[None, :, :])
    y = kernel.step(y, noise[None, :])
    out = kernel.to_matrices(y)[0]
    try:
        return DensityMatrix(out, pos_tol=_sample_pos_tol(dt))
    except InvariantViolationError as exc:
        raise StepSizeError(f"diffusive step left the state manifold: {exc}") from exc


def step_jump(model, spec, rho, uniform, dt, lo_sign=1.0):
    """One detection-window update for a counting scheme.

    Returns (state, jumped).  A detected click occurs when `uniform`
    falls below the no-click trace decay (eta <J^dag J> dt to first
    order); undetected emission stays in the no-click drift as a
    (1 - eta) dissipator with the LO-displaced operator.
    """
    if spec.is_diffusive:
        raise ValueError(f"{spec.kind} is not a counting scheme")
    m = _as_matrix(rho)
    kernel = _select_kernel(model, spec, m, dt, "trajectory")
    y = kernel.initial(m[None, :, :])
    signs = np.array([float(lo_sign)])
    y, jumped = kernel.step(y, np.array([[float(uniform)]]), signs)
    out = kernel.to_matrices(y)[0]
    try:
        return DensityMatrix(out, pos_tol=_sample_pos_tol(dt)), bool(jumped[0])
    except InvariantViolationError as exc:
        raise StepSizeError(f"jump step left the state manifold: {exc}") from exc


# ---------------------------------------------------------------------------
# the stepping driver

def _noise_blocks(spec, n_steps, dt, seed, start, stop):
    """Noise of trajectories start..stop-1, streamed in (b, s, k) blocks of steps.

    Each trajectory keeps its own stream across blocks, and a Philox stream
    drawn in pieces gives the numbers of one whole-horizon draw, so every
    trajectory sees the same noise whatever the block size.  Blocks hold
    Wiener increments (standard normals times sqrt(dt)) for diffusive
    schemes and uniforms for counting schemes.  One buffer is refilled for
    every block, so a yielded block is valid only until the next one.
    """
    rngs = [trajectory_rng(seed, i) for i in range(start, stop)]
    k = noise_width(spec)
    # as many steps as fit _NOISE_BLOCK_BYTES, at least one
    steps = max(1, min(n_steps, int(_NOISE_BLOCK_BYTES // (len(rngs) * k * 8))))
    # step-major memory: one step's noise of the chunk is a contiguous
    # (k, b) array, which the kernels read one step at a time
    buf = np.empty((steps, k, len(rngs))).transpose(2, 0, 1)
    root_dt = math.sqrt(dt)
    for first in range(0, n_steps, steps):
        block = buf[:, :min(steps, n_steps - first)]
        for row, rng in zip(block, rngs):
            row[...] = _noise_plan(spec, block.shape[1], rng)
        if spec.is_diffusive:
            block *= root_dt
        yield block


def _drive(kernel, y, blocks, sample_pos, sink, clicks=None):
    """Step a batch through its streamed noise; the one stepping loop.

    `blocks` yields (b, s, k) noise blocks of consecutive steps: Wiener
    increments for diffusive kernels, or uniforms for the jump kernel,
    whose local-oscillator signs start at +1.  sink(j, y) receives the
    state after every step listed in `sample_pos` (step 0 is the start)
    with j = sample_pos[step].  For a jump kernel, (step, sign after the
    click) of every click of trajectory 0 is appended to `clicks` if given.
    """
    counting = isinstance(kernel, _SuperopJumpKernel)
    signs = np.ones(len(y))
    if 0 in sample_pos:
        sink(sample_pos[0], y)
    step = 0
    for block in blocks:
        for row in range(block.shape[1]):
            step += 1
            if counting:
                y, jumped = kernel.step(y, block[:, row, :], signs)
                if clicks is not None and jumped[0]:
                    clicks.append((step, float(signs[0])))
            else:
                y = kernel.step(y, block[:, row, :])
            if step in sample_pos:
                sink(sample_pos[step], y)


@dataclass(frozen=True)
class TrajectoryResult:
    times: np.ndarray
    states: tuple                 # sampled DensityMatrix instances
    record: InnovationRecord


def run_trajectory(model, spec, rho0, config, traj_index=0):
    """One conditional trajectory; a pure function of (inputs, seed, index)."""
    n_steps, dt, sample_idx = config.grid()
    rho0_m = _as_matrix(rho0)
    states = [DensityMatrix(rho0_m)]
    if n_steps == 0:
        return TrajectoryResult(np.array([0.0]), tuple(states), InnovationRecord())
    kernel = _select_kernel(model, spec, rho0_m, dt, "trajectory")
    increments = []

    def recorded(blocks):
        for block in blocks:
            increments.append(block[0].copy())
            yield block

    def sample(_j, y):
        states.append(DensityMatrix(kernel.to_matrices(y)[0],
                                    pos_tol=_sample_pos_tol(dt)))

    clicks = []
    _drive(kernel, kernel.initial(rho0_m[None, :, :]),
           recorded(_noise_blocks(spec, n_steps, dt, config.seed,
                                  traj_index, traj_index + 1)),
           {int(s): j for j, s in enumerate(sample_idx) if s}, sample, clicks)
    if spec.is_diffusive:
        record = InnovationRecord(wiener=np.concatenate(increments))
    else:
        record = InnovationRecord(jump_times=tuple(step * dt for step, _ in clicks),
                                  lo_signs=tuple(sign for _, sign in clicks))
    return TrajectoryResult(sample_idx * dt, tuple(states), record)


# ---------------------------------------------------------------------------
# ensemble runner

def _iter_chunks(n_traj, chunk):
    start = 0
    while start < n_traj:
        stop = min(start + chunk, n_traj)
        yield start, stop
        start = stop


def _run_chunks(kernel, spec, rho0_m, config, n_traj, sample_pos, sink, n_eta=1):
    """Drive n_traj trajectories from rho0 in chunks sized by the dimension.

    sink(rows, j, y) receives every sampled state of the chunk holding
    trajectories `rows` (a slice); a trajectory takes one row per efficiency.
    """
    n_steps, dt, _ = config.grid()
    rows = _MAX_DM_CHUNK if rho0_m.shape[0] > _SUPEROP_DIM_LIMIT else _MAX_SUPEROP_CHUNK
    for start, stop in _iter_chunks(n_traj, max(1, rows // n_eta)):
        mats = np.broadcast_to(rho0_m, (n_eta * (stop - start), *rho0_m.shape))
        chunk_sink = partial(sink, slice(start, stop))
        # the start state is passed inline so that no name here keeps it
        # alive through the steps
        if isinstance(kernel, _EventJumpSampler):
            kernel.run(kernel.initial(mats), n_steps, sample_pos, chunk_sink,
                       _click_uniforms(config.seed, start, stop))
        else:
            _drive(kernel, kernel.initial(mats),
                   _noise_blocks(spec, n_steps, dt, config.seed, start, stop),
                   sample_pos, chunk_sink)


class _PurityCollector:
    def __init__(self, n_times):
        self.acc = np.zeros(n_times)
        self.acc_sq = np.zeros(n_times)

    def add(self, t_index, values):
        self.acc[t_index] += values.sum()
        self.acc_sq[t_index] += (values ** 2).sum()

    def finish(self, times, n):
        mean = self.acc / n
        var = np.maximum(self.acc_sq / n - mean ** 2, 0.0)
        # sample variance with Bessel correction, guarded for tiny n
        var = var * n / max(n - 1, 1)
        stderr = np.sqrt(var / n)
        return EnsembleCurve(times=times, mean=mean, stderr=stderr, n=n)


def _batch_purity(mats):
    return np.einsum("bij,bji->b", mats, mats).real


def _collect_static(statistic, mats, sink, j=0):
    """Add states `mats` at sample index j to a purity collector or mean-state sum."""
    if statistic == "purity":
        sink.add(j, _batch_purity(mats))
    else:
        sink[j] += mats.sum(axis=0)


def _emit(kernel, y, j, statistic, sink):
    """Add the statistic of kernel state y at sample index j to `sink`."""
    if isinstance(kernel, _PurifiedKernel):
        sink.add(j, kernel.purity(y))
    else:
        _collect_static(statistic, kernel.to_matrices(y), sink, j)


def run_ensemble(model, spec, rho0, config, n_traj, statistic="purity"):
    """Monte Carlo ensemble of conditional trajectories.

    statistic = "purity" returns an EnsembleCurve of mean conditional
    purity; "mean_state" returns a MeanStateCurve of the ensemble-averaged
    state (whose contract is to match unconditional propagation).  Per-
    trajectory noise streams depend only on (config.seed, trajectory
    index), so the result depends on chunking and thread count only
    through rounding (chunked sums, batch-shaped GEMMs).  Direct detection
    and AID run event-driven (`_EventJumpSampler`): one uniform per click,
    drawn from the trajectory's stream, in place of one per step.
    """
    if statistic not in ("purity", "mean_state"):
        raise ValueError(f"unknown statistic {statistic!r}")
    if n_traj < 2:
        raise ValueError("n_traj must be at least 2")
    n_steps, dt, sample_idx = config.grid()
    rho0_m = _as_matrix(rho0)
    if statistic == "purity":
        sink = _PurityCollector(len(sample_idx))
    else:
        sink = np.zeros((len(sample_idx), model.dim, model.dim), dtype=complex)
    if n_steps == 0:
        _collect_static(statistic, np.broadcast_to(rho0_m, (n_traj, *rho0_m.shape)), sink)
    else:
        kernel = _select_kernel(model, spec, rho0_m, dt, statistic)
        _run_chunks(kernel, spec, rho0_m, config, n_traj,
                    {int(s): j for j, s in enumerate(sample_idx)},
                    lambda _rows, j, y: _emit(kernel, y, j, statistic, sink))

    times = sample_idx * dt
    if statistic == "mean_state":
        return MeanStateCurve(times=times, states=sink / n_traj, n=n_traj)
    return sink.finish(times, n_traj)


def run_purity_averages(model, spec, rho0, config, n_traj, etas):
    """Each trajectory's mean purity over the final quarter of its samples at
    every efficiency in `etas`, (E, n_traj), from one pass over each
    trajectory's one noise draw (common random numbers).  Each row equals,
    bit for bit, the row of a run at that efficiency alone.  Direct
    detection and AID run event-driven (`_EventJumpSampler`): a
    trajectory's k-th click at every efficiency takes the k-th uniform of
    its stream."""
    if n_traj < 2:
        raise ValueError("n_traj must be at least 2")
    _, dt, sample_idx = config.grid()
    window = sample_idx[-max(1, len(sample_idx) // 4):]
    rho0_m = _as_matrix(rho0)
    kernel = _select_kernel(model, spec, rho0_m, dt, "purity", etas)
    acc = np.zeros((len(etas), n_traj))

    def add(rows, _j, y):
        acc[:, rows] += _batch_purity(kernel.to_matrices(y)).reshape(len(etas), -1)

    _run_chunks(kernel, spec, rho0_m, config, n_traj,
                {int(s): j for j, s in enumerate(window)}, add, len(etas))
    return acc / len(window)


def run_final_states(model, spec, rho0, config, n_traj):
    """Final conditional states of n_traj trajectories, as an (N, d, d) array.

    This is the sampler behind the mixing- and survival-time estimates:
    condition to (near) stationarity, then hand the frozen states to the
    deterministic propagator.
    """
    n_steps, dt, _ = config.grid()
    rho0_m = _as_matrix(rho0)
    if n_steps == 0:
        return np.broadcast_to(rho0_m, (n_traj, *rho0_m.shape)).copy()
    out = np.empty((n_traj, model.dim, model.dim), dtype=complex)
    kernel = _select_kernel(model, spec, rho0_m, dt, "final_states")

    def keep(rows, _j, y):
        out[rows] = kernel.to_matrices(y)

    _run_chunks(kernel, spec, rho0_m, config, n_traj, {n_steps: 0}, keep)
    return out
