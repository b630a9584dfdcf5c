"""Stochastic unravelling engine over density matrices.

Diffusive (homodyne / heterodyne / general-dyne), jump (direct detection)
and adaptive-feedback jump (AID) unravellings, plus a seeded ensemble
runner with one keying rule for its random numbers: one SFC64 stream per
group of _GROUP trajectories and family (noise or clicks), keyed by
(master seed, group) (`_group_stream`).  Trajectory i reads column
i mod _GROUP of group i // _GROUP, and chunks hold whole groups, so
results depend, bit for bit, neither on chunking nor on the ensemble size.
_NOISE_BLOCK_BYTES also places the counting kernel's carry-only
checkpoints, so it moves counting results by rounding.

Every run, an ensemble or one trajectory, enters through one function,
`_run_chunks`, which picks the kernel, maps the sample steps and pairs the
kernel with its random numbers.  Diffusive runs step through one loop,
`_drive`, over noise drawn a block of steps at a time (`_noise_blocks`, at
most _NOISE_BLOCK_BYTES per chunk whatever the horizon), with one of three
Kraus-form kernels after Rouchon & Ralph, PRA 91, 012118 (2015):
`_KrausDiffusiveKernel` on real superoperators at small dimension (the
atom), `_MatrixDiffusiveKernel` on raw matrices at large dimension, and
`_PurifiedKernel`, a bundle of pure states, for efficient runs at large
dimension (the Fock oracle).  Every counting run goes through one
event-driven kernel instead, `_SuperopJumpKernel`, one uniform per click.
`step_diffusive` and `step_jump` share one single-step body,
`_single_step`; `step_jump`'s window is one `step` of the counting kernel.

Up to dimension 8 the kernels hold each state as its d^2 real coordinates
in an orthonormal Hermitian basis (`_coords`), so every superoperator is a
real d^2 x d^2 matrix (4 x 4 for the atom) and states come back exactly
Hermitian.  The Kraus kernel stores a batch column-major, (b, d^2) with
y.T contiguous, so each GEMM and each per-trajectory scaling runs along
the contiguous batch axis, and the noise blocks are laid out step-major to
match; the counting kernel keeps its rows row-major.  `_select_kernel`
alone chooses the kernel, from the scheme, the dimension, eta and what the
run records; only `_run_chunks` and `_single_step` call it.  The Kraus and counting kernels also run
stacks of efficiencies on shared random numbers (`run_purity_averages`).
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.linalg import expm

from .errors import InvariantViolationError, StepSizeError
from .hilbert import DensityMatrix, LindbladModel, _no_jump_generator, dag, liouvillian_matrix

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


def _check_seed(seed):
    """A master seed is a non-negative integer, as numpy's SeedSequence takes it."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


@dataclass(frozen=True)
class TrajectoryConfig:
    dt: float
    horizon: float
    seed: int = 0
    sample_stride: int = 1

    def __post_init__(self):
        _check_seed(self.seed)
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


# trajectories per random-number stream, and the family tag of the
# diffusive noise streams (the click streams take none)
_GROUP = 64
_NOISE_TAG = 1


def _group_stream(seed, group, *tag):
    """The stream of trajectories group * _GROUP onwards, of the family `tag`.

    Its spawn key (group, _GROUP, *tag) has two words for the click
    uniforms and three for the noise, so it is never another family's key
    nor the one-word key of a `trajectory_rng` stream."""
    return np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(entropy=seed, spawn_key=(group, _GROUP, *tag))))


def _group_streams(seed, start, stop, *tag):
    """The `tag` streams of the groups trajectories start..stop-1 overlap,
    and the column of trajectory start in the first.  A chunk draws every
    group it overlaps whole, so a group split between chunks gives the same
    numbers in each, and a trajectory's numbers depend neither on chunking
    nor on the ensemble size."""
    first, offset = divmod(start, _GROUP)
    return [_group_stream(seed, g, *tag) for g in range(first, -(-stop // _GROUP))], offset


def noise_width(spec):
    return len(spec.channel_coefficients())


def _noise_plan(spec, n_steps, rng):
    """The next n_steps steps of one group's diffusive noise from its stream
    rng: standard normals, (n_steps, channels, _GROUP)."""
    return rng.standard_normal((n_steps, noise_width(spec), _GROUP))


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


def _positive_definite(mats):
    """Whether each Hermitian matrix of a stack (..., d, d) is positive
    definite: Cholesky elimination, one column at a time over the whole
    stack, and every pivot must be positive."""
    a = np.array(mats, dtype=complex)
    ok = np.ones(a.shape[:-2], dtype=bool)
    for j in range(a.shape[-1]):
        pivot = a[..., j, j].real
        ok &= pivot > 0.0
        col = a[..., j + 1:, j] / np.where(ok, pivot, 1.0)[..., None]
        a[..., j + 1:, j + 1:] -= col[..., :, None] * np.conj(a[..., None, j + 1:, j])
    return ok


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


def _measured_op(model):
    if not model.jump_operators:
        raise InvariantViolationError("model has no jump operator to monitor")
    return model.jump_operators[0]


def _basis_to_matrices(kernel, y):
    """`to_matrices` of the small-dimension kernels: (b, d, d) unit-trace states.
    Each trace is a GEMV, which unlike a sum along rows is fast in both layouts."""
    return _from_coords(y / (y[:, :kernel.dim] @ np.ones(kernel.dim))[:, None], kernel.dim)


class _KrausDiffusiveKernel:
    """Diffusive stepper for small dimensions via a per-trajectory Kraus map.

    One step applies rho -> M rho M^dag (+ undetected-emission sandwiches)
    with M = e^{K dt} + sum_k u_k A_k, K = -iH - (1/2) sum L^dag L and
    u_k = sqrt(eta) dW_k + eta <A_k + A_k^dag> dt.  Weak order 1, exactly
    positivity-preserving, keeps pure states exactly pure at eta = 1, and
    the exact drift exponential keeps strong driving accurate without tiny
    steps.  The map expands into fixed real superoperators with
    per-trajectory coefficients, S0 + sum_k u_k S_k + sum_{k<=l} u_k u_l S_kl,
    each term times eta^(p/2) for its degree p in u, so the coefficients
    are those of v = u / sqrt(eta) = dW + sqrt(eta) <A + A^dag> dt.  One
    GEMM of the (n n, J) terms against the (J, b) coefficients builds each
    trajectory's map, and one einsum applies it to the contiguous (n, b)
    view of the batch.  States are unnormalised between samples: a step
    reads the means as (w . y) / (tr . y) and scales every coefficient by
    1 / tr, so y steps as y / tr would and each trace stays within one step
    of 1 at any horizon and dt (`to_matrices`, `_coord_purity` normalise).
    E efficiencies `etas` (default (spec.eta,)) step at once in eta-major
    rows, row e*b + i trajectory i at etas[e] reading noise row i, with
    terms and weights stacked per efficiency: one GEMM per block.
    """

    def __init__(self, model, spec, dt, etas=None):
        self.dim = model.dim
        etas = (spec.eta,) if etas is None else etas
        c = _measured_op(model)
        prop = expm(_no_jump_generator(model) * dt)
        ops = [z * c for z in spec.channel_coefficients()]
        self.n_ch = len(ops)
        sandwich = lambda x, y: np.kron(x, y.conj())
        shared = [(1, _real_superop(sandwich(a, prop) + sandwich(prop, a))) for a in ops]
        self.pairs = [(k, l) for k in range(self.n_ch) for l in range(k, self.n_ch)]
        for k, l in self.pairs:
            term = sandwich(ops[k], ops[l])
            if l != k:
                term = term + sandwich(ops[l], ops[k])
            shared.append((2, _real_superop(term)))

        def terms(eta):
            """(n n, J): row i n + j holds entry (i, j) of every term at eta."""
            s0 = sandwich(prop, prop)
            for a in ops:
                s0 = s0 + (1.0 - eta) * dt * sandwich(a, a)
            for op in model.jump_operators[1:]:
                s0 = s0 + dt * sandwich(op, op)
            scaled = [eta ** (p / 2) * s for p, s in shared]
            return np.stack([_real_superop(s0), *scaled], axis=-1).reshape(len(s0) ** 2, -1)

        self.stack = np.stack([terms(eta) for eta in etas])
        # per efficiency: the trace row, then sqrt(eta) dt <A_k + A_k^dag>
        self.weights = np.stack([_coords(np.stack([np.eye(self.dim), *(
            math.sqrt(eta) * dt * (a + dag(a)) for a in ops)])) for eta in etas])

    def initial(self, mats):
        """A (b, d^2) batch of coordinates stored column-major, so y.T is a
        contiguous (d^2, b) array."""
        return np.ascontiguousarray(_coords(mats).T).T

    def step(self, y, dw_row):
        n_eta, n = len(self.stack), y.shape[1]
        yt = y.T
        traced = _apply_blocks(self.weights, yt)
        # the coefficients over the trace: 1 / tr, v_k / tr, v_k v_l / tr
        coef = np.empty((self.stack.shape[2], len(y)))
        inv_tr = np.divide(1.0, traced[0], out=coef[0])
        v = ((traced[1:] * inv_tr).reshape(self.n_ch, n_eta, -1)
             + dw_row.T[:, None, :]).reshape(self.n_ch, -1)
        np.multiply(v, inv_tr, out=coef[1:self.n_ch + 1])
        for row, (k, l) in enumerate(self.pairs, self.n_ch + 1):
            np.multiply(v[k], coef[l + 1], out=coef[row])
        maps = _apply_blocks(self.stack, coef).reshape(n, n, -1)
        return np.einsum("ijb,jb->ib", maps, yt).T

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


# uniforms per trajectory per draw
_CLICK_DRAW = 32
# tolerance on the no-click survival's step-to-step rise, relative to S(0) = 1
_SURVIVAL_RISE_TOL = 1e-12


def _click_uniforms(seed, start, stop):
    """draw(traj, k): the k-th click uniform of each trajectory start + traj.

    Trajectory i takes row k, column i mod G of its group's click stream
    (`_group_streams`), drawn in (_CLICK_DRAW, G) blocks, G = _GROUP."""
    rngs, offset = _group_streams(seed, start, stop)
    drawn = np.empty((0, len(rngs) * _GROUP))

    def draw(traj, k):
        nonlocal drawn
        while k.max() >= len(drawn):
            block = np.hstack([rng.random((_CLICK_DRAW, _GROUP)) for rng in rngs])
            drawn = np.vstack([drawn, block])
        return drawn[k, traj + offset]

    return draw


class _SuperopJumpKernel:
    """Direct detection and AID, event-driven: one uniform per click, not per window.

    A detection window maps a state by the exact no-click propagator P (the
    whole generator less the detected clicks), clicks with the trace P
    loses, and then applies the click map to the no-click-evolved state; an
    AID click flips the row's local-oscillator sign.  Each map is a real
    superoperator on coordinates, kept once, in column form: `props[sign,
    eta]` and `jumps[sign]`.  From a normalized y no click comes in m
    windows with probability S(m) = Tr[y P^m], so the next click has the
    law of the smallest m with S(m) < r for one uniform r (Dalibard, Castin
    & Molmer, PRL 68, 580 (1992)).  Per table sign * E + eta, `prepare`
    keeps the trace rows t_m, S(m) = y . t_m, up to the horizon and the
    row-form powers (P^T)^0 .. (P^T)^hop that carry a row from a click or
    checkpoint to the next.  A trajectory's k-th click takes its k-th click
    uniform (`_click_uniforms`) in each of its eta rows.  `step` is one
    window of the same carry, click and normalization (`step_jump`).  Rows
    are row-major (b, n) throughout, and `_carry_all` multiplies each
    efficiency block by its table in one GEMM.
    """

    _shape = None       # (n_steps, hop) of the tables built last

    def __init__(self, model, spec, dt, etas=None):
        d = model.dim
        if d > _SUPEROP_DIM_LIMIT:
            raise ValueError(
                f"jump unravellings are only implemented for dim <= {_SUPEROP_DIM_LIMIT}")
        self.dim = d
        etas = (spec.eta,) if etas is None else etas
        self.adaptive = spec.kind == "aid"
        c = _measured_op(model)
        # AID's local oscillator is beta = sqrt(gamma)/2, gamma read off c
        beta = 0.5 * math.sqrt(np.linalg.eigvalsh(dag(c) @ c).max()) if self.adaptive else 0.0
        ident = np.eye(d)
        rate_scale = float(np.linalg.eigvalsh(dag(c + beta * ident) @ (c + beta * ident)).max())
        if dt * max(rate_scale, 1e-300) > 0.1:
            raise StepSizeError(
                f"dt * jump rate = {dt * rate_scale:.3f} > 0.1; first-order "
                "jump splitting is invalid, reduce dt")
        props, jumps = [], []
        for s in (+1.0, -1.0) if self.adaptive else (+1.0,):
            j = c + s * beta * ident
            h = model.hamiltonian + 0.5j * (s * beta * dag(c) - np.conj(s * beta) * c)
            liou = liouvillian_matrix(LindbladModel(h, (j, *model.jump_operators[1:]))).toarray()
            click = np.kron(j, j.conj())
            # the no-click generator: the whole generator less the detected clicks
            props.append(np.stack([_real_superop(expm((liou - eta * click) * dt))
                                   for eta in etas]))
            jumps.append(_real_superop(click))
        self.props, self.jumps = np.stack(props), np.stack(jumps)
        self.tr_vec = _coords(ident)

    def initial(self, mats):
        return _coords(mats)

    to_matrices = _basis_to_matrices

    def step(self, y, u_row, signs):
        """One window: row e * b + i clicks when u_row[i, 0] falls below the
        trace its no-click carry loses and that loss exceeds 1e-12 (roundoff
        never clicks a state with no emission).  Flips AID `signs` in place;
        returns (y, jumped)."""
        if not self._shape or not self._shape[1]:
            self.prepare(1, 1)
        n_eta, minus = len(self.props[0]), signs < 0
        z = self._carry_all(y, minus, 1)
        tr = z @ self.tr_vec
        jumped = (u_row[:, 0] < (1.0 - tr).reshape(n_eta, -1)).ravel() & (1.0 - tr > 1e-12)
        idx = np.flatnonzero(jumped)
        # table sign * E + eta of each clicking row e * b + i
        post = self._click(z[idx], idx // len(u_row) + n_eta * (minus[idx] & self.adaptive))[0]
        y = self._normalized(z, tr, "no-click")
        y[idx] = post
        if self.adaptive:
            signs[idx] = -signs[idx]
        return y, jumped

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
        self._shape = (n_steps, hop)

    def _check_survival_falls(self, traces):
        """S(m) - S(m + 1) = Tr[y D_m] >= 0 for every y: each D_m, read off
        t_m - t_{m+1}, positive semi-definite to _SURVIVAL_RISE_TOL.  A Cholesky
        screen of D_m + tol I passes the tables; eigvalsh runs only on a miss."""
        shift = _SURVIVAL_RISE_TOL * np.eye(self.dim)
        if all(_positive_definite(_from_coords(rows[:-1] - rows[1:], self.dim) + shift).all()
               for rows in traces):
            return
        steps = traces[:, :-1] - traces[:, 1:]
        low = np.linalg.eigvalsh(_from_coords(steps, self.dim)).min(axis=-1)
        if low.min() < -_SURVIVAL_RISE_TOL:
            table, m = np.unravel_index(np.argmin(low), low.shape)
            raise InvariantViolationError(
                f"no-click survival rises by up to {-low.min():.3e} from step {m} to "
                f"{m + 1} (table {table}): the no-click map is not trace-decreasing")

    def _normalized(self, y, tr, what):
        """y / tr row by row, in place; a trace that is not positive raises."""
        if not np.all(tr > 0.0):
            bad = int(np.argmin(np.where(tr > 0.0, np.inf, -1.0)))
            raise InvariantViolationError(f"{what} trace {tr[bad]:.3e} is not positive")
        return np.divide(y, tr[:, None], out=y)

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

    def _carry_all(self, y, minus, gap):
        """Unnormalized rows y P^gap by their LO sign's tables (`minus`: sign
        -1): one GEMM per table and efficiency block."""
        n_eta, n = len(self.props[0]), y.shape[1]
        blocks = y.reshape(n_eta, -1, n)
        out = (blocks @ self.powers[:n_eta, gap]).reshape(-1, n)
        if self.adaptive:
            minus_out = blocks @ self.powers[n_eta:, gap]
            out = np.where(minus[:, None], minus_out.reshape(-1, n), out)
        return out

    def _click(self, z, table):
        """Post-click states of unnormalized no-click rows z, and their tables."""
        n_eta = len(self.props[0])
        z = (z[:, None, :] @ self.jumps.mT[table // n_eta])[:, 0]
        after = (table + n_eta) % (len(self.props) * n_eta)
        return self._normalized(z, z @ self.tr_vec, "post-click"), after

    def _advance(self, y, table, held, last, step):
        """Rows y, held since step `held` (at or after the checkpoint `last`)
        and clicking no more before `step`, carried to `step` and normalized."""
        out = self._carry_all(y, table >= len(self.props[0]), step - last)
        moved = np.flatnonzero(held != last)
        out[moved] = self._carry(y[moved], table[moved], step - held[moved])
        return self._normalized(out, out @ self.tr_vec, "no-click")

    def run(self, y, n_steps, sample_pos, sink, draw, log):
        """Drive rows y to n_steps steps and hand them to sink(j, y) after
        every step of sample_pos, as _drive does.  Rows are carried and
        renormalized only at those steps, the horizon and, where the gap
        between them would make the powers outgrow _NOISE_BLOCK_BYTES,
        carry-only steps (the checkpoints); in between, a row moves only
        when it clicks.  Row e * b + i is trajectory i at the e-th
        efficiency and takes its uniforms from draw(i, k).  (step, LO sign
        after the click) of every click of row 0 is appended to `log` if it
        is not None."""
        n_eta, n = len(self.props[0]), y.shape[1]
        cap = max(1, int(_NOISE_BLOCK_BYTES // (len(self.props) * n_eta * n * n * 8)) - 1)
        stops = sorted({*sample_pos, n_steps, *range(cap, n_steps, cap)} - {0})
        self.prepare(n_steps, int(max(np.diff([0, *stops]), default=0)))
        b = len(y) // n_eta
        traj = np.arange(len(y)) % b
        table = np.repeat(np.arange(n_eta), b)
        # clicks so far, and the step at which each row's y holds
        clicks, held = np.zeros((2, len(y)), dtype=int)
        due = self._wait(y, table, held, n_steps, draw(traj, clicks))
        if 0 in sample_pos:
            sink(sample_pos[0], y)
        last = 0
        for step in stops:
            while (hit := np.flatnonzero(due <= step)).size:
                y[hit], table[hit] = self._click(
                    self._carry(y[hit], table[hit], due[hit] - held[hit]), table[hit])
                held[hit] = due[hit]
                if log is not None and hit[0] == 0:
                    log.append((int(held[0]), -1.0 if table[0] >= n_eta else 1.0))
                clicks[hit] += 1
                due[hit] = self._wait(y[hit], table[hit], held[hit], n_steps,
                                      draw(traj[hit], clicks[hit]))
            y = self._advance(y, table, held, last, step)
            held[:] = last = step
            if step in sample_pos:
                sink(sample_pos[step], y)


# eigenvalues of rho0 below this fraction of the largest are dropped from
# the purified bundle
_PURIFIED_WEIGHT_CUT = 1e-7


def _generator_blocks(k):
    """The connected components of the sparsity pattern of k, as (perm, sizes):
    perm lists the indices component by component, each component in
    ascending order and the components by their smallest index."""
    linked = (k != 0) | (k.T != 0) | np.eye(len(k), dtype=bool)
    reach = linked
    while (wider := reach @ reach).sum() > reach.sum():
        reach = wider
    first = reach.argmax(axis=1)                # smallest index of each component
    return np.argsort(first, kind="stable"), np.unique(first, return_counts=True)[1]


class _PurifiedKernel:
    """Efficient-measurement diffusive ensembles as pure-state bundles.

    At eta = 1 the conditional map is a pure Kraus map, so a mixed start
    rho0 = sum_m p_m |m><m| evolves as a bundle of pure states driven by
    one common record per trajectory.  The record is generated from the
    physical law using the normalized bundle expectation, which keeps the
    trajectory distribution exact; per-component norms encode the
    conditional weights.  Orders of magnitude faster than the matrix path
    at Fock dimensions.

    The bundle steps in the generator's block order: kets, the no-jump
    generator K and c are permuted so that the connected components of K's
    sparsity pattern are contiguous blocks, the propagator is one
    expm(K[blk, blk] dt) per block (its zeros exact), and each row block of
    c psi reads only the blocks that row of c touches.  The Fock oracle's K
    conserves parity: two blocks of d/2.  `to_matrices` undoes the order.
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
        gen = _no_jump_generator(model)
        self.perm, sizes = _generator_blocks(gen)
        self.inverse = np.argsort(self.perm)
        gen, c = (m[np.ix_(self.perm, self.perm)] for m in (gen, c))
        edges = [0, *np.cumsum(sizes).tolist()]
        self.blocks = [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]
        # right factors of the row-stored kets, psi @ P^T block by block
        self.props = [expm(gen[blk, blk] * dt).T for blk in self.blocks]
        self.c_rows = []
        for blk in self.blocks:
            touched = [col for col in self.blocks if c[blk, col].any()]
            span = slice(touched[0].start, touched[-1].stop) if touched else slice(0, 0)
            self.c_rows.append((blk, span, c[blk, span].T))
        vals, vecs = np.linalg.eigh(rho0)
        keep = vals > _PURIFIED_WEIGHT_CUT * vals.max()
        self.weights = vals[keep] / vals[keep].sum()
        self.kets = vecs[:, keep].T[:, self.perm]   # (K, d), in block order
        self.n_comp = len(self.weights)
        self.zs = np.array(spec.channel_coefficients())
        self._u = np.empty(0, dtype=complex)        # c psi, reused across steps

    def initial(self, mats):
        # the bundle of the rho0 given at construction; mats sets the batch size
        psi = np.broadcast_to(self.kets, (len(mats), self.n_comp, self.dim))
        return np.ascontiguousarray(psi).astype(complex)

    def step(self, psi, dw_row):
        # the bundle comes in with unit weighted norm: the kets start
        # orthonormal with weights summing to 1, and every step renormalises.
        # A contiguous bundle is advanced in place.
        b, k, d = psi.shape
        x = psi.reshape(b * k, d)
        if self._u.shape != x.shape:
            self._u = np.empty_like(x)
        u = self._u
        for out, span, c_t in self.c_rows:
            np.matmul(x[:, span], c_t, out=u[:, out])                 # c psi
        u3 = u.reshape(b, k, d)
        c_mean = np.vecdot(psi, u3) @ self.weights                   # <c>
        dy = 2.0 * (c_mean[:, None] * self.zs).real * self.dt + dw_row
        u3 *= (dy @ self.zs)[:, None, None]
        u3 += psi                                     # (1 + sum_j z_j dy_j c) psi
        for blk, p_t in zip(self.blocks, self.props):
            np.matmul(u[:, blk], p_t, out=x[:, blk])
        new = x.reshape(b, k, d)
        new *= (1.0 / np.sqrt(np.vecdot(new, new).real @ self.weights))[:, None, None]
        return new

    def purity(self, psi):
        gram = np.einsum("bki,bli->bkl", psi.conj(), psi)
        norm = np.einsum("bkk->bk", gram).real @ self.weights
        quad = np.einsum("k,l,bkl->b", self.weights, self.weights,
                         np.abs(gram) ** 2)
        return quad / norm ** 2

    def to_matrices(self, psi):
        scaled = psi[..., self.inverse] * np.sqrt(self.weights)[None, :, None]
        rho = np.einsum("bki,bkj->bij", scaled, scaled.conj())
        tr = np.einsum("bii->b", rho).real
        return rho / tr[:, None, None]


_SUPEROP_DIM_LIMIT = 8


def _select_kernel(model, spec, rho0, dt, statistic, etas):
    """The kernel for one run; no other code chooses one.

    Counting schemes run on the counting kernel whatever the statistic
    (`step_jump` takes one window of it).  Diffusive schemes use the Kraus
    superoperators up to dimension _SUPEROP_DIM_LIMIT.  Above it, eta = 1
    runs of a single jump operator that need only purities or final states
    use the purified bundle, and the rest the matrix kernel.  Neither takes
    `etas` (None: spec.eta alone), so any efficiency stack, even of one,
    needs dimension <= _SUPEROP_DIM_LIMIT.
    """
    if not spec.is_diffusive:
        return _SuperopJumpKernel(model, spec, dt, etas)
    if model.dim <= _SUPEROP_DIM_LIMIT:
        return _KrausDiffusiveKernel(model, spec, dt, etas)
    if etas is not None:
        raise ValueError(f"efficiency stacks need dimension <= {_SUPEROP_DIM_LIMIT}")
    if (spec.eta == 1.0 and len(model.jump_operators) == 1
            and statistic in ("purity", "final_states")):
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


def _single_step(model, spec, rho, dt, *draws):
    """One step of one state by the kernel `_select_kernel` picks, fed the
    kernel's step inputs `draws`: (DensityMatrix, the step's further output
    or None).  A state stepped off the manifold is a StepSizeError."""
    m = _as_matrix(rho)
    kernel = _select_kernel(model, spec, m, dt, "trajectory", None)
    try:
        out = kernel.step(kernel.initial(m[None, :, :]), *draws)
        y, extra = out if isinstance(out, tuple) else (out, None)
        return DensityMatrix(kernel.to_matrices(y)[0], pos_tol=_sample_pos_tol(dt)), extra
    except InvariantViolationError as exc:
        kind = "diffusive" if spec.is_diffusive else "jump"
        raise StepSizeError(f"{kind} step left the state manifold: {exc}") from exc


def step_diffusive(model, spec, rho, noise, dt):
    """One conditional update of length dt for a diffusive scheme.

    `noise` holds one zero-mean, variance-dt Gaussian increment per
    channel.  The update is trace-renormalized; at eta = 0 it reduces to
    the deterministic master-equation step regardless of the noise.
    """
    if not spec.is_diffusive:
        raise ValueError(f"{spec.kind} is not a diffusive scheme")
    noise = np.atleast_1d(np.asarray(noise, dtype=float))
    k = noise_width(spec)
    if noise.shape != (k,):
        raise ValueError(f"expected {k} noise increments, got shape {noise.shape}")
    return _single_step(model, spec, rho, dt, noise[None, :])[0]


def step_jump(model, spec, rho, uniform, dt, lo_sign=1.0):
    """One detection-window update for a counting scheme.

    Returns (state, jumped).  A detected click occurs when `uniform`
    falls below the no-click trace decay (eta <J^dag J> dt to first
    order); undetected emission stays in the no-click drift as a
    (1 - eta) dissipator with the LO-displaced operator.  The window is one
    step of the counting kernel (`_SuperopJumpKernel.step`), whose runs
    follow its law click to click.
    """
    if spec.is_diffusive:
        raise ValueError(f"{spec.kind} is not a counting scheme")
    state, jumped = _single_step(model, spec, rho, dt, np.array([[float(uniform)]]),
                                 np.array([float(lo_sign)]))
    return state, bool(jumped[0])


# ---------------------------------------------------------------------------
# the stepping driver

def _noise_blocks(spec, n_steps, dt, seed, start, stop):
    """Wiener increments of trajectories start..stop-1 in (b, s, k) blocks.

    Trajectory i reads column i mod G of its group's noise stream
    (`_group_streams`), drawn in (s, k, G) blocks of standard normals,
    G = _GROUP, scaled by sqrt(dt) as they are copied in.  A stream drawn in
    pieces gives the numbers of one whole draw, so the noise does not depend
    on the block size either.  One buffer is refilled for every block, so a
    yielded block is valid only until the next one.
    """
    rngs, offset = _group_streams(seed, start, stop, _NOISE_TAG)
    k, width = noise_width(spec), len(rngs) * _GROUP
    # as many steps as fit _NOISE_BLOCK_BYTES, at least one
    steps = max(1, min(n_steps, int(_NOISE_BLOCK_BYTES // (width * k * 8))))
    # step-major memory: one step's noise of the chunk is a (k, b) array
    # with contiguous rows, which the kernels read one step at a time
    buf = np.empty((steps, k, width))
    root_dt = math.sqrt(dt)
    for done in range(0, n_steps, steps):
        block = buf[:min(steps, n_steps - done)]
        for g, rng in enumerate(rngs):
            np.multiply(_noise_plan(spec, len(block), rng), root_dt,
                        out=block[..., g * _GROUP:(g + 1) * _GROUP])
        yield block[..., offset:offset + stop - start].transpose(2, 0, 1)


def _drive(kernel, y, blocks, sample_pos, sink, log):
    """Step a batch through its streamed noise; the one stepping loop.

    `blocks` yields (b, s, k) blocks of Wiener increments of consecutive
    steps.  sink(j, y) receives the state after every step listed in
    `sample_pos` (step 0 is the start) with j = sample_pos[step].  `log`,
    if not None, receives a copy of each block's first row.
    """
    if 0 in sample_pos:
        sink(sample_pos[0], y)
    step = 0
    for block in blocks:
        if log is not None:
            log.append(block[0].copy())
        for row in range(block.shape[1]):
            step += 1
            y = kernel.step(y, block[:, row, :])
            if step in sample_pos:
                sink(sample_pos[step], y)


def _iter_chunks(n_traj, chunk):
    start = 0
    while start < n_traj:
        stop = min(start + chunk, n_traj)
        yield start, stop
        start = stop


def _run_chunks(model, spec, rho0_m, config, trajs, statistic, sample_steps, sink, etas, log):
    """Drive trajectories `trajs` (a range) from rho0 in chunks sized by the
    dimension, on the kernel `_select_kernel` picks for `statistic` and the
    efficiency stack `etas` (None: spec.eta alone), fed each chunk's noise
    blocks or click uniforms.  sink(kernel, rows, j, y) receives the state
    after the j-th step of `sample_steps` of the chunk holding trajectories
    `rows` (a slice); a trajectory takes one row per efficiency.  `log`, if
    not None, receives the record of each chunk's first row: its Wiener
    increments block by block, or (step, LO sign) of each of its clicks.
    """
    n_steps, dt, _ = config.grid()
    kernel = _select_kernel(model, spec, rho0_m, dt, statistic, etas)
    sample_pos = {int(s): j for j, s in enumerate(sample_steps)}
    n_eta = 1 if etas is None else len(etas)
    rows = _MAX_DM_CHUNK if rho0_m.shape[0] > _SUPEROP_DIM_LIMIT else _MAX_SUPEROP_CHUNK
    # whole groups of _GROUP trajectories per chunk
    for start, stop in _iter_chunks(len(trajs), max(1, rows // n_eta // _GROUP) * _GROUP):
        start, stop = trajs.start + start, trajs.start + stop
        mats = np.broadcast_to(rho0_m, (n_eta * (stop - start), *rho0_m.shape))
        chunk_sink = partial(sink, kernel, slice(start, stop))
        # the start state is passed inline so that no name here keeps it
        # alive through the steps
        if spec.is_diffusive:
            _drive(kernel, kernel.initial(mats),
                   _noise_blocks(spec, n_steps, dt, config.seed, start, stop),
                   sample_pos, chunk_sink, log)
        else:
            kernel.run(kernel.initial(mats), n_steps, sample_pos, chunk_sink,
                       _click_uniforms(config.seed, start, stop), log)


@dataclass(frozen=True)
class TrajectoryResult:
    times: np.ndarray
    states: tuple                 # sampled DensityMatrix instances
    record: InnovationRecord


def run_trajectory(model, spec, rho0, config, traj_index=0):
    """One conditional trajectory; a pure function of (inputs, seed, index).

    It is member traj_index of any ensemble on the same seed: the span
    [traj_index, traj_index + 1) of `_run_chunks`, which reads its column
    of its group's noise or click stream.  Its one-row products go through
    BLAS's single-vector path, so its states match the member's to
    rounding (about 1e-15), not bit for bit.  The record holds the Wiener
    increments of a diffusive scheme, or the click times and LO signs of
    the event-driven counting run.
    """
    n_steps, dt, sample_idx = config.grid()
    rho0_m = _as_matrix(rho0)
    states = [DensityMatrix(rho0_m)]
    if n_steps == 0:
        return TrajectoryResult(np.array([0.0]), tuple(states), InnovationRecord())

    def sample(kernel, _rows, _j, y):
        states.append(DensityMatrix(kernel.to_matrices(y)[0],
                                    pos_tol=_sample_pos_tol(dt)))

    log = []
    _run_chunks(model, spec, rho0_m, config, range(traj_index, traj_index + 1),
                "trajectory", sample_idx[1:], sample, None, log)
    if spec.is_diffusive:
        record = InnovationRecord(wiener=np.concatenate(log))
    else:
        record = InnovationRecord(jump_times=tuple(step * dt for step, _ in log),
                                  lo_signs=tuple(sign for _, sign in log))
    return TrajectoryResult(sample_idx * dt, tuple(states), record)


# ---------------------------------------------------------------------------
# ensemble runner

def _add_by_group(total, values):
    """total plus the sums of `values` over its groups of _GROUP rows, added
    one group at a time in group order.  Chunks hold whole groups (only a
    run's last group may be partial), so the sum does not depend on
    chunking."""
    whole = len(values) // _GROUP * _GROUP
    groups = values[:whole].reshape(-1, _GROUP, *values.shape[1:]).sum(axis=1)
    return np.cumsum([total, *groups, values[whole:].sum(axis=0)], axis=0)[-1]


class _PurityCollector:
    def __init__(self, n_times):
        self.acc = np.zeros(n_times)
        self.acc_sq = np.zeros(n_times)

    def add(self, t_index, values):
        self.acc[t_index] = _add_by_group(self.acc[t_index], values)
        self.acc_sq[t_index] = _add_by_group(self.acc_sq[t_index], values ** 2)

    def finish(self, times, n):
        mean = self.acc / n
        var = np.maximum(self.acc_sq / n - mean ** 2, 0.0)
        # sample variance with Bessel correction, guarded for tiny n
        var = var * n / max(n - 1, 1)
        stderr = np.sqrt(var / n)
        return EnsembleCurve(times=times, mean=mean, stderr=stderr, n=n)


def _batch_purity(mats):
    return np.einsum("bij,bji->b", mats, mats).real


def _coord_purity(y):
    """Tr rho^2 / (Tr rho)^2 of each row of real coordinates y (orthonormal basis)."""
    d = math.isqrt(y.shape[1])
    return np.einsum("ij,ij->i", y, y) / (y[:, :d] @ np.ones(d)) ** 2


def _collect_static(statistic, mats, sink, j):
    """Add states `mats` at sample index j to a purity collector or mean-state sum."""
    if statistic == "purity":
        sink.add(j, _batch_purity(mats))
    else:
        sink[j] = _add_by_group(sink[j], mats)


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
    state (whose contract is to match unconditional propagation).  A
    trajectory's random numbers depend only on (config.seed, trajectory
    index), and sums run group by group, so the result does not depend on
    chunking, bit for bit; _NOISE_BLOCK_BYTES, which places the counting
    kernel's checkpoints, moves counting results by rounding.  Direct
    detection and AID run event-driven (`_SuperopJumpKernel`): one uniform
    per click in place of one per step.
    """
    if statistic not in ("purity", "mean_state"):
        raise ValueError(f"unknown statistic {statistic!r}")
    if n_traj < 2:
        raise ValueError("n_traj must be at least 2")
    _, dt, sample_idx = config.grid()
    if statistic == "purity":
        sink = _PurityCollector(len(sample_idx))
    else:
        sink = np.zeros((len(sample_idx), model.dim, model.dim), dtype=complex)
    _run_chunks(model, spec, _as_matrix(rho0), config, range(n_traj), statistic, sample_idx,
                lambda kernel, _rows, j, y: _emit(kernel, y, j, statistic, sink), None, None)
    times = sample_idx * dt
    if statistic == "mean_state":
        return MeanStateCurve(times=times, states=sink / n_traj, n=n_traj)
    return sink.finish(times, n_traj)


def run_purity_averages(model, spec, rho0, config, n_traj, etas):
    """Each trajectory's mean purity over the final quarter of its samples at
    every efficiency in `etas`, (E, n_traj), from one pass over each
    trajectory's one noise draw (common random numbers).  Each row equals,
    bit for bit, the row of a run at that efficiency alone.  Direct
    detection and AID run event-driven (`_SuperopJumpKernel`): a
    trajectory's k-th click at every efficiency takes its k-th click
    uniform.  Needs dimension <= _SUPEROP_DIM_LIMIT (real coordinates)."""
    if n_traj < 2:
        raise ValueError("n_traj must be at least 2")
    sample_idx = config.grid()[2]
    window = sample_idx[-max(1, len(sample_idx) // 4):]
    acc = np.zeros((len(etas), n_traj))

    def add(_kernel, rows, _j, y):
        acc[:, rows] += _coord_purity(y).reshape(len(etas), -1)

    _run_chunks(model, spec, _as_matrix(rho0), config, range(n_traj), "purity", window, add,
                etas, None)
    return acc / len(window)


def run_final_states(model, spec, rho0, config, n_traj):
    """Final conditional states of n_traj trajectories, as an (N, d, d) array.

    This is the sampler behind the mixing- and survival-time estimates:
    condition to (near) stationarity, then hand the frozen states to the
    deterministic propagator.  Direct detection and AID run event-driven,
    with the horizon as their one checkpoint.
    """
    if n_traj < 2:
        raise ValueError("n_traj must be at least 2")
    out = np.empty((n_traj, model.dim, model.dim), dtype=complex)

    def keep(kernel, rows, _j, y):
        out[rows] = kernel.to_matrices(y)

    _run_chunks(model, spec, _as_matrix(rho0), config, range(n_traj), "final_states",
                [config.grid()[0]], keep, None, None)
    return out
