"""Finite-dimensional quantum linear algebra.

States, the Lindblad generator (liouvillian_matrix, its one assembly),
steady states and exact deterministic propagation: propagate_matrices
streams stacks of states along a time grid, with propagate as its
validated single-state entry point.  Everything is plain numpy and scipy
under the hood; the thin wrapper types enforce the physical invariants
(Hermiticity, unit trace, positivity) at construction time so that
downstream code can trust its inputs.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm, null_space

from .errors import (
    DegenerateSteadyStateError,
    DimensionMismatchError,
    InvariantViolationError,
    TruncationError,
)

# Tolerances of the state checks; only the positivity slack is set per state
# (pos_tol, for trajectory samples within O(dt) of the cone)
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-9
POSITIVITY_TOL = 1e-9
# steady_state's residual bound and null-space cutoff (relative, per d^2)
_STEADY_RHS_TOL = 1e-9
_DEGENERACY_TOL = 1e-10
# check_tail: population allowed in the top Fock levels
_TAIL_LEVELS = 5
_TAIL_TOL = 1e-6
# propagate_matrices: one dense exponential per distinct step up to this
# dimension, the action of the sparse generator's exponential above it
_DENSE_PROPAGATOR_DIM = 8


def dag(a):
    return a.conj().T


def _as_complex_matrix(elements):
    m = np.asarray(elements, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvariantViolationError(f"expected a square matrix, got shape {m.shape}")
    return m


@dataclass(frozen=True)
class DensityMatrix:
    """A valid quantum state: Hermitian, unit trace, positive semidefinite."""

    matrix: np.ndarray

    def __init__(self, elements, pos_tol=POSITIVITY_TOL):
        m = _as_complex_matrix(elements)
        herm_err = np.abs(m - dag(m)).max()
        if herm_err > HERMITICITY_TOL:
            raise InvariantViolationError(f"not Hermitian: max |rho - rho^dag| = {herm_err:.3e}")
        tr_err = abs(m.trace() - 1.0)
        if tr_err > TRACE_TOL:
            raise InvariantViolationError(f"trace differs from 1 by {tr_err:.3e}")
        min_eig = np.linalg.eigvalsh((m + dag(m)) / 2).min()
        if min_eig < -pos_tol:
            raise InvariantViolationError(f"negative eigenvalue {min_eig:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self):
        return self.matrix.shape[0]

    @staticmethod
    def from_ket(psi):
        psi = np.asarray(psi, dtype=complex).ravel()
        psi = psi / np.linalg.norm(psi)
        return DensityMatrix(np.outer(psi, psi.conj()))

    @staticmethod
    def maximally_mixed(dim):
        return DensityMatrix(np.eye(dim) / dim)


@dataclass(frozen=True)
class LindbladModel:
    """Hamiltonian plus jump operators defining the unconditional generator.

    Jump operators are stored already scaled (e.g. sqrt(gamma)*sigma_minus),
    so no rates appear separately.
    """

    hamiltonian: np.ndarray
    jump_operators: tuple = ()

    def __init__(self, hamiltonian, jump_operators=()):
        h = _as_complex_matrix(hamiltonian)
        herm_err = np.abs(h - dag(h)).max()
        if herm_err > HERMITICITY_TOL:
            raise InvariantViolationError(f"Hamiltonian not Hermitian: {herm_err:.3e}")
        ops = tuple(_as_complex_matrix(op) for op in jump_operators)
        for op in ops:
            if op.shape != h.shape:
                raise DimensionMismatchError(
                    f"jump operator shape {op.shape} != Hamiltonian shape {h.shape}")
        h.setflags(write=False)
        for op in ops:
            op.setflags(write=False)
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "jump_operators", ops)

    @property
    def dim(self):
        return self.hamiltonian.shape[0]


PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=complex)  # |g><e| with basis (e, g)


@dataclass(frozen=True)
class FockWorkspace:
    """Truncated oscillator operators with q = (a + a^dag)/sqrt(2), p = (a - a^dag)/(i sqrt(2))."""

    truncation: int
    annihilation: np.ndarray = field(init=False)
    position: np.ndarray = field(init=False)
    momentum: np.ndarray = field(init=False)

    def __post_init__(self):
        n = int(self.truncation)
        if n < 3:
            raise InvariantViolationError("truncation must be at least 3")
        a = np.diag(np.sqrt(np.arange(1, n)), k=1).astype(complex)
        q = (a + dag(a)) / np.sqrt(2)
        p = (a - dag(a)) / (1j * np.sqrt(2))
        for arr in (a, q, p):
            arr.setflags(write=False)
        object.__setattr__(self, "annihilation", a)
        object.__setattr__(self, "position", q)
        object.__setattr__(self, "momentum", p)
        # [q, p] = i on the block untouched by truncation
        comm = q @ p - p @ q
        block = comm[: n - 2, : n - 2]
        err = np.abs(block - 1j * np.eye(n - 2)).max()
        if err > 1e-8:
            raise InvariantViolationError(f"[q,p] != i on lower block: {err:.3e}")

    def check_tail(self, rho):
        """Population in the top _TAIL_LEVELS Fock levels of a state; raises
        TruncationError above _TAIL_TOL."""
        m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
        mass = float(np.real(np.diag(m)[-_TAIL_LEVELS:].sum()))
        if mass > _TAIL_TOL:
            raise TruncationError(
                f"tail mass {mass:.3e} in top {_TAIL_LEVELS} levels exceeds {_TAIL_TOL:.1e}; "
                f"increase the Fock truncation (currently {self.truncation})")
        return mass


def purity(rho):
    """Tr[rho^2]."""
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    return float(np.real(np.einsum("ij,ji->", m, m)))


def overlap(rho1, rho2):
    """Tr[rho1 rho2]; symmetric, equals purity when the states coincide."""
    m1 = rho1.matrix if isinstance(rho1, DensityMatrix) else np.asarray(rho1)
    m2 = rho2.matrix if isinstance(rho2, DensityMatrix) else np.asarray(rho2)
    if m1.shape != m2.shape:
        raise DimensionMismatchError(f"{m1.shape} vs {m2.shape}")
    return float(np.real(np.einsum("ij,ji->", m1, m2)))


def trace_distance(rho1, rho2):
    m1 = rho1.matrix if isinstance(rho1, DensityMatrix) else np.asarray(rho1)
    m2 = rho2.matrix if isinstance(rho2, DensityMatrix) else np.asarray(rho2)
    return float(0.5 * np.abs(np.linalg.eigvalsh(m1 - m2)).sum())


def lindblad_rhs(model, rho):
    """Right-hand side -i[H, rho] + sum_k D[L_k] rho, with
    D[B]A = B A B^dag - (B^dag B A + A B^dag B)/2.

    Takes one state or a stack (..., d, d) of raw matrices and returns raw
    trace-zero matrices of the same shape.
    """
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    if m.shape[-1] != model.dim:
        raise DimensionMismatchError(f"state dim {m.shape[-1]} != model dim {model.dim}")
    h = model.hamiltonian
    out = -1j * (h @ m - m @ h)
    for op in model.jump_operators:
        bdb = dag(op) @ op
        out += op @ m @ dag(op) - 0.5 * (bdb @ m + m @ bdb)
    return out


def expm_multiply(*args, **kwargs):
    """scipy.sparse.linalg.expm_multiply, imported when first called: only
    propagation above _DENSE_PROPAGATOR_DIM needs it, so `import unravel`
    does not load it."""
    from scipy.sparse.linalg import expm_multiply as scipy_expm_multiply

    return scipy_expm_multiply(*args, **kwargs)


def propagate_matrices(model, mats, times):
    """Exact solution of the master equation for a stack (..., d, d) of
    states, streamed along a non-decreasing grid of times from t = 0: yields
    (t, stack at t) for each t in `times`.

    The package's one master-equation propagator.  Up to dimension
    _DENSE_PROPAGATOR_DIM each step h applies e^{L h}, one dense exponential
    per distinct step; above it, the action of the sparse generator's
    exponential (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)),
    which never forms a dense d^2 x d^2 matrix.  Only the current stack is
    held; the outputs are raw matrices and are not validated (propagate is
    the validated single-state entry).
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or np.any(times < 0) or np.any(np.diff(times) < 0):
        raise ValueError("times must be a non-negative, non-decreasing 1-d grid")
    m = np.asarray(mats, dtype=complex)
    d = model.dim
    if m.shape[-2:] != (d, d):
        raise DimensionMismatchError(f"state shape {m.shape} != model dim {d}")
    liou = liouvillian_matrix(model)
    dense = d <= _DENSE_PROPAGATOR_DIM
    if dense:
        liou = liou.toarray()
    y = m.reshape(-1, d * d)
    props = {}
    prev = 0.0
    for t in times:
        step = round(t - prev, 15)
        if step > 0 and dense:
            if step not in props:
                props[step] = expm(liou * step)
            y = y @ props[step].T
        elif step > 0:
            y = expm_multiply(liou * step, y.T).T
        prev = t
        yield t, y.reshape(m.shape)


def propagate(model, rho0, duration):
    """The state after `duration` of the unconditional master equation,
    exactly (propagate_matrices); a DensityMatrix.

    A DensityMatrix propagated for zero duration comes back as itself.
    """
    if duration == 0 and isinstance(rho0, DensityMatrix):
        return rho0
    _, m = next(propagate_matrices(
        model, rho0.matrix if isinstance(rho0, DensityMatrix) else rho0, [duration]))
    try:
        return DensityMatrix(m)
    except InvariantViolationError as exc:
        raise InvariantViolationError(f"propagation left the state manifold: {exc}") from exc


def _no_jump_generator(model):
    """K = -iH - (1/2) sum_k L_k^dag L_k, the generator of e^{K dt}."""
    k = -1j * model.hamiltonian
    for op in model.jump_operators:
        k -= 0.5 * dag(op) @ op
    return k


def liouvillian_matrix(model):
    """The generator as a sparse (CSR) matrix acting on row-stacked rho;
    dense callers take .toarray().

    Row-stacking convention: vec(A X B) = (A kron B^T) vec(X), so the
    generator is K kron 1 + 1 kron conj(K) + sum_k L_k kron conj(L_k), each
    Kronecker product taken over the nonzero entries of its factors.
    """
    d = model.dim
    k, ident = _no_jump_generator(model), np.eye(d)
    vals, rows, cols = [], [], []
    for a, b in [(k, ident), (ident, k.conj()), *((op, op.conj()) for op in model.jump_operators)]:
        (ia, ja), (ib, jb) = np.nonzero(a), np.nonzero(b)
        vals.append(np.outer(a[ia, ja], b[ib, jb]).ravel())
        rows.append(np.add.outer(ia * d, ib).ravel())
        cols.append(np.add.outer(ja * d, jb).ravel())
    return sp.csr_array((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                        shape=(d * d, d * d))


def steady_state(model):
    """Unique stationary state of the generator, by null-space solve.

    Raises DegenerateSteadyStateError when the null space has dimension > 1
    (e.g. a Hamiltonian-only model); there is no fallback that could mask a
    degenerate generator.  The result is checked against lindblad_rhs.
    """
    liou = liouvillian_matrix(model).toarray()
    kernel = null_space(liou, rcond=_DEGENERACY_TOL * model.dim ** 2)
    if kernel.shape[1] != 1:
        raise DegenerateSteadyStateError(
            f"stationary subspace has dimension {kernel.shape[1]}")
    m = kernel[:, 0].reshape(model.dim, model.dim)
    m = 0.5 * (m + dag(m))
    tr = m.trace().real
    if abs(tr) < 1e-12:
        raise DegenerateSteadyStateError("null vector is traceless; no stationary state")
    m = m / tr
    rho = DensityMatrix(m)
    resid = np.abs(lindblad_rhs(model, rho)).max()
    if resid > _STEADY_RHS_TOL:
        raise InvariantViolationError(
            f"steady-state residual {resid:.3e} exceeds {_STEADY_RHS_TOL:.1e}")
    return rho
