"""Dense finite-dimensional quantum linear algebra.

States, Lindblad generators, steady states and deterministic propagation:
one fixed-step RK4 loop over stacks of states (propagate_matrices), with
propagate as its validated single-state entry point.  Everything is plain
numpy under the hood; the thin wrapper types enforce the physical
invariants (Hermiticity, unit trace, positivity) at construction time so
that downstream code can trust its inputs.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import null_space

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


def dissipator(op, m):
    """D[B]A = B A B^dag - (B^dag B A + A B^dag B)/2 on a raw matrix or stack."""
    bdb = dag(op) @ op
    return op @ m @ dag(op) - 0.5 * (bdb @ m + m @ bdb)


def lindblad_rhs(model, rho):
    """Right-hand side -i[H, rho] + sum_k D[L_k] rho.

    Takes one state or a stack (..., d, d) of raw matrices and returns raw
    trace-zero matrices of the same shape.
    """
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    if m.shape[-1] != model.dim:
        raise DimensionMismatchError(f"state dim {m.shape[-1]} != model dim {model.dim}")
    h = model.hamiltonian
    out = -1j * (h @ m - m @ h)
    for op in model.jump_operators:
        out += dissipator(op, m)
    return out


def propagate_matrices(model, mats, duration, dt):
    """Integrate the master equation with fixed-step RK4 over a stack (..., d, d).

    The package's one master-equation integrator.  Each step is
    re-symmetrized to bound Hermiticity drift; the outputs are raw matrices
    and are not validated (propagate is the validated single-state entry).
    """
    if duration < 0:
        raise ValueError("duration must be non-negative")
    if dt <= 0:
        raise ValueError("dt must be positive")
    m = np.array(mats, dtype=complex)
    if duration == 0:
        return m
    n_steps = int(np.ceil(duration / dt))
    step = duration / n_steps
    for _ in range(n_steps):
        k1 = lindblad_rhs(model, m)
        k2 = lindblad_rhs(model, m + 0.5 * step * k1)
        k3 = lindblad_rhs(model, m + 0.5 * step * k2)
        k4 = lindblad_rhs(model, m + step * k3)
        m = m + (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        m = 0.5 * (m + np.conj(np.swapaxes(m, -1, -2)))
    return m


def propagate(model, rho0, duration, dt):
    """Integrate the unconditional master equation for one state; a DensityMatrix.

    A DensityMatrix propagated for zero duration comes back as itself.
    """
    m = propagate_matrices(
        model, rho0.matrix if isinstance(rho0, DensityMatrix) else rho0, duration, dt)
    if duration == 0 and isinstance(rho0, DensityMatrix):
        return rho0
    try:
        return DensityMatrix(m)
    except InvariantViolationError as exc:
        raise InvariantViolationError(
            f"propagation left the state manifold (dt too large?): {exc}") from exc


def liouvillian_matrix(model):
    """Dense matrix of the generator acting on row-stacked rho.

    Row-stacking convention: vec(A X B) = (A kron B^T) vec(X).
    """
    d = model.dim
    ident = np.eye(d)
    h = model.hamiltonian
    out = -1j * (np.kron(h, ident) - np.kron(ident, h.T))
    for op in model.jump_operators:
        bdb = dag(op) @ op
        out += np.kron(op, op.conj())
        out -= 0.5 * (np.kron(bdb, ident) + np.kron(ident, bdb.T))
    return out


def steady_state(model):
    """Unique stationary state of the generator, by null-space solve.

    Raises DegenerateSteadyStateError when the null space has dimension > 1
    (e.g. a Hamiltonian-only model); there is no fallback that could mask a
    degenerate generator.  The result is checked against lindblad_rhs.
    """
    liou = liouvillian_matrix(model)
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
