"""The two benchmark systems: driven two-level atom and monitored Brownian particle.

Single source of truth for their operators, parameters and allowed
unravelling sets.  The Brownian particle gets a Fock-space twin that acts
as the brute-force oracle for the Gaussian backend.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import InvariantViolationError
from .gaussian import QbmParams
from .hilbert import (
    DensityMatrix,
    FockWorkspace,
    LindbladModel,
    PAULI_X,
    SIGMA_MINUS,
    dag,
)


@dataclass(frozen=True)
class TlaParams:
    """Rabi frequency and spontaneous emission rate; times are reported in 1/gamma."""

    rabi: float
    gamma: float = 1.0

    def __post_init__(self):
        for name, value in (("rabi", self.rabi), ("gamma", self.gamma)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.rabi < 0:
            raise ValueError("rabi must be non-negative")


TLA_SCHEMES = ("direct", "homodyne_x", "homodyne_y", "heterodyne", "aid")


def build_tla(params):
    """Resonance-fluorescence model: H = (Omega/2) sigma_x, jump sqrt(gamma) sigma_-."""
    h = 0.5 * params.rabi * PAULI_X
    return LindbladModel(h, [math.sqrt(params.gamma) * SIGMA_MINUS])


def qbm_coupling_operator(params, workspace):
    """c = sqrt(2T) q + i p / sqrt(8T) on the truncated Fock space."""
    return params.alpha * workspace.position + 1j * params.beta * workspace.momentum


def build_qbm_oracle(params, truncation=60):
    """Fock-space Lindblad model of the Brownian particle.

    H = p^2/2 + (qp+pq)/4 in scaled units; the unconditional flow of this
    model matches the Gaussian Lyapunov flow for Gaussian initial states
    as long as the tail-mass check on the states passes.
    """
    ws = FockWorkspace(truncation)
    q, p = ws.position, ws.momentum
    h = 0.5 * (p @ p) + 0.25 * (q @ p + p @ q)
    h = 0.5 * (h + dag(h))  # scrub roundoff asymmetry
    c = qbm_coupling_operator(params, ws)
    return LindbladModel(h, [c]), ws


def gaussian_density_matrix(workspace, cov):
    """Fock-basis density matrix of the centred single-mode Gaussian state
    with covariance cov.

    Built as squeezed-thermal: rho = S rho_th S^dag with the symplectic
    data read off the covariance matrix.  Raises
    TruncationError through the workspace tail check if the state does not
    fit the truncation.
    """
    v = cov.matrix if hasattr(cov, "matrix") else np.asarray(cov, dtype=float)
    det = float(np.linalg.det(v))
    if det < 0.25 - 1e-9:
        raise InvariantViolationError(f"covariance below Heisenberg bound: det={det}")
    nu = math.sqrt(max(det, 0.25))          # symplectic eigenvalue
    nbar = max(nu - 0.5, 0.0)

    # V / nu = R(theta) diag(e^{2r}, e^{-2r}) R(theta)^T
    w = v / nu
    eigvals, eigvecs = np.linalg.eigh(w)
    r_sq = 0.5 * math.log(eigvals[1])       # eigvals are (e^{-2r}, e^{2r})
    u_rot = eigvecs[:, ::-1]                # columns for (e^{2r}, e^{-2r})
    if np.linalg.det(u_rot) < 0:
        u_rot = u_rot * np.array([1.0, -1.0])
    theta = math.atan2(u_rot[1, 0], u_rot[0, 0])

    a = workspace.annihilation
    dim = workspace.truncation

    # thermal state
    if nbar < 1e-14:
        diag = np.zeros(dim)
        diag[0] = 1.0
    else:
        ratio = nbar / (1.0 + nbar)
        diag = (ratio ** np.arange(dim)) / (1.0 + nbar)
        diag /= diag.sum()
    rho = np.diag(diag).astype(complex)

    # squeeze so the stretched axis lands on the eigvecs[:, 1] direction;
    # S(xi) with xi = r e^{i theta_s} stretches the quadrature at theta_s/2 + pi/2
    z = -r_sq * np.exp(2j * theta)
    squeeze = expm(0.5 * (np.conj(z) * (a @ a) - z * (dag(a) @ dag(a))))
    rho = squeeze @ rho @ dag(squeeze)
    rho = 0.5 * (rho + dag(rho))
    rho = rho / rho.trace().real
    workspace.check_tail(rho)
    return DensityMatrix(rho)


__all__ = [
    "TlaParams",
    "QbmParams",
    "TLA_SCHEMES",
    "build_tla",
    "build_qbm_oracle",
    "qbm_coupling_operator",
    "gaussian_density_matrix",
]
