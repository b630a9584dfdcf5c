import math

import numpy as np
import pytest
from scipy.linalg import expm

import unravel.gaussian as G
from unravel.errors import InvariantViolationError, TruncationError
from unravel.gaussian import CovarianceState, DiskPoint, QbmParams, qbm_generators
from unravel.hilbert import (
    DensityMatrix,
    overlap,
    propagate,
    purity,
    steady_state,
    trace_distance,
)
from unravel.systems import (
    TlaParams,
    build_qbm_oracle,
    build_tla,
    gaussian_density_matrix,
)

from oracles import bloch, displaced, fock_covariance, gaussian_overlap, tla_steady_bloch


class TestTla:
    def test_no_driving_decays_to_ground(self):
        rho = steady_state(build_tla(TlaParams(rabi=0.0, gamma=1.0)))
        assert bloch(rho)[2] == pytest.approx(-1.0, abs=1e-10)

    def test_steady_state_bloch_solution(self):
        params = TlaParams(rabi=1.0, gamma=1.0)
        rho = steady_state(build_tla(params))
        assert bloch(rho) == pytest.approx((0.0, 2 / 3, -1 / 3), abs=1e-10)
        assert tla_steady_bloch(params) == pytest.approx((0.0, 2 / 3, -1 / 3))

    def test_strong_driving_purity_approaches_half(self):
        rho = steady_state(build_tla(TlaParams(rabi=200.0, gamma=1.0)))
        assert purity(rho) == pytest.approx(0.5, abs=1e-4)
        assert purity(rho) > 0.5

    @pytest.mark.parametrize("field, kwargs", [
        ("rabi", {"rabi": math.nan}), ("rabi", {"rabi": math.inf}),
        ("gamma", {"rabi": 1.0, "gamma": math.inf}), ("gamma", {"rabi": 1.0, "gamma": math.nan})])
    def test_parameters_must_be_finite(self, field, kwargs):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            TlaParams(**kwargs)

    def test_dynamics_depend_only_on_ratio(self):
        # (Omega, gamma) and (2 Omega, 2 gamma) give the same Bloch curve vs gamma*t
        excited = DensityMatrix(np.diag([1.0, 0.0]))
        rho_a = propagate(build_tla(TlaParams(1.3, 1.0)), excited, 2.0)
        rho_b = propagate(build_tla(TlaParams(2.6, 2.0)), excited, 1.0)
        assert trace_distance(rho_a, rho_b) < 1e-8


class TestQbmOracle:
    def test_means_follow_drift(self):
        params = QbmParams(0.5)
        model, ws = build_qbm_oracle(params, 40)
        v0 = CovarianceState(0.5, 0.5, 0.0)
        rho0 = displaced(ws, gaussian_density_matrix(ws, v0), (0.6, -0.4))
        gen = qbm_generators(params, DiskPoint(1.0, 0.0), 0.0)
        rho_t = propagate(model, rho0, 1.0)
        got = fock_covariance(ws, rho_t)
        want = expm(gen.drift * 1.0) @ np.array([0.6, -0.4])
        assert abs(got[3] - want[0]) < 1e-3
        assert abs(got[4] - want[1]) < 1e-3

    def test_unconditional_covariances_match_lyapunov_flow(self):
        params = QbmParams(0.5)
        model, ws = build_qbm_oracle(params, 60)
        v0 = CovarianceState(1.0, 1.0, 0.0)
        rho0 = gaussian_density_matrix(ws, v0)
        gen = qbm_generators(params, DiskPoint(1.0, 0.0), 0.0)
        rho_t = propagate(model, rho0, 1.5)
        ws.check_tail(rho_t)
        got = np.array(fock_covariance(ws, rho_t)[:3])
        v_t = G.unconditional_covariance_curve(gen, v0, [0.0, 1.5])[-1]
        want = np.array([v_t[0, 0], v_t[1, 1], v_t[0, 1]])
        assert np.abs(got - want).max() < 1e-6

    def test_small_truncation_rejected(self):
        params = QbmParams(0.5)
        _, ws = build_qbm_oracle(params, 8)
        with pytest.raises(TruncationError):
            gaussian_density_matrix(ws, CovarianceState(2.0, 2.0, 0.0))


class TestGaussianDensityMatrix:
    def test_round_trips_moments(self):
        from unravel.hilbert import FockWorkspace

        ws = FockWorkspace(60)
        rng = np.random.default_rng(3)
        for _ in range(4):
            vq = float(np.exp(rng.normal(0, 0.4)))
            vp = float(np.exp(rng.normal(0, 0.4)))
            cmax = math.sqrt(max(vq * vp - 0.26, 1e-3))
            c = float(rng.uniform(-0.8, 0.8) * cmax)
            mq, mp = rng.normal(0, 0.8, size=2)
            target = CovarianceState(vq, vp, c)
            rho = displaced(ws, gaussian_density_matrix(ws, target), (mq, mp))
            back = np.array(fock_covariance(ws, rho))
            assert np.abs(back - [vq, vp, c, mq, mp]).max() < 1e-7

    def test_overlap_formula_against_fock_basis(self):
        from unravel.hilbert import FockWorkspace

        ws = FockWorkspace(60)
        v1, mu1 = CovarianceState(0.9, 0.5, 0.2), (0.3, -0.4)
        v2, mu2 = CovarianceState(0.6, 0.8, -0.1), (-0.2, 0.5)
        rho1 = displaced(ws, gaussian_density_matrix(ws, v1), mu1)
        rho2 = displaced(ws, gaussian_density_matrix(ws, v2), mu2)
        assert gaussian_overlap(v1, mu1, v2, mu2) == pytest.approx(
            overlap(rho1, rho2), abs=1e-4)

    def test_rejects_unphysical_covariance(self):
        from unravel.hilbert import FockWorkspace

        ws = FockWorkspace(30)
        with pytest.raises(InvariantViolationError):
            gaussian_density_matrix(ws, np.array([[0.1, 0.0], [0.0, 0.1]]))
