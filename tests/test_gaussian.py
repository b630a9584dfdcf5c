import math

import numpy as np
import pytest

import unravel.gaussian as G
import unravel.measures as M
from unravel.errors import ConvergenceError, InvariantViolationError
from unravel.gaussian import (
    CovarianceState,
    DiskPoint,
    GaussianGenerators,
    QbmParams,
    gaussian_purity,
    qbm_generators,
    riccati_steady,
    survival_curve,
)

from oracles import (
    covariance_ode,
    gaussian_overlap,
    lyapunov_fixed_point,
    ode_purities,
    riccati_stationary_flow,
    stationary_mean_noise,
)


def synthetic_stable_gen(eta=0.5):
    """A Hurwitz toy model for fixed-point tests (the particle drift is not Hurwitz).

    Diffusion is scaled so both the unconditional and the conditioned
    stationary covariances respect the Heisenberg cone.
    """
    return GaussianGenerators(
        drift=np.array([[-1.0, 0.3], [-0.2, -2.0]]),
        diffusion=np.array([[3.2, 0.4], [0.4, 4.8]]),
        meas_gain=np.diag([0.7, 0.4]),
        meas_offset=np.diag([0.1, 0.2]),
        dyne_matrix=np.array([[1.4, 0.2], [0.2, 0.6]]),
        eta=eta,
    )


class TestTypes:
    def test_disk_point_range(self):
        with pytest.raises(ValueError):
            DiskPoint(1.2, 0.0)
        assert DiskPoint(1.0, 2 * math.pi + 0.5).phi == pytest.approx(0.5)

    def test_disk_point_coerces_numpy_scalars(self):
        # optimizers hand back numpy scalars; the point must store plain floats
        u = DiskPoint(np.float64(1.0), np.float64(0.5))
        assert type(u.r) is float and type(u.phi) is float
        assert repr(u.r) == "1.0"

    def test_covariance_invariants(self):
        with pytest.raises(InvariantViolationError):
            CovarianceState(1.0, 1.0, 1.0)  # det = 0 < 1/4
        with pytest.raises(InvariantViolationError):
            CovarianceState(-1.0, 1.0, 0.0)

    def test_temperature_positive(self):
        with pytest.raises(ValueError):
            QbmParams(0.0)


class TestGenerators:
    def test_eta_zero_correction_vanishes(self):
        gen = qbm_generators(QbmParams(1.0), DiskPoint(1.0, 0.7), eta=0.0)
        v = CovarianceState(1.0, 1.0, 0.3).matrix
        assert np.abs(gen.correction(v)).max() == 0.0

    def test_diffusion_independent_of_unravelling(self):
        params = QbmParams(2.0)
        ref = qbm_generators(params, DiskPoint(1.0, 0.0), 1.0)
        for u, eta in ((DiskPoint(0.0, 0.0), 0.5), (DiskPoint(0.6, 2.1), 0.1)):
            gen = qbm_generators(params, u, eta)
            assert np.array_equal(gen.diffusion, ref.diffusion)
            assert np.array_equal(gen.drift, ref.drift)

    def test_eta_out_of_range(self):
        with pytest.raises(ValueError):
            qbm_generators(QbmParams(1.0), DiskPoint(1.0, 0.0), 1.5)

    def test_with_eta_matches_fresh_generators(self):
        params, u = QbmParams(0.5), DiskPoint(0.75, 4.0)
        base = qbm_generators(params, u, 1.0)
        for eta in (0.0, 0.3, 1.0):
            got, want = base.with_eta(eta), qbm_generators(params, u, eta)
            assert got.eta == eta
            for a, b in zip(got.care_form(), want.care_form()):
                assert np.abs(a - b).max() < 1e-14
        assert base.eta == 1.0
        with pytest.raises(ValueError):
            base.with_eta(1.5)

    def test_qbm_drift_and_diffusion_values(self):
        t = 0.5
        gen = qbm_generators(QbmParams(t), DiskPoint(1.0, 0.0), 1.0)
        assert np.allclose(gen.drift, [[0.0, 1.0], [0.0, -1.0]])
        assert np.allclose(gen.diffusion, np.diag([1.0 / (8 * t), 2 * t]))


class TestLyapunov:
    def test_synthetic_fixed_point(self):
        gen = synthetic_stable_gen(eta=0.0)
        v = lyapunov_fixed_point(gen)
        a, d = gen.drift, gen.diffusion
        resid = a @ v + v @ a.T + d
        assert np.abs(resid).max() < 1e-10


class TestRiccatiFlow:
    """The covariance flow dV/dt = gen.rhs(V), integrated as an ODE."""

    def test_eta_zero_equals_lyapunov(self):
        params = QbmParams(1.0)
        gen0 = qbm_generators(params, DiskPoint(0.5, 1.1), 0.0)
        v0 = CovarianceState(1.5, 2.0, 0.4)
        t = np.linspace(0.0, 3.0, 31)
        diff = np.abs(covariance_ode(gen0, v0, t)
                      - G.unconditional_covariance_curve(gen0, v0, t)).max()
        assert diff < 1e-10

    def test_stationary_point_is_fixed(self):
        gen = synthetic_stable_gen(eta=0.0)
        v_ss = lyapunov_fixed_point(gen)
        states = covariance_ode(gen, v_ss, np.linspace(0.0, 2.0, 21))
        assert np.abs(states - v_ss).max() < 1e-9

    @pytest.mark.parametrize("temp,u", [
        (0.5, DiskPoint(1.0, 0.0)),
        (1.0, DiskPoint(0.0, 0.0)),
        (10.0, DiskPoint(0.7, 2.2)),
    ])
    def test_efficient_flow_preserves_purity(self, temp, u):
        # eta = 1 keeps pure states pure: strong check of the correction matrices
        gen = qbm_generators(QbmParams(temp), u, 1.0)
        v0 = CovarianceState(0.7, 0.25 / 0.7, 0.0)
        states = covariance_ode(gen, v0, np.linspace(0.0, 2.0, 201))
        assert np.abs(np.linalg.det(states) - 0.25).max() < 1e-7

    def test_heisenberg_bound_along_flow(self):
        gen = qbm_generators(QbmParams(1.0), DiskPoint(1.0, 1.0), 0.8)
        states = covariance_ode(gen, CovarianceState(3.0, 3.0, 0.0),
                                np.linspace(0.0, 5.0, 5001))
        assert np.linalg.det(states).min() >= 0.25 - 1e-9

    def test_purity_approaches_stationary_value(self):
        gen = qbm_generators(QbmParams(1.0), DiskPoint(1.0, 0.0), 1.0)
        v_ss = riccati_steady(gen)
        purities = ode_purities(gen, CovarianceState(4.0, 4.0, 0.0),
                                np.linspace(0.0, 12.0, 12001))
        assert purities[-1] == pytest.approx(gaussian_purity(v_ss), abs=1e-6)
        # monotone approach from the mixed side
        assert np.all(np.diff(purities) > -1e-9)


class TestRiccatiSteady:
    def test_eta_zero_matches_lyapunov_on_stable_model(self):
        gen = synthetic_stable_gen(eta=0.0)
        assert np.abs(riccati_steady(gen).matrix - lyapunov_fixed_point(gen)).max() < 1e-9

    def test_algebraic_agrees_with_flow(self):
        for temp, u, eta in [(0.5, DiskPoint(1.0, 0.0), 1.0),
                             (1.0, DiskPoint(0.7, 2.5), 0.8),
                             (100.0, DiskPoint(1.0, 1.0), 0.4)]:
            gen = qbm_generators(QbmParams(temp), u, eta)
            va = G._riccati_stationary_algebraic(gen)
            vf = riccati_stationary_flow(gen)
            assert np.abs(va - vf).max() < 1e-8 * max(1.0, np.abs(va).max())

    def test_efficient_stationary_state_is_pure(self):
        for u in (DiskPoint(1.0, 0.0), DiskPoint(0.0, 0.0), DiskPoint(1.0, 2.0)):
            gen = qbm_generators(QbmParams(1.0), u, 1.0)
            assert gaussian_purity(riccati_steady(gen)) == pytest.approx(1.0, abs=1e-8)

    def test_conditioning_beats_no_conditioning(self):
        gen1 = qbm_generators(QbmParams(1.0), DiskPoint(1.0, 0.0), 1.0)
        gen_low = qbm_generators(QbmParams(1.0), DiskPoint(1.0, 0.0), 0.2)
        assert gaussian_purity(riccati_steady(gen1)) > gaussian_purity(riccati_steady(gen_low))

    def test_purity_monotone_in_eta(self):
        params = QbmParams(1.0)
        u = DiskPoint(1.0, 0.5)
        purities = [gaussian_purity(riccati_steady(qbm_generators(params, u, eta)))
                    for eta in np.linspace(0.1, 1.0, 10)]
        assert np.all(np.diff(purities) > 0)

    def test_momentum_only_homodyne_has_no_stationary_state(self):
        # phi = pi never reads position; the filter covariance runs away
        gen = qbm_generators(QbmParams(1.0), DiskPoint(1.0, math.pi), 1.0)
        with pytest.raises(ConvergenceError):
            riccati_steady(gen)

    @pytest.mark.parametrize("temp", (0.5, 100.0))
    @pytest.mark.parametrize("eta", (0.25, 1.0))
    def test_undetectable_point_raises_before_the_flow(self, temp, eta):
        # at phi = pi the Hamiltonian spectrum touches the imaginary axis:
        # no stabilising solution exists, and the error says so
        gen = qbm_generators(QbmParams(temp), DiskPoint(1.0, math.pi), eta)
        with pytest.raises(ConvergenceError, match="undetectable"):
            riccati_steady(gen)

    def test_near_axis_pseudo_solution_is_undetectable(self):
        # at T = 1e4 the closed loop a hair off phi = pi relaxes at 1.8e-6,
        # above an absolute 1e-6 but far inside the Hamiltonian's scale; the
        # solve there came out with det V = 0.2499982 < 1/4
        gen = qbm_generators(QbmParams(1e4), DiskPoint(1.0, math.pi - 1e-6), 1.0)
        with pytest.raises(ConvergenceError, match="undetectable"):
            riccati_steady(gen)

    @pytest.mark.parametrize("temp", (0.01, 0.5, 100.0))
    def test_stacked_solve_equals_scalar_bitwise(self, temp):
        # the efficiency-threshold probes of the whole disk grid come from one
        # stacked solve; each member must be the scalar riccati_steady result,
        # or fail as it does, including stacks that mix real and complex
        # Hamiltonian spectra (T = 0.01)
        params, probe = QbmParams(temp), [0.25, 0.5, 0.75, 1.0]
        points = [DiskPoint(r, phi) for r in (0.0, 0.25, 0.5, 0.75, 1.0)
                  for phi in np.linspace(0.0, 2.0 * math.pi, 24 if r > 0 else 1,
                                         endpoint=False)]
        stack, faults = G._riccati_stationary_algebraic(
            qbm_generators(params, points, 1.0), probe)
        assert stack.shape == (97, 4, 2, 2) and faults.shape == (97, 4)
        for u, vs, fs in zip(points, stack, faults):
            gen = qbm_generators(params, u, 1.0)
            for v, fault, eta in zip(vs, fs, probe):
                if fault is None:
                    assert np.array_equal(v, riccati_steady(gen.with_eta(eta)).matrix)
                else:
                    assert np.isnan(v).all()
                    with pytest.raises(type(fault)) as err:
                        riccati_steady(gen.with_eta(eta))
                    assert str(err.value) == str(fault)
        assert faults.any(axis=1).sum() <= 1

    def test_unconditional_qbm_has_no_stationary_state(self):
        gen = qbm_generators(QbmParams(1.0), DiskPoint(1.0, 0.0), 0.0)
        with pytest.raises(ConvergenceError):
            riccati_steady(gen)

    def test_regression_fixture(self):
        # frozen from the cross-validated algebraic/flow solutions
        v = riccati_steady(qbm_generators(QbmParams(1.0), DiskPoint(1.0, 0.0), 1.0))
        assert v.v_q == pytest.approx(0.4001212951, abs=1e-8)
        assert v.v_p == pytest.approx(0.7690872515, abs=1e-8)
        assert v.c_qp == pytest.approx(0.2402669081, abs=1e-8)

    def test_excess_noise_psd_on_stable_model(self):
        gen = synthetic_stable_gen(eta=1.0)
        gen0 = synthetic_stable_gen(eta=0.0)
        m = lyapunov_fixed_point(gen0) - riccati_steady(gen).matrix
        assert np.linalg.eigvalsh(m).min() > -1e-9


class TestPurityOverlap:
    def test_minimum_uncertainty(self):
        assert gaussian_purity(CovarianceState(0.5, 0.5, 0.0)) == pytest.approx(1.0)

    def test_double_width(self):
        assert gaussian_purity(CovarianceState(1.0, 1.0, 0.0)) == pytest.approx(0.5)

    def test_heisenberg_boundary_with_correlation(self):
        # V_q = V_p = 1, C = sqrt(3)/2 sits exactly on det V = 1/4
        v = CovarianceState(1.0, 1.0, math.sqrt(3.0) / 2.0)
        assert gaussian_purity(v) == pytest.approx(1.0)

    def test_overlap_identical_pure(self):
        v = CovarianceState(0.5, 0.5, 0.0)
        assert gaussian_overlap(v, (0, 0), v, (0, 0)) == pytest.approx(1.0)

    def test_overlap_distant_means(self):
        v = CovarianceState(0.5, 0.5, 0.0)
        assert gaussian_overlap(v, (0, 0), v, (12.0, 0)) < 1e-20

    def test_overlap_symmetry(self):
        v1 = CovarianceState(0.9, 0.5, 0.2)
        v2 = CovarianceState(0.6, 0.8, -0.1)
        a = gaussian_overlap(v1, (0.3, -0.4), v2, (-0.2, 0.5))
        b = gaussian_overlap(v2, (-0.2, 0.5), v1, (0.3, -0.4))
        assert abs(a - b) < 1e-12


class TestInformationFlow:
    def test_purification_curve_rises_from_zero(self):
        params = QbmParams(1.0)
        gen = qbm_generators(params, DiskPoint(1.0, 0.0), 1.0)
        t = np.linspace(0.0, 8.0, 200)
        p = G.conditioned_purity_curve(gen, t, G.qbm_information_start(params))
        assert p[0] == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.diff(p) > -1e-9)
        assert p[-1] == pytest.approx(1.0, abs=1e-4)

    def test_momentum_only_never_purifies(self):
        params = QbmParams(1.0)
        gen = qbm_generators(params, DiskPoint(1.0, math.pi), 1.0)
        t = np.linspace(0.0, 10.0, 50)
        p = G.conditioned_purity_curve(gen, t, G.qbm_information_start(params))
        assert np.all(p < 1e-6)

    def test_matches_covariance_flow_from_finite_start(self):
        # same flow expressed in V and in Y coordinates
        params = QbmParams(0.5)
        gen = qbm_generators(params, DiskPoint(1.0, 0.0), 1.0)
        v0 = CovarianceState(2.0, 1.5, 0.3)
        t_grid = np.linspace(0.0, 2.0, 21)
        p_info = G.conditioned_purity_curve(gen, t_grid, np.linalg.inv(v0.matrix))
        assert np.abs(p_info - ode_purities(gen, v0, t_grid)).max() < 1e-9


class TestSurvivalCurve:
    def test_starts_at_unity(self):
        s = survival_curve(QbmParams(1.0), DiskPoint(1.0, 0.0), [0.0, 0.1])
        assert s[0] == pytest.approx(1.0, abs=1e-10)

    def test_monotone_decreasing_to_zero(self):
        taus = np.concatenate([[0.0], np.geomspace(1e-3, 50.0, 80)])
        s = survival_curve(QbmParams(1.0), DiskPoint(1.0, 0.0), taus)
        assert np.all(np.diff(s) < 1e-12)
        assert s[-1] < 0.1

    def test_projected_mean_noise_closed_form(self):
        # for the particle drift, N = lim A M A^T = (R_pp/2) [[1,-1],[-1,1]]
        gen = qbm_generators(QbmParams(1.0), DiskPoint(1.0, 0.0), 1.0)
        v_c = riccati_steady(gen)
        n = stationary_mean_noise(gen, v_c)
        r_pp = gen.correction(v_c.matrix)[1, 1]
        expect = 0.5 * r_pp * np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert np.abs(n - expect).max() < 1e-9

    def test_matches_monte_carlo_over_means(self):
        from scipy.linalg import expm

        params = QbmParams(1.0)
        u = DiskPoint(1.0, 0.0)
        gen = qbm_generators(params, u, 1.0)
        v_c = riccati_steady(gen)
        n_star = stationary_mean_noise(gen, v_c)
        taus = np.array([0.1, 0.5, 2.0])
        s_closed = survival_curve(params, u, taus)
        rng = np.random.default_rng(11)
        mu_p = rng.normal(0.0, math.sqrt(n_star[0, 0]), size=100_000)
        v_u = G.unconditional_covariance_curve(gen, v_c, taus)
        for i, tau in enumerate(taus):
            proj = np.eye(2) - expm(gen.drift * tau)
            deltas = np.stack([np.zeros_like(mu_p), mu_p], axis=1) @ proj.T
            vals = gaussian_overlap(v_c, deltas, v_u[i], np.zeros(2))
            mc, se = vals.mean(), vals.std() / math.sqrt(len(vals))
            assert abs(s_closed[i] - mc) < 3.0 * se + 1e-9


CURVE_TEMPS = (0.5, 100.0)
CURVE_POINTS = (DiskPoint(1.0, 0.0), DiskPoint(1.0, 1.07), DiskPoint(0.0, 0.0),
                DiskPoint(0.75, 4.0))


@pytest.mark.parametrize("temp", CURVE_TEMPS)
@pytest.mark.parametrize("u", CURVE_POINTS, ids=lambda u: f"r{u.r}-phi{u.phi}")
class TestClosedFormCurves:
    """The closed-form curves against an adaptive ODE integration of the flow."""

    def test_lyapunov_curve_matches_rk4(self, temp, u):
        gen = qbm_generators(QbmParams(temp), u, 1.0)
        v0 = CovarianceState(1.5, 2.0, 0.4)
        times = np.linspace(0.0, 2.0, 21)
        got = G.unconditional_covariance_curve(gen, v0, times)
        want = covariance_ode(gen.with_eta(0.0), v0, times)
        scale = np.abs(want).max(axis=(1, 2))[:, None, None]
        assert (np.abs(got - want) / scale).max() < 1e-9

    def test_purity_curve_matches_rk4_from_finite_start(self, temp, u):
        gen = qbm_generators(QbmParams(temp), u, 1.0)
        # twice the stationary covariance: purity 1/2, on the flow's own scale
        v0 = CovarianceState.from_matrix(2.0 * riccati_steady(gen).matrix)
        times = np.linspace(0.0, 2.0 if temp < 1.0 else 0.5, 21)
        got = G.conditioned_purity_curve(gen, times, np.linalg.inv(v0.matrix))
        assert np.abs(got - ode_purities(gen, v0, times)).max() < 1e-9

    def test_direct_and_decaying_forms_agree(self, temp, u):
        # e^{Ht} is evaluated directly while it has not grown over the grid,
        # and through the decaying-exponential form beyond
        params = QbmParams(temp)
        gen = qbm_generators(params, u, 1.0)
        y0 = G.qbm_information_start(params)
        rate = np.abs(np.linalg.eigvals(G._hamiltonian(gen)).real).max()
        short = np.linspace(0.0, 0.9 / rate, 12)
        direct = G.conditioned_purity_curve(gen, short, y0)
        decaying = G.conditioned_purity_curve(gen, np.append(short, 50.0), y0)[:-1]
        assert np.abs(direct - decaying).max() < 1e-9

    def test_purity_curve_on_full_log_grid(self, temp, u):
        params = QbmParams(temp)
        grid = M._log_grid(M._qbm_rate_scale(params), 200.0)
        base = qbm_generators(params, u, 1.0)
        for eta in (1.0, 0.4):
            gen = base.with_eta(eta)
            p = G.conditioned_purity_curve(gen, grid, G.qbm_information_start(params))
            assert np.all(np.isfinite(p))
            assert p[0] == 0.0
            assert p[-1] == pytest.approx(gaussian_purity(riccati_steady(gen)), abs=1e-9)


class TestClosedFormErrors:
    def test_lyapunov_curve_needs_particle_drift(self):
        gen = synthetic_stable_gen(eta=0.0)
        with pytest.raises(ValueError):
            G.unconditional_covariance_curve(gen, CovarianceState(1.0, 1.0, 0.0), [0.0, 1.0])

    def test_ill_conditioned_decomposition_raises(self, monkeypatch):
        params = QbmParams(1.0)
        gen = qbm_generators(params, DiskPoint(1.0, 0.0), 1.0)
        grid = M._log_grid(M._qbm_rate_scale(params), 200.0)
        monkeypatch.setattr(G, "_RADON_COND_MAX", 1.0)
        with pytest.raises(ConvergenceError):
            G.conditioned_purity_curve(gen, grid, G.qbm_information_start(params))
