import math

import numpy as np
import pytest

from unravel import measures as M
from unravel import trajectories as T
from unravel.errors import AssumptionError, HorizonError
from unravel.gaussian import DiskPoint, QbmParams
from unravel.systems import TlaParams

FAST_MC = M.McOptions(n_traj=1500, dt=2e-3, seed=11)


class TestThetaThreshold:
    def test_invariant(self):
        with pytest.raises(ValueError):
            M.ThetaThreshold(theta=0.8, rho_ss_purity=0.5)

    def test_from_purity(self):
        th = M.ThetaThreshold.from_purity(7.0 / 9.0)
        assert th.theta == pytest.approx(8.0 / 9.0)

    def test_tla_theta_matches_bloch_solution(self):
        th, _ = M.tla_theta(TlaParams(1.0, 1.0))
        assert th.rho_ss_purity == pytest.approx(7.0 / 9.0, abs=1e-9)


class TestFirstCrossing:
    def test_no_crossing_raises(self):
        curve = M.CrossingCurve([0.0, 1.0, 2.0], [0.9, 0.85, 0.8], 0.75)
        with pytest.raises(HorizonError) as err:
            M.first_crossing(curve)
        assert err.value.last_value == pytest.approx(0.8)

    def test_linear_interpolation(self):
        curve = M.CrossingCurve([0.0, 1.0], [1.0, 0.0], 0.75)
        assert M.first_crossing(curve) == pytest.approx(0.25)

    def test_earliest_of_two_crossings(self):
        curve = M.CrossingCurve([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 0.0, 1.0], 0.5)
        assert M.first_crossing(curve) == pytest.approx(0.5)

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            M.CrossingCurve([0.0, 0.0, 1.0], [1.0, 0.5, 0.0], 0.75)

    def test_threshold_at_start(self):
        curve = M.CrossingCurve([0.0, 1.0], [0.5, 1.0], 0.5)
        assert M.first_crossing(curve) == 0.0


class TestMeasureResult:
    def test_kind_checked(self):
        with pytest.raises(ValueError):
            M.MeasureResult("speed", 1.0)

    def test_efficiency_range_checked(self):
        with pytest.raises(ValueError):
            M.MeasureResult("efficiency_threshold", 1.4)


class TestQbmMeasures:
    def test_purification_time_positive_and_finite(self):
        res = M.purification_time(QbmParams(1.0), DiskPoint(1.0, 0.0))
        assert 0.0 < res.value < 10.0
        assert res.uncertainty == 0.0

    def test_purification_regression(self):
        # frozen from the information-form flow; the large-initial-covariance
        # limit is cross-validated in test_limit_of_finite_starts below
        res = M.purification_time_qbm(QbmParams(1.0), DiskPoint(1.0, 0.0))
        assert res.value == pytest.approx(0.14362, rel=1e-3)

    def test_limit_of_finite_starts(self):
        # purification from ever-larger finite covariances converges to the
        # information-form answer computed at the divergent start
        import unravel.gaussian as G
        from unravel.gaussian import CovarianceState, qbm_generators

        params = QbmParams(1.0)
        gen = qbm_generators(params, DiskPoint(1.0, 0.0), 1.0)
        ref = M.purification_time_qbm(params, DiskPoint(1.0, 0.0)).value
        crossings = []
        for big in (1e3, 1e5):
            grid = np.concatenate([[0.0], np.geomspace(1e-6, 5.0, 500)])
            v0 = CovarianceState(big, 1.0, 1.0)
            p = G.conditioned_purity_curve(gen, grid, np.linalg.inv(v0.matrix))
            crossings.append(M.first_crossing(M.CrossingCurve(grid, p, 0.5)))
        assert abs(crossings[1] - ref) < abs(crossings[0] - ref)
        assert crossings[1] == pytest.approx(ref, rel=1e-3)

    def test_momentum_homodyne_never_purifies(self):
        with pytest.raises(HorizonError):
            M.purification_time_qbm(QbmParams(1.0), DiskPoint(1.0, math.pi))

    def test_mixing_regression(self):
        res = M.mixing_time_qbm(QbmParams(1.0), DiskPoint(1.0, 2.086))
        assert res.value == pytest.approx(1.16414, rel=1e-3)

    def test_survival_below_one_or_horizon(self):
        res = M.survival_time_qbm(QbmParams(1.0), DiskPoint(1.0, 1.0))
        assert 0.0 < res.value < 50.0

    def test_efficiency_threshold_interval(self):
        res = M.efficiency_threshold(QbmParams(1.0), DiskPoint(1.0, 0.0))
        assert 0.0 < res.value < 1.0
        assert res.uncertainty <= 1e-3

    def test_efficiency_threshold_regression(self):
        res = M.efficiency_threshold_qbm(QbmParams(1.0), DiskPoint(1.0, 0.0))
        assert res.value == pytest.approx(0.0913, abs=2e-3)


class TestSyntheticBisection:
    def test_midpoint_threshold(self, monkeypatch):
        # p(eta) = p0 + (1 - p0) eta with theta halfway gives eta_thr = 1/2
        p0 = 0.4
        theta = 0.5 * (1.0 + p0)

        def fake_long_run(params, spec, eta, opts):
            return p0 + (1.0 - p0) * eta, 1e-9

        def fake_theta(params):
            return M.ThetaThreshold.from_purity(p0), None

        monkeypatch.setattr(M, "_long_run_purity", fake_long_run)
        monkeypatch.setattr(M, "tla_theta", fake_theta)
        res = M.efficiency_threshold_tla(TlaParams(1.0, 1.0), T.homodyne_x(),
                                         M.McOptions(eta_tol=1e-4))
        # theta halfway: p0 + (1-p0) eta = (1+p0)/2  ->  eta = 1/2
        assert res.value == pytest.approx(0.5, abs=2e-4)
        assert theta == pytest.approx(p0 + (1 - p0) * 0.5)

    def test_monotonicity_violation_detected(self, monkeypatch):
        def fake_long_run(params, spec, eta, opts):
            return 1.0 - 0.5 * eta, 1e-9  # decreasing: unphysical

        monkeypatch.setattr(M, "_long_run_purity", fake_long_run)
        with pytest.raises(AssumptionError):
            M.efficiency_threshold_tla(TlaParams(1.0, 1.0), T.homodyne_x(),
                                       M.McOptions())


class TestTlaMeasures:
    def test_undriven_atom_purifies_instantly(self):
        res = M.purification_time(TlaParams(0.0, 1.0), T.direct())
        assert res.value == 0.0
        assert res.metadata.get("degenerate") is True

    def test_weak_driving_homodyne_x_beats_heterodyne(self):
        params = TlaParams(0.4, 1.0)
        hx = M.purification_time(params, T.homodyne_x(), opts=FAST_MC)
        het = M.purification_time(params, T.heterodyne(), opts=FAST_MC)
        gap = het.value - hx.value
        assert gap > 3.0 * math.hypot(hx.uncertainty, het.uncertainty)

    def test_mixing_and_survival_share_ensemble(self):
        params = TlaParams(2.0, 1.0)
        mix, sur = M.mixing_and_survival_tla(params, T.direct(), FAST_MC)
        assert mix.kind == "mixing" and sur.kind == "survival"
        assert mix.value > 0 and sur.value > 0
        # direct detection moves states fast: survival shorter than mixing
        assert sur.value < mix.value

    def test_dispatch_rejects_unknown_system(self):
        with pytest.raises(TypeError):
            M.purification_time(object(), T.direct())


class TestOptimizeDisk:
    def test_boundary_optimum_and_reproducible_value(self):
        u, res = M.optimize_disk(QbmParams(1.0), "mixing", phi_points=12)
        assert u.r >= 0.98
        again = M.mixing_time_qbm(QbmParams(1.0), u)
        assert again.value == res.value  # deterministic backend, same point

    def test_efficiency_threshold_minimized_near_position(self):
        u, res = M.optimize_disk(QbmParams(1.0), "efficiency_threshold",
                                 phi_points=12)
        assert u.r >= 0.98
        assert min(u.phi, 2 * math.pi - u.phi) < 0.3
        worse = M.efficiency_threshold_qbm(QbmParams(1.0), DiskPoint(1.0, 1.5))
        assert res.value < worse.value

    def test_efficiency_threshold_optimum_off_grid(self):
        # the threshold is a smooth function of phi, so the refinement must
        # leave the coarse grid point phi = 0 for the true optimum
        u, _ = M.optimize_disk(QbmParams(1.0), "efficiency_threshold",
                               phi_points=12)
        gap = abs(u.phi - 6.2208) % (2 * math.pi)
        assert min(gap, 2 * math.pi - gap) < 0.005

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            M.optimize_disk(QbmParams(1.0), "entropy")

    def test_failures_recorded_not_fatal(self):
        u, res = M.optimize_disk(QbmParams(1.0), "purification",
                                 r_grid=(1.0,), phi_points=8, refine=False)
        # the phi = pi grid point cannot purify and must be skipped
        assert res.metadata["grid_failures"] >= 1
        assert u.r == 1.0


class TestRanking:
    def test_tiny_ensembles_unresolved(self):
        opts = M.McOptions(n_traj=12, dt=2e-3, seed=3)
        entries = M.rank_unravellings(TlaParams(2.0, 1.0), "mixing",
                                      ("homodyne_x", "heterodyne"), opts)
        assert len(entries) == 2
        assert not entries[0].resolved_vs_next

    def test_survival_orders_aid_above_direct(self):
        opts = M.McOptions(n_traj=1200, dt=2e-3, seed=5)
        entries = M.rank_unravellings(TlaParams(2.0, 1.0), "survival",
                                      ("direct", "aid"), opts)
        assert entries[0].scheme == "aid"
        assert entries[0].resolved_vs_next

    def test_purification_ranks_fastest_first(self):
        opts = M.McOptions(n_traj=1200, dt=2e-3, seed=5)
        entries = M.rank_unravellings(TlaParams(0.4, 1.0), "purification",
                                      ("homodyne_x", "homodyne_y"), opts)
        assert entries[0].scheme == "homodyne_x"
        assert entries[0].value < entries[1].value
