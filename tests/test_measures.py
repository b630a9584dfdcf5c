import math
import weakref

import numpy as np
import pytest

from unravel import measures as M
from unravel import trajectories as T
from unravel import gaussian as G
from unravel.errors import (
    AssumptionError,
    BracketError,
    ConvergenceError,
    HorizonError,
    SimulationError,
)
from unravel.gaussian import DiskPoint, QbmParams
from unravel.systems import TlaParams

from oracles import direct_detection_threshold, qbm_efficiency_threshold as _threshold_by_brentq

FAST_MC = M.McOptions(n_traj=1500, dt=2e-3, seed=11)


class TestThetaThreshold:
    def test_invariant(self):
        with pytest.raises(ValueError):
            M.ThetaThreshold(theta=0.8, rho_ss_purity=0.5)

    def test_from_purity(self):
        th = M.ThetaThreshold.from_purity(7.0 / 9.0)
        assert th.theta == pytest.approx(8.0 / 9.0)

    def test_tla_theta_matches_bloch_solution(self):
        th, _ = M.tla_theta(TlaParams(1.0))
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

    def test_stack_is_worked_row_by_row(self):
        curve = M.CrossingCurve([0.0, 1.0, 2.0, 3.0],
                                [[0.5, 0.9, 0.2, 0.1],     # on theta at t = 0
                                 [0.5, 0.5, 0.5, 0.9],     # flat on theta
                                 [0.9, 0.85, 0.8, 0.7],    # never crosses
                                 [0.9, 0.7, 0.3, 0.1]],    # falls through
                                0.5)
        times, faults = M.first_crossing(curve)
        assert times.shape == faults.shape == (4,)
        assert times[0] == 0.0 and times[1] == 0.0
        assert times[3] == pytest.approx(1.5)
        assert faults[0] is None and faults[1] is None and faults[3] is None
        # the row that never crosses carries its own endpoints
        assert isinstance(faults[2], HorizonError)
        assert faults[2].first_value == 0.9 and faults[2].last_value == 0.7
        assert faults[2].threshold == 0.5
        with pytest.raises(HorizonError):
            M.first_crossing(M.CrossingCurve(curve.times, curve.values[2], 0.5))

    def test_stack_keeps_its_leading_shape(self):
        values = np.linspace(1.0, 0.0, 5)[None, None, :] * np.ones((2, 3, 1))
        times, faults = M.first_crossing(M.CrossingCurve(np.arange(5.0), values, 0.5))
        assert times.shape == faults.shape == (2, 3)
        assert np.all(times == 2.0) and not faults.astype(bool).any()


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

    @pytest.mark.parametrize("temp", (0.5, 100.0))
    def test_momentum_homodyne_failures_are_typed(self, temp):
        # the closed-form curves keep the undetectable point's verdicts
        params, u = QbmParams(temp), DiskPoint(1.0, math.pi)
        with pytest.raises(HorizonError):
            M.purification_time_qbm(params, u)
        for measure in (M.mixing_time_qbm, M.survival_time_qbm):
            with pytest.raises(ConvergenceError):
                measure(params, u)

    def test_rejected_decomposition_is_a_grid_failure(self, monkeypatch):
        # the error names how many points failed and the first one's cause
        monkeypatch.setattr(G, "_RADON_COND_MAX", 1.0)
        with pytest.raises(ConvergenceError, match=(
                r"^every grid point failed to converge \(97 of 97\); the first raised "
                r"ConvergenceError: ill-conditioned eigenbasis of the information flow$")):
            M.optimize_disk(QbmParams(1.0), "purification")

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


def _disk_grid():
    """The coarse grid of optimize_disk: 97 points."""
    for r in M._DISK_RINGS:
        phis = np.linspace(0.0, 2.0 * math.pi, M._DISK_PHI_POINTS, endpoint=False)
        for phi in (phis if r > 0 else phis[:1]):
            yield DiskPoint(r, phi)


class TestStackedQbmMeasures:
    @pytest.mark.parametrize("temp", (0.5, 1.0, 100.0))
    @pytest.mark.parametrize("kind", M.MEASURE_KINDS)
    def test_stack_matches_the_scalar_measure(self, temp, kind):
        # the coarse grid of optimize_disk as one stacked call, against the
        # scalar measure at every point: values and failures alike
        params, points = QbmParams(temp), list(_disk_grid())
        values, faults = M._qbm_values(kind, params, points)
        assert values.shape == faults.shape == (97,)
        failed = []
        for u, value, fault in zip(points, values, faults):
            try:
                want = M._QBM_MEASURES[kind](params, u).value
            except SimulationError as exc:
                assert type(fault) is type(exc)
                assert np.isnan(value)
                failed.append(u)
                continue
            assert fault is None
            assert abs(value - want) <= 1e-12 * abs(want)
        # pure momentum homodyne only
        assert [(u.r, u.phi) for u in failed] == [(1.0, pytest.approx(math.pi))]

    def test_scalar_failure_is_released(self):
        # a scalar measure raises the fault of its stack of one.  numpy object
        # arrays are invisible to the garbage collector, so a raised fault
        # that its own traceback kept in such an array would never be freed
        params, u = QbmParams(1.0), DiskPoint(1.0, math.pi)
        for measure in M._QBM_MEASURES.values():
            try:
                measure(params, u)
            except SimulationError as exc:
                released = weakref.ref(exc)
            assert released() is None


class TestQbmThresholdNewton:
    @pytest.mark.parametrize("temp", (0.01, 0.5, 1.0, 10.0, 100.0, 1000.0))
    def test_matches_brentq_reference_on_the_disk_grid(self, temp):
        params = QbmParams(temp)
        compared = 0
        for u in _disk_grid():
            try:
                got = M.efficiency_threshold_qbm(params, u).value
            except ConvergenceError:
                # only pure momentum homodyne has no stationary state
                assert u.r == 1.0 and u.phi == pytest.approx(math.pi)
                with pytest.raises(ConvergenceError):
                    _threshold_by_brentq(params, u)
                continue
            assert abs(got - _threshold_by_brentq(params, u)) <= 1e-11
            compared += 1
        assert compared == 96

    def test_singular_member_fails_alone(self):
        # a zero start zeroes that member's det row, so its Jacobian is
        # exactly singular; the other member runs as in a stack of one
        params, u = QbmParams(1.0), DiskPoint(1.0, 1.07)
        v = G.riccati_steady(G.qbm_generators(params, u, 1.0)).matrix
        target, lo, hi = 0.25 / M.QBM_THETA.theta ** 2, np.zeros(2), np.ones(2)
        alone = G.stationary_efficiency(G.qbm_generators(params, [u], 1.0), target,
                                        v[None], hi[:1], (lo[:1], hi[:1]))
        eta, accepted = G.stationary_efficiency(G.qbm_generators(params, [u, u], 1.0), target,
                                                np.stack([0.0 * v, v]), hi, (lo, hi))
        assert alone[1].tolist() == [True] and accepted.tolist() == [False, True]
        assert eta[1] == alone[0][0]

    def test_newton_accepts_every_disk_point_it_starts(self, monkeypatch):
        # every stacked threshold solve of the disk optimizer over eleven
        # decades of temperature: Newton accepts each member it starts (pure
        # momentum homodyne fails its probes and never starts).  Started at
        # the upper probe instead of the secant point, it left the bracket
        # [0, 0.25] at two T = 0.01 grid points, converging to eta = 0.668
        newton, counts = G.stationary_efficiency, []

        def spied(gen, target, v_start, eta_start, eta_range):
            eta, accepted = newton(gen, target, v_start, eta_start, eta_range)
            started = np.isfinite(v_start).all(axis=(1, 2)) & np.isfinite(eta_start)
            counts.append((started.sum(), (started & ~accepted).sum()))
            return eta, accepted
        monkeypatch.setattr(G, "stationary_efficiency", spied)
        for temp in (0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0, 1e3, 1e4, 1e5):
            M.optimize_disk(QbmParams(temp), "efficiency_threshold")
        n_started, n_rejected = np.sum(counts, axis=0)
        assert n_started > 1800 and n_rejected == 0
        params = QbmParams(0.01)
        for phi in (2.0 * math.pi * 7 / 24, 2.0 * math.pi * 17 / 24):
            u = DiskPoint(0.75, phi)
            got = M.efficiency_threshold_qbm(params, u).value
            assert 0.0 < got <= 0.25
            assert abs(got - _threshold_by_brentq(params, u)) <= 1e-11

    def test_rejected_member_fails_typed_and_is_released(self, monkeypatch):
        # with no Newton iteration no member converges: each holds a
        # ConvergenceError naming its bracket in its fault slot, and the
        # faults are freed with their stack.  numpy object arrays are
        # invisible to the garbage collector, so a fault whose traceback
        # reached its own array would never be freed
        monkeypatch.setattr(G, "_NEWTON_MAX_ITER", 0)
        stored, values = [], M._threshold_values

        def spied(params, points):
            eta, faults = values(params, points)
            stored.extend(weakref.ref(fault) for fault in faults if fault is not None)
            return eta, faults
        monkeypatch.setattr(M, "_threshold_values", spied)
        with pytest.raises(ConvergenceError, match=(
                r"^no efficiency threshold accepted in the bracket \[0, 0.25\]: "
                r"Newton reached eta = ")):
            M.efficiency_threshold_qbm(QbmParams(1.0), DiskPoint(0.5, 0.0))
        assert len(stored) == 1 and stored[0]() is None
        # 96 rejected roots, and pure momentum homodyne with its own fault
        with pytest.raises(ConvergenceError, match=(
                r"^every grid point failed to converge \(97 of 97\); the first raised "
                r"ConvergenceError: no efficiency threshold accepted in the bracket ")):
            M.optimize_disk(QbmParams(1.0), "efficiency_threshold")
        assert len(stored) == 98 and all(ref() is None for ref in stored)

    def test_monotonicity_message_lists_plain_floats(self, monkeypatch):
        # the probes' purities come as one (points, probes) array
        monkeypatch.setattr(G, "gaussian_purity", lambda v: np.broadcast_to(
            np.array([0.9, 0.8, 0.7, 0.6]), v.shape[:-2]))
        with pytest.raises(AssumptionError) as info:
            M.efficiency_threshold_qbm(QbmParams(1.0), DiskPoint(1.0, 0.0))
        assert "[0.9, 0.8, 0.7, 0.6]" in str(info.value)


class TestLogGrid:
    def test_cached_and_read_only(self):
        grid = M._log_grid(2.0, 200.0)
        assert M._log_grid(2.0, 200.0) is grid
        assert not grid.flags.writeable
        assert grid[0] == 0.0 and grid[-1] == 200.0 and len(grid) == 401


class TestSyntheticBisection:
    """efficiency_threshold_tla against a fake _long_run_purity: (E, n)
    per-trajectory long-run purities at the requested efficiencies."""

    P0 = 0.4

    def _fake(self, monkeypatch, curve, calls=None):
        # per-trajectory offsets shared by every efficiency, as common
        # random numbers give
        offsets = 1e-6 * np.random.default_rng(0).standard_normal(40)
        offsets -= offsets.mean()

        def fake_long_run(params, spec, etas, opts):
            if calls is not None:
                calls.append(list(etas))
            return curve(np.asarray(etas, dtype=float))[:, None] + offsets

        monkeypatch.setattr(M, "_long_run_purity", fake_long_run)
        monkeypatch.setattr(M, "tla_theta",
                            lambda params: (M.ThetaThreshold.from_purity(self.P0), None))

    def test_midpoint_threshold(self, monkeypatch):
        # p(eta) = p0 + (1 - p0) eta with theta = (1 + p0)/2 gives eta_thr = 1/2
        calls = []
        self._fake(monkeypatch, lambda eta: self.P0 + (1.0 - self.P0) * eta, calls)
        res = M.efficiency_threshold_tla(TlaParams(1.0), T.UnravellingSpec("homodyne_x"),
                                         M.McOptions())
        assert res.value == pytest.approx(0.5, abs=1e-9)
        # two passes: the probes, then the interior of the bracket [0.25, 0.5]
        assert calls == [[0.25, 0.5, 0.75, 1.0], [0.3125, 0.375, 0.4375]]
        meta = res.metadata
        assert meta["passes"] == 2
        assert meta["eta_grid"] == calls
        assert meta["jackknife_blocks"] == 20
        assert meta["long_run_purity"][0] == pytest.approx(
            [self.P0 + (1.0 - self.P0) * e for e in calls[0]], abs=1e-6)
        assert all(0.0 <= s < 1e-6 for row in meta["long_run_stderr"] for s in row)
        assert 0.0 < res.uncertainty < 1e-5

    def test_monotonicity_violation_detected(self, monkeypatch):
        self._fake(monkeypatch, lambda eta: 1.0 - 0.5 * eta)   # decreasing: unphysical
        with pytest.raises(AssumptionError):
            M.efficiency_threshold_tla(TlaParams(1.0), T.UnravellingSpec("homodyne_x"),
                                       M.McOptions())

    def test_unit_efficiency_below_theta_has_no_bracket(self, monkeypatch):
        self._fake(monkeypatch, lambda eta: self.P0 + 0.2 * eta)   # p(1) < theta = 0.7
        with pytest.raises(BracketError):
            M.efficiency_threshold_tla(TlaParams(1.0), T.UnravellingSpec("homodyne_x"),
                                       M.McOptions())


class TestThresholdCoverage:
    def test_direct_detection_covers_the_renewal_threshold(self):
        # exact at Omega = 5: every click resets the atom to |g>; seeds fixed
        # before the run, 8 of 10 within 2 reported sigma (nominal 95 %)
        exact = direct_detection_threshold(5.0)
        assert exact == pytest.approx(0.7551, abs=1e-4)
        z = []
        for seed in range(1, 11):
            res = M.efficiency_threshold_tla(TlaParams(5.0), T.UnravellingSpec("direct"),
                                             M.McOptions(n_traj=1000, dt=4e-3, seed=seed))
            z.append((res.value - exact) / res.uncertainty)
        assert sum(abs(v) <= 2.0 for v in z) >= 8, z


class TestTlaMeasures:
    def test_undriven_atom_purifies_instantly(self):
        res = M.purification_time(TlaParams(0.0), T.UnravellingSpec("direct"))
        assert res.value == 0.0
        assert res.metadata.get("degenerate") is True

    @pytest.mark.parametrize("measure", [M.mixing_time, M.survival_time,
                                         M.mixing_and_survival_tla])
    def test_undriven_atom_mixing_and_survival_are_degenerate(self, measure, monkeypatch):
        # a pure steady state (theta = 1) raises before any ensemble runs,
        # as the efficiency threshold does, instead of reading 0 +- inf
        def never(*args, **kwargs):
            raise AssertionError("an ensemble ran for a pure steady state")
        monkeypatch.setattr(T, "run_final_states", never)
        with pytest.raises(AssumptionError, match="steady state is already pure"):
            measure(TlaParams(0.0), T.UnravellingSpec("aid"), opts=FAST_MC)

    @pytest.mark.parametrize("seed", [-2, 1.5, True, "3"])
    def test_options_reject_a_seed_that_is_no_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            M.McOptions(n_traj=100, dt=1e-3, seed=seed)

    def test_weak_driving_homodyne_x_beats_heterodyne(self):
        params = TlaParams(0.4)
        hx = M.purification_time(params, T.UnravellingSpec("homodyne_x"), opts=FAST_MC)
        het = M.purification_time(params, T.UnravellingSpec("heterodyne"), opts=FAST_MC)
        gap = het.value - hx.value
        assert gap > 3.0 * math.hypot(hx.uncertainty, het.uncertainty)

    def test_mixing_and_survival_share_ensemble(self):
        params = TlaParams(2.0)
        mix, sur = M.mixing_and_survival_tla(params, T.UnravellingSpec("direct"), FAST_MC)
        assert mix.kind == "mixing" and sur.kind == "survival"
        assert mix.value > 0 and sur.value > 0
        # direct detection moves states fast: survival shorter than mixing
        assert sur.value < mix.value

    def test_dispatch_rejects_unknown_system(self):
        with pytest.raises(TypeError):
            M.purification_time(object(), T.UnravellingSpec("direct"))


def _record_search(monkeypatch):
    """Spy on optimize_disk: the disk points of each outermost _qbm_values
    stack (the grid, one per compass iteration, then the reported value's
    stack of one), and the (point, value) starts of each compass search."""
    stacks, starts, depth = [], [], [0]
    values, search = M._qbm_values, M._compass_search

    def stacked(kind, params, points):
        if not depth[0]:
            stacks.append(list(points))
        depth[0] += 1
        try:
            return values(kind, params, points)
        finally:
            depth[0] -= 1

    def recorded(objective, run):
        starts.append(list(run))
        return search(objective, run)
    monkeypatch.setattr(M, "_qbm_values", stacked)
    monkeypatch.setattr(M, "_compass_search", recorded)
    return stacks, starts


class TestOptimizeDisk:
    def test_boundary_optimum_and_reproducible_value(self, monkeypatch):
        monkeypatch.setattr(M, "_DISK_PHI_POINTS", 12)
        u, res = M.optimize_disk(QbmParams(1.0), "mixing")
        assert u.r >= 0.98
        again = M.mixing_time_qbm(QbmParams(1.0), u)
        assert again.value == res.value  # deterministic backend, same point

    def test_efficiency_threshold_minimized_near_position(self, monkeypatch):
        monkeypatch.setattr(M, "_DISK_PHI_POINTS", 12)
        u, res = M.optimize_disk(QbmParams(1.0), "efficiency_threshold")
        assert u.r >= 0.98
        assert min(u.phi, 2 * math.pi - u.phi) < 0.3
        worse = M.efficiency_threshold_qbm(QbmParams(1.0), DiskPoint(1.0, 1.5))
        assert res.value < worse.value

    def test_efficiency_threshold_optimum_off_grid(self, monkeypatch):
        # the threshold is a smooth function of phi, so the refinement must
        # leave the coarse grid point phi = 0 for the true optimum
        monkeypatch.setattr(M, "_DISK_PHI_POINTS", 12)
        u, _ = M.optimize_disk(QbmParams(1.0), "efficiency_threshold")
        gap = abs(u.phi - 6.2208) % (2 * math.pi)
        assert min(gap, 2 * math.pi - gap) < 0.005

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            M.optimize_disk(QbmParams(1.0), "entropy")

    @pytest.mark.parametrize("kind", M.MEASURE_KINDS)
    def test_refinement_stays_on_the_disk(self, kind, monkeypatch):
        # every point the compass search stacks lies on the disk (r clipped
        # to [0, 1]), and none twice.  At T = 1 the two best grid points are
        # neighbours, so one start
        stacks, starts = _record_search(monkeypatch)
        M.optimize_disk(QbmParams(1.0), kind)
        refined = [u for stack in stacks[1:-1] for u in stack]
        assert len(starts) == 1 and len(starts[0]) == 1
        assert len(refined) > 20
        assert all(0.0 <= u.r <= 1.0 for u in refined)
        assert len(set(refined)) == len(refined)

    def test_optimum_matches_frozen_fixture(self):
        # qbm-optimal at T = 1 before the refinement was bounded (with the
        # clamped objective); the bounded search lands within 1e-5 in phi
        frozen = {"purification": (6.256945796402095, 0.14359838907037265),
                  "efficiency_threshold": (6.220756483194276, 0.09107604800001352),
                  "mixing": (2.085797490354265, 1.164135207483991),
                  "survival": (1.0700955383170698, 1.3655343912134967)}
        for kind, (phi, value) in frozen.items():
            u, res = M.optimize_disk(QbmParams(1.0), kind)
            assert type(u.r) is float and u.r == 1.0
            assert abs(u.phi - phi) < 1e-5
            assert res.value == pytest.approx(value, rel=1e-10)

    @pytest.mark.parametrize("temp, frozen", [
        (0.5, {"purification": (6.270000196777346, 0.14378496713789274),
               "efficiency_threshold": (6.244417616210935, 0.05572106568515397),
               "mixing": (1.9386921913643134, 2.063199994859941),
               "survival": (0.4986911630859373, 2.9992170311062623)}),
        (100.0, {"purification": (6.090406580053999, 0.06123145432020953),
                 "efficiency_threshold": (6.2605675185546925, 0.23135475337605485),
                 "mixing": (2.0951686797609694, 0.06729604946497501),
                 "survival": (2.86163168408203, 0.037667126494427716)}),
    ])
    def test_benchmark_corners_match_frozen_fixture(self, temp, frozen):
        # the qbm-optimal benchmark's two temperatures, recorded while the
        # refinement still started from both of the two best grid points
        for kind, (phi, value) in frozen.items():
            u, res = M.optimize_disk(QbmParams(temp), kind)
            assert u.r == 1.0
            gap = abs(u.phi - phi) % (2 * math.pi)
            assert min(gap, 2 * math.pi - gap) < 1e-5
            assert res.value == pytest.approx(value, rel=1e-10)

    @pytest.mark.parametrize("temp, frozen", [
        (0.01, {"purification": (6.282921014357674, 0.1438750084402216),
                "efficiency_threshold": (6.282633323732292, 0.020432861443700677),
                "mixing": (0.07955474853515626, 5.9943511094332065),
                "survival": (0.011426136767689738, 11.986066142974584)}),
        (0.1, {"purification": (6.280543062713508, 0.14385645157907312),
               "efficiency_threshold": (6.27729287966365, 0.022795040377474783),
               "mixing": (0.7539871661040246, 5.315558364954579),
               "survival": (0.11102691650390623, 10.428362280192221)}),
        (0.5, {"purification": (6.270000414098389, 0.14378496713789526),
               "efficiency_threshold": (6.2444179839976215, 0.05572106568515569),
               "mixing": (1.9386925163518587, 2.0631999948599504),
               "survival": (0.4986909386842361, 2.9992170311062556)}),
        (1.0, {"purification": (6.256946028290325, 0.14359838907037495),
               "efficiency_threshold": (6.22075682740738, 0.09107604800001623),
               "mixing": (2.085797366751671, 1.1641352074839881),
               "survival": (1.0700958055911292, 1.3655343912134938)}),
        (2.0, {"purification": (6.231808672976689, 0.14282185715276807),
               "efficiency_threshold": (6.210016514007797, 0.128662861011161),
               "mixing": (2.1118668418703095, 0.6892576302866826),
               "survival": (1.6851942149784902, 0.6938838416063645)}),
        (5.0, {"purification": (6.169524695803988, 0.13829179436585762),
               "efficiency_threshold": (6.215799006114897, 0.16955625677906652),
               "mixing": (2.107777244157937, 0.371416450534834),
               "survival": (2.2236529148931954, 0.3218316931234052)}),
        (10.0, {"purification": (6.112459832954654, 0.12775633511637124),
                "efficiency_threshold": (6.22699251814541, 0.19215167116314014),
                "mixing": (2.102356864904854, 0.24242343252331733),
                "survival": (2.4682971513251575, 0.1899749818767539)}),
        (100.0, {"purification": (6.0904066102984, 0.06123145432020953),
                 "efficiency_threshold": (6.260567960616385, 0.2313547533760604),
                 "mixing": (2.0951687821541647, 0.0672960494649747),
                 "survival": (2.861631949872674, 0.03766712649442858)}),
        (1000.0, {"purification": (6.129521600532783, 0.02138739966708174),
                  "efficiency_threshold": (6.275520436964647, 0.24408004140986875),
                  "mixing": (2.0943071130398536, 0.02043240478168208),
                  "survival": (3.014678824872675, 0.00797769282089546)}),
        (10000.0, {"purification": (6.145654107856998, 0.006954062085928852),
                   "efficiency_threshold": (6.280709249648274, 0.24812589534138552),
                   "mixing": (2.0941271010440365, 0.006379815528937095),
                   "survival": (3.0829693203793536, 0.0017127243345417269)}),
        (100000.0, {"purification": (6.150816766548405, 0.0022181086055000783),
                    "efficiency_threshold": (6.282397480739413, 0.24940716134805205),
                    "mixing": (2.0940419225390583, 0.002009497621739503),
                    "survival": (3.114418204755488, 0.00036865453130417703)}),
    ])
    def test_wide_temperatures_match_frozen_fixture(self, temp, frozen):
        # recorded with the scalar Nelder-Mead refinement this search
        # replaced: each optimum lies on the rim, and only the grid's pure
        # momentum homodyne point fails
        for kind, (phi, value) in frozen.items():
            u, res = M.optimize_disk(QbmParams(temp), kind)
            assert u.r == 1.0
            gap = abs(u.phi - phi) % (2 * math.pi)
            assert min(gap, 2 * math.pi - gap) < 1e-5
            assert res.value == pytest.approx(value, rel=1e-10)
            assert res.metadata["grid_failures"] == 1

    @pytest.mark.parametrize("temp", (0.5, 100.0))
    @pytest.mark.parametrize("kind", M.MEASURE_KINDS)
    def test_work_per_optimum_is_bounded(self, temp, kind, monkeypatch):
        # stacked calls and disk points per optimum at the benchmark's two
        # corners, the grid's 97 points and the reported value's one
        # included; the scalar Nelder-Mead took about 55 calls
        stacks, _ = _record_search(monkeypatch)
        M.optimize_disk(QbmParams(temp), kind)
        assert len(stacks) <= 20
        assert sum(map(len, stacks)) <= 240

    def test_second_refinement_finds_the_deeper_basin(self, monkeypatch):
        # two narrow dips on the rim, nine phi steps apart: the shallow one
        # sits on a grid point and wins the grid, the deep one lies between
        # grid points, so only the runner-up's own start finds it
        step = 2 * math.pi / 24
        shallow, deep = 4 * step, 15 * step + 0.08

        def dip(phi, centre, depth):
            gap = (phi - centre + math.pi) % (2 * math.pi) - math.pi
            return depth * np.exp(-gap ** 2 / 0.0128)

        def f(r, phi):
            return 3.0 - 2.0 * r - r * (dip(phi, shallow, 0.5) + dip(phi, deep, 0.7))

        def values(kind, params, points):
            return (np.array([f(u.r, u.phi) for u in points]),
                    np.full(len(points), None, dtype=object))

        def measure(params, u):
            return M.MeasureResult("purification", float(f(u.r, u.phi)))
        monkeypatch.setattr(M, "_qbm_values", values)
        monkeypatch.setitem(M._QBM_MEASURES, "purification", measure)
        _, starts = _record_search(monkeypatch)
        u, res = M.optimize_disk(QbmParams(1.0), "purification")
        assert [[(u.r, u.phi) for u, _ in run] for run in starts] == [
            [(1.0, shallow), (1.0, 15 * step)]]
        assert u.r == 1.0
        assert abs(u.phi - deep) < 1e-4
        assert res.value == pytest.approx(0.3, abs=1e-9)

    @pytest.mark.parametrize("temp", (0.5, 100.0))
    def test_measure_path_starts_no_ode_solver(self, temp, monkeypatch):
        # every curve and stationary covariance the QBM measures read is
        # algebraic, on the default grid's undetectable phi = pi point too
        def no_ode(*args, **kwargs):
            pytest.fail("an ODE solver ran on the QBM measure path")
        monkeypatch.setattr(G, "solve_ivp", no_ode)
        for kind in M.MEASURE_KINDS:
            _, res = M.optimize_disk(QbmParams(temp), kind)
            assert res.metadata["grid_failures"] >= 1

    def test_failures_recorded_not_fatal(self, monkeypatch):
        monkeypatch.setattr(M, "_DISK_RINGS", (1.0,))
        monkeypatch.setattr(M, "_DISK_PHI_POINTS", 8)
        u, res = M.optimize_disk(QbmParams(1.0), "purification")
        # the phi = pi grid point cannot purify and must be skipped
        assert res.metadata["grid_failures"] >= 1
        assert u.r == 1.0


class TestRanking:
    def test_tiny_ensembles_unresolved(self):
        opts = M.McOptions(n_traj=12, dt=2e-3, seed=3)
        entries = M.rank_unravellings(TlaParams(2.0), "mixing",
                                      ("homodyne_x", "heterodyne"), opts)
        assert len(entries) == 2
        assert not entries[0].resolved_vs_next

    def test_survival_orders_aid_above_direct(self):
        opts = M.McOptions(n_traj=1200, dt=2e-3, seed=5)
        entries = M.rank_unravellings(TlaParams(2.0), "survival",
                                      ("direct", "aid"), opts)
        assert entries[0].scheme == "aid"
        assert entries[0].resolved_vs_next

    def test_purification_ranks_fastest_first(self):
        opts = M.McOptions(n_traj=1200, dt=2e-3, seed=5)
        entries = M.rank_unravellings(TlaParams(0.4), "purification",
                                      ("homodyne_x", "homodyne_y"), opts)
        assert entries[0].scheme == "homodyne_x"
        assert entries[0].value < entries[1].value
