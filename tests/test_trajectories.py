import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import expm

from unravel import measures as M
from unravel import trajectories as T
from unravel.errors import InvariantViolationError, SimulationError, StepSizeError
from unravel.gaussian import CovarianceState, DiskPoint, QbmParams
from unravel.hilbert import (
    PAULI_X,
    SIGMA_MINUS,
    DensityMatrix,
    FockWorkspace,
    LindbladModel,
    _no_jump_generator,
    dag,
    lindblad_rhs,
    propagate,
    purity,
    steady_state,
    trace_distance,
)
from unravel.systems import TlaParams, build_qbm_oracle, build_tla, gaussian_density_matrix

import oracles

EXCITED = DensityMatrix(np.diag([1.0, 0.0]))
GROUND = DensityMatrix(np.diag([0.0, 1.0]))


def tla(omega=2.0):
    return TlaParams(rabi=omega)


ALL_SCHEMES = ["homodyne_x", "homodyne_y", "heterodyne", "direct", "aid"]


class TestSpecTypes:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            T.UnravellingSpec("parity")

    def test_eta_range(self):
        with pytest.raises(ValueError):
            T.UnravellingSpec("homodyne_x", 1.2)

    @pytest.mark.parametrize("seed", [-1, 2.0, False, None])
    def test_config_rejects_a_seed_that_is_no_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            T.TrajectoryConfig(1e-3, 1.0, seed=seed)
        T.TrajectoryConfig(1e-3, 1.0, seed=np.int64(3))

    def test_general_dyne_needs_disk(self):
        with pytest.raises(ValueError):
            T.UnravellingSpec("general_dyne", 1.0)

    def test_channel_weights_resolve_emission(self):
        for spec in (T.UnravellingSpec("homodyne_x"), T.UnravellingSpec("homodyne_y"),
                     T.UnravellingSpec("heterodyne"),
                     T.UnravellingSpec("general_dyne", disk=DiskPoint(0.6, 1.1))):
            total = sum(abs(z) ** 2 for z in spec.channel_coefficients())
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_general_dyne_limits_match_named(self):
        hom = T.UnravellingSpec("general_dyne", disk=DiskPoint(1.0, 0.0)).channel_coefficients()
        assert hom == pytest.approx([1.0 + 0.0j])
        het = T.UnravellingSpec("general_dyne", disk=DiskPoint(0.0, 0.0)).channel_coefficients()
        assert het == pytest.approx(T.UnravellingSpec("heterodyne").channel_coefficients())

    def test_record_invariants(self):
        with pytest.raises(InvariantViolationError):
            T.InnovationRecord(jump_times=(0.5, 0.4))
        with pytest.raises(InvariantViolationError):
            T.InnovationRecord(jump_times=(0.5,), lo_signs=(1.0, -1.0))


class TestStepDiffusive:
    def test_eta_zero_ignores_noise(self):
        model = build_tla(tla())
        spec = T.UnravellingSpec("homodyne_x", 0.0)
        rho = DensityMatrix(np.array([[0.7, 0.2], [0.2, 0.3]]))
        out1 = T.step_diffusive(model, spec, rho, [3.0 * math.sqrt(1e-3)], 1e-3)
        out2 = T.step_diffusive(model, spec, rho, [-2.0 * math.sqrt(1e-3)], 1e-3)
        assert np.abs(out1.matrix - out2.matrix).max() < 1e-14
        ref = propagate(model, rho, 1e-3)
        assert trace_distance(out1, ref) < 1e-5

    def test_one_step_mean_matches_deterministic(self):
        model = build_tla(tla())
        spec = T.UnravellingSpec("heterodyne", 0.8)
        rho = DensityMatrix(np.array([[0.6, 0.1j], [-0.1j, 0.4]]))
        dt = 1e-3
        rng = np.random.default_rng(0)
        n = 10_000
        acc = np.zeros((2, 2), dtype=complex)
        worst_trace = 0.0
        for _ in range(n):
            noise = rng.standard_normal(2) * math.sqrt(dt)
            out = T.step_diffusive(model, spec, rho, noise, dt).matrix
            acc += out
            worst_trace = max(worst_trace, abs(np.trace(out) - 1.0))
        # the Kraus kernel steps unnormalised coordinates; the state it hands
        # back is divided by its trace
        assert worst_trace < 1e-12
        mean = acc / n
        ref = rho.matrix + dt * lindblad_rhs(model, rho)
        # statistical tolerance ~ 3 * |b| sqrt(dt/n), plus O(dt^2) bias
        assert np.abs(mean - ref).max() < 3.0 * math.sqrt(dt / n) + 5e-6

    def test_efficient_step_keeps_pure_states_pure(self):
        model = build_tla(tla())
        rho = EXCITED
        for _ in range(20):
            rho = T.step_diffusive(model, T.UnravellingSpec("homodyne_x", 1.0), rho,
                                   [0.7 * math.sqrt(1e-4)], 1e-4)
        assert purity(rho) == pytest.approx(1.0, abs=1e-10)

    def test_wrong_channel_count(self):
        model = build_tla(tla())
        with pytest.raises(ValueError):
            T.step_diffusive(model, T.UnravellingSpec("heterodyne", 1.0), EXCITED, [0.1], 1e-3)


class TestStepJump:
    def test_ground_state_never_clicks(self):
        model = build_tla(TlaParams(rabi=0.0))
        out, jumped = T.step_jump(model, T.UnravellingSpec("direct", 1.0), GROUND, 0.0001, 1e-3)
        assert not jumped
        assert trace_distance(out, GROUND) < 1e-12

    def test_excited_click_probability_first_order(self):
        model = build_tla(TlaParams(rabi=0.0))
        dt = 1e-3
        kernel = T._SuperopJumpKernel(model, T.UnravellingSpec("direct", 1.0), dt)
        y = kernel.initial(EXCITED.matrix[None, :, :])
        y_prop = kernel.props[0][0] @ y[0]   # sign +1, first (only) efficiency
        p = 1.0 - float(y_prop @ kernel.tr_vec)
        assert p == pytest.approx(dt, rel=2e-3)

    def test_click_projects_to_ground(self):
        model = build_tla(TlaParams(rabi=0.0))
        out, jumped = T.step_jump(model, T.UnravellingSpec("direct", 1.0), EXCITED, 0.0, 1e-3)
        assert jumped
        assert trace_distance(out, GROUND) < 1e-12

    def test_oversized_step_rejected(self):
        model = build_tla(TlaParams(rabi=0.0))
        with pytest.raises(StepSizeError):
            T.step_jump(model, T.UnravellingSpec("direct", 1.0), EXCITED, 0.5, 0.2)

    def test_diffusive_spec_rejected(self):
        model = build_tla(tla())
        with pytest.raises(ValueError):
            T.step_jump(model, T.UnravellingSpec("homodyne_x", 1.0), EXCITED, 0.5, 1e-3)


class TestRunTrajectory:
    def test_zero_horizon(self):
        model = build_tla(tla())
        res = T.run_trajectory(model, T.UnravellingSpec("homodyne_x", 1.0), EXCITED,
                               T.TrajectoryConfig(1e-3, 0.0, seed=1))
        assert len(res.states) == 1
        assert trace_distance(res.states[0], EXCITED) == 0.0

    def test_same_seed_identical(self):
        model = build_tla(tla())
        cfg = T.TrajectoryConfig(1e-3, 0.5, seed=9, sample_stride=50)
        r1 = T.run_trajectory(model, T.UnravellingSpec("heterodyne", 0.7), EXCITED, cfg)
        r2 = T.run_trajectory(model, T.UnravellingSpec("heterodyne", 0.7), EXCITED, cfg)
        assert all(np.array_equal(a.matrix, b.matrix)
                   for a, b in zip(r1.states, r2.states))
        assert np.array_equal(r1.record.wiener, r2.record.wiener)

    def test_different_seeds_differ(self):
        model = build_tla(tla())
        cfg1 = T.TrajectoryConfig(1e-3, 0.5, seed=9)
        cfg2 = T.TrajectoryConfig(1e-3, 0.5, seed=10)
        r1 = T.run_trajectory(model, T.UnravellingSpec("homodyne_x", 1.0), EXCITED, cfg1)
        r2 = T.run_trajectory(model, T.UnravellingSpec("homodyne_x", 1.0), EXCITED, cfg2)
        assert trace_distance(r1.states[-1], r2.states[-1]) > 1e-6

    def test_efficient_trajectory_stays_pure(self):
        model = build_tla(tla())
        cfg = T.TrajectoryConfig(1e-4, 1.0, seed=3, sample_stride=200)
        res = T.run_trajectory(model, T.UnravellingSpec("homodyne_x", 1.0), EXCITED, cfg)
        assert min(purity(s) for s in res.states) > 0.999

    def test_aid_record_tracks_flips(self):
        model = build_tla(tla(omega=3.0))
        # AID clicks are rare (a few per 10/gamma here), so run long
        # enough for several flips
        cfg = T.TrajectoryConfig(1e-3, 30.0, seed=12, sample_stride=1000)
        res = T.run_trajectory(model, T.UnravellingSpec("aid", 1.0), EXCITED, cfg)
        signs = res.record.lo_signs
        assert len(signs) == len(res.record.jump_times)
        assert len(signs) >= 2
        assert set(np.unique(signs)).issubset({-1.0, 1.0})
        # alternating by construction: sign after k-th flip is (-1)^(k+1)
        expect = [(-1.0) ** (k + 1) for k in range(len(signs))]
        assert list(signs) == expect


class TestRunEnsemble:
    def test_mean_state_matches_unconditional(self):
        model = build_tla(tla())
        cfg = T.TrajectoryConfig(1e-3, 2.0, seed=21, sample_stride=250)
        for name in ALL_SCHEMES:
            spec = T.UnravellingSpec(name, eta=0.8 if name != "aid" else 1.0)
            curve = T.run_ensemble(model, spec, EXCITED, cfg, 400,
                                   statistic="mean_state")
            for t, m in zip(curve.times, curve.states):
                if t == 0:
                    continue
                ref = propagate(model, EXCITED, float(t))
                dist = trace_distance(DensityMatrix(m), ref)
                # 3/sqrt(N) statistical + O(dt) discretization allowance
                assert dist < 3.0 / math.sqrt(400) + 0.02, (name, t, dist)

    @pytest.mark.parametrize("kind", ALL_SCHEMES)
    def test_zero_horizon_reports_the_start_state(self, kind):
        # a horizon-0 run goes through its kernel like any other: the start
        # state's round trip through the coordinates
        model, spec = build_tla(tla()), T.UnravellingSpec(kind, 0.6)
        rho0 = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])
        cfg = T.TrajectoryConfig(1e-3, 0.0, seed=4)
        curve = T.run_ensemble(model, spec, rho0, cfg, 8)
        mean = T.run_ensemble(model, spec, rho0, cfg, 8, statistic="mean_state")
        finals = T.run_final_states(model, spec, rho0, cfg, 8)
        assert np.array_equal(curve.times, [0.0]) and np.array_equal(mean.times, [0.0])
        assert np.array_equal(curve.mean, [purity(rho0)])
        assert np.array_equal(finals, np.broadcast_to(rho0, finals.shape))
        assert np.abs(mean.states[0] - rho0).max() <= 1e-15

    def test_zero_horizon_purified_start_is_the_first_sample(self):
        # at d = 30 and eta = 1 the bundle drops rho0's eigenvalues below
        # _PURIFIED_WEIGHT_CUT of the largest and renormalises: a horizon-0
        # run reports that bundle, as the first sample of a longer run does
        model, ws = build_qbm_oracle(QbmParams(0.5), 30)
        rho0 = gaussian_density_matrix(ws, CovarianceState(0.8, 0.8, 0.0)).matrix
        spec = T.UnravellingSpec("heterodyne", 1.0)
        zero = T.TrajectoryConfig(2e-3, 0.0, seed=3)
        assert isinstance(T._select_kernel(model, spec, rho0, 2e-3, None),
                          T._PurifiedKernel)
        curve = T.run_ensemble(model, spec, rho0, zero, 4)
        longer = T.run_ensemble(model, spec, rho0, T.TrajectoryConfig(2e-3, 0.01, seed=3), 4)
        finals = T.run_final_states(model, spec, rho0, zero, 4)
        assert np.array_equal(curve.mean, longer.mean[:1])
        vals = np.linalg.eigvalsh(rho0)
        dropped = vals[vals <= T._PURIFIED_WEIGHT_CUT * vals.max()].sum()
        assert 0.0 < dropped <= len(vals) * T._PURIFIED_WEIGHT_CUT
        assert abs(curve.mean[0] - purity(rho0)) <= 2.0 * dropped
        assert np.abs(finals - rho0).max() <= 2.0 * dropped

    @pytest.mark.parametrize("kind,eta", [("heterodyne", 0.5), ("homodyne_x", 1.0)])
    def test_long_coarse_run_keeps_final_states_normalised(self, monkeypatch, kind, eta):
        # 100,000 unnormalised Kraus steps at a coarse dt and one sample at
        # the end: each step maps y as it maps y / tr, so the kernel's own
        # trace stays within one step of 1 (a linear map left alone grows it
        # to 1e30-1e240 here)
        traces, to_matrices = [], T._KrausDiffusiveKernel.to_matrices

        def spy(kernel, y):
            traces.append(y[:, :kernel.dim].sum(axis=1))
            return to_matrices(kernel, y)

        monkeypatch.setattr(T._KrausDiffusiveKernel, "to_matrices", spy)
        model = build_tla(tla())
        cfg = T.TrajectoryConfig(0.02, 2000.0, seed=12)
        finals = T.run_final_states(model, T.UnravellingSpec(kind, eta), EXCITED, cfg, 64)
        assert np.abs(np.log(traces[-1])).max() < 1.0
        assert np.isfinite(finals).all()
        assert np.abs(np.trace(finals, axis1=1, axis2=2) - 1.0).max() < 1e-12
        assert np.linalg.eigvalsh(finals).min() >= -1e-12

    def test_stderr_scaling_with_n(self):
        # eta < 1 so per-trajectory purities actually spread out
        model = build_tla(tla())
        cfg = T.TrajectoryConfig(2e-3, 1.0, seed=5, sample_stride=250)
        small = T.run_ensemble(model, T.UnravellingSpec("homodyne_x", 0.6), EXCITED, cfg, 200)
        large = T.run_ensemble(model, T.UnravellingSpec("homodyne_x", 0.6), EXCITED, cfg, 800)
        ratio = small.stderr[1:] / large.stderr[1:]
        # quadrupling N halves the standard error within 25 percent slack
        assert np.all(ratio > 1.5)
        assert np.all(ratio < 2.5)

    CHUNK_CFG = T.TrajectoryConfig(2e-3, 0.5, seed=8, sample_stride=50)
    CHUNK_CASES = [(spec, statistic)
                   for spec in (T.UnravellingSpec("heterodyne", 1.0), T.UnravellingSpec("aid", 1.0),
                                T.UnravellingSpec("direct", 0.7))
                   for statistic in ("purity", "mean_state")]

    def _chunk_runs(self):
        """(ensemble, final states) of 256 trajectories for every CHUNK_CASES case."""
        model = build_tla(tla())
        return [(T.run_ensemble(model, spec, EXCITED, self.CHUNK_CFG, 256, statistic),
                 T.run_final_states(model, spec, EXCITED, self.CHUNK_CFG, 256))
                for spec, statistic in self.CHUNK_CASES]

    def _assert_runs_agree(self, runs, refs, exact_kinds):
        close = lambda a, b: np.abs(a - b).max() < 1e-12
        for (spec, statistic), (run, finals), (ref, ref_finals) in zip(
                self.CHUNK_CASES, runs, refs):
            exact = np.array_equal if spec.kind in exact_kinds else close
            case = (spec.kind, statistic)
            assert exact(finals, ref_finals), case
            if statistic == "purity":
                assert exact(run.mean, ref.mean), case
            else:
                assert exact(run.states, ref.states), case

    def test_chunking_does_not_change_result(self, monkeypatch):
        refs = self._chunk_runs()
        # force 64-trajectory chunks: every scheme's states, purity means and
        # mean states (summed group by group) agree to the bit
        monkeypatch.setattr(T, "_MAX_SUPEROP_CHUNK", 64)
        chunks = []
        iter_chunks = T._iter_chunks

        def counted_chunks(n_traj, chunk):
            spans = list(iter_chunks(n_traj, chunk))
            chunks.append(len(spans))
            return spans

        monkeypatch.setattr(T, "_iter_chunks", counted_chunks)
        self._assert_runs_agree(self._chunk_runs(), refs, ALL_SCHEMES)
        assert chunks == [4] * 2 * len(self.CHUNK_CASES)

    def test_noise_budget_changes_only_counting_rounding(self, monkeypatch):
        refs = self._chunk_runs()
        # heterodyne noise blocks of 7 steps, which do not divide the 250
        # steps: heterodyne agrees to the bit.  The budget also places the
        # counting kernel's carry-only checkpoints, between the samples here,
        # so the counting schemes agree only to rounding
        monkeypatch.setattr(T, "_NOISE_BLOCK_BYTES", 256 * 2 * 8 * 7)
        draws = []
        noise_plan = T._noise_plan

        def counted_plan(spec, n_steps, rng):
            draws.append(n_steps)
            return noise_plan(spec, n_steps, rng)

        monkeypatch.setattr(T, "_noise_plan", counted_plan)
        self._assert_runs_agree(self._chunk_runs(), refs, ("heterodyne",))
        assert max(draws) == 7 and min(draws) < 7

    @pytest.mark.parametrize("n", [256, 300])
    def test_group_sums_do_not_depend_on_chunking(self, n):
        # the sums of any chunking into whole groups, the last partial
        # group included, are one sum to the bit
        rng = np.random.default_rng(n)
        for values in (rng.uniform(0.5, 1.0, n), rng.normal(size=(n, 2, 2)) * (1 + 1j)):
            whole = T._add_by_group(np.zeros(values.shape[1:]), values)
            for chunk in (64, 128, 192):
                total = np.zeros(values.shape[1:])
                for first in range(0, n, chunk):
                    total = T._add_by_group(total, values[first:first + chunk])
                assert np.array_equal(total, whole), chunk
            assert np.abs(whole - values.sum(axis=0)).max() < 1e-12

    @pytest.mark.parametrize("kind,eta,dim", [
        (kind, eta, 2) for kind in ("direct", "aid", "homodyne_x", "heterodyne")
        for eta in (0.6, 1.0)] + [("homodyne_x", 0.7, 30), ("homodyne_x", 1.0, 30)])
    def test_mean_states_are_exactly_hermitian(self, kind, eta, dim):
        # every kernel behind "mean_state" hands back exactly Hermitian states
        # (real coordinates at d = 2, at d = 30 the bundle's outer products at
        # eta = 1 and the matrix kernel's symmetrising below), so their mean
        # needs no symmetrising either
        if dim == 2:
            model, rho0 = build_tla(tla()), EXCITED
        else:
            model, ws = build_qbm_oracle(QbmParams(1.0), dim)
            rho0 = gaussian_density_matrix(ws, CovarianceState(1.0, 1.0, 0.0))
        spec = T.UnravellingSpec(kind, eta)
        cfg = T.TrajectoryConfig(2e-3, 0.2, seed=4, sample_stride=25)
        if dim > 8:
            kernel = T._select_kernel(model, spec, rho0.matrix, 2e-3, None)
            assert isinstance(kernel, T._PurifiedKernel if eta == 1.0
                              else T._MatrixDiffusiveKernel)
        states = T.run_ensemble(model, spec, rho0, cfg, 16, "mean_state").states
        assert np.array_equal(states, np.conj(np.swapaxes(states, 1, 2)))
        # the Kraus kernel's unnormalised states are read off normalised
        assert np.abs(np.trace(states, axis1=1, axis2=2) - 1.0).max() < 1e-12
        assert np.abs(states[-1] - states[0]).max() > 1e-3

    def test_member_matches_run_trajectory(self):
        model = build_tla(tla())
        cfg = T.TrajectoryConfig(2e-3, 0.4, seed=17, sample_stride=100)
        for spec in (T.UnravellingSpec("homodyne_y", 1.0), T.UnravellingSpec("aid", 1.0),
                     T.UnravellingSpec("direct", 0.7)):
            single = T.run_trajectory(model, spec, EXCITED, cfg, traj_index=3)
            finals = T.run_final_states(model, spec, EXCITED, cfg, 5)
            assert np.abs(finals[3] - single.states[-1].matrix).max() < 1e-12, spec.kind

    def test_purity_curve_needs_two(self):
        model = build_tla(tla())
        cfg = T.TrajectoryConfig(1e-3, 0.1, seed=1)
        with pytest.raises(ValueError):
            T.run_ensemble(model, T.UnravellingSpec("homodyne_x", 1.0), EXCITED, cfg, 1)

    @pytest.mark.parametrize("n", [0, 1])
    def test_final_states_need_two(self, n):
        # one state has no spread: the survival estimate would be NaN
        model = build_tla(tla())
        cfg = T.TrajectoryConfig(1e-3, 0.1, seed=1)
        with pytest.raises(ValueError, match="at least 2"):
            T.run_final_states(model, T.UnravellingSpec("direct", 1.0), EXCITED, cfg, n)


class TestKernelReferences:
    """The real-basis kernels against complex-matrix references, step by step."""

    RHO = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])

    @pytest.mark.parametrize("dim", [2, 8])
    def test_coordinates_round_trip(self, dim):
        rng = np.random.default_rng(dim)
        a = rng.uniform(-1, 1, (5, dim, dim)) + 1j * rng.uniform(-1, 1, (5, dim, dim))
        herm = 0.5 * (a + np.conj(np.swapaxes(a, 1, 2)))
        model = build_tla(tla()) if dim == 2 else build_qbm_oracle(QbmParams(1.0), dim)[0]
        kernel = T._KrausDiffusiveKernel(model, T.UnravellingSpec("heterodyne"), 1e-3)
        y = kernel.initial(herm)
        assert y.shape == (5, dim * dim) and y.T.flags.c_contiguous
        back = T._from_coords(y, dim)
        assert np.abs(back - herm).max() < 1e-15
        assert np.array_equal(back, np.conj(np.swapaxes(back, 1, 2)))
        # the Kraus kernel's states are unnormalised: it hands them back
        # divided by their trace
        tr = np.trace(herm, axis1=1, axis2=2).real[:, None, None]
        assert np.abs(kernel.to_matrices(y) * tr - herm).max() < 1e-14

    @pytest.mark.parametrize("kind", ["homodyne_x", "heterodyne"])
    @pytest.mark.parametrize("eta", [0.5, 1.0])
    def test_kraus_kernel_matches_the_matrix_kernel(self, kind, eta):
        # the matrix kernel builds the same M rho M^dag plus leak on
        # complex matrices, trajectory by trajectory
        model, spec, dt, n = build_tla(tla(5.0)), T.UnravellingSpec(kind, eta), 4e-3, 64
        kraus = T._KrausDiffusiveKernel(model, spec, dt)
        matrix = T._MatrixDiffusiveKernel(model, spec, dt)
        start = np.broadcast_to(self.RHO, (n, 2, 2))
        y, rho = kraus.initial(start), matrix.initial(start)
        noise = math.sqrt(dt) * np.random.default_rng(7).standard_normal(
            (400, n, T.noise_width(spec)))
        worst = 0.0
        for dw in noise:
            y, rho = kraus.step(y, dw), matrix.step(rho, dw)
            # the Kraus kernel's coordinates are unnormalised between
            # samples; the matrix kernel renormalises every step
            tr = y[:, :2].sum(axis=1)[:, None, None]
            worst = max(worst, np.abs(T._from_coords(y, 2) / tr - rho).max())
        assert worst < 1e-10
        # the run moved the states: the check is not of a fixed point
        assert np.abs(rho - self.RHO).max() > 0.1

    @pytest.mark.parametrize("kind", ["direct", "aid"])
    @pytest.mark.parametrize("eta", [0.7, 1.0])
    @pytest.mark.parametrize("gamma", [1.0, 2.0])
    def test_jump_kernel_matches_the_matrix_reference(self, kind, eta, gamma):
        # the atom at Omega = 5 with emission rate gamma, in absolute units: at
        # gamma = 2 the kernel's local oscillator must scale as sqrt(gamma)
        model = LindbladModel(2.5 * PAULI_X, [math.sqrt(gamma) * SIGMA_MINUS])
        spec, dt, n = T.UnravellingSpec(kind, eta), 4e-3, 64
        beta = 0.5 * math.sqrt(gamma) if kind == "aid" else 0.0
        kernel = T._SuperopJumpKernel(model, spec, dt)
        start = np.broadcast_to(self.RHO, (n, 2, 2))
        y, rho = kernel.initial(start), start.astype(complex)
        signs, ref_signs = np.ones(n), np.ones(n)
        uniforms = np.random.default_rng(11).random((400, n))
        clicks, worst = 0, 0.0
        for u in uniforms:
            y, jumped = kernel.step(y, u[:, None], signs)
            rho, ref_jumped, ref_signs = oracles.counting_step(
                model, eta, beta, rho, u, ref_signs, dt)
            assert np.array_equal(jumped, ref_jumped)
            assert np.array_equal(signs, ref_signs)
            clicks += int(jumped.sum())
            worst = max(worst, np.abs(kernel.to_matrices(y) - rho).max())
        assert worst < 1e-10
        assert clicks > 20
        if kind == "aid":
            assert (signs < 0).any() and (signs > 0).any()


class TestEfficiencyStack:
    """One pass at several efficiencies, rows eta-major over shared noise."""

    ETAS = (0.25, 0.5, 0.75, 1.0)

    def test_each_block_matches_a_run_at_that_efficiency(self, monkeypatch):
        # at Omega = 5 over 3/gamma, AID clicks often enough that every eta
        # block carries both local-oscillator signs at once
        model = build_tla(tla(5.0))
        cfg = T.TrajectoryConfig(4e-3, 3.0, seed=21, sample_stride=20)
        mixed = []
        advance = T._SuperopJumpKernel._advance

        def recording(sampler, y, table, *args):
            # a row's table is sign * E + eta; rows are eta-major
            n_eta = len(sampler.props[0])
            minus = (table // n_eta).reshape(n_eta, -1) == 1
            mixed.append(bool((minus.any(axis=1) & (~minus).any(axis=1)).all()))
            return advance(sampler, y, table, *args)

        monkeypatch.setattr(T._SuperopJumpKernel, "_advance", recording)
        for spec in (T.UnravellingSpec("direct"), T.UnravellingSpec("aid"),
                     T.UnravellingSpec("heterodyne")):
            mixed.clear()
            stacked = T.run_purity_averages(model, spec, EXCITED, cfg, 48, self.ETAS,
                                            M._threshold_window(cfg))
            assert stacked.shape == (len(self.ETAS), 48)
            if spec.kind == "aid":
                assert any(mixed)
            for e, eta in enumerate(self.ETAS):
                alone = T.run_purity_averages(model, spec, EXCITED, cfg, 48, (eta,),
                                              M._threshold_window(cfg))
                assert np.array_equal(stacked[e], alone[0]), (spec.kind, eta)

    @pytest.mark.parametrize("name, value, exact_kinds", [
        # 256 rows hold one group of 64 trajectories at 4 efficiencies: every
        # scheme to the bit
        ("_MAX_SUPEROP_CHUNK", 256, ("heterodyne", "aid", "direct")),
        # heterodyne noise blocks of 7 steps, and counting checkpoints
        # between the samples: heterodyne to the bit, counting to rounding
        ("_NOISE_BLOCK_BYTES", 256 * 2 * 8 * 7, ("heterodyne",)),
    ], ids=["chunking", "budget"])
    def test_chunking_does_not_change_averages(self, monkeypatch, name, value, exact_kinds):
        model = build_tla(tla())
        cfg = T.TrajectoryConfig(2e-3, 0.5, seed=8, sample_stride=50)
        specs = (T.UnravellingSpec("heterodyne"), T.UnravellingSpec("aid"),
                 T.UnravellingSpec("direct"))
        refs = [T.run_purity_averages(model, spec, EXCITED, cfg, 256, self.ETAS,
                                      M._threshold_window(cfg)) for spec in specs]
        monkeypatch.setattr(T, name, value)
        chunks = []
        iter_chunks = T._iter_chunks

        def counted_chunks(n_traj, chunk):
            spans = list(iter_chunks(n_traj, chunk))
            chunks.append(len(spans))
            return spans

        monkeypatch.setattr(T, "_iter_chunks", counted_chunks)
        for spec, ref in zip(specs, refs):
            split = T.run_purity_averages(model, spec, EXCITED, cfg, 256, self.ETAS,
                                          M._threshold_window(cfg))
            if spec.kind in exact_kinds:
                assert np.array_equal(split, ref), spec.kind
            else:
                assert np.abs(split - ref).max() < 1e-12, spec.kind
        assert chunks == [4 if name == "_MAX_SUPEROP_CHUNK" else 1] * len(specs)

    def test_window_is_the_last_quarter_of_the_purity_curve(self):
        # the efficiency threshold's own long run, against the purity curve of
        # the same run at that efficiency
        atom, opts = M._atom(tla(), None), M.McOptions(n_traj=40, dt=2e-3, seed=4)
        averages = M._long_run_purity(atom, T.UnravellingSpec("homodyne_x"), (0.6,), opts)
        cfg = T.TrajectoryConfig(opts.dt, M._TLA_ETA_TIME, seed=opts.seed,
                                 sample_stride=M._TLA_SAMPLE_STRIDE)
        curve = T.run_ensemble(atom.model, T.UnravellingSpec("homodyne_x", 0.6), atom.rho_ss,
                               cfg, opts.n_traj)
        k = len(curve.times) // 4
        assert averages.mean() == pytest.approx(curve.mean[-k:].mean(), abs=1e-14)

    @pytest.mark.parametrize("kind", ALL_SCHEMES)
    def test_zero_horizon_keeps_the_start_purity(self, kind):
        model, spec = build_tla(tla()), T.UnravellingSpec(kind)
        cfg = T.TrajectoryConfig(1e-3, 0.0, seed=4)
        averages = T.run_purity_averages(model, spec, EXCITED, cfg, 8, (0.6, 1.0), [0])
        assert np.array_equal(averages, np.ones((2, 8)))

    def test_spec_efficiency_is_rejected(self):
        # the stack sets the efficiencies; a spec's own eta would be ignored
        model, cfg = build_tla(tla()), T.TrajectoryConfig(1e-3, 0.1, seed=4)
        with pytest.raises(ValueError, match="spec.eta must be 1"):
            T.run_purity_averages(model, T.UnravellingSpec("heterodyne", 0.3), EXCITED, cfg, 8,
                                  (0.7,), [100])

    def test_stacks_need_small_dimension(self):
        model, _ = build_qbm_oracle(QbmParams(1.0), 12)
        rho0 = np.diag([1.0] + [0.0] * 11)
        with pytest.raises(ValueError):
            T._select_kernel(model, T.UnravellingSpec("heterodyne"), rho0, 1e-3, (0.5, 1.0))
        # a stack of one too: the averages read purities off real coordinates
        with pytest.raises(ValueError):
            T.run_purity_averages(model, T.UnravellingSpec("heterodyne"), rho0,
                                  T.TrajectoryConfig(1e-3, 0.01), 2, (1.0,), [10])

    @pytest.mark.parametrize("dim", [2, 8])
    def test_coordinate_purity_is_the_matrix_purity(self, dim):
        rng = np.random.default_rng(dim)
        a = rng.standard_normal((50, dim, dim)) + 1j * rng.standard_normal((50, dim, dim))
        mats = a @ np.conj(np.swapaxes(a, 1, 2))
        mats /= np.trace(mats, axis1=1, axis2=2).real[:, None, None]
        # both layouts: the Kraus kernel's column-major batch, the counting
        # kernel's row-major one
        for y in (T._KrausDiffusiveKernel.initial(None, mats), T._coords(mats)):
            ref = T._batch_purity(T._from_coords(y, dim))
            assert np.abs(T._coord_purity(y) - ref).max() <= 1e-15


class TestEventSampler:
    """Event-driven counting runs against the counting kernel stepped one window at a time."""

    RHO = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])

    @pytest.mark.parametrize("kind", ["direct", "aid"])
    def test_survival_is_the_product_of_stepped_traces(self, kind):
        # S(m) = y . t_m against the product of the stepped kernel's
        # per-step no-click traces, for every table: (sign, eta) for
        # eta in {0.25, 1}, both LO signs for AID
        model = build_tla(tla(5.0))
        etas, n_steps = (0.25, 1.0), 1000
        sampler = T._SuperopJumpKernel(model, T.UnravellingSpec(kind), 4e-3, etas)
        sampler.prepare(n_steps, 1)
        n = sampler.tr_vec.size
        traces = sampler.traces.reshape(-1, n_steps + 1, n)
        y0 = sampler.initial(self.RHO[None, :, :])[0]
        for sign in range(len(sampler.props)):
            y = sampler.initial(np.broadcast_to(self.RHO, (len(etas), 2, 2)))
            signs = np.full(len(etas), -1.0 if sign else 1.0)
            survival = np.ones((n_steps + 1, len(etas)))
            for m in range(1, n_steps + 1):
                no_click = np.stack([sampler.props[sign][e] @ y[e] for e in range(len(etas))])
                survival[m] = survival[m - 1] * (no_click @ sampler.tr_vec)
                # u = 1 never clicks, so the signs stay put
                y, jumped = sampler.step(y, np.ones((1, 1)), signs)
                assert not jumped.any()
            assert survival[-1].min() < 0.5
            for e in range(len(etas)):
                event = traces[sign * len(etas) + e] @ y0
                np.testing.assert_allclose(event, survival[:, e], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kind, eta, lo_sign",
                             [("direct", 0.25, 1.0), ("direct", 1.0, 1.0),
                              ("aid", 1.0, 1.0), ("aid", 0.25, -1.0)])
    def test_forced_click_is_the_post_click_state_of_step_jump(self, kind, eta, lo_sign):
        # u = 0 forces the click: step_jump's post-click state against the
        # same window on complex matrices
        model = build_tla(tla(5.0))
        spec, dt = T.UnravellingSpec(kind, eta), 4e-3
        state, jumped = T.step_jump(model, spec, DensityMatrix(self.RHO), 0.0, dt, lo_sign)
        beta = 0.5 if kind == "aid" else 0.0
        ref, ref_jumped, _ = oracles.counting_step(model, eta, beta, self.RHO[None, :, :],
                                                   np.zeros(1), np.array([lo_sign]), dt)
        assert jumped and ref_jumped[0]
        assert np.abs(state.matrix - ref[0]).max() < 1e-12

    def test_click_without_emission_raises(self):
        # an undriven atom in its ground state has nothing to emit
        model = build_tla(TlaParams(rabi=0.0))
        sampler = T._SuperopJumpKernel(model, T.UnravellingSpec("direct"), 1e-3)
        with pytest.raises(SimulationError, match="post-click trace"):
            sampler._click(sampler.initial(GROUND.matrix[None, :, :]), np.array([0]))

    def test_rising_survival_raises(self):
        # a no-click map that gains trace makes S(m) rise: no waiting-time law
        model = build_tla(tla(5.0))
        sampler = T._SuperopJumpKernel(model, T.UnravellingSpec("aid"), 4e-3)
        sampler.props = [1.01 * p for p in sampler.props]
        with pytest.raises(SimulationError, match="survival rises"):
            sampler.prepare(100, 1)

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_cholesky_screen_agrees_with_eigvalsh(self, d):
        # random Hermitian stacks whose lowest eigenvalue sits just above
        # zero, inside the survival tolerance, or beyond it
        rng = np.random.default_rng(d)
        tol, lows = T._SURVIVAL_RISE_TOL, np.array([1e-13, -5e-13, -2e-12])
        z = rng.normal(size=(60, d, d)) + 1j * rng.normal(size=(60, d, d))
        q = np.linalg.qr(z)[0]
        spectrum = rng.uniform(0.01, 1.0, size=(60, d))
        spectrum[:, 0] = lows[np.arange(60) % 3]
        mats = (q * spectrum[:, None, :]) @ q.conj().mT
        mats = 0.5 * (mats + mats.conj().mT)
        screen = T._positive_definite(mats + tol * np.eye(d))
        verdict = np.linalg.eigvalsh(mats).min(axis=-1) >= -tol
        assert np.array_equal(screen, verdict)
        assert np.array_equal(verdict, spectrum[:, 0] > -tol)

    def test_passing_prepare_calls_no_eigvalsh(self, monkeypatch):
        sampler = T._SuperopJumpKernel(build_tla(tla(5.0)), T.UnravellingSpec("aid"), 4e-3,
                                       (0.25, 1.0))

        def eigvalsh(*args, **kwargs):
            raise AssertionError("eigvalsh ran although every table passed the screen")

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        sampler.prepare(1000, 25)

    def test_counting_runs_use_the_sampler(self):
        model = build_tla(tla())
        kernel = T._select_kernel(model, T.UnravellingSpec("aid"), EXCITED.matrix, 1e-3, None)
        # one counting kernel, no subclass of it
        assert type(kernel) is T._SuperopJumpKernel

    def test_trajectory_clicks_are_the_stepped_kernels(self):
        # the sampler's click steps and LO signs for one AID trajectory
        # against the stepped kernel fed the uniforms that reproduce them:
        # a window clicks exactly when its uniform falls below its click
        # probability, so u = 1 between the logged clicks and u = 0 at them
        model = build_tla(tla(3.0))
        cfg = T.TrajectoryConfig(1e-3, 10.0, seed=12, sample_stride=1000)
        res = T.run_trajectory(model, T.UnravellingSpec("aid", 1.0), EXCITED, cfg)
        steps = np.rint(np.array(res.record.jump_times) / 1e-3).astype(int)
        assert len(steps) >= 2
        n_steps, dt, sample_idx = cfg.grid()
        kernel = T._SuperopJumpKernel(model, T.UnravellingSpec("aid", 1.0), dt)
        y, signs = kernel.initial(EXCITED.matrix[None, :, :]), np.ones(1)
        states, seen = [], []
        for step in range(1, n_steps + 1):
            y, jumped = kernel.step(y, np.array([[0.0 if step in steps else 1.0]]), signs)
            if jumped[0]:
                seen.append((step, signs[0]))
            if step in sample_idx:
                states.append(kernel.to_matrices(y)[0])
        assert seen == list(zip(steps, res.record.lo_signs))
        worst = max(np.abs(a.matrix - b).max() for a, b in zip(res.states[1:], states))
        assert worst < 1e-10

    def test_counting_tables_fit_the_block_budget(self):
        # direct detection of a driven d = 8 oscillator over 8,000 steps,
        # whose final states have the horizon as their one checkpoint:
        # uncapped, the powers would hold 8,001 matrices of 64 x 64 (262 MB)
        d = 8
        a = np.diag(np.sqrt(np.arange(1.0, d)), 1)
        model = LindbladModel(0.5 * (a + a.T).astype(complex), (a.astype(complex),))
        rho0 = np.diag([0.0, 1.0] + [0.0] * (d - 2))
        cfg = T.TrajectoryConfig(1e-3, 8.0, seed=3)
        T.run_final_states(model, T.UnravellingSpec("direct"), rho0, cfg, 2)   # warm caches
        tracemalloc.start()
        try:
            finals = T.run_final_states(model, T.UnravellingSpec("direct"), rho0, cfg, 64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * T._NOISE_BLOCK_BYTES, peak
        assert np.allclose(np.trace(finals, axis1=1, axis2=2), 1.0)

    def test_carry_only_checkpoints_change_rounding_only(self, monkeypatch):
        # a budget that caps the atom's powers at 99 steps adds carry-only
        # checkpoints to a run over 2,000 steps
        model = build_tla(tla(5.0))
        cfg = T.TrajectoryConfig(1e-3, 2.0, seed=5, sample_stride=500)
        cases = [(spec, statistic)
                 for spec in (T.UnravellingSpec("direct", 0.7), T.UnravellingSpec("aid"))
                 for statistic in ("purity", "mean_state")]
        refs = [T.run_ensemble(model, spec, EXCITED, cfg, 128, statistic)
                for spec, statistic in cases]
        ref_finals = [T.run_final_states(model, spec, EXCITED, cfg, 128) for spec, _ in cases]
        hops = []
        prepare = T._SuperopJumpKernel.prepare

        def recording(sampler, n_steps, hop):
            hops.append(hop)
            return prepare(sampler, n_steps, hop)

        monkeypatch.setattr(T._SuperopJumpKernel, "prepare", recording)
        monkeypatch.setattr(T, "_NOISE_BLOCK_BYTES", 4 * 4 * 8 * 100 * 2)
        for (spec, statistic), ref, finals in zip(cases, refs, ref_finals):
            capped = T.run_ensemble(model, spec, EXCITED, cfg, 128, statistic)
            got = capped.mean if statistic == "purity" else capped.states
            want = ref.mean if statistic == "purity" else ref.states
            assert np.abs(got - want).max() < 1e-12, (spec.kind, statistic)
            assert np.abs(T.run_final_states(model, spec, EXCITED, cfg, 128)
                          - finals).max() < 1e-12, spec.kind
        assert max(hops) <= 199 and min(hops) <= 99

    @pytest.mark.slow
    @pytest.mark.parametrize("kind", ["direct", "aid"])
    def test_agrees_with_the_stepped_kernel(self, kind):
        # independent seeds, n = 20,000: long-run purities at four
        # efficiencies (the threshold setting) and a purity curve, against
        # the same runs stepped one window at a time (oracles.stepped_counting)
        params = TlaParams(5.0)
        model = build_tla(params)
        rho_ss = steady_state(model).matrix
        spec, n = T.UnravellingSpec(kind), 20_000
        long_cfg = T.TrajectoryConfig(4e-3, 20.0, seed=31, sample_stride=20)
        curve_cfg = T.TrajectoryConfig(4e-3, 4.0, seed=31, sample_stride=100)
        etas = (0.25, 0.5, 0.75, 1.0)

        def summary(averages, mean, stderr):
            return (np.concatenate([averages.mean(axis=1), mean]),
                    np.concatenate([averages.std(axis=1, ddof=1) / math.sqrt(n), stderr]))

        curve = T.run_ensemble(model, spec, rho_ss, curve_cfg, n)
        event, event_err = summary(
            T.run_purity_averages(model, spec, rho_ss, long_cfg, n, etas,
                                  M._threshold_window(long_cfg)),
            curve.mean[1:], curve.stderr[1:])

        n_steps, dt, _ = long_cfg.grid()
        window = set(M._threshold_window(long_cfg).tolist())
        acc = np.zeros(len(etas) * n)
        for step, y in oracles.stepped_counting(model, spec, rho_ss, dt, n_steps, n, 32, etas):
            if step in window:
                acc += T._coord_purity(y)
        n_steps, dt, sample_idx = curve_cfg.grid()
        curve = [T._coord_purity(y) for step, y in
                 oracles.stepped_counting(model, spec, rho_ss, dt, n_steps, n, 33)
                 if step in sample_idx]
        stepped, stepped_err = summary(
            (acc / len(window)).reshape(len(etas), n), [p.mean() for p in curve],
            [p.std(ddof=1) / math.sqrt(n) for p in curve])
        z = (event - stepped) / np.hypot(event_err, stepped_err)
        assert np.abs(z).max() < 3.0, z

    @pytest.mark.slow
    @pytest.mark.parametrize("kind", ["direct", "aid"])
    def test_final_states_agree_with_the_stepped_kernel(self, kind, monkeypatch):
        # independent seeds, n = 20,000: mixing and survival times at
        # Omega = 2 gamma from event-driven final states, against the same
        # measures from final states stepped one window at a time
        params, spec = TlaParams(2.0), T.UnravellingSpec(kind)
        opts = M.McOptions(n_traj=20_000, seed=31)
        event = M.mixing_and_survival_tla(params, spec, opts)

        def stepped_final_states(model, spec, rho0, config, n_traj):
            n_steps, dt, _ = config.grid()
            for _, y in oracles.stepped_counting(model, spec, rho0, dt, n_steps, n_traj, 32):
                pass
            return T._from_coords(y, model.dim)

        monkeypatch.setattr(T, "run_final_states", stepped_final_states)
        stepped = M.mixing_and_survival_tla(params, spec, opts)
        for a, b in zip(event, stepped):
            z = (a.value - b.value) / math.hypot(a.uncertainty, b.uncertainty)
            assert abs(z) < 3.0, (a.kind, a.value, b.value, z)


class TestClickStreams:
    """Click uniforms: one SFC64 stream per group of _GROUP trajectories."""

    def _reference(self, seed, n, k_max):
        draw = T._click_uniforms(seed, 0, n)
        k = np.arange(k_max)
        return np.stack([draw(np.full(k_max, i), k) for i in range(n)])

    def test_uniforms_depend_on_the_trajectory_alone(self, monkeypatch):
        # every uniform a run takes, keyed by (trajectory, click), against
        # one whole draw of 200 trajectories
        seed, k_max = 6, 3 * T._CLICK_DRAW
        ref = self._reference(seed, 200, k_max)
        assert np.array_equal(self._reference(seed, 70, k_max), ref[:70])
        seen, spans = {}, []
        click_uniforms = T._click_uniforms

        def recording(seed, start, stop):
            spans.append((start, stop))
            draw = click_uniforms(seed, start, stop)

            def spy(traj, k):
                out = draw(traj, k)
                for i, j, u in zip(traj + start, k, out):
                    seen.setdefault((int(i), int(j)), set()).add(float(u))
                return out
            return spy

        monkeypatch.setattr(T, "_click_uniforms", recording)
        model = build_tla(tla(5.0))
        cfg = T.TrajectoryConfig(4e-3, 2.0, seed=seed, sample_stride=50)
        etas = (0.25, 0.5, 0.75, 1.0)
        for n in (70, 200):
            T.run_purity_averages(model, T.UnravellingSpec("aid"), EXCITED, cfg, n, etas,
                                  M._threshold_window(cfg))
        # 256 rows hold one group at 4 efficiencies: chunks (0, 64) and the
        # partial group (64, 70)
        monkeypatch.setattr(T, "_MAX_SUPEROP_CHUNK", 256)
        T.run_purity_averages(model, T.UnravellingSpec("aid"), EXCITED, cfg, 70, etas,
                              M._threshold_window(cfg))
        # single trajectories draw their groups whole, each a split group
        for index in (5, 67):
            T.run_trajectory(model, T.UnravellingSpec("aid"), EXCITED, cfg, traj_index=index)
        assert spans == [(0, 70), (0, 200), (0, 64), (64, 70), (5, 6), (67, 68)]
        assert max(k for _, k in seen) > 0
        for (i, k), values in seen.items():
            assert values == {ref[i, k]}, (i, k)

    def test_one_stream_per_group(self, monkeypatch):
        # 2,000 trajectories at two efficiencies fit one chunk
        counts = {"click": 0, "noise": 0, "trajectory": 0}
        group_stream, trajectory_rng = T._group_stream, T.trajectory_rng

        def counted_group(seed, group, *tag):
            counts["noise" if tag else "click"] += 1
            return group_stream(seed, group, *tag)

        def counted_trajectory(*args):
            counts["trajectory"] += 1
            return trajectory_rng(*args)

        monkeypatch.setattr(T, "_group_stream", counted_group)
        monkeypatch.setattr(T, "trajectory_rng", counted_trajectory)
        cfg = T.TrajectoryConfig(4e-3, 0.4, seed=2, sample_stride=25)
        T.run_purity_averages(build_tla(tla(5.0)), T.UnravellingSpec("direct"), EXCITED, cfg, 2000,
                              (0.5, 1.0), M._threshold_window(cfg))
        assert counts == {"click": 32, "noise": 0, "trajectory": 0}


class TestStreamFamilies:
    """Click, noise and trajectory_rng streams never share a key or a draw."""

    SEED, GROUPS = 3, 40

    def _families(self):
        groups = range(self.GROUPS)
        return {"click": [T._group_stream(self.SEED, g) for g in groups],
                "noise": [T._group_stream(self.SEED, g, T._NOISE_TAG) for g in groups],
                "trajectory": [T.trajectory_rng(self.SEED, i)
                               for i in range(self.GROUPS * T._GROUP)]}

    def test_families_never_share_a_spawn_key(self):
        keys = {name: {rng.bit_generator.seed_seq.spawn_key for rng in rngs}
                for name, rngs in self._families().items()}
        assert [len(k) for k in keys.values()] == [self.GROUPS, self.GROUPS,
                                                   self.GROUPS * T._GROUP]
        assert not keys["click"] & keys["noise"]
        assert not (keys["click"] | keys["noise"]) & keys["trajectory"]

    def test_families_draw_different_numbers(self):
        firsts = [u for rngs in self._families().values() for rng in rngs
                  for u in rng.random(4)]
        assert len(set(firsts)) == len(firsts)


class TestNoiseStream:
    """Diffusive noise: one SFC64 stream per group of _GROUP trajectories."""

    def _whole(self, spec, n_steps, dt, seed, rows):
        # trajectory i: column i mod G of one whole-horizon draw of group i // G
        groups = {g: T._noise_plan(spec, n_steps, T._group_stream(seed, g, T._NOISE_TAG))
                  for g in {i // T._GROUP for i in rows}}
        return math.sqrt(dt) * np.stack([groups[i // T._GROUP][..., i % T._GROUP]
                                         for i in rows])

    def test_blocks_concatenate_to_whole_draw(self, monkeypatch):
        # rows 60..69 straddle groups 0 and 1, so a block is 128 columns wide
        n_steps, dt, seed, rows = 50, 2e-3, 9, range(60, 70)
        for spec in (T.UnravellingSpec("homodyne_x", 1.0), T.UnravellingSpec("heterodyne", 1.0)):
            k = T.noise_width(spec)
            whole = self._whole(spec, n_steps, dt, seed, rows)
            for steps in (1, 7, 49, 50):
                monkeypatch.setattr(T, "_NOISE_BLOCK_BYTES", 2 * T._GROUP * k * 8 * steps)
                # the blocks share one buffer, so each is copied as it comes
                blocks = [b.copy() for b in T._noise_blocks(spec, n_steps, dt, seed,
                                                          rows.start, rows.stop)]
                assert [b.shape[1] for b in blocks[:-1]] == [steps] * (len(blocks) - 1)
                assert np.array_equal(np.concatenate(blocks, axis=1), whole), (
                    spec.kind, steps)

    def test_wiener_record_is_the_scaled_draw(self, monkeypatch):
        model = build_tla(tla())
        cfg = T.TrajectoryConfig(2e-3, 0.5, seed=13, sample_stride=50)
        n_steps, dt, _ = cfg.grid()
        spec = T.UnravellingSpec("heterodyne", 1.0)
        for index in (2, 70):
            whole = self._whole(spec, n_steps, dt, cfg.seed, [index])[0]
            for block_bytes in (T._NOISE_BLOCK_BYTES, T._GROUP * 2 * 8 * 11):
                monkeypatch.setattr(T, "_NOISE_BLOCK_BYTES", block_bytes)
                record = T.run_trajectory(model, spec, EXCITED, cfg, traj_index=index).record
                assert np.array_equal(record.wiener, whole), (index, block_bytes)

    def test_a_chunk_builds_one_noise_stream_per_group(self, monkeypatch):
        streams, spans = [], []
        group_stream, iter_chunks = T._group_stream, T._iter_chunks

        def counted_stream(seed, group, *tag):
            streams.append(tag)
            return group_stream(seed, group, *tag)

        def counted_chunks(n_traj, chunk):
            spans.extend(iter_chunks(n_traj, chunk))
            return list(iter_chunks(n_traj, chunk))

        monkeypatch.setattr(T, "_group_stream", counted_stream)
        monkeypatch.setattr(T, "_iter_chunks", counted_chunks)
        model, cfg = build_tla(tla()), T.TrajectoryConfig(2e-3, 0.1, seed=4)
        monkeypatch.setattr(T, "_MAX_SUPEROP_CHUNK", 128)
        T.run_final_states(model, T.UnravellingSpec("heterodyne", 1.0), EXCITED, cfg, 200)
        assert spans == [(0, 128), (128, 200)]
        # chunks of b rows build ceil(b / 64) streams each
        assert streams == [(T._NOISE_TAG,)] * (2 + 2)

    def test_noise_memory_stays_within_block_budget(self, monkeypatch):
        # heterodyne final states of 256 trajectories over 1000 steps: a
        # whole-horizon draw would hold 256 * 1000 * 2 * 8 B = 4.1 MB
        model = build_tla(tla())
        cfg = T.TrajectoryConfig(2e-3, 2.0, seed=4)
        budget = 2 ** 18
        monkeypatch.setattr(T, "_NOISE_BLOCK_BYTES", budget)
        # warm caches
        T.run_final_states(model, T.UnravellingSpec("heterodyne", 1.0), EXCITED, cfg, 8)
        tracemalloc.start()
        try:
            T.run_final_states(model, T.UnravellingSpec("heterodyne", 1.0), EXCITED, cfg, 256)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * budget, peak


class TestJumpStatistics:
    def test_waiting_time_exponential(self):
        # Omega = 0 direct detection from the excited state
        model = build_tla(TlaParams(rabi=0.0))
        dt = 1e-3
        n = 10_000
        kernel = T._SuperopJumpKernel(model, T.UnravellingSpec("direct", 1.0), dt)
        y = kernel.initial(np.broadcast_to(EXCITED.matrix, (n, 2, 2)))
        signs = np.ones(n)
        first = np.full(n, np.nan)
        noise = np.stack([T.trajectory_rng(5, i).random((12_000, 1))
                          for i in range(n)])
        for step in range(12_000):
            y, jumped = kernel.step(y, noise[:, step, :], signs)
            newly = jumped & np.isnan(first)
            first[newly] = (step + 1) * dt
        seen = first[~np.isnan(first)]
        assert len(seen) > 0.99 * n
        _, p_value = stats.kstest(seen, "expon", args=(0, 1.0))
        assert p_value > 0.05


class TestPurifiedPath:
    def test_agrees_with_density_matrix_path(self, monkeypatch):
        params = QbmParams(0.5)
        model, ws = build_qbm_oracle(params, 30)
        rho0 = gaussian_density_matrix(ws, CovarianceState(0.8, 0.8, 0.0)).matrix
        spec = T.UnravellingSpec("general_dyne", 1.0, DiskPoint(1.0, 0.0))
        cfg = T.TrajectoryConfig(2e-3, 0.6, seed=7, sample_stride=100)
        _, dt, _ = cfg.grid()
        assert isinstance(T._select_kernel(model, spec, rho0, dt, None),
                          T._PurifiedKernel)
        pure = T.run_ensemble(model, spec, rho0, cfg, 120)
        monkeypatch.setattr(T, "_select_kernel",
                            lambda *a: T._MatrixDiffusiveKernel(model, spec, dt))
        dm = T.run_ensemble(model, spec, rho0, cfg, 120)
        for a, sa, b, sb in zip(pure.mean[1:], pure.stderr[1:],
                                dm.mean[1:], dm.stderr[1:]):
            assert abs(a - b) < 3.0 * math.sqrt(sa ** 2 + sb ** 2) + 2e-3

    @staticmethod
    def _dense_reference(kernel, model, spec, psi, noise):
        """The kernel's bundle psi, taken to the caller's basis (a copy) and
        stepped through `noise` by the dense reference step."""
        c = model.jump_operators[0]
        prop = expm(_no_jump_generator(model) * kernel.dt)
        zs = np.array(spec.channel_coefficients())
        ref = psi[..., kernel.inverse]
        for dw in noise:
            ref = oracles.purified_step(c, prop, zs, kernel.weights, kernel.dt, ref, dw)
        return ref

    @pytest.mark.parametrize("shift, spec, sizes", [
        (0.0, T.UnravellingSpec("general_dyne", 1.0, DiskPoint(1.0, 0.0)), [30, 30]),
        (0.3, T.UnravellingSpec("heterodyne", 1.0), [60]),
    ], ids=["oracle-parity", "parity-broken"])
    def test_block_step_matches_dense_reference(self, shift, spec, sizes):
        # the oracle's generator conserves Fock parity (two blocks); a
        # linear term in H breaks it (one block, the dense step)
        model, ws = build_qbm_oracle(QbmParams(0.5), 60)
        model = LindbladModel(model.hamiltonian + shift * ws.position, model.jump_operators)
        rho0 = gaussian_density_matrix(ws, CovarianceState(1.0, 1.0, 0.0)).matrix
        kernel = T._PurifiedKernel(model, spec, rho0, 2e-3)
        assert [blk.stop - blk.start for blk in kernel.blocks] == sizes
        noise = np.random.default_rng(17).standard_normal(
            (1000, 4, len(spec.channel_coefficients()))) * math.sqrt(kernel.dt)
        psi = kernel.initial(np.broadcast_to(rho0, (4, 60, 60)))
        ref = self._dense_reference(kernel, model, spec, psi, noise)
        for dw in noise:
            psi = kernel.step(psi, dw)
        assert np.abs(psi[..., kernel.inverse] - ref).max() < 1e-12

    def test_states_come_back_in_the_callers_basis(self):
        # purity does not see the block permutation, so only matrices catch a
        # missing inverse; a rank-4 start mixing both parities keeps every
        # eigenvalue above the bundle's weight cut, so the bundle is rho0 exactly
        model, _ = build_qbm_oracle(QbmParams(0.5), 30)
        rng = np.random.default_rng(5)
        vecs = np.linalg.qr(rng.standard_normal((30, 4)) + 1j * rng.standard_normal((30, 4)))[0]
        rho0 = (vecs * [0.4, 0.3, 0.2, 0.1]) @ vecs.conj().T
        spec = T.UnravellingSpec("general_dyne", 1.0, DiskPoint(1.0, 0.0))
        kernel = T._PurifiedKernel(model, spec, rho0, 2e-3)
        assert len(kernel.blocks) == 2
        psi = kernel.initial(np.broadcast_to(rho0, (3, 30, 30)))
        assert np.abs(kernel.to_matrices(psi) - rho0).max() < 1e-12
        noise = rng.standard_normal((50, 3, 1)) * math.sqrt(kernel.dt)
        ref = self._dense_reference(kernel, model, spec, psi, noise)
        for dw in noise:
            psi = kernel.step(psi, dw)
        scaled = ref * np.sqrt(kernel.weights)[None, :, None]
        ref_mats = np.einsum("bki,bkj->bij", scaled, scaled.conj())
        ref_mats /= np.einsum("bii->b", ref_mats).real[:, None, None]
        assert np.abs(kernel.to_matrices(psi) - ref_mats).max() < 1e-12

    def test_every_statistic_reads_one_set_of_trajectories(self):
        # above d = 8 at eta = 1 the kernel follows from the model and the
        # strategy alone: a single trajectory is the ensemble's member, and
        # the mean state is the mean of the final states
        model, ws = build_qbm_oracle(QbmParams(0.5), 30)
        rho0 = gaussian_density_matrix(ws, CovarianceState(0.8, 0.8, 0.0))
        spec = T.UnravellingSpec("general_dyne", 1.0, DiskPoint(1.0, 0.0))
        cfg = T.TrajectoryConfig(2e-3, 1.0, seed=5, sample_stride=100)
        finals = T.run_final_states(model, spec, rho0, cfg, 8)
        for i in (0, 3, 7):
            single = T.run_trajectory(model, spec, rho0, cfg, traj_index=i)
            assert np.abs(single.states[-1].matrix - finals[i]).max() < 1e-12, i
        mean = T.run_ensemble(model, spec, rho0, cfg, 8, "mean_state")
        assert np.abs(mean.states[-1] - finals.mean(axis=0)).max() < 1e-12

    def test_requires_unit_efficiency(self):
        params = QbmParams(0.5)
        model, ws = build_qbm_oracle(params, 20)
        rho0 = gaussian_density_matrix(ws, CovarianceState(0.8, 0.8, 0.0)).matrix
        spec = T.UnravellingSpec("general_dyne", 0.5, DiskPoint(1.0, 0.0))
        with pytest.raises(ValueError):
            T._PurifiedKernel(model, spec, rho0, 2e-3)
        assert isinstance(T._select_kernel(model, spec, rho0, 2e-3, None),
                          T._MatrixDiffusiveKernel)

    def test_second_jump_operator_takes_the_matrix_kernel(self):
        # the bundle carries one measured channel; above d = 8 a model with a
        # second (unmonitored) jump operator runs on the matrix kernel at
        # eta = 1 too, whatever the run records
        ws = FockWorkspace(10)
        a = ws.annihilation
        model = LindbladModel(ws.position @ ws.position, [0.5 * a, 0.3 * (dag(a) @ a)])
        spec, rho0 = T.UnravellingSpec("homodyne_x"), np.diag([0.0, 1.0] + [0.0] * 8)
        cfg = T.TrajectoryConfig(2e-3, 0.1, seed=3, sample_stride=25)
        assert isinstance(T._select_kernel(model, spec, rho0, 2e-3, None),
                          T._MatrixDiffusiveKernel)
        curve = T.run_ensemble(model, spec, rho0, cfg, 4, "purity")
        final = T.run_final_states(model, spec, rho0, cfg, 4)
        assert curve.mean[0] == pytest.approx(1.0)
        assert np.all((curve.mean > 0.1) & (curve.mean <= 1.0 + 1e-9))
        assert final.shape == (4, 10, 10)
        assert np.allclose(np.einsum("bii->b", final), 1.0)
