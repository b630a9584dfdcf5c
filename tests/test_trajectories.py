import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from unravel import trajectories as T
from unravel.errors import InvariantViolationError, SimulationError, StepSizeError
from unravel.gaussian import CovarianceState, DiskPoint, QbmParams
from unravel.hilbert import (
    DensityMatrix,
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


def tla(omega=2.0, gamma=1.0):
    return TlaParams(rabi=omega, gamma=gamma)


ALL_SCHEMES = ["homodyne_x", "homodyne_y", "heterodyne", "direct", "aid"]


class TestSpecTypes:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            T.UnravellingSpec("parity")

    def test_eta_range(self):
        with pytest.raises(ValueError):
            T.homodyne_x(1.2)

    def test_general_dyne_needs_disk(self):
        with pytest.raises(ValueError):
            T.UnravellingSpec("general_dyne", 1.0)

    def test_channel_weights_resolve_emission(self):
        for spec in (T.homodyne_x(), T.homodyne_y(), T.heterodyne(),
                     T.general_dyne(DiskPoint(0.6, 1.1))):
            total = sum(abs(z) ** 2 for z in spec.channel_coefficients())
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_general_dyne_limits_match_named(self):
        hom = T.general_dyne(DiskPoint(1.0, 0.0)).channel_coefficients()
        assert hom == pytest.approx([1.0 + 0.0j])
        het = T.general_dyne(DiskPoint(0.0, 0.0)).channel_coefficients()
        assert het == pytest.approx(T.heterodyne().channel_coefficients())

    def test_record_invariants(self):
        with pytest.raises(InvariantViolationError):
            T.InnovationRecord(jump_times=(0.5, 0.4))
        with pytest.raises(InvariantViolationError):
            T.InnovationRecord(jump_times=(0.5,), lo_signs=(1.0, -1.0))


class TestStepDiffusive:
    def test_eta_zero_ignores_noise(self):
        model = build_tla(tla())
        spec = T.homodyne_x(0.0)
        rho = DensityMatrix(np.array([[0.7, 0.2], [0.2, 0.3]]))
        out1 = T.step_diffusive(model, spec, rho, [3.0 * math.sqrt(1e-3)], 1e-3)
        out2 = T.step_diffusive(model, spec, rho, [-2.0 * math.sqrt(1e-3)], 1e-3)
        assert np.abs(out1.matrix - out2.matrix).max() < 1e-14
        ref = propagate(model, rho, 1e-3, 1e-3)
        assert trace_distance(out1, ref) < 1e-5

    def test_one_step_mean_matches_deterministic(self):
        model = build_tla(tla())
        spec = T.heterodyne(0.8)
        rho = DensityMatrix(np.array([[0.6, 0.1j], [-0.1j, 0.4]]))
        dt = 1e-3
        rng = np.random.default_rng(0)
        n = 10_000
        acc = np.zeros((2, 2), dtype=complex)
        for _ in range(n):
            noise = rng.standard_normal(2) * math.sqrt(dt)
            acc += T.step_diffusive(model, spec, rho, noise, dt).matrix
        mean = acc / n
        ref = rho.matrix + dt * lindblad_rhs(model, rho)
        # statistical tolerance ~ 3 * |b| sqrt(dt/n), plus O(dt^2) bias
        assert np.abs(mean - ref).max() < 3.0 * math.sqrt(dt / n) + 5e-6

    def test_efficient_step_keeps_pure_states_pure(self):
        model = build_tla(tla())
        rho = EXCITED
        for _ in range(20):
            rho = T.step_diffusive(model, T.homodyne_x(1.0), rho, [0.7 * math.sqrt(1e-4)], 1e-4)
        assert purity(rho) == pytest.approx(1.0, abs=1e-10)

    def test_wrong_channel_count(self):
        model = build_tla(tla())
        with pytest.raises(ValueError):
            T.step_diffusive(model, T.heterodyne(1.0), EXCITED, [0.1], 1e-3)


class TestStepJump:
    def test_ground_state_never_clicks(self):
        model = build_tla(TlaParams(rabi=0.0, gamma=1.0))
        out, jumped = T.step_jump(model, T.direct(1.0), GROUND, 0.0001, 1e-3)
        assert not jumped
        assert trace_distance(out, GROUND) < 1e-12

    def test_excited_click_probability_first_order(self):
        gamma = 1.0
        model = build_tla(TlaParams(rabi=0.0, gamma=gamma))
        dt = 1e-3
        kernel = T._SuperopJumpKernel(model, T.direct(1.0), dt)
        y = kernel.initial(EXCITED.matrix[None, :, :])
        y_prop = kernel.props[0][0] @ y[0]   # sign +1, first (only) efficiency
        p = 1.0 - float(y_prop @ kernel.tr_vec)
        assert p == pytest.approx(gamma * dt, rel=2e-3)

    def test_click_projects_to_ground(self):
        model = build_tla(TlaParams(rabi=0.0, gamma=1.0))
        out, jumped = T.step_jump(model, T.direct(1.0), EXCITED, 0.0, 1e-3)
        assert jumped
        assert trace_distance(out, GROUND) < 1e-12

    def test_oversized_step_rejected(self):
        model = build_tla(TlaParams(rabi=0.0, gamma=1.0))
        with pytest.raises(StepSizeError):
            T.step_jump(model, T.direct(1.0), EXCITED, 0.5, 0.2)

    def test_diffusive_spec_rejected(self):
        model = build_tla(tla())
        with pytest.raises(ValueError):
            T.step_jump(model, T.homodyne_x(1.0), EXCITED, 0.5, 1e-3)


class TestRunTrajectory:
    def test_zero_horizon(self):
        model = build_tla(tla())
        res = T.run_trajectory(model, T.homodyne_x(1.0), EXCITED,
                               T.TrajectoryConfig(1e-3, 0.0, seed=1))
        assert len(res.states) == 1
        assert trace_distance(res.states[0], EXCITED) == 0.0

    def test_same_seed_identical(self):
        model = build_tla(tla())
        cfg = T.TrajectoryConfig(1e-3, 0.5, seed=9, sample_stride=50)
        r1 = T.run_trajectory(model, T.heterodyne(0.7), EXCITED, cfg)
        r2 = T.run_trajectory(model, T.heterodyne(0.7), EXCITED, cfg)
        assert all(np.array_equal(a.matrix, b.matrix)
                   for a, b in zip(r1.states, r2.states))
        assert np.array_equal(r1.record.wiener, r2.record.wiener)

    def test_different_seeds_differ(self):
        model = build_tla(tla())
        cfg1 = T.TrajectoryConfig(1e-3, 0.5, seed=9)
        cfg2 = T.TrajectoryConfig(1e-3, 0.5, seed=10)
        r1 = T.run_trajectory(model, T.homodyne_x(1.0), EXCITED, cfg1)
        r2 = T.run_trajectory(model, T.homodyne_x(1.0), EXCITED, cfg2)
        assert trace_distance(r1.states[-1], r2.states[-1]) > 1e-6

    def test_efficient_trajectory_stays_pure(self):
        model = build_tla(tla())
        cfg = T.TrajectoryConfig(1e-4, 1.0, seed=3, sample_stride=200)
        res = T.run_trajectory(model, T.homodyne_x(1.0), EXCITED, cfg)
        assert min(purity(s) for s in res.states) > 0.999

    def test_aid_record_tracks_flips(self):
        model = build_tla(tla(omega=3.0))
        # AID clicks are rare (a few per 10/gamma here), so run long
        # enough for several flips
        cfg = T.TrajectoryConfig(1e-3, 30.0, seed=12, sample_stride=1000)
        res = T.run_trajectory(model, T.aid(1.0), EXCITED, cfg)
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
            spec = T.named_scheme(name, eta=0.8 if name != "aid" else 1.0)
            curve = T.run_ensemble(model, spec, EXCITED, cfg, 400,
                                   statistic="mean_state")
            for t, m in zip(curve.times, curve.states):
                if t == 0:
                    continue
                ref = propagate(model, EXCITED, float(t), 5e-4)
                dist = trace_distance(DensityMatrix(m, pos_tol=1e-2), ref)
                # 3/sqrt(N) statistical + O(dt) discretization allowance
                assert dist < 3.0 / math.sqrt(400) + 0.02, (name, t, dist)

    def test_stderr_scaling_with_n(self):
        # eta < 1 so per-trajectory purities actually spread out
        model = build_tla(tla())
        cfg = T.TrajectoryConfig(2e-3, 1.0, seed=5, sample_stride=250)
        small = T.run_ensemble(model, T.homodyne_x(0.6), EXCITED, cfg, 200)
        large = T.run_ensemble(model, T.homodyne_x(0.6), EXCITED, cfg, 800)
        ratio = small.stderr[1:] / large.stderr[1:]
        # quadrupling N halves the standard error within 25 percent slack
        assert np.all(ratio > 1.5)
        assert np.all(ratio < 2.5)

    def test_chunking_does_not_change_result(self, monkeypatch):
        model = build_tla(tla())
        cfg = T.TrajectoryConfig(2e-3, 0.5, seed=8, sample_stride=50)
        cases = [(spec, statistic)
                 for spec in (T.heterodyne(1.0), T.aid(1.0), T.direct(0.7))
                 for statistic in ("purity", "mean_state")]
        refs = [(T.run_ensemble(model, spec, EXCITED, cfg, 64, statistic),
                 T.run_final_states(model, spec, EXCITED, cfg, 64))
                for spec, statistic in cases]
        # force 16-trajectory chunks and noise blocks of 7 (heterodyne) or
        # 14 steps, none of which divides the 250 steps
        monkeypatch.setattr(T, "_MAX_SUPEROP_CHUNK", 16)
        monkeypatch.setattr(T, "_NOISE_BLOCK_BYTES", 16 * 2 * 8 * 7)
        chunks, draws = [], []
        iter_chunks, noise_plan = T._iter_chunks, T._noise_plan

        def counted_chunks(n_traj, chunk):
            spans = list(iter_chunks(n_traj, chunk))
            chunks.append(len(spans))
            return spans

        def counted_plan(spec, n_steps, rng):
            draws.append(n_steps)
            return noise_plan(spec, n_steps, rng)

        monkeypatch.setattr(T, "_iter_chunks", counted_chunks)
        monkeypatch.setattr(T, "_noise_plan", counted_plan)
        for (spec, statistic), (ref, ref_finals) in zip(cases, refs):
            split = T.run_ensemble(model, spec, EXCITED, cfg, 64, statistic)
            finals = T.run_final_states(model, spec, EXCITED, cfg, 64)
            # heterodyne purities and final states agree to the bit; the rest
            # only to rounding: mean states are summed per chunk, and AID steps
            # its minus-sign rows in a sub-batch GEMM shaped by the chunk
            def close(a, b):
                return np.abs(a - b).max() < 1e-12
            exact = np.array_equal if spec.kind == "heterodyne" else close
            case = (spec.kind, statistic)
            assert exact(finals, ref_finals), case
            if statistic == "purity":
                assert exact(split.mean, ref.mean), case
            else:
                assert close(split.states, ref.states), case
        assert chunks == [4] * 2 * len(cases)
        assert max(draws) == 14 and min(draws) < 7

    def test_member_matches_run_trajectory(self):
        model = build_tla(tla())
        cfg = T.TrajectoryConfig(2e-3, 0.4, seed=17, sample_stride=100)
        for spec in (T.homodyne_y(1.0), T.aid(1.0), T.direct(0.7)):
            single = T.run_trajectory(model, spec, EXCITED, cfg, traj_index=3)
            finals = T.run_final_states(model, spec, EXCITED, cfg, 5)
            assert np.abs(finals[3] - single.states[-1].matrix).max() < 1e-12, spec.kind

    def test_purity_curve_needs_two(self):
        model = build_tla(tla())
        cfg = T.TrajectoryConfig(1e-3, 0.1, seed=1)
        with pytest.raises(ValueError):
            T.run_ensemble(model, T.homodyne_x(1.0), EXCITED, cfg, 1)


class TestKernelReferences:
    """The real-basis kernels against complex-matrix references, step by step."""

    RHO = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])

    @pytest.mark.parametrize("dim", [2, 8])
    def test_coordinates_round_trip(self, dim):
        rng = np.random.default_rng(dim)
        a = rng.uniform(-1, 1, (5, dim, dim)) + 1j * rng.uniform(-1, 1, (5, dim, dim))
        herm = 0.5 * (a + np.conj(np.swapaxes(a, 1, 2)))
        model = build_tla(tla()) if dim == 2 else build_qbm_oracle(QbmParams(1.0), dim)[0]
        kernel = T._KrausDiffusiveKernel(model, T.heterodyne(), 1e-3)
        y = kernel.initial(herm)
        assert y.shape == (5, dim * dim) and y.T.flags.c_contiguous
        back = kernel.to_matrices(y)
        assert np.abs(back - herm).max() < 1e-15
        assert np.array_equal(back, np.conj(np.swapaxes(back, 1, 2)))

    @pytest.mark.parametrize("kind", ["homodyne_x", "heterodyne"])
    @pytest.mark.parametrize("eta", [0.5, 1.0])
    def test_kraus_kernel_matches_the_matrix_kernel(self, kind, eta):
        # the matrix kernel builds the same M rho M^dag plus leak on
        # complex matrices, trajectory by trajectory
        model, spec, dt, n = build_tla(tla(5.0)), T.named_scheme(kind, eta), 4e-3, 64
        kraus = T._KrausDiffusiveKernel(model, spec, dt)
        matrix = T._MatrixDiffusiveKernel(model, spec, dt)
        start = np.broadcast_to(self.RHO, (n, 2, 2))
        y, rho = kraus.initial(start), matrix.initial(start)
        noise = math.sqrt(dt) * np.random.default_rng(7).standard_normal(
            (400, n, T.noise_width(spec)))
        worst = 0.0
        for dw in noise:
            y, rho = kraus.step(y, dw), matrix.step(rho, dw)
            worst = max(worst, np.abs(kraus.to_matrices(y) - rho).max())
        assert worst < 1e-10
        # the run moved the states: the check is not of a fixed point
        assert np.abs(rho - self.RHO).max() > 0.1

    @pytest.mark.parametrize("kind", ["direct", "aid"])
    @pytest.mark.parametrize("eta", [0.7, 1.0])
    def test_jump_kernel_matches_the_matrix_reference(self, kind, eta):
        model, spec, dt, n = build_tla(tla(5.0)), T.named_scheme(kind, eta), 4e-3, 64
        beta = 0.5 if kind == "aid" else 0.0    # sqrt(gamma) / 2
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
        advance = T._EventJumpSampler._advance

        def recording(sampler, y, table, *args):
            # a row's table is sign * E + eta; rows are eta-major
            n_eta = len(sampler.props[0])
            minus = (table // n_eta).reshape(n_eta, -1) == 1
            mixed.append(bool((minus.any(axis=1) & (~minus).any(axis=1)).all()))
            return advance(sampler, y, table, *args)

        monkeypatch.setattr(T._EventJumpSampler, "_advance", recording)
        for spec in (T.direct(), T.aid(), T.heterodyne()):
            mixed.clear()
            stacked = T.run_purity_averages(model, spec, EXCITED, cfg, 48, self.ETAS)
            assert stacked.shape == (len(self.ETAS), 48)
            if spec.kind == "aid":
                assert any(mixed)
            for e, eta in enumerate(self.ETAS):
                alone = T.run_purity_averages(model, spec, EXCITED, cfg, 48, (eta,))
                assert np.array_equal(stacked[e], alone[0]), (spec.kind, eta)

    def test_chunking_does_not_change_averages(self, monkeypatch):
        model = build_tla(tla())
        cfg = T.TrajectoryConfig(2e-3, 0.5, seed=8, sample_stride=50)
        specs = (T.heterodyne(), T.aid(), T.direct())
        refs = [T.run_purity_averages(model, spec, EXCITED, cfg, 64, self.ETAS)
                for spec in specs]
        # 16 rows hold 4 trajectories at 4 efficiencies
        monkeypatch.setattr(T, "_MAX_SUPEROP_CHUNK", 16)
        chunks = []
        iter_chunks = T._iter_chunks

        def counted_chunks(n_traj, chunk):
            spans = list(iter_chunks(n_traj, chunk))
            chunks.append(len(spans))
            return spans

        monkeypatch.setattr(T, "_iter_chunks", counted_chunks)
        for spec, ref in zip(specs, refs):
            split = T.run_purity_averages(model, spec, EXCITED, cfg, 64, self.ETAS)
            # the rules of test_chunking_does_not_change_result: heterodyne
            # to the bit, the counting schemes to rounding
            if spec.kind == "heterodyne":
                assert np.array_equal(split, ref)
            else:
                assert np.abs(split - ref).max() < 1e-12, spec.kind
        assert chunks == [16] * len(specs)

    def test_window_is_the_last_quarter_of_the_purity_curve(self):
        model = build_tla(tla())
        cfg = T.TrajectoryConfig(2e-3, 1.0, seed=4, sample_stride=25)
        spec = T.homodyne_x(0.6)
        curve = T.run_ensemble(model, spec, EXCITED, cfg, 40)
        averages = T.run_purity_averages(model, spec, EXCITED, cfg, 40, (0.6,))
        k = len(curve.times) // 4
        assert averages.mean() == pytest.approx(curve.mean[-k:].mean(), abs=1e-14)

    def test_stacks_need_small_dimension(self):
        model, _ = build_qbm_oracle(QbmParams(1.0), 12)
        rho0 = np.diag([1.0] + [0.0] * 11)
        with pytest.raises(ValueError):
            T._select_kernel(model, T.heterodyne(), rho0, 1e-3, "purity", (0.5, 1.0))


class TestEventSampler:
    """The event-driven counting sampler against the stepped jump kernel."""

    RHO = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])

    @pytest.mark.parametrize("kind", ["direct", "aid"])
    def test_survival_is_the_product_of_stepped_traces(self, kind):
        # S(m) = y . t_m against the product of the stepped kernel's
        # per-step no-click traces, for every table: (sign, eta) for
        # eta in {0.25, 1}, both LO signs for AID
        model = build_tla(tla(5.0))
        etas, n_steps = (0.25, 1.0), 1000
        sampler = T._EventJumpSampler(model, T.named_scheme(kind), 4e-3, etas)
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
        model = build_tla(tla(5.0))
        spec, dt = T.named_scheme(kind, eta), 4e-3
        ref, jumped = T.step_jump(model, spec, DensityMatrix(self.RHO), 0.0, dt, lo_sign)
        assert jumped
        sampler = T._EventJumpSampler(model, spec, dt)
        sampler.prepare(1, 1)
        table = np.array([0 if lo_sign > 0 else 1])
        y, after = sampler._click(sampler.initial(self.RHO[None, :, :]), table, np.array([1]))
        assert np.abs(sampler.to_matrices(y)[0] - ref.matrix).max() < 1e-12
        assert after[0] == (1 - table[0] if kind == "aid" else 0)

    def test_click_without_emission_raises(self):
        # an undriven atom in its ground state has nothing to emit
        model = build_tla(TlaParams(rabi=0.0, gamma=1.0))
        sampler = T._EventJumpSampler(model, T.direct(), 1e-3)
        sampler.prepare(1, 1)
        with pytest.raises(SimulationError, match="post-click trace"):
            sampler._click(sampler.initial(GROUND.matrix[None, :, :]), np.array([0]),
                           np.array([1]))

    def test_rising_survival_raises(self):
        # a no-click map that gains trace makes S(m) rise: no waiting-time law
        model = build_tla(tla(5.0))
        sampler = T._EventJumpSampler(model, T.aid(), 4e-3)
        sampler.props = [1.01 * p for p in sampler.props]
        with pytest.raises(SimulationError, match="survival rises"):
            sampler.prepare(100, 1)

    def test_counting_ensembles_use_the_sampler(self):
        model = build_tla(tla())
        for statistic in ("purity", "mean_state"):
            assert isinstance(T._select_kernel(model, T.aid(), EXCITED.matrix, 1e-3, statistic),
                              T._EventJumpSampler)
        kernel = T._select_kernel(model, T.aid(), EXCITED.matrix, 1e-3, "final_states")
        assert not isinstance(kernel, T._EventJumpSampler)

    @pytest.mark.slow
    @pytest.mark.parametrize("kind", ["direct", "aid"])
    def test_agrees_with_the_stepped_kernel(self, kind, monkeypatch):
        # independent seeds, n = 20,000: long-run purities at four
        # efficiencies (the threshold setting) and a purity curve
        params = TlaParams(5.0, 1.0)
        model = build_tla(params)
        rho_ss = steady_state(model).matrix
        spec, n = T.named_scheme(kind), 20_000
        long_cfg = lambda seed: T.TrajectoryConfig(4e-3, 20.0, seed=seed, sample_stride=20)
        curve_cfg = lambda seed: T.TrajectoryConfig(4e-3, 4.0, seed=seed, sample_stride=100)
        etas = (0.25, 0.5, 0.75, 1.0)

        def summary(seed):
            averages = T.run_purity_averages(model, spec, rho_ss, long_cfg(seed), n, etas)
            curve = T.run_ensemble(model, spec, rho_ss, curve_cfg(seed), n)
            return (np.concatenate([averages.mean(axis=1), curve.mean[1:]]),
                    np.concatenate([averages.std(axis=1, ddof=1) / math.sqrt(n),
                                    curve.stderr[1:]]))

        event, event_err = summary(31)
        # the same runs through the stepped jump kernel
        monkeypatch.setattr(T, "_select_kernel",
                            lambda model, spec, rho0, dt, statistic, etas=None:
                            T._SuperopJumpKernel(model, spec, dt, etas))
        stepped, stepped_err = summary(32)
        z = (event - stepped) / np.hypot(event_err, stepped_err)
        assert np.abs(z).max() < 3.0, z


class TestNoiseStream:
    def _whole(self, spec, n_steps, dt, seed, rows):
        draws = np.stack([T._noise_plan(spec, n_steps, T.trajectory_rng(seed, i))
                          for i in rows])
        return math.sqrt(dt) * draws if spec.is_diffusive else draws

    def test_blocks_concatenate_to_whole_draw(self, monkeypatch):
        n_steps, dt, seed, rows = 50, 2e-3, 9, range(4, 7)
        for spec in (T.direct(1.0), T.heterodyne(1.0)):
            k = T.noise_width(spec)
            whole = self._whole(spec, n_steps, dt, seed, rows)
            for steps in (1, 7, 49, 50):
                monkeypatch.setattr(T, "_NOISE_BLOCK_BYTES", len(rows) * k * 8 * steps)
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
        spec = T.heterodyne(1.0)
        whole = self._whole(spec, n_steps, dt, cfg.seed, [2])[0]
        for block_bytes in (T._NOISE_BLOCK_BYTES, 2 * 8 * 11):
            monkeypatch.setattr(T, "_NOISE_BLOCK_BYTES", block_bytes)
            wiener = T.run_trajectory(model, spec, EXCITED, cfg, traj_index=2).record.wiener
            assert np.array_equal(wiener, whole), block_bytes

    def test_noise_memory_stays_within_block_budget(self, monkeypatch):
        # heterodyne final states of 256 trajectories over 1000 steps: a
        # whole-horizon draw would hold 256 * 1000 * 2 * 8 B = 4.1 MB
        model = build_tla(tla())
        cfg = T.TrajectoryConfig(2e-3, 2.0, seed=4)
        budget = 2 ** 18
        monkeypatch.setattr(T, "_NOISE_BLOCK_BYTES", budget)
        T.run_final_states(model, T.heterodyne(1.0), EXCITED, cfg, 8)  # warm caches
        tracemalloc.start()
        try:
            T.run_final_states(model, T.heterodyne(1.0), EXCITED, cfg, 256)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * budget, peak


class TestJumpStatistics:
    def test_waiting_time_exponential(self):
        # Omega = 0 direct detection from the excited state
        gamma = 1.0
        model = build_tla(TlaParams(rabi=0.0, gamma=gamma))
        dt = 1e-3
        n = 10_000
        kernel = T._SuperopJumpKernel(model, T.direct(1.0), dt)
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
        _, p_value = stats.kstest(seen, "expon", args=(0, 1.0 / gamma))
        assert p_value > 0.05


class TestPurifiedPath:
    def test_agrees_with_density_matrix_path(self, monkeypatch):
        params = QbmParams(0.5)
        model, ws = build_qbm_oracle(params, 30)
        rho0 = gaussian_density_matrix(ws, CovarianceState(0.8, 0.8, 0.0)).matrix
        spec = T.general_dyne(DiskPoint(1.0, 0.0), eta=1.0)
        cfg = T.TrajectoryConfig(2e-3, 0.6, seed=7, sample_stride=100)
        _, dt, _ = cfg.grid()
        assert isinstance(T._select_kernel(model, spec, rho0, dt, "purity"),
                          T._PurifiedKernel)
        pure = T.run_ensemble(model, spec, rho0, cfg, 120)
        monkeypatch.setattr(T, "_select_kernel",
                            lambda *a: T._MatrixDiffusiveKernel(model, spec, dt))
        dm = T.run_ensemble(model, spec, rho0, cfg, 120)
        for a, sa, b, sb in zip(pure.mean[1:], pure.stderr[1:],
                                dm.mean[1:], dm.stderr[1:]):
            assert abs(a - b) < 3.0 * math.sqrt(sa ** 2 + sb ** 2) + 2e-3

    def test_requires_unit_efficiency(self):
        params = QbmParams(0.5)
        model, ws = build_qbm_oracle(params, 20)
        rho0 = gaussian_density_matrix(ws, CovarianceState(0.8, 0.8, 0.0)).matrix
        spec = T.general_dyne(DiskPoint(1.0, 0.0), eta=0.5)
        with pytest.raises(ValueError):
            T._PurifiedKernel(model, spec, rho0, 2e-3)
        assert isinstance(T._select_kernel(model, spec, rho0, 2e-3, "purity"),
                          T._MatrixDiffusiveKernel)
