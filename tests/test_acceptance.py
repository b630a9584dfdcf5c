"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
summary.  Criterion 6's production profile (hundreds of thousands of
trajectories, 36 min on two cores) is gated behind `--full-rankings`; the
mandated reduced smoke profile runs by default.

Criteria 5 and 6c(20) are implemented exactly as stated and are expected
to FAIL: with the defining equations taken literally, the frozen-state
overlap outlives the purity whenever the conditioned state barely moves
(adaptive detection, low-temperature particle), and direct detection
never becomes the most robust efficiency threshold at strong driving
(its value saturates in the secular limit, still ranked last).  The
production profile fails too: at Omega = 0.5 gamma it resolves heterodyne
ahead of direct detection in the efficiency-threshold ranking
(results/criterion_6_full_table.json).  The blocking analysis lives in the
project notes; every other criterion must pass.
"""

import math
import time

import numpy as np
import pytest

import unravel.gaussian as G
from unravel import measures as M
from unravel import trajectories as T
from unravel.errors import AssumptionError, SimulationError
from unravel.gaussian import CovarianceState, DiskPoint, QbmParams, qbm_generators
from unravel.hilbert import DensityMatrix, propagate, propagate_matrices, trace_distance
from unravel.systems import TlaParams, build_qbm_oracle, build_tla, gaussian_density_matrix

from oracles import covariance_ode

SEED = 20240


def _verdict(tag, ok, detail=""):
    print(f"\nACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} {detail}")
    return ok


# ---------------------------------------------------------------------------
# shared expensive fixtures

@pytest.fixture(scope="module")
def qbm_optima():
    """optimize_disk over T in {0.5, 1, 10, 100} x all four measures."""
    start = time.time()
    out = {}
    for temp in (0.5, 1.0, 10.0, 100.0):
        for kind in M.MEASURE_KINDS:
            out[(temp, kind)] = M.optimize_disk(QbmParams(temp), kind)
    out["elapsed"] = time.time() - start
    return out


@pytest.fixture(scope="module")
def tla_mix_sur():
    """Mixing and survival for all five schemes at Omega = 2 gamma, N = 1e4."""
    opts = M.McOptions(n_traj=10_000, dt=2e-3, seed=SEED)
    params = TlaParams(2.0)
    out = {}
    start = time.time()
    for name in ("direct", "homodyne_x", "homodyne_y", "heterodyne", "aid"):
        out[name] = M.mixing_and_survival_tla(params, T.UnravellingSpec(name), opts)
    out["elapsed"] = time.time() - start
    return out


def _disjoint(a, b, z=1.96):
    return abs(a.value - b.value) > z * math.hypot(a.uncertainty, b.uncertainty)


# cumulative wall time of the criterion-6 smoke profile (parts a, b, c)
_smoke_clock = {"total": 0.0}


# ---------------------------------------------------------------------------

@pytest.mark.acceptance
def test_criterion_1_unravelling_invariance():
    """Ensemble mean matches unconditional propagation for every scheme and
    efficiency: TLA at Omega = 2 gamma, N = 5000, dt = 1e-3, horizon 5."""
    start = time.time()
    params = TlaParams(2.0)
    model = build_tla(params)
    rho0 = DensityMatrix(np.diag([1.0, 0.0]))
    cfg = T.TrajectoryConfig(dt=1e-3, horizon=5.0, seed=SEED, sample_stride=500)
    refs = {}
    worst_overall = 0.0
    for name in ("direct", "homodyne_x", "homodyne_y", "heterodyne", "aid"):
        for eta in (0.5, 1.0):
            curve = T.run_ensemble(model, T.UnravellingSpec(name, eta), rho0, cfg,
                                   5000, "mean_state")
            worst = 0.0
            for t, m in zip(curve.times, curve.states):
                t = float(t)
                if t == 0.0:
                    continue
                if t not in refs:
                    refs[t] = propagate(model, rho0, t)
                dist = trace_distance(DensityMatrix(m), refs[t])
                worst = max(worst, dist)
            assert worst <= 0.05, (name, eta, worst)
            worst_overall = max(worst_overall, worst)
    elapsed = time.time() - start
    assert _verdict("1 (unravelling invariance)", True,
                    f"max trace distance {worst_overall:.4f} <= 0.05, {elapsed:.0f}s")
    assert elapsed < 120.0, f"runtime target 2 min exceeded: {elapsed:.0f}s"


@pytest.mark.acceptance
@pytest.mark.slow
def test_criterion_2_gaussian_fock_equivalence():
    """Closed-form Riccati conditional-purity curve equals the Fock-space
    Monte Carlo oracle: T = 0.5, u = (1, 0), eta = 1, N_fock = 60, 2000
    trajectories, pointwise within max(0.01, 3 stderr) over t in [0, 5]."""
    start = time.time()
    params = QbmParams(0.5)
    model, ws = build_qbm_oracle(params, 60)
    v0 = CovarianceState(1.0, 1.0, 0.0)
    rho0 = gaussian_density_matrix(ws, v0)
    spec = T.UnravellingSpec("general_dyne", 1.0, DiskPoint(1.0, 0.0))
    cfg = T.TrajectoryConfig(dt=2e-3, horizon=5.0, seed=SEED, sample_stride=100)
    curve = T.run_ensemble(model, spec, rho0, cfg, 2000, "purity")
    gen = qbm_generators(params, DiskPoint(1.0, 0.0), 1.0)
    exact = G.conditioned_purity_curve(gen, curve.times, np.linalg.inv(v0.matrix))
    worst_excess = -np.inf
    for t, mc, err, det in zip(curve.times, curve.mean, curve.stderr, exact):
        tol = max(0.01, 3.0 * float(err))
        worst_excess = max(worst_excess, abs(mc - det) - tol)
        assert abs(mc - det) <= tol, (float(t), mc, det, tol)
    elapsed = time.time() - start
    assert _verdict("2 (Gaussian-Fock equivalence)", True,
                    f"worst margin {-worst_excess:.4f}, {elapsed:.0f}s")
    assert elapsed < 600.0, f"runtime target 10 min exceeded: {elapsed:.0f}s"


@pytest.mark.acceptance
def test_criterion_3_boundary_optimality(qbm_optima):
    """The optimal strategy lies on the boundary of the disk for every
    temperature and measure."""
    rows = []
    for temp in (0.5, 1.0, 10.0, 100.0):
        for kind in M.MEASURE_KINDS:
            u, _ = qbm_optima[(temp, kind)]
            rows.append((temp, kind, u.r))
            assert u.r >= 0.98, (temp, kind, u.r)
    elapsed = qbm_optima["elapsed"]
    assert _verdict("3 (boundary optimality)", True,
                    f"min r* = {min(r for _, _, r in rows):.4f} over 16 optima, "
                    f"{elapsed:.0f}s")
    assert elapsed < 60.0, f"runtime target 1 min exceeded: {elapsed:.0f}s"


@pytest.mark.acceptance
def test_criterion_4_survival_phase_scaling():
    """log(pi - phi*) vs log T slope for the survival optimum lies in
    [-0.43, -0.23] over T in {1e2, 1e3, 1e4, 1e5}."""
    start = time.time()
    temps = [1e2, 1e3, 1e4, 1e5]
    gaps = []
    for temp in temps:
        u, _ = M.optimize_disk(QbmParams(temp), "survival")
        gap = math.pi - u.phi
        assert gap > 0, f"T={temp}: optimum not below pi (phi*={u.phi})"
        gaps.append(gap)
    slope = np.polyfit(np.log(temps), np.log(gaps), 1)[0]
    elapsed = time.time() - start
    ok = -0.43 <= slope <= -0.23
    assert _verdict("4 (survival phase scaling)", ok,
                    f"slope {slope:.4f} in [-0.43, -0.23], {elapsed:.0f}s")
    assert ok
    assert elapsed < 300.0, f"runtime target 5 min exceeded: {elapsed:.0f}s"


@pytest.mark.acceptance
@pytest.mark.slow
def test_criterion_5_survival_below_mixing(qbm_optima, tla_mix_sur):
    """tau_sur <= tau_mix for every pair evaluated in criteria 3 and 6.

    EXPECTED TO FAIL: the defining equations allow the overlap to outlive
    the purity whenever the frozen conditioned state barely moves; the
    particle violates the inequality at T = 0.5 and 1 (deterministic
    backend, no statistical doubt) and the atom violates it for adaptive
    detection and homodyne-x at Omega = 2 gamma.  See README "Known
    defects"; the failure report below lists every pair.
    """
    failures = []
    checked = 0
    for temp in (0.5, 1.0, 10.0, 100.0):
        params = QbmParams(temp)
        seen = set()
        for kind in M.MEASURE_KINDS:
            u, _ = qbm_optima[(temp, kind)]
            key = (round(u.r, 4), round(u.phi, 4))
            if key in seen:
                continue
            seen.add(key)
            try:
                t_mix = M.mixing_time(params, u).value
                t_sur = M.survival_time(params, u).value
            except SimulationError:
                continue
            checked += 1
            if t_sur > t_mix + 1e-9:
                failures.append(f"qbm T={temp} u=({u.r:.3f},{u.phi:.3f}): "
                                f"tau_sur={t_sur:.4f} > tau_mix={t_mix:.4f}")
    for name in ("direct", "homodyne_x", "homodyne_y", "heterodyne", "aid"):
        mix, sur = tla_mix_sur[name]
        checked += 1
        slack = 3.0 * math.hypot(mix.uncertainty, sur.uncertainty)
        if sur.value > mix.value + slack:
            failures.append(f"tla Omega=2 {name}: tau_sur={sur.value:.4f} > "
                            f"tau_mix={mix.value:.4f} (+3se {slack:.4f})")
    ok = not failures
    _verdict("5 (tau_sur <= tau_mix)", ok,
             f"{checked - len(failures)}/{checked} pairs hold" +
             ("" if ok else "; violations: " + " | ".join(failures)))
    assert ok, "documented defect, see README: " + " | ".join(failures)


@pytest.mark.acceptance
@pytest.mark.slow
def test_criterion_6a_mixing_survival_ranking(tla_mix_sur):
    """Smoke profile: AID above direct for both tau_sur and tau_mix at
    Omega = 2 gamma, with disjoint 95 percent intervals."""
    start = tla_mix_sur["elapsed"]
    aid_mix, aid_sur = tla_mix_sur["aid"]
    dir_mix, dir_sur = tla_mix_sur["direct"]
    for label, top, bottom in (("tau_mix", aid_mix, dir_mix),
                               ("tau_sur", aid_sur, dir_sur)):
        assert _disjoint(top, bottom), (label, top, bottom)
        assert top.value > bottom.value, (label, top.value, bottom.value)
    _smoke_clock["total"] += start
    assert _verdict("6a (mixing/survival ranking, smoke)", True,
                    f"AID > direct resolved for both measures, {start:.0f}s")


@pytest.mark.acceptance
@pytest.mark.slow
def test_criterion_6b_purification_ranking():
    """Smoke profile: hom-x above hom-y at Omega = 0.4; het above direct at
    Omega = 5 (fastest purifier ranks first)."""
    start = time.time()
    opts = M.McOptions(n_traj=10_000, dt=2e-3, seed=SEED)
    pairs = [(0.4, "homodyne_x", "homodyne_y"), (5.0, "heterodyne", "direct")]
    for omega, top_name, bottom_name in pairs:
        params = TlaParams(omega)
        top = M.purification_time_tla(params, T.UnravellingSpec(top_name), opts)
        bottom = M.purification_time_tla(params, T.UnravellingSpec(bottom_name), opts)
        assert _disjoint(top, bottom), (omega, top, bottom)
        assert top.value < bottom.value, (omega, top.value, bottom.value)
    elapsed = time.time() - start
    _smoke_clock["total"] += elapsed
    assert _verdict("6b (purification ranking, smoke)", True,
                    f"both regimes resolved and ordered, {elapsed:.0f}s")


@pytest.mark.acceptance
@pytest.mark.slow
def test_criterion_6c_efficiency_threshold_ranking():
    """Smoke profile: AID most robust at Omega = 0.5 and 5; the Omega = 20
    clause (direct most robust) is EXPECTED TO FAIL -- the simulated
    thresholds saturate in the secular limit with direct detection still
    ranked last (see README "Known defects")."""
    start = time.time()
    opts = M.McOptions(n_traj=10_000, dt=4e-3, seed=SEED)
    verdicts = []
    for omega, top_name, bottom_name in ((0.5, "aid", "homodyne_y"),
                                         (5.0, "aid", "direct"),
                                         (20.0, "direct", "homodyne_y")):
        params = TlaParams(omega)
        top = M.efficiency_threshold_tla(params, T.UnravellingSpec(top_name), opts)
        bottom = M.efficiency_threshold_tla(params, T.UnravellingSpec(bottom_name), opts)
        resolved = _disjoint(top, bottom)
        ordered = top.value < bottom.value
        verdicts.append((omega, top_name, top.value, bottom_name, bottom.value,
                         resolved, ordered))
    elapsed = time.time() - start
    ok = all(res and ord_ for *_, res, ord_ in verdicts)
    detail = "; ".join(
        f"Omega={om}: {tn}={tv:.3f} vs {bn}={bv:.3f} "
        f"({'resolved' if res else 'unresolved'}, "
        f"{'ordered' if ord_ else 'MISORDERED'})"
        for om, tn, tv, bn, bv, res, ord_ in verdicts)
    _smoke_clock["total"] += elapsed
    _verdict("6c (efficiency-threshold ranking, smoke)", ok,
             detail + f"; smoke profile total {_smoke_clock['total']:.0f}s")
    assert _smoke_clock["total"] < 900.0, \
        f"smoke profile runtime target 15 min exceeded: {_smoke_clock['total']:.0f}s"
    assert ok, "documented defect at Omega=20, see README: " + detail


@pytest.mark.acceptance
def test_criterion_7_degenerate_cases():
    """Undriven atom purifies instantly and has a degenerate efficiency
    threshold; eta = 0 conditioning equals the unconditional flow to 1e-10;
    identical seeds give identical trajectories."""
    start = time.time()
    params = TlaParams(0.0)
    res = M.purification_time(params, T.UnravellingSpec("direct"))
    assert res.value == 0.0
    with pytest.raises(AssumptionError):
        M.efficiency_threshold_tla(params, T.UnravellingSpec("direct"),
                                   M.McOptions(n_traj=100, dt=2e-3, seed=SEED))

    gen0 = qbm_generators(QbmParams(1.0), DiskPoint(0.6, 0.9), 0.0)
    v0 = CovarianceState(1.5, 2.0, 0.4)
    t = np.linspace(0.0, 2.0, 21)
    diff = np.abs(covariance_ode(gen0, v0, t)
                  - G.unconditional_covariance_curve(gen0, v0, t)).max()
    assert diff < 1e-10, diff

    model = build_tla(TlaParams(2.0))
    rho0 = DensityMatrix(np.diag([1.0, 0.0]))
    cfg = T.TrajectoryConfig(dt=1e-3, horizon=0.5, seed=SEED)
    r1 = T.run_trajectory(model, T.UnravellingSpec("heterodyne", 0.7), rho0, cfg)
    r2 = T.run_trajectory(model, T.UnravellingSpec("heterodyne", 0.7), rho0, cfg)
    assert all(np.array_equal(a.matrix, b.matrix)
               for a, b in zip(r1.states, r2.states))
    elapsed = time.time() - start
    assert _verdict("7 (degenerate cases)", True, f"{elapsed:.1f}s")


@pytest.mark.acceptance
@pytest.mark.slow
def test_backend_agreement_mixing_time():
    """Supporting invariant: the Fock-oracle Monte Carlo mixing time at
    T = 0.5 agrees with the Gaussian backend within 3 combined errors."""
    start = time.time()
    params = QbmParams(0.5)
    u = DiskPoint(1.0, 2.0)
    gen = qbm_generators(params, u, 1.0)
    gauss = M.mixing_time(params, u).value

    model, ws = build_qbm_oracle(params, 48)
    rho0 = gaussian_density_matrix(ws, CovarianceState(1.0, 1.0, 0.0))
    spec = T.UnravellingSpec("general_dyne", 1.0, u)
    n = 160
    cond_cfg = T.TrajectoryConfig(dt=2e-3, horizon=4.0, seed=SEED)
    frozen = T.run_final_states(model, spec, rho0, cond_cfg, n)
    taus = np.linspace(0.0, 3.2, 33)
    means, errs = [], []
    for _, states in propagate_matrices(model, frozen, taus):
        p = np.einsum("bij,bji->b", states, states).real
        means.append(p.mean())
        errs.append(p.std(ddof=1) / math.sqrt(n))
    mc_val, mc_err = M.crossing_with_uncertainty(
        taus, np.array(means), np.array(errs), M.QBM_THETA.theta)
    elapsed = time.time() - start
    gap = abs(mc_val - gauss)
    tol = 3.0 * mc_err + 0.05  # discretization allowance on top of 3 se
    ok = gap <= tol
    assert _verdict("backend agreement (tau_mix, T=0.5)", ok,
                    f"MC {mc_val:.3f}+-{mc_err:.3f} vs Gaussian {gauss:.3f}, "
                    f"{elapsed:.0f}s")
    assert ok


@pytest.mark.acceptance
@pytest.mark.full_rankings
def test_criterion_6_full_table():
    """Production profile: full five-scheme rankings against the reference
    table, N up to 2e5 trajectories per scheme.  36 min on two cores
    (results/criterion_6_full_table.json); enable with --full-rankings."""
    expected = {
        ("survival", 2.0): ["aid", "homodyne_x", "heterodyne", "homodyne_y",
                            "direct"],
        ("mixing", 2.0): ["aid", "homodyne_x", "heterodyne", "homodyne_y",
                          "direct"],
        ("purification", 0.4): ["homodyne_x", "aid", "direct", "heterodyne",
                                "homodyne_y"],
        ("purification", 5.0): ["heterodyne", "homodyne_y", "homodyne_x",
                                "aid", "direct"],
        ("efficiency_threshold", 0.5): ["aid", "homodyne_x", "direct",
                                        "heterodyne", "homodyne_y"],
        ("efficiency_threshold", 5.0): ["aid", "heterodyne", "homodyne_x",
                                        "homodyne_y", "direct"],
    }
    schemes = ("direct", "homodyne_x", "homodyne_y", "heterodyne", "aid")
    n_by_kind = {"survival": 200_000, "mixing": 200_000,
                 "purification": 100_000, "efficiency_threshold": 40_000}
    all_pairs = 0
    resolved_pairs = 0
    # every ranking runs and prints before any misordered pair fails the test
    misordered = []
    for (kind, omega), want in expected.items():
        start = time.time()
        opts = M.McOptions(n_traj=n_by_kind[kind], dt=2e-3, seed=SEED)
        entries = M.rank_unravellings(TlaParams(omega), kind, schemes, opts)
        got = [e.scheme for e in entries]
        for i, entry in enumerate(entries[:-1]):
            all_pairs += 1
            if entry.resolved_vs_next:
                resolved_pairs += 1
                a, b = got[i], got[i + 1]
                if not want.index(a) < want.index(b):
                    misordered.append((kind, omega, a, b))
        print(f"\nfull ranking {kind} Omega={omega} ({time.time() - start:.0f}s): "
              + ", ".join(f"{e.scheme} {e.value:.6g}+-{e.uncertainty:.2g}"
                          + ("" if e.resolved_vs_next else " (unresolved)")
                          for e in entries))
    assert not misordered, misordered
    assert resolved_pairs >= 0.8 * all_pairs, (resolved_pairs, all_pairs)
    _verdict("6 (full Table rankings)", True,
             f"{resolved_pairs}/{all_pairs} pairs resolved")
