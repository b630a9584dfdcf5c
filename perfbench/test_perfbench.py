"""Self-tests of the benchmark: every reference against its second route,
the checks against perturbed outputs, and the tracer's bookkeeping.

    python3 -m pytest -q perfbench

Runs in well under a minute on two cores; nothing here runs a workload.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import ref_qbm  # noqa: E402
import ref_renewal  # noqa: E402
import workloads  # noqa: E402

POINTS = [(0.5, 1.0, 0.5), (1.0, 1.0, 1.07), (100.0, 1.0, 2.86), (10.0, 0.4, 4.0)]


# ---------------------------------------------------------------------------
# QBM reference

@pytest.mark.parametrize("temp,r,phi", POINTS)
def test_qbm_stationary_covariance_matches_flow(temp, r, phi):
    m = ref_qbm.Model(temp, r, phi)
    np.testing.assert_allclose(ref_qbm.stationary_cov(m),
                               ref_qbm.stationary_cov_alt(m), rtol=1e-7, atol=1e-10)


@pytest.mark.parametrize("tau", [0.05, 0.7, 3.0])
def test_qbm_lyapunov_closed_form_matches_flow(tau):
    m = ref_qbm.Model(1.0, 1.0, 1.07)
    v_c = ref_qbm.stationary_cov(m)
    np.testing.assert_allclose(ref_qbm.unconditional_cov(m, v_c, tau),
                               ref_qbm.unconditional_cov_alt(m, v_c, tau),
                               rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("temp,r,phi", POINTS)
@pytest.mark.parametrize("tau", [0.1, 1.5])
def test_qbm_survival_formula_matches_quadrature(temp, r, phi, tau):
    m = ref_qbm.Model(temp, r, phi)
    v_c = ref_qbm.stationary_cov(m)
    assert ref_qbm.survival(m, v_c, tau) == pytest.approx(
        ref_qbm.survival_alt(m, v_c, tau), rel=1e-10)


@pytest.mark.parametrize("temp,r,phi", POINTS)
def test_qbm_purification_ode_matches_radon(temp, r, phi):
    m = ref_qbm.Model(temp, r, phi)
    assert ref_qbm.purification_time(m) == pytest.approx(
        ref_qbm.purification_time_alt(m), rel=1e-8)


@pytest.mark.parametrize("temp,r,phi", POINTS[:3])
def test_qbm_threshold_sits_at_half_purity_of_the_flow(temp, r, phi):
    eta = ref_qbm.measure("efficiency_threshold", temp, r, phi)
    assert 0.0 < eta < 1.0
    v = ref_qbm.stationary_cov_alt(ref_qbm.Model(temp, r, phi, eta))
    assert ref_qbm.purity(v) == pytest.approx(ref_qbm.THETA, abs=1e-7)


def test_qbm_reproduces_the_documented_violation():
    # README: T = 1, phi = 1.07 gives tau_sur = 1.37 against tau_mix = 1.12
    m = ref_qbm.Model(1.0, 1.0, 1.07)
    assert ref_qbm.survival_time(m) == pytest.approx(1.37, abs=5e-3)
    assert ref_qbm.mixing_time(m) == pytest.approx(1.12, abs=5e-3)


# ---------------------------------------------------------------------------
# renewal reference

@pytest.mark.parametrize("omega", [2.0, 5.0])
def test_renewal_ensemble_is_normalized_and_averages_to_rho_ss(omega):
    rho_ss = ref_renewal.steady_state(omega)
    assert rho_ss[0, 0].real == pytest.approx(omega ** 2 / (2 * omega ** 2 + 1), rel=1e-12)
    for eta in (0.6, 1.0):
        w, states = ref_renewal.conditioned_ensemble(omega, eta, 8.0)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(np.einsum("k,kij->ij", w, states), rho_ss,
                                   atol=1e-12)


def _mc_mean(values):
    return values.mean(), values.std(ddof=1) / math.sqrt(len(values))


def test_renewal_crossings_match_monte_carlo():
    omega, rng = 2.0, np.random.default_rng(11)
    tau_mix, tau_sur = ref_renewal.mixing_and_survival_times(omega)
    theta = ref_renewal.theta(omega)
    frozen = ref_renewal.simulate(omega, 1.0, 8.0, 40_000, rng)
    for tau, overlap in ((tau_mix, False), (tau_sur, True)):
        moved = ref_renewal.evolve(omega, frozen, tau)
        left = frozen if overlap else moved
        mean, se = _mc_mean(np.einsum("kij,kji->k", left, moved).real)
        assert abs(mean - theta) < 4.5 * se


def test_renewal_threshold_matches_monte_carlo():
    omega, rng = 5.0, np.random.default_rng(12)
    eta = ref_renewal.efficiency_threshold(omega)
    # one random sample time per trajectory averages over the last quarter
    t_end = 0.02 * rng.integers(751, 1001, size=40_000)
    states = ref_renewal.simulate(omega, eta, t_end, len(t_end), rng)
    mean, se = _mc_mean(np.einsum("kij,kji->k", states, states).real)
    assert abs(mean - ref_renewal.theta(omega)) < 4.5 * se


def test_renewal_reference_figures():
    tau_mix, tau_sur = ref_renewal.mixing_and_survival_times(2.0)
    assert tau_mix == pytest.approx(0.4542, abs=1e-4)
    assert tau_sur == pytest.approx(0.3991, abs=1e-4)
    assert ref_renewal.efficiency_threshold(5.0) == pytest.approx(0.7551, abs=1e-4)


# ---------------------------------------------------------------------------
# output checks catch wrong outputs

def _qbm_row(kind, temp, cache):
    phi, value = ref_qbm.best_on_circle(kind, temp)
    cache[(kind, temp)] = (phi, value)
    return {"T": repr(temp), "measure": kind, "r_star": "1.0",
            "phi_star": repr(phi), "value": repr(value), "error": ""}


@pytest.mark.parametrize("kind", ["mixing", "efficiency_threshold"])
def test_qbm_check_accepts_the_optimum_and_rejects_perturbations(kind):
    cache = {}
    row = _qbm_row(kind, 0.5, cache)
    assert workloads.check_qbm_row(row, cache) == []
    worse = 0.99 if kind == "mixing" else 1.03
    bad = dict(row, value=repr(float(row["value"]) * worse))
    assert workloads.check_qbm_row(bad, cache)
    assert workloads.check_qbm_row(dict(row, r_star="0.9"), cache)
    off = dict(row, phi_star=repr(float(row["phi_star"]) + 0.5))
    assert workloads.check_qbm_row(off, cache)


def _rank_report(values, direct):
    entries = [{"scheme": s, "value": v, "uncertainty": 0.005, "resolved_vs_next": True}
               for s, v in values]
    entries.append({"scheme": "direct", "value": direct, "uncertainty": 0.005,
                    "resolved_vs_next": True})
    return {"verdict": "resolved", "unresolved_after": [], "entries": entries}


def test_rank_check_accepts_reference_and_rejects_perturbations():
    ref = 0.3991
    spec = dict(workloads.SURVIVAL, schemes=("aid", "heterodyne", "direct"))
    allow = lambda e: workloads.survival_allowance(e, None)
    good = _rank_report([("aid", 1.38), ("heterodyne", 0.55)], ref)
    assert workloads.check_rank_report(good, 0, spec, ref, allow) == []
    shifted = _rank_report([("aid", 1.38), ("heterodyne", 0.55)], 1.1 * ref)
    assert workloads.check_rank_report(shifted, 0, spec, ref, allow)
    unresolved = dict(good, verdict="unresolved", unresolved_after=["aid"])
    assert workloads.check_rank_report(unresolved, 1, spec, ref, allow)
    swapped = dict(good, entries=list(reversed(good["entries"])))
    assert workloads.check_rank_report(swapped, 0, spec, ref, allow)
    missing = dict(good, entries=good["entries"][:2])
    assert workloads.check_rank_report(missing, 0, spec, ref, allow)
    threshold = dict(workloads.THRESHOLD, schemes=("aid", "heterodyne", "direct"))
    above_one = _rank_report([("aid", 0.5), ("heterodyne", 1.2)], ref)
    assert workloads.check_rank_report(above_one, 0, threshold, ref, allow)


def test_threshold_check_holds_direct_to_the_renewal_reference():
    ref, stderr = workloads._threshold_reference()
    assert ref == pytest.approx(0.7551, abs=1e-4)
    assert stderr == pytest.approx(0.0053, abs=5e-4)
    spec = workloads.THRESHOLD
    allow = lambda e: workloads.threshold_allowance(e, stderr)
    margin = allow({"uncertainty": 0.005})
    for direct in (ref, ref - margin + 1e-3, ref + margin - 1e-3):
        report = _rank_report([("aid", 0.53)], direct)
        assert workloads.check_rank_report(report, 0, spec, ref, allow) == []
    for direct in (0.83, ref - margin - 1e-3, ref + margin + 1e-3):
        report = _rank_report([("aid", 0.53)], direct)
        assert workloads.check_rank_report(report, 0, spec, ref, allow)


def test_a_round_that_raises_counts_as_failed(tmp_path, monkeypatch):
    import argparse

    import run
    import unravel.cli

    def broken(_argv):
        raise ZeroDivisionError("injected")
    monkeypatch.setattr(unravel.cli, "main", broken)
    work = workloads.WORKLOADS["tla-threshold-rank"]
    args = argparse.Namespace(seed=1, seconds=0.0, trace=0)
    rounds = run.run_rounds(work, args, tmp_path)
    assert [r["exit"] for r in rounds] == [None]
    failures, problems = work.check(1, rounds)
    assert len(failures) == work.ops_per_round and problems == []


def test_fock_check_rejects_a_failed_suite():
    ok = {"passed": True, "checks": [{"check": "x", "passed": True}]}
    assert workloads.check_fock_report(ok, 0) == []
    assert workloads.check_fock_report(
        {"passed": False, "checks": [{"check": "x", "passed": False}]}, 1)
    assert workloads.check_fock_report({"passed": True, "checks": []}, 0)


def test_workload_inputs_depend_only_on_the_seed():
    for work in workloads.WORKLOADS.values():
        assert work.argv(3, 1, "o") == work.argv(3, 1, "o")
        assert "--out" in work.argv(3, 0, "o")
    temps = workloads.qbm_temperatures(7)
    assert temps == workloads.qbm_temperatures(7) != workloads.qbm_temperatures(8)
    lo, hi = workloads.QBM_CORNERS
    jitter = 1.0 + workloads.QBM_JITTER
    assert lo <= temps[0] <= lo * jitter and hi <= temps[1] <= hi * jitter


# ---------------------------------------------------------------------------
# tracer

def _module_state():
    import tracer
    return [dict(vars(m)) for m in tracer.MODULES] + [
        dict(vars(cls)) for cls in (tracer.T._KrausDiffusiveKernel,
                                    tracer.T._SuperopJumpKernel,
                                    tracer.T._PurifiedKernel,
                                    tracer.T._PurityCollector)] + [
        dict(tracer.M._QBM_MEASURES), dict(tracer.M._TLA_MEASURES)]


def test_tracer_counts_jump_steps_and_restores_everything(tmp_path):
    import tracer
    import unravel.cli

    before = _module_state()
    tr = tracer.Tracer()
    tr.install()
    try:
        assert _module_state() != before
        out = tmp_path / "rank.json"
        code = unravel.cli.main(["tla-rank", "--omega", "2", "--measure", "survival",
                                 "--schemes", "aid,direct", "--n-traj", "20",
                                 "--seed", "5", "--out", str(out)])
    finally:
        tr.uninstall()
    assert _module_state() == before
    assert code in (0, 1) and json.loads(out.read_text())["entries"]
    m = tr.metrics()
    # 2 schemes x 20 trajectories x 8000 steps of 1e-3 over 8/gamma
    assert m["trajectories.traj_steps"] == 2 * 20 * 8000
    assert m["trajectories.step_ns.jump"] > 0 and m["trajectories.step_ns.aid"] > 0
    assert m["trajectories.clicks_per_traj"] > 1
    assert m["trajectories.chunks"] == 2
    assert m["trajectories.noise_ns"] > 0 and m["trajectories.kernel_build_ms"] > 0
    assert m["hilbert.steady_state_calls"] >= 2 and m["measures.superop_s"] > 0
    assert m["cli.output_s"] > 0 and m["gaussian.ode_calls"] == 0
    assert m["trajectories.noise_buffer_mb"] == pytest.approx(20 * 8000 * 8 / 1e6)


def test_tracer_counts_optimizer_evaluations(tmp_path):
    import tracer
    import unravel.cli

    tr = tracer.Tracer()
    tr.install()
    try:
        code = unravel.cli.main(["qbm-optimal", "--temps", "1", "--measure",
                                 "efficiency_threshold", "--threads", "1",
                                 "--out", str(tmp_path / "o.csv")])
    finally:
        tr.uninstall()
    assert code == 0
    m = tr.metrics()
    assert m["measures.qbm_evals_per_optimum"] > 50
    assert m["measures.qbm_eval_ms.efficiency_threshold"] > 0
    assert m["measures.grid_failures"] >= 1        # pure momentum homodyne
    assert m["trajectories.traj_steps"] == 0
    assert m["gaussian.algebra_s"] > 0
