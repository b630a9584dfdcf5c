"""The four workloads: the CLI arguments each round runs, and the checks
that hold its outputs against the independent references.

A round is one call of `unravel.cli.main`.  Its inputs come from the run
seed and the round index only; the program sees nothing but the flags
built here.  An operation is one result the round must produce: a
(temperature, measure) optimum, a ranked scheme, or a validation suite.
A check returns two lists: failures, one entry per operation the program
did not complete, and problems, one entry per completed result that
disagrees with its reference.
"""

import csv
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

import ref_qbm
import ref_renewal

QBM_CORNERS = (0.5, 100.0)       # stiff low- and high-temperature corners
# relative, upward; at 2 % the optimizer's work moved by +-8 % between seeds
QBM_JITTER = 1e-4
R_STAR_MIN = 0.98                # boundary optimality (paper)
TIME_REL_TOL = 1e-3              # program's log-grid interpolation is ~3e-4
QBM_ETA_TOL = 1e-3               # efficiency_threshold_qbm bisection tolerance
Z_ALLOWANCE = 5.0                # statistical allowance, in standard errors

SURVIVAL = dict(omega=2.0, n_traj=2000, dt=1e-3, range=(0.0, float("inf")),
                schemes=("aid", "homodyne_x", "heterodyne", "direct"))
# n = 2000 at dt = 4e-3 costs less than n = 500 at the default 1e-3, and
# its bisection stops early less often, so the work varies less by seed
THRESHOLD = dict(omega=5.0, n_traj=2000, dt=4e-3, range=(0.0, 1.0),
                 schemes=("aid", "direct"))
FOCK_N_TRAJ = 100


def program_seed(seed, round_index):
    """Monte Carlo seed handed to the CLI for one round."""
    return int(np.random.SeedSequence([seed, round_index]).generate_state(1)[0])


def qbm_temperatures(seed):
    rng = np.random.default_rng([seed, 0])
    return [float(f"{t * (1.0 + QBM_JITTER * rng.random()):.6g}")
            for t in QBM_CORNERS]


@dataclass(frozen=True)
class Workload:
    name: str
    ops_per_round: int
    argv: Callable        # (seed, round_index, out_path) -> list of CLI args
    check: Callable       # (seed, rounds) -> (failures, problems)


# ---------------------------------------------------------------------------
# qbm-optimal

def _qbm_argv(seed, _round, out):
    temps = ",".join(repr(t) for t in qbm_temperatures(seed))
    return ["qbm-optimal", "--temps", temps, "--measure", "all",
            "--threads", "1", "--out", out]


def read_qbm_rows(path):
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def check_qbm_row(row, cache):
    """Problems with one qbm-optimal row, against the QBM reference."""
    temp, kind = float(row["T"]), row["measure"]
    r, phi, value = float(row["r_star"]), float(row["phi_star"]), float(row["value"])
    where = f"T={temp:g} {kind}"
    if not r >= R_STAR_MIN:
        return [f"{where}: r* = {r} is inside the disk (< {R_STAR_MIN})"]
    ref = ref_qbm.measure(kind, temp, r, phi)
    if kind == "efficiency_threshold":
        tol, beat_tol = 0.5 * QBM_ETA_TOL + 1e-9, QBM_ETA_TOL
    else:
        tol, beat_tol = TIME_REL_TOL * ref, TIME_REL_TOL * value
    problems = []
    if not abs(value - ref) <= tol:
        problems.append(f"{where}: value {value:.8g} vs reference {ref:.8g} "
                        f"at (r*, phi*) = ({r:.6g}, {phi:.6g})")
    key = (kind, temp)
    if key not in cache:
        cache[key] = ref_qbm.best_on_circle(kind, temp)
    best_phi, best = cache[key]
    gain = best - value if kind in ref_qbm.MAXIMIZED else value - best
    if not gain <= beat_tol:
        problems.append(f"{where}: phi = {best_phi:.6g} on r = 1 gives {best:.8g}, "
                        f"better than the reported {value:.8g} by {gain:.3g}")
    return problems


def _check_qbm(seed, rounds):
    cache = {}
    expected = {(t, k) for t in qbm_temperatures(seed) for k in ref_qbm.MEASURES}
    failures, problems = [], []
    for rnd in rounds:
        try:
            rows = read_qbm_rows(rnd["out"])
        except OSError:
            rows = []
        seen = {(float(r["T"]), r["measure"]) for r in rows}
        if seen != expected or rnd["exit"] not in (0, 3):
            failures += [f"round {rnd['index']}: exit {rnd['exit']}, "
                         f"rows {sorted(seen)}"] * len(expected)
            continue
        for row in rows:
            if row["error"]:
                failures.append(f"T={row['T']} {row['measure']}: {row['error']}")
            else:
                problems.extend(check_qbm_row(row, cache))
    return failures, problems


# ---------------------------------------------------------------------------
# tla-rank workloads

def _rank_argv(spec, measure):
    def argv(seed, round_index, out):
        return ["tla-rank", "--omega", repr(spec["omega"]), "--measure", measure,
                "--schemes", ",".join(spec["schemes"]),
                "--n-traj", str(spec["n_traj"]), "--dt", repr(spec["dt"]),
                "--seed", str(program_seed(seed, round_index)), "--out", out]
    return argv


def _read_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def check_rank_report(report, exit_code, spec, direct_ref, direct_allowance):
    """Problems with a tla-rank report: resolved verdict, every scheme ranked
    with a value in range, AID strictly ahead of direct detection, and
    direct within `direct_allowance(entry)` of the renewal reference."""
    problems = []
    if exit_code != 0 or report.get("verdict") != "resolved":
        problems.append(f"exit {exit_code}, verdict {report.get('verdict')}, "
                        f"unresolved after {report.get('unresolved_after')}")
    entries = report.get("entries", [])
    names = [e["scheme"] for e in entries]
    if sorted(names) != sorted(spec["schemes"]):
        return problems + [f"ranked schemes {names}, expected {list(spec['schemes'])}"]
    lo, hi = spec["range"]
    problems += [f"{e['scheme']}: {e['value']} outside ({lo}, {hi})"
                 for e in entries if not lo < e["value"] < hi]
    if names.index("aid") > names.index("direct"):
        problems.append(f"direct detection ranks above AID: {names}")
    direct = entries[names.index("direct")]
    allowance = direct_allowance(direct)
    if not abs(direct["value"] - direct_ref) <= allowance:
        problems.append(f"direct {direct['value']:.5g} +- {direct['uncertainty']:.2g} "
                        f"vs renewal reference {direct_ref:.5g} "
                        f"(allowance {allowance:.3g})")
    return problems


def _lost(rnd, report, n_ops):
    """Failures of a round whose report is missing, that exited with a usage
    or numeric error, or whose call raised (exit None); tla-rank and
    validate exit 1 on a verdict."""
    if report is None or rnd["exit"] not in (0, 1):
        return [f"round {rnd['index']}: exit {rnd['exit']}, no report"] * n_ops
    return []


def survival_allowance(direct, _stderr):
    return Z_ALLOWANCE * direct["uncertainty"]


def threshold_allowance(direct, stderr):
    # the reported uncertainty is the final bisection half-width
    return direct["uncertainty"] + Z_ALLOWANCE * stderr


def _survival_reference():
    return ref_renewal.mixing_and_survival_times(SURVIVAL["omega"])[1], None


def _threshold_reference():
    eta = ref_renewal.efficiency_threshold(THRESHOLD["omega"])
    return eta, ref_renewal.threshold_stderr(THRESHOLD["omega"], eta,
                                             THRESHOLD["n_traj"])


def _rank_check(spec, reference, allowance):
    def check(_seed, rounds):
        ref, stderr = reference()
        failures, problems = [], []
        for rnd in rounds:
            report = _read_json(rnd["out"])
            lost = _lost(rnd, report, len(spec["schemes"]))
            failures += lost
            if not lost:
                problems += check_rank_report(report, rnd["exit"], spec, ref,
                                              lambda e: allowance(e, stderr))
        return failures, problems
    return check


# ---------------------------------------------------------------------------
# fock-oracle

def _fock_argv(seed, round_index, out):
    return ["validate", "gaussian-oracle", "--n-traj", str(FOCK_N_TRAJ),
            "--seed", str(program_seed(seed, round_index)), "--out", out]


def check_fock_report(report, exit_code):
    checks = report.get("checks", [])
    if exit_code == 0 and report.get("passed") is True and checks \
            and all(c["passed"] for c in checks):
        return []
    return [f"exit {exit_code}, suite passed = {report.get('passed')}: {checks}"]


def _check_fock(_seed, rounds):
    failures, problems = [], []
    for rnd in rounds:
        report = _read_json(rnd["out"])
        lost = _lost(rnd, report, 1)
        failures += lost
        if not lost:
            problems.extend(check_fock_report(report, rnd["exit"]))
    return failures, problems


WORKLOADS = {w.name: w for w in (
    Workload("qbm-optimal", 2 * len(ref_qbm.MEASURES), _qbm_argv, _check_qbm),
    Workload("tla-survival-rank", len(SURVIVAL["schemes"]),
             _rank_argv(SURVIVAL, "survival"),
             _rank_check(SURVIVAL, _survival_reference, survival_allowance)),
    Workload("tla-threshold-rank", len(THRESHOLD["schemes"]),
             _rank_argv(THRESHOLD, "efficiency_threshold"),
             _rank_check(THRESHOLD, _threshold_reference, threshold_allowance)),
    Workload("fock-oracle", 1, _fock_argv, _check_fock),
)}
