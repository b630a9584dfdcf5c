"""Experiment driver: disk-optimization sweeps, atom purification curves,
scheme rankings and validation suites, as reproducible data files.

Every output embeds the full run configuration (and package version) so a
file can be regenerated bit-identically.  Exit codes: 0 success, 1
assertion / unresolved-ranking failure, 2 usage error, 3 numeric or
convergence failure.
"""

import argparse
import concurrent.futures
import csv
import json
import math
import os
import sys

import numpy as np

from . import __version__
from . import measures as M
from . import trajectories as T
from .errors import SimulationError
from .gaussian import DiskPoint, QbmParams, qbm_generators
from .hilbert import DensityMatrix, propagate_matrices, trace_distance
from .systems import TLA_SCHEMES, TlaParams, build_tla

THREADS_ENV = "UNRAVEL_THREADS"

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def read_config(path):
    """Plain key-value config: one `key = value` per line, '#' comments."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            out[key.replace("-", "_")] = value
    return out


def _apply_config(argv, parser, subparsers, args):
    """Re-parse with config values as defaults; explicit flags win."""
    if not getattr(args, "config", None):
        return args
    cfg = read_config(args.config)
    sub = subparsers[args.command]
    actions = {a.dest: a for a in sub._actions}
    coerced = {}
    for key, value in cfg.items():
        action = actions.get(key)
        if action is None:
            raise UsageError(f"config key {key!r} is not a flag of {args.command}")
        coerced[key] = action.type(value) if action.type else value
    sub.set_defaults(**coerced)
    return parser.parse_args(argv)


def _header_lines(command, config):
    yield f"# unravel {__version__}"
    yield f"# command: {command}"
    yield "# config: " + json.dumps(config, sort_keys=True)


def _open_out(path):
    if path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline="\n"), True


def _write_rows(path, command, config, columns, rows):
    fh, close = _open_out(path)
    try:
        for line in _header_lines(command, config):
            print(line, file=fh)
        # csv quotes a field that holds a comma, as an error message may
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(columns)
        out.writerows([_fmt(v) for v in row] for row in rows)
    finally:
        if close:
            fh.close()


def _write_json(path, report):
    fh, close = _open_out(path)
    try:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    finally:
        if close:
            fh.close()


def _no_repeats(flag, values):
    """Reject a list naming one value twice: it would run twice."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise UsageError(f"{flag} names {value!r} twice")


def _schemes(text):
    """The comma-separated atom schemes of --schemes, each known and none
    named twice."""
    schemes = text.split(",")
    for name in schemes:
        if name not in TLA_SCHEMES:
            raise UsageError(f"unknown scheme {name!r}")
    _no_repeats("--schemes", schemes)
    return schemes


def _temps(text):
    """The comma-separated temperatures of --temps, each a valid QbmParams
    temperature and none named twice."""
    temps = [float(t) for t in text.split(",") if t]
    if not temps:
        raise UsageError(f"--temps {text!r} names no temperature")
    for temp in temps:
        QbmParams(temp)
    _no_repeats("--temps", temps)
    return temps


def _fmt(value):
    # numpy scalars print as np.float64(...) under repr; write plain floats
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


# ---------------------------------------------------------------------------
# qbm-optimal

def _optimal_point(job):
    temp, kind = job
    try:
        u, res = M.optimize_disk(QbmParams(temp), kind)
        return (temp, kind, u.r, u.phi, res.value, "")
    except SimulationError as exc:
        return (temp, kind, math.nan, math.nan, math.nan, str(exc))


def cmd_qbm_optimal(args):
    temps = _temps(args.temps)
    kinds = (list(M.MEASURE_KINDS) if args.measure == "all"
             else [args.measure])
    for kind in kinds:
        if kind not in M.MEASURE_KINDS:
            raise UsageError(f"unknown measure {kind!r}")
    threads = _threads(args.threads)
    jobs = [(t, k) for t in temps for k in kinds]
    results = _map_jobs(_optimal_point, jobs, threads)
    config = {"temps": temps, "measure": args.measure, "threads": threads}
    _write_rows(args.out, "qbm-optimal", config,
                ["T", "measure", "r_star", "phi_star", "value", "error"],
                results)
    n_failed = sum(1 for r in results if r[5])
    return EXIT_NUMERIC if n_failed == len(results) else EXIT_OK


def _threads(flag):
    """Worker count: --threads, else UNRAVEL_THREADS, else 1; a value that is
    no integer of at least 1 is a usage error naming where it came from."""
    source, value = "--threads", flag
    if flag is None:
        source, value = THREADS_ENV, os.environ.get(THREADS_ENV, "1")
    try:
        threads = int(value)
    except ValueError:
        threads = 0
    if threads < 1:
        raise UsageError(f"{source} must be an integer of at least 1, got {value!r}")
    return threads


def _map_jobs(fn, jobs, threads):
    if threads <= 1 or len(jobs) <= 1:
        return [fn(j) for j in jobs]
    # pool fans out pure functions; the collector keeps submission order so
    # file contents never depend on scheduling
    with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, jobs))


# ---------------------------------------------------------------------------
# tla-curves

def cmd_tla_curves(args):
    params = TlaParams(rabi=args.omega, gamma=args.gamma)
    schemes = _schemes(args.schemes)
    if args.dump_count < 1:
        raise UsageError(f"--dump-count must be at least 1, got {args.dump_count}")
    model = build_tla(params)
    theta, rho_ss = M.tla_theta(params)
    cfg = T.TrajectoryConfig(dt=args.dt / params.gamma,
                             horizon=args.horizon / params.gamma,
                             seed=args.seed, sample_stride=args.stride)
    rows = []
    for name in schemes:
        curve = T.run_ensemble(model, T.UnravellingSpec(name), rho_ss, cfg,
                               args.n_traj, "purity")
        for t, mean, err in zip(curve.times, curve.mean, curve.stderr):
            rows.append((float(t * params.gamma), name, float(mean), float(err)))
    config = {"omega": args.omega, "gamma": args.gamma, "schemes": schemes,
              "n_traj": args.n_traj, "dt": args.dt, "horizon": args.horizon,
              "seed": args.seed, "stride": args.stride,
              "theta": theta.theta}
    _write_rows(args.out, "tla-curves", config,
                ["t", "scheme", "mean_purity", "stderr"], rows)
    if args.dump:
        _dump_trajectories(model, schemes[0], rho_ss, cfg, args.dump_count,
                           args.dump, config)
    return EXIT_OK


def _dump_trajectories(model, scheme, rho0, cfg, count, path, config):
    from .hilbert import purity

    rows = []
    for index in range(count):
        res = T.run_trajectory(model, T.UnravellingSpec(scheme), rho0, cfg,
                               traj_index=index)
        for t, state in zip(res.times, res.states):
            rows.append((float(t), float(purity(state)), index))
    _write_rows(path, "tla-curves --dump", config,
                ["t", "purity", "trajectory"], rows)


# ---------------------------------------------------------------------------
# tla-rank

def cmd_tla_rank(args):
    params = TlaParams(rabi=args.omega, gamma=args.gamma)
    if args.measure not in M.MEASURE_KINDS:
        raise UsageError(f"unknown measure {args.measure!r}")
    schemes = _schemes(args.schemes)
    opts = M.McOptions(n_traj=args.n_traj, dt=args.dt, seed=args.seed)
    entries = M.rank_unravellings(params, args.measure, schemes, opts)
    unresolved = [e.scheme for e in entries[:-1] if not e.resolved_vs_next]
    report = {
        "measure": args.measure,
        "system": "two_level_atom",
        "params": {"omega": args.omega, "gamma": args.gamma},
        "n_traj": args.n_traj,
        "dt": args.dt,
        "seed": args.seed,
        "version": __version__,
        "entries": [{"scheme": e.scheme, "value": e.value,
                     "uncertainty": e.uncertainty,
                     "resolved_vs_next": e.resolved_vs_next}
                    for e in entries],
        "verdict": "unresolved" if unresolved else "resolved",
        "unresolved_after": unresolved,
    }
    _write_json(args.out, report)
    return EXIT_FAIL if unresolved else EXIT_OK


# ---------------------------------------------------------------------------
# validate

def _suite_invariance(args):
    params = TlaParams(rabi=2.0, gamma=1.0)
    model = build_tla(params)
    rho0 = DensityMatrix(np.diag([1.0, 0.0]))
    cfg = T.TrajectoryConfig(dt=1e-3, horizon=2.0, seed=args.seed,
                             sample_stride=400)
    n = args.n_traj
    # the reference states do not depend on the scheme: one streamed pass
    _, dt, sample_idx = cfg.grid()
    refs = [DensityMatrix(m) for _, m in propagate_matrices(model, rho0.matrix, sample_idx * dt)]
    checks = []
    for name in TLA_SCHEMES:
        spec = T.UnravellingSpec(name, eta=1.0 if name == "aid" else 0.7)
        curve = T.run_ensemble(model, spec, rho0, cfg, n, "mean_state")
        worst = max(trace_distance(DensityMatrix(m, pos_tol=1e-2), ref)
                    for m, ref in zip(curve.states, refs))
        tol = 3.0 / math.sqrt(n) + 0.02
        checks.append({"check": f"invariance[{name}]", "value": worst,
                       "tolerance": tol, "passed": bool(worst < tol)})
    return checks


def _suite_gaussian_oracle(args):
    import unravel.gaussian as G
    from unravel.gaussian import CovarianceState
    from unravel.systems import build_qbm_oracle, gaussian_density_matrix

    params = QbmParams(0.5)
    model, ws = build_qbm_oracle(params, 60)
    v0 = CovarianceState(1.0, 1.0, 0.0)
    rho0 = gaussian_density_matrix(ws, v0)
    spec = T.UnravellingSpec("general_dyne", 1.0, DiskPoint(1.0, 0.0))
    cfg = T.TrajectoryConfig(dt=2e-3, horizon=2.0, seed=args.seed,
                             sample_stride=200)
    curve = T.run_ensemble(model, spec, rho0, cfg, args.n_traj, "purity")
    gen = qbm_generators(params, DiskPoint(1.0, 0.0), 1.0)
    exact = G.conditioned_purity_curve(gen, curve.times, np.linalg.inv(v0.matrix))
    # largest excess of the Monte Carlo error over its allowance: negative
    # when every sample time passes, and by how much
    worst = float(np.max(np.abs(curve.mean - exact)
                         - np.maximum(0.01, 3.0 * curve.stderr)))
    return [{"check": "gaussian_oracle[T=0.5,hom-q]", "value": worst, "n": curve.n,
             "tolerance": 0.0, "passed": bool(worst <= 0.0)}]


def _suite_properties(args):
    import unravel.gaussian as G
    from unravel.gaussian import CovarianceState

    # the trajectory check's config first: a bad seed stops the suite at once
    cfg = T.TrajectoryConfig(dt=1e-3, horizon=0.5, seed=args.seed)
    checks = []
    params = QbmParams(1.0)
    grid = np.linspace(0.0, 2.0, 21)
    gen0 = qbm_generators(params, DiskPoint(0.5, 1.1), 0.0)
    v0 = CovarianceState(1.5, 2.0, 0.4)
    diff = float(np.abs(G.covariance_ode(gen0, v0, grid)
                        - G.unconditional_covariance_curve(gen0, v0, grid)).max())
    checks.append({"check": "eta0_riccati_equals_lyapunov", "value": diff,
                   "tolerance": 1e-10, "passed": bool(diff < 1e-10)})

    purities = [G.gaussian_purity(G.riccati_steady(
        qbm_generators(params, DiskPoint(1.0, 0.5), eta)))
        for eta in np.linspace(0.1, 1.0, 10)]
    mono = bool(np.all(np.diff(purities) > 0))
    checks.append({"check": "stationary_purity_monotone_in_eta",
                   "value": float(min(np.diff(purities))), "tolerance": 0.0,
                   "passed": mono})

    # det V = 1 / (4 p^2) along the closed-form conditional flow
    gen = qbm_generators(params, DiskPoint(1.0, 1.0), 0.8)
    p = G.conditioned_purity_curve(gen, np.linspace(0.0, 5.0, 5001),
                                   np.linalg.inv(np.diag([3.0, 3.0])))
    min_det = float(0.25 / p.max() ** 2)
    checks.append({"check": "heisenberg_bound_along_flow", "value": min_det,
                   "tolerance": 0.25 - 1e-9,
                   "passed": bool(min_det >= 0.25 - 1e-9)})

    s = G.survival_curve(params, DiskPoint(1.0, 0.0), [0.0, 1.0])
    checks.append({"check": "survival_starts_at_unity", "value": float(s[0]),
                   "tolerance": 1e-9, "passed": bool(abs(s[0] - 1.0) < 1e-9)})

    # the closed-form curves the QBM measures run on, against the ODE
    gen = qbm_generators(params, DiskPoint(1.0, 1.07), 1.0)
    v0 = CovarianceState(2.0, 1.5, 0.3)
    unc = G.covariance_ode(gen.with_eta(0.0), v0, grid)
    cond = G.covariance_ode(gen, v0, grid)
    v_u = G.unconditional_covariance_curve(gen, v0, grid)
    p = G.conditioned_purity_curve(gen, grid, np.linalg.inv(v0.matrix))
    diff = max(float((np.abs(v_u - unc).max(axis=(1, 2))
                      / np.abs(unc).max(axis=(1, 2))).max()),
               float(np.abs(p - 0.5 / np.sqrt(np.linalg.det(cond))).max()))
    checks.append({"check": "closed_form_curves_match_ode", "value": diff,
                   "tolerance": 1e-9, "passed": bool(diff < 1e-9)})

    model = build_tla(TlaParams(2.0, 1.0))
    rho0 = DensityMatrix(np.diag([1.0, 0.0]))
    r1 = T.run_trajectory(model, T.UnravellingSpec("heterodyne", 0.7), rho0, cfg)
    r2 = T.run_trajectory(model, T.UnravellingSpec("heterodyne", 0.7), rho0, cfg)
    same = all(np.array_equal(a.matrix, b.matrix)
               for a, b in zip(r1.states, r2.states))
    checks.append({"check": "same_seed_bit_identical", "value": float(same),
                   "tolerance": 1.0, "passed": bool(same)})
    return checks


VALIDATION_SUITES = {
    "invariance": _suite_invariance,
    "gaussian-oracle": _suite_gaussian_oracle,
    "properties": _suite_properties,
}


def cmd_validate(args):
    if args.suite not in VALIDATION_SUITES:
        raise UsageError(f"unknown suite {args.suite!r}; "
                         f"choose from {sorted(VALIDATION_SUITES)}")
    checks = VALIDATION_SUITES[args.suite](args)
    report = {
        "suite": args.suite,
        "version": __version__,
        "seed": args.seed,
        "n_traj": args.n_traj,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
    _write_json(args.out, report)
    return EXIT_OK if report["passed"] else EXIT_FAIL


# ---------------------------------------------------------------------------

class UsageError(Exception):
    pass


def build_parser():
    parser = argparse.ArgumentParser(
        prog="unravel",
        description="Classical robustness of continuous measurement strategies")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    registry = {}

    qbm = sub.add_parser("qbm-optimal",
                         help="optimal detection point per temperature/measure")
    qbm.add_argument("--temps", default="1.0",
                     help="comma-separated temperatures")
    qbm.add_argument("--measure", default="all",
                     help="purification|efficiency_threshold|mixing|survival|all")
    qbm.add_argument("--threads", type=int, default=None,
                     help=f"worker processes (default: {THREADS_ENV}, else 1)")
    qbm.add_argument("--out", default="-")
    qbm.add_argument("--config", default=None)
    qbm.set_defaults(fn=cmd_qbm_optimal)

    curves = sub.add_parser("tla-curves", help="atom purification curves")
    curves.add_argument("--omega", type=float, default=2.0)
    curves.add_argument("--gamma", type=float, default=1.0)
    curves.add_argument("--schemes", default=",".join(TLA_SCHEMES))
    curves.add_argument("--n-traj", type=int, default=2000)
    curves.add_argument("--dt", type=float, default=1e-3,
                        help="step, units of 1/gamma")
    curves.add_argument("--horizon", type=float, default=6.0,
                        help="duration, units of 1/gamma")
    curves.add_argument("--stride", type=int, default=100)
    curves.add_argument("--seed", type=int, default=2024)
    curves.add_argument("--out", default="-")
    curves.add_argument("--dump", default=None,
                        help="also dump per-trajectory purities to this CSV")
    curves.add_argument("--dump-count", type=int, default=4)
    curves.add_argument("--config", default=None)
    curves.set_defaults(fn=cmd_tla_curves)

    rank = sub.add_parser("tla-rank", help="rank unravellings by one measure")
    rank.add_argument("--omega", type=float, default=2.0)
    rank.add_argument("--gamma", type=float, default=1.0)
    rank.add_argument("--measure", default="survival")
    rank.add_argument("--schemes", default=",".join(TLA_SCHEMES))
    rank.add_argument("--n-traj", type=int, default=10_000)
    rank.add_argument("--dt", type=float, default=1e-3)
    rank.add_argument("--seed", type=int, default=2024)
    rank.add_argument("--out", default="-")
    rank.add_argument("--config", default=None)
    rank.set_defaults(fn=cmd_tla_rank)

    val = sub.add_parser("validate", help="run a validation suite")
    val.add_argument("suite", help="invariance|gaussian-oracle|properties")
    val.add_argument("--n-traj", type=int, default=800)
    val.add_argument("--seed", type=int, default=2024)
    val.add_argument("--out", default="-")
    val.add_argument("--config", default=None)
    val.set_defaults(fn=cmd_validate)

    registry.update({"qbm-optimal": qbm, "tla-curves": curves,
                     "tla-rank": rank, "validate": val})
    return parser, registry


def main(argv=None):
    parser, subparsers = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for bad usage already; normalize other exits
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        args = _apply_config(argv, parser, subparsers, args)
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SimulationError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
