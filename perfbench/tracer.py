"""Per-layer tracing from the benchmark side.

`Tracer.install` wraps functions and methods of the `unravel` modules in
place (every module attribute and dispatch-table entry that refers to the
same function object), and `uninstall` restores the originals.  Each
wrapper records a span under a key: its time counts only while no other
span of the same key encloses it, so nested calls are not counted twice.
The source of the package is not touched, and untraced runs never import
this module.
"""

import json
import time
import types
from collections import defaultdict

import unravel
import unravel.cli as C
import unravel.gaussian as G
import unravel.hilbert as H
import unravel.measures as M
import unravel.systems as S
import unravel.trajectories as T
from unravel.errors import SimulationError

MODULES = (unravel, C, G, H, M, S, T)
STEP_KINDS = ("kraus", "jump", "aid", "purified")
MEASURES = ("purification", "mixing", "survival", "efficiency_threshold")

_now = time.perf_counter


def _functions_of(module):
    return [f for f in vars(module).values()
            if isinstance(f, types.FunctionType) and f.__module__ == module.__name__]


class _TimedFile:
    """File proxy that times writes and the final close as CLI output."""

    def __init__(self, fh, tracer):
        self._fh, self._tr = fh, tracer

    def write(self, text):
        t0 = _now()
        try:
            return self._fh.write(text)
        finally:
            self._tr.add_time("cli_output", _now() - t0)

    def close(self):
        t0 = _now()
        try:
            self._fh.close()
        finally:
            self._tr.add_time("cli_output", _now() - t0)

    def __getattr__(self, name):
        return getattr(self._fh, name)


class Tracer:
    def __init__(self):
        self._patches = []
        self.reset()

    def reset(self):
        self.time = defaultdict(float)
        self.calls = defaultdict(int)
        self.count = defaultdict(float)
        self._depth = defaultdict(int)
        self._noise_mark = None     # end of the last noise draw, if nothing ran since
        self._chunk_rows = 0

    # -- primitives ---------------------------------------------------------

    def add_time(self, key, seconds):
        if self._depth[key] == 0:
            self.time[key] += seconds

    def span(self, key, fn, after=None):
        """Wrap fn in a span; after(args, result) runs on normal return."""
        tr = self

        def wrapper(*args, **kwargs):
            tr._noise_mark = None
            depth = tr._depth[key]
            tr._depth[key] = depth + 1
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                tr._depth[key] = depth
                if depth == 0:
                    tr.time[key] += _now() - t0
                    tr.calls[key] += 1
            if after is not None:
                after(args, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, name, new):
        old = owner[name] if isinstance(owner, dict) else getattr(owner, name)
        self._patches.append((owner, name, old))
        if isinstance(owner, dict):
            owner[name] = new
        else:
            setattr(owner, name, new)

    def _replace_everywhere(self, fn, new):
        """Point every module attribute and table entry holding fn to new."""
        for mod in MODULES:
            for name, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, name, new)
        for table in (M._QBM_MEASURES, M._TLA_MEASURES):
            for name, value in list(table.items()):
                if value is fn:
                    self._set(table, name, new)

    # -- installation -------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.reset()
        self._install_gaussian()
        self._install_measures()
        self._install_trajectories()
        for fn in _functions_of(S):
            self._replace_everywhere(fn, self.span("systems", fn))
        self._replace_everywhere(H.steady_state, self.span("steady_state", H.steady_state))
        self._install_cli()

    def uninstall(self):
        for owner, name, old in reversed(self._patches):
            if isinstance(owner, dict):
                owner[name] = old
            else:
                setattr(owner, name, old)
        self._patches = []

    def _install_gaussian(self):
        self._set(G, "solve_ivp", self.span("ode", G.solve_ivp))
        inner = {"_riccati_stationary_flow": "riccati_fallback", "_flow": "rk4_flow"}
        for fn in _functions_of(G):
            wrapped = fn
            if fn.__name__ in inner:
                wrapped = self.span(inner[fn.__name__], fn)
            self._replace_everywhere(fn, self.span("gaussian", wrapped))

    def _install_measures(self):
        tr = self
        for kind, fn in list(M._QBM_MEASURES.items()):
            key = f"qbm_eval.{kind}"
            timed = self.span(key, fn)

            def counted(*args, _timed=timed, **kwargs):
                try:
                    return _timed(*args, **kwargs)
                except SimulationError:
                    if tr._depth["optimize"]:
                        tr.count["grid_failures"] += 1
                    raise
            self._replace_everywhere(fn, counted)
        self._replace_everywhere(M.optimize_disk, self.span("optimize", M.optimize_disk))
        self._replace_everywhere(M.efficiency_threshold_tla,
                                 self.span("threshold_tla", M.efficiency_threshold_tla))
        self._replace_everywhere(M._long_run_purity,
                                 self.span("long_run_purity", M._long_run_purity))
        superop = M._superop_steps

        def timed_steps(*args, **kwargs):
            gen = superop(*args, **kwargs)
            while True:
                t0 = _now()
                try:
                    item = next(gen)
                except StopIteration:
                    tr.time["superop"] += _now() - t0
                    return
                tr.time["superop"] += _now() - t0
                yield item
        self._set(M, "_superop_steps", timed_steps)

    def _install_trajectories(self):
        tr = self

        def steps(key):
            def after(args, _result):
                tr.count[f"steps.{key}"] += args[1].shape[0]
            return after

        def jump_after(args, result):
            kernel, y = args[0], args[1]
            key = "aid" if kernel.adaptive else "jump"
            tr.count[f"steps.{key}"] += y.shape[0]
            tr.count["clicks"] += int(result[1].sum())

        step_fn = T._SuperopJumpKernel.step
        jump_spans = {flag: self.span("step.aid" if flag else "step.jump", step_fn,
                                      after=jump_after) for flag in (False, True)}

        def jump_step(kernel, *args):
            return jump_spans[kernel.adaptive](kernel, *args)

        def jump_initial(args, _result):
            tr.count["jump_trajectories"] += args[1].shape[0]

        kernels = {"kraus": T._KrausDiffusiveKernel, "purified": T._PurifiedKernel,
                   "matrix": T._MatrixDiffusiveKernel}
        for key, cls in kernels.items():
            self._set(cls, "step", self.span(f"step.{key}", cls.step, after=steps(key)))
        self._set(T._SuperopJumpKernel, "step", jump_step)
        self._set(T._SuperopJumpKernel, "initial",
                  self.span("jump_initial", T._SuperopJumpKernel.initial,
                            after=jump_initial))
        for cls in (*kernels.values(), T._SuperopJumpKernel):
            self._set(cls, "__init__", self.span("kernel_build", cls.__init__))
            self._set(cls, "to_matrices", self.span("sample", cls.to_matrices))
        self._set(T._PurifiedKernel, "purity",
                  self.span("sample", T._PurifiedKernel.purity))
        for name in ("add", "finish"):
            self._set(T._PurityCollector, name,
                      self.span("sample", getattr(T._PurityCollector, name)))
        for name in ("_emit", "_collect_static", "_batch_purity"):
            fn = getattr(T, name)
            self._replace_everywhere(fn, self.span("sample", fn))

        # noise: the rng construction, the draw, and the copy into the
        # chunk buffer that follows each draw (up to the next rng call)
        rng_fn, plan_fn = T.trajectory_rng, T._noise_plan

        def trajectory_rng(*args, **kwargs):
            t0 = _now()
            if tr._noise_mark is not None:
                tr.time["noise"] += t0 - tr._noise_mark
            try:
                return rng_fn(*args, **kwargs)
            finally:
                tr.time["noise"] += _now() - t0
                tr._noise_mark = None

        def noise_plan(*args, **kwargs):
            t0 = _now()
            out = plan_fn(*args, **kwargs)
            end = _now()
            tr.time["noise"] += end - t0
            mb = tr._chunk_rows * out.nbytes / 1e6
            tr.count["noise_buffer_mb"] = max(tr.count["noise_buffer_mb"], mb)
            tr._noise_mark = end
            return out

        chunks_fn = T._iter_chunks

        def iter_chunks(*args, **kwargs):
            for start, stop in chunks_fn(*args, **kwargs):
                tr.count["chunks"] += 1
                tr._chunk_rows = stop - start
                yield start, stop

        self._replace_everywhere(rng_fn, trajectory_rng)
        self._replace_everywhere(plan_fn, noise_plan)
        self._replace_everywhere(chunks_fn, iter_chunks)

    def _install_cli(self):
        tr = self
        open_out = C._open_out

        def timed_open(path):
            t0 = _now()
            try:
                fh, close = open_out(path)
            finally:
                tr.add_time("cli_output", _now() - t0)
            return (_TimedFile(fh, tr) if close else fh), close

        self._set(C, "_open_out", timed_open)
        self._set(C, "_write_rows", self.span("cli_output", C._write_rows))
        self._set(C, "json", types.SimpleNamespace(
            dump=self.span("cli_output", json.dump), dumps=json.dumps))

    # -- metrics ------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics of everything run since install (one round)."""
        t, c, n = self.time, self.calls, self.count

        def ratio(a, b, scale=1.0):
            return scale * a / b if b else 0.0

        traj_steps = sum(n[f"steps.{k}"] for k in (*STEP_KINDS, "matrix"))
        qbm_evals = sum(c[f"qbm_eval.{k}"] for k in MEASURES)
        out = {
            "gaussian.ode_calls": c["ode"],
            "gaussian.ode_s": t["ode"],
            "gaussian.algebra_s": t["gaussian"] - t["ode"],
            "gaussian.riccati_fallbacks": c["riccati_fallback"],
            "gaussian.rk4_flow_s": t["rk4_flow"],
            "measures.qbm_evals_per_optimum": ratio(qbm_evals, c["optimize"]),
            "measures.optimizer_self_s":
                t["optimize"] - sum(t[f"qbm_eval.{k}"] for k in MEASURES),
            "measures.grid_failures": n["grid_failures"],
            "measures.ensembles_per_threshold":
                ratio(c["long_run_purity"], c["threshold_tla"]),
            "measures.superop_s": t["superop"],
            "trajectories.traj_steps": traj_steps,
            "trajectories.noise_ns": ratio(t["noise"], traj_steps, 1e9),
            "trajectories.sample_s": t["sample"],
            "trajectories.kernel_build_ms": 1e3 * t["kernel_build"],
            "trajectories.chunks": n["chunks"],
            "trajectories.noise_buffer_mb": n["noise_buffer_mb"],
            "trajectories.clicks_per_traj": ratio(n["clicks"], n["jump_trajectories"]),
            "hilbert.steady_state_calls": c["steady_state"],
            "hilbert.steady_state_ms": 1e3 * t["steady_state"],
            "systems.build_ms": 1e3 * t["systems"],
            "cli.output_s": t["cli_output"],
        }
        for k in MEASURES:
            out[f"measures.qbm_eval_ms.{k}"] = ratio(t[f"qbm_eval.{k}"],
                                                      c[f"qbm_eval.{k}"], 1e3)
        for k in STEP_KINDS:
            out[f"trajectories.step_ns.{k}"] = ratio(t[f"step.{k}"],
                                                      n[f"steps.{k}"], 1e9)
        return {k: float(v) for k, v in out.items()}
