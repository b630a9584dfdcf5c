import ast
import importlib.util
import pathlib

import numpy as np

import unravel
from unravel import measures as M
from unravel import trajectories as T
from unravel.systems import TlaParams, build_tla

# The names `from unravel import *` users can rely on.  A change to this
# list changes the public surface, so it is made here on purpose.
PUBLIC_NAMES = {
    "CovarianceState", "DiskPoint", "QbmParams", "gaussian_purity",
    "qbm_generators", "riccati_steady", "survival_curve",
    "DensityMatrix", "FockWorkspace", "LindbladModel", "lindblad_rhs",
    "overlap", "propagate", "purity", "steady_state",
    "MeasureResult", "ThetaThreshold", "efficiency_threshold", "first_crossing",
    "mixing_time", "optimize_disk", "purification_time", "rank_unravellings",
    "survival_time",
    "TlaParams", "build_qbm_oracle", "build_tla",
    "EnsembleCurve", "InnovationRecord", "TrajectoryConfig", "UnravellingSpec",
    "run_ensemble", "run_trajectory", "step_diffusive", "step_jump",
}
SUBMODULES = {"cli", "errors", "gaussian", "hilbert", "measures", "systems",
              "trajectories"}


def test_public_names_are_pinned():
    exported = {name for name in vars(unravel) if not name.startswith("_")}
    assert exported - SUBMODULES == PUBLIC_NAMES


# Parameters with a default plus dataclass fields with a default, over
# src/unravel.  A change to this number adds or removes a knob on purpose.
SETTABLE_VALUES = 33


def _settable_values(tree):
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            count += sum(isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                         and "init=False" not in ast.unparse(stmt.value)
                         for stmt in node.body)
    return count


def test_settable_values_are_pinned():
    src = pathlib.Path(unravel.__file__).parent
    total = sum(_settable_values(ast.parse(path.read_text(encoding="utf-8")))
                for path in sorted(src.glob("*.py")))
    assert total == SETTABLE_VALUES


# The benchmark's per-layer tracer (perfbench/tracer.py) patches kernel
# classes, module functions and the measure tables by name, in place, and
# restores them on uninstall.  It is loaded by path, unedited, so a rename it
# depends on fails here.
TRACED_CLASSES = (T._KrausDiffusiveKernel, T._MatrixDiffusiveKernel, T._SuperopJumpKernel,
                  T._PurifiedKernel, T._PurityCollector)


def _load_tracer():
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(tracer):
    owners = [vars(m) for m in tracer.MODULES] + [vars(c) for c in TRACED_CLASSES]
    return [dict(owner) for owner in owners + [M._QBM_MEASURES, M._TLA_MEASURES]]


def test_tracer_installs_counts_and_restores():
    tracer = _load_tracer()
    before = _bindings(tracer)
    tr = tracer.Tracer()
    tr.install()
    try:
        model, excited = build_tla(TlaParams(2.0)), np.diag([1.0, 0.0])
        spec = T.UnravellingSpec("direct")
        T.step_jump(model, spec, excited, 0.5, 1e-3)
        T.run_final_states(model, spec, excited, T.TrajectoryConfig(1e-3, 1.0, seed=3), 64)
    finally:
        tr.uninstall()
    assert tr.metrics()["trajectories.traj_steps"] >= 1
    for old, new in zip(before, _bindings(tracer), strict=True):
        assert old.keys() == new.keys()
        assert all(new[name] is value for name, value in old.items())
