import ast
import pathlib

import unravel

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
SETTABLE_VALUES = 38


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
