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
    "TlaParams", "build_qbm_oracle", "build_tla", "measured_quadrature",
    "EnsembleCurve", "InnovationRecord", "TrajectoryConfig", "UnravellingSpec",
    "run_ensemble", "run_trajectory", "step_diffusive", "step_jump",
}
SUBMODULES = {"cli", "errors", "gaussian", "hilbert", "measures", "systems",
              "trajectories"}


def test_public_names_are_pinned():
    exported = {name for name in vars(unravel) if not name.startswith("_")}
    assert exported - SUBMODULES == PUBLIC_NAMES
