"""Robustness of continuous quantum measurement strategies.

Simulators and measures for how classically robust a monitored quantum
system is under different unravellings of its environmental coupling:
purification time, efficiency threshold, mixing time and survival time,
for a quantum-Brownian-motion particle (deterministic Gaussian backend)
and a driven two-level atom (Monte Carlo trajectory backend).
"""

__version__ = "0.1.0"

from .gaussian import (                                  # noqa: F401
    CovarianceState,
    DiskPoint,
    QbmParams,
    gaussian_purity,
    qbm_generators,
    riccati_steady,
    survival_curve,
)
from .hilbert import (                                   # noqa: F401
    DensityMatrix,
    FockWorkspace,
    LindbladModel,
    lindblad_rhs,
    overlap,
    propagate,
    purity,
    steady_state,
)
from .measures import (                                  # noqa: F401
    MeasureResult,
    ThetaThreshold,
    efficiency_threshold,
    first_crossing,
    mixing_time,
    optimize_disk,
    purification_time,
    rank_unravellings,
    survival_time,
)
from .systems import (                                   # noqa: F401
    TlaParams,
    build_qbm_oracle,
    build_tla,
)
from .trajectories import (                              # noqa: F401
    EnsembleCurve,
    InnovationRecord,
    TrajectoryConfig,
    UnravellingSpec,
    run_ensemble,
    run_trajectory,
    step_diffusive,
    step_jump,
)
