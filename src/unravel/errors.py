"""Exception hierarchy shared across the simulator."""


class SimulationError(Exception):
    """Base class for all numerical/physical failures raised by this package."""


class DimensionMismatchError(SimulationError):
    """Operands live on Hilbert spaces of different dimension."""


class InvariantViolationError(SimulationError):
    """A state or operator failed a physical invariant (trace, Hermiticity, ...)."""


class DegenerateSteadyStateError(SimulationError):
    """The Lindblad generator has more than one stationary state."""


class TruncationError(SimulationError):
    """Fock-space truncation is too small: probability leaked into the top levels."""


class ConvergenceError(SimulationError):
    """A solve or search found no valid solution (e.g. no stationary state)."""


class HorizonError(SimulationError):
    """A threshold crossing was not found within the simulated horizon.

    Carries the curve endpoints so callers can report how far off it was.
    """

    def __init__(self, message, first_value=None, last_value=None, threshold=None):
        super().__init__(message)
        self.first_value = first_value
        self.last_value = last_value
        self.threshold = threshold


class StepSizeError(SimulationError):
    """The integration step is too large for the requested update."""


class BracketError(SimulationError):
    """A root bracket could not be established."""


class AssumptionError(SimulationError):
    """A monotonicity/uniqueness assumption required by an algorithm failed."""


class DecompositionError(SimulationError):
    """A matrix decomposition required by a closed form is invalid (e.g. not PSD)."""
