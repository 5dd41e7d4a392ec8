"""Exception types raised by the solvers."""


class IlwboError(Exception):
    """Base class for all solver errors."""


class SingularModeError(IlwboError):
    """A per-mode linear system is numerically singular.

    The wave speed sits on (or too close to) the discrete linear spectrum;
    change the speed or the grid.
    """

    def __init__(self, ktilde: float, det: float):
        self.ktilde = float(ktilde)
        self.det = float(det)
        super().__init__(
            f"singular mode at ktilde={self.ktilde:.6g} (det={self.det:.6g}); "
            "wave speed lies in the discrete linear spectrum"
        )


class DenominatorCollapseError(IlwboError):
    """The stabilizing-factor denominator vanished for a degenerate iterate."""


class NonConvergenceError(IlwboError):
    """Iteration cap reached before the residual tolerance."""

    def __init__(self, trace):
        self.trace = trace
        last = trace.residuals[-1] if trace.residuals else float("nan")
        super().__init__(
            f"no convergence after {trace.iterations_used} iterations "
            f"(last residual {last:.3e})"
        )


class DegenerateSumError(IlwboError):
    """Extrapolation coefficients sum to (numerically) zero; skip this cycle."""


class StepFailureError(IlwboError):
    """A time step produced non-finite values; `time` is where that step would have ended."""

    def __init__(self, message: str, time: float | None = None):
        self.time = time
        super().__init__(message)


class WindowUnderflowError(IlwboError):
    """Tail amplitude is below rounding noise on the requested fit window."""
