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


class NonConvergenceError(IlwboError):
    """A solve stopped short of the tolerance; `trace.termination` says why
    (`not-converged`, `diverged` or `denominator-collapse`), its last row where."""

    def __init__(self, trace):
        self.trace = trace
        super().__init__(
            f"{trace.termination} after {trace.iterations_used} iterations "
            f"(last residual {trace.residuals[-1]:.3e})"
        )


class StepFailureError(IlwboError):
    """A time step produced non-finite values; `time` is where that step would have ended."""

    def __init__(self, message: str, time: float | None = None):
        self.time = time
        super().__init__(message)


class WindowUnderflowError(IlwboError):
    """Tail amplitude is below rounding noise on the requested fit window."""
