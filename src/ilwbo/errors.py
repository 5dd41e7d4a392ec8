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

    def __reduce__(self):
        return type(self), (self.ktilde, self.det)


class NonConvergenceError(IlwboError):
    """A solve stopped short of the tolerance; `trace.termination` says why
    (`not-converged`, `diverged`, `denominator-collapse` or `stalled`), its
    last row where."""

    def __init__(self, trace):
        self.trace = trace
        super().__init__(
            f"{trace.termination} after {trace.iterations_used} iterations "
            f"(last residual {trace.residuals[-1]:.3e})"
        )

    def __reduce__(self):
        return type(self), (self.trace,)


class StepFailureError(IlwboError):
    """The evolver met non-finite values: "non-finite coefficients in the
    state" for an initial state, "time step produced non-finite values" for a
    step's result.  `time` is where the failing (or first) step would have ended."""

    def __init__(self, message: str, time: float | None = None):
        self.time = time
        super().__init__(message)


class WindowUnderflowError(IlwboError):
    """No tail to fit: no decay below 1/e of the peak, or a tail below rounding noise."""
