"""Every solver error survives pickling, so one raised in a worker process
reaches the caller as itself."""

import pickle

import pytest

from ilwbo.errors import (
    IlwboError,
    NonConvergenceError,
    SingularModeError,
    StepFailureError,
    WindowUnderflowError,
)
from ilwbo.solitary import IterationTrace

TRACE = IterationTrace(residuals=[1e-2, 3e-4, 2e-5], m_factors=[1.0, 1.2, 1.1],
                       phases=["plain"] * 3, inner_steps=[0, 1, 2])

ERRORS = {
    IlwboError: (IlwboError("base"), ()),
    SingularModeError: (SingularModeError(0.5, 1e-20), ("ktilde", "det")),
    NonConvergenceError: (NonConvergenceError(TRACE), ("trace",)),
    StepFailureError: (StepFailureError("time step produced non-finite values", time=0.3),
                       ("time",)),
    WindowUnderflowError: (WindowUnderflowError("profile does not decay below 1/e of its peak"),
                           ()),
}


def test_every_error_type_is_covered():
    assert set(ERRORS) == {IlwboError, *IlwboError.__subclasses__()}


@pytest.mark.parametrize("kind", ERRORS, ids=lambda kind: kind.__name__)
def test_error_survives_pickling(kind):
    error, attributes = ERRORS[kind]
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is kind and str(back) == str(error)
    for name in attributes:
        assert getattr(back, name) == getattr(error, name)
    if kind is NonConvergenceError:
        assert back.trace.residuals == TRACE.residuals
