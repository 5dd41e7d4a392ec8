"""Property tests of the library API: perturbed fields of the four config
objects, then the library's experiments on what they build.

The CLI's sweep (`test_cli.py`) changes one config key at a time and goes
through the CLI's own type checks; this one calls the library directly and
also perturbs the physical scales gamma, alpha and l in pairs, which is what
reaches an alpha/gamma that overflows.
"""

import contextlib
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ilwbo import (
    BO,
    EvolutionConfig,
    IlwboError,
    ModelParams,
    SolitaryConfig,
    SpectralGrid,
    convergence_study,
    cycled_solve,
    decay_fit,
    evolve,
    traveling_wave_roundtrip,
)
from ilwbo.harness import EXPONENTIAL, gaussian_state
from ilwbo.spectral import state_to_nodal

# object -> field -> unperturbed value; a grid of N = 32 keeps every call cheap
BASE = {
    ModelParams: {"gamma": 0.8, "alpha": 1.2, "regime": BO},
    SpectralGrid: {"half_length": 16.0, "n_modes": 32},
    EvolutionConfig: {"t_end": 0.1, "dt": 0.01, "record_every": 2, "cfl_guard": 0.5},
    SolitaryConfig: {"speed": 0.57, "tol": 1e-10, "max_iter": 20, "mw": 2,
                     "seed_amplitude": -0.4, "seed_width": 0.5},
}
FIELDS = [(cls, name) for cls, fields in BASE.items() for name in fields]
# the pairs among these reach scales that no single field reaches
SCALES = [(ModelParams, "gamma"), (ModelParams, "alpha"), (SpectralGrid, "half_length")]

WRONG_TYPE = "x"
PERTURBATIONS = [WRONG_TYPE, 2.5, math.nan, math.inf, -math.inf, 0, "negative",
                 1e300, 1e-300, 5e-324, 2**59]

# A longer valid run is not a failure, only slow: such calls are skipped.
MAX_STEPS = 10**4
MAX_SOLVES = 10**3

# What a call may raise: a rejected value, a grid too large to allocate, or
# a solver error.
ALLOWED = (ValueError, MemoryError, IlwboError)


def _build(changes):
    """The four objects with `changes` {(cls, name): value} applied."""
    built = {}
    for cls, fields in BASE.items():
        kwargs = dict(fields)
        for (owner, name), change in changes.items():
            if owner is cls and change == "negative":
                value = kwargs[name]
                numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
                kwargs[name] = -abs(value) if numeric and value else -1
            elif owner is cls:
                kwargs[name] = change
        built[cls] = cls(**kwargs)
    return built


def _calls(params, grid, evolution, solitary):
    """Each library call on the built objects, or False where it is skipped."""
    initial = gaussian_state(0.1, 1.0)
    steps = evolution.n_steps
    short = steps <= MAX_STEPS

    def wave():
        try:
            return cycled_solve(params, grid, solitary)[0]
        except IlwboError:  # no wave: the profile below is Gaussian
            return initial(grid)

    return {
        "evolve": short and (lambda: evolve(params, grid, initial(grid), evolution)),
        "cycled_solve": solitary.max_iter <= MAX_SOLVES
                        and (lambda: cycled_solve(params, grid, solitary)),
        # a reference at 2N, the runs at N/4 and N, and a half-dt probe at N
        "convergence_study": 5 * steps <= MAX_STEPS and (lambda: convergence_study(
            params, initial, [grid.n_modes // 4, grid.n_modes], evolution.t_end,
            evolution.dt, grid.half_length)),
        "traveling_wave_roundtrip": short and (lambda: traveling_wave_roundtrip(
            params, grid, initial(grid), solitary.speed, evolution.t_end, evolution.dt)),
        "decay_fit": solitary.max_iter <= MAX_SOLVES and (lambda: decay_fit(
            grid, state_to_nodal(grid, wave())[0], EXPONENTIAL)),
    }


@contextlib.contextmanager
def no_warnings():
    """Record every warning of the block; none may escape it."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
    assert [str(w.message) for w in caught] == []


changes_strategy = st.one_of(
    st.dictionaries(st.sampled_from(FIELDS), st.sampled_from(PERTURBATIONS),
                    min_size=1, max_size=1),
    st.dictionaries(st.sampled_from(SCALES), st.sampled_from(PERTURBATIONS),
                    min_size=2, max_size=2),
)


# more than the 528 distinct cases: hypothesis stops once it has tried them all
@settings(max_examples=1000)
@given(changes=changes_strategy)
def test_perturbed_library_calls_run_or_raise_a_documented_error(changes):
    """Each config object rejects a bad field with ValueError (a str where a
    number belongs may raise Python's TypeError instead); on the objects
    that build, `evolve`, `cycled_solve`, `convergence_study`,
    `traveling_wave_roundtrip` and `decay_fit` run or raise ValueError,
    MemoryError or an IlwboError, and warn about nothing."""
    built = None
    with no_warnings():
        try:
            built = _build(changes)
        except (ValueError, MemoryError):
            pass
        except TypeError:
            assert WRONG_TYPE in changes.values()
    if built is None:
        return
    for call in _calls(*built.values()).values():
        if call:
            with no_warnings(), contextlib.suppress(*ALLOWED):
                call()


@pytest.mark.parametrize("resolutions", [[16.9, 64.5], [16.0, 64], ["16", 64]])
def test_convergence_study_rejects_non_integer_resolutions(resolutions):
    # 16.9 and 64.5 once ran N = 16 and 64 and reported [16, 64]
    with pytest.raises(ValueError, match="resolutions"):
        convergence_study(ModelParams(0.8, 1.2, BO), gaussian_state(0.1, 1.2), resolutions,
                          t_end=0.02, dt=0.01, half_length=16.0)

