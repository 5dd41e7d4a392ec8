"""Spectral solver suite for two-layer internal-wave systems in the
intermediate-long-wave (ILW) and Benjamin-Ono (B-O) regimes.

Three pieces:

* ``spectral`` / ``evolution``: Fourier-Galerkin semidiscretization of the
  periodic initial-value problem with alias-free quadratic products and RK4
  time stepping;
* ``solitary`` / ``accel``: solitary-wave generation by the Petviashvili
  fixed-point iteration, optionally accelerated by minimal polynomial
  extrapolation in cycling mode;
* ``harness`` / ``cli``: verification experiments (spectral self-convergence,
  traveling-wave round trips, tail-decay fits, acceleration benchmarks) and a
  file-driven command-line front end.
"""

__version__ = "0.1.0"

from .accel import cycled_solve, mpe_coefficients, mpe_extrapolate
from .errors import (
    IlwboError,
    NonConvergenceError,
    SingularModeError,
    StepFailureError,
    WindowUnderflowError,
)
from .evolution import EvolutionConfig, evolve, linear_speed_bound
from .harness import (
    AccelRow,
    ConvergenceReport,
    DecayFit,
    acceleration_benchmark,
    convergence_study,
    decay_fit,
    traveling_wave_roundtrip,
)
from .solitary import (
    IterationTrace,
    SolitaryConfig,
    seed_profile,
)
from .spectral import (
    BO,
    ILW,
    ModelParams,
    SpectralGrid,
    StatePair,
    symbol_J,
    symbol_T,
    symbol_g,
)

__all__ = [
    "__version__",
    "BO", "ILW",
    "ModelParams", "SpectralGrid", "StatePair",
    "symbol_g", "symbol_T", "symbol_J",
    "EvolutionConfig", "evolve", "linear_speed_bound",
    "SolitaryConfig", "IterationTrace", "seed_profile",
    "mpe_coefficients", "mpe_extrapolate", "cycled_solve",
    "ConvergenceReport", "DecayFit", "AccelRow",
    "convergence_study", "traveling_wave_roundtrip", "decay_fit",
    "acceleration_benchmark",
    "IlwboError", "SingularModeError", "NonConvergenceError",
    "StepFailureError", "WindowUnderflowError",
]
