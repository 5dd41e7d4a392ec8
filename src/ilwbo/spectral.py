"""Periodic Fourier spectral infrastructure for the two-layer internal-wave systems.

Conventions used throughout the package
---------------------------------------
* Domain: ``[-l, l)`` with period ``2l``, sampled at the ``N`` equispaced nodes
  ``x_j = -l + j*h``, ``h = 2l/N``.
* Modes: integers ``k = -N/2 .. N/2-1`` stored in standard FFT order
  ``[0, 1, ..., N/2-1, -N/2, ..., -1]``; the physical wavenumber of mode ``k``
  is ``ktilde = pi*k/l``.
* Coefficients: ``c[k]`` multiplies the basis function ``exp(i*ktilde*x)``, so
  they approximate the continuous Fourier coefficients on ``[-l, l]``.  The
  forward transform divides by ``N``; e.g. ``cos(pi*x/l)`` has coefficients
  ``1/2`` at ``k = +-1`` and zeros elsewhere.  Because the first node sits at
  ``x = -l`` rather than ``0``, the raw FFT output carries an extra ``(-1)^k``
  phase which the transform helpers fold in.
* Real fields are represented by Hermitian-symmetric coefficient arrays:
  ``c[-k] == conj(c[k])`` with a real entry at ``k = 0`` and ``k = -N/2``.
  A ``StatePair`` *is* the half spectrum of the real pair: the first ``N/2+1``
  entries (modes ``0..N/2-1`` and ``-N/2``) of zeta_hat and u_hat as one
  ``(2, N/2+1)`` array, ``half``.  Its full-length ``zeta_hat`` and ``u_hat``
  are read-only views that mirror conjugates, so a state is Hermitian by type.
  A real field is formed by ``rfft`` and read by ``irfft`` (in
  ``state_from_nodal`` and ``state_to_nodal``).  Every other operation (the
  real-even or odd-imaginary multipliers, the per-mode 2x2 solve, real affine
  combinations) acts on the half spectrum, so no solver re-symmetrizes its
  state.
* The evolver steps that same array.  The Petviashvili/MPE solver steps its
  real part, the cosine coefficients of an even wave.  ``nodal_inner`` is the
  weighted Parseval sum over either (weight 1 at ``k = 0`` and ``-N/2``, 2
  elsewhere).  The evolver takes its quadratic products from
  ``ProductKernel``, the dealiased-product kernel of the half spectrum, and
  the solver from its twin on cosine coefficients, ``EvenProductKernel``: each
  owns a grid's zero-padded and nodal buffers, runs its two transforms through
  the pocketfft routines under ``scipy.fft`` straight into them, splits the
  real ``-N/2`` input coefficient in halves between ``-N/2`` and ``+N/2``, and
  writes the finished products, times its caller's factors, with the ``-N/2``
  output slot zero.  The evolver keeps one kernel per run and the solver one
  per solve.  Every other transform goes through public ``scipy.fft``.

The two model regimes differ only in the nonlocal symbol ``g``:
``g(k) = (alpha/gamma) * |k| * coth|k|`` for the finite-lower-depth (ILW)
system and ``g(k) = (alpha/gamma) * |k|`` for the infinite-depth (B-O) limit.
The derived multipliers are ``T = 1/(1+g)`` and
``J = (1 + ((alpha-1)/alpha) g) / (1 + g)``, with the equivalent one-operator
form ``J = (alpha-1)/alpha + T/alpha`` used for evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft
# the routines that scipy.fft's real transforms end in, for the product kernels
# only; the tests pin their bits against the public scipy.fft calls
from scipy.fft._pocketfft import pypocketfft as _pocketfft
from scipy.fft._pocketfft.helper import _workers as _pocketfft_workers

ILW = "ilw"
BO = "bo"

_fft_workers = 1


def set_fft_workers(n: int) -> None:
    """Set the FFT worker count (-1: all cores); only perfbench's ladder and the tests do."""
    global _fft_workers
    _fft_workers = int(n)


@dataclass(frozen=True)
class ModelParams:
    """Physical/model constants of the two-layer system.

    gamma is the density ratio (upper over lower, < 1), alpha the modelling
    parameter (> 1), regime selects the nonlocal symbol (ILW or BO).
    """

    gamma: float
    alpha: float
    regime: str = ILW

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        if not np.isfinite(1.0 / float(self.gamma)):
            raise ValueError(f"gamma={self.gamma} is too small: 1/gamma is not finite")
        if not 1.0 < self.alpha < np.inf:
            raise ValueError(f"alpha must be finite and exceed 1, got {self.alpha}")
        if not np.isfinite(float(self.alpha) / float(self.gamma)):
            raise ValueError(f"alpha={self.alpha} and gamma={self.gamma} give a symbol scale "
                             "alpha/gamma that is not finite")
        if self.regime not in (ILW, BO):
            raise ValueError(f"regime must be '{ILW}' or '{BO}', got {self.regime!r}")


@dataclass(frozen=True)
class SpectralGrid:
    """Periodic grid on [-l, l) with N nodes and N Fourier modes; it pickles as (l, N)."""

    half_length: float
    n_modes: int

    def __post_init__(self):
        if not self.half_length > 0:
            raise ValueError(f"half_length l must be positive, got {self.half_length}")
        if not np.isfinite(2.0 * self.half_length):
            raise ValueError(f"half_length l={self.half_length} is too large: the period 2l "
                             "is not finite")
        n = self.n_modes
        if not isinstance(n, (int, np.integer)):
            raise ValueError(f"n_modes N must be an integer, got {n!r}")
        if n < 8 or n % 2 != 0:
            raise ValueError(f"n_modes N must be even and >= 8, got {n}")
        # numpy raises ValueError, not MemoryError, for an array it cannot address
        if 16 * n > np.iinfo(np.intp).max:
            raise MemoryError(f"n_modes N={n} is too large to allocate a complex array")
        if not np.isfinite(np.pi / float(self.half_length) * (n // 2)):
            raise ValueError(f"half_length l={self.half_length} is too small: the largest "
                             "wavenumber pi*(N/2)/l is not finite")

    def __reduce__(self):
        return type(self), (self.half_length, self.n_modes)

    @property
    def node_spacing(self) -> float:
        return 2.0 * self.half_length / self.n_modes

    @cached_property
    def nodes(self) -> np.ndarray:
        """x_j = -l + j*h for j = 0..N-1."""
        return -self.half_length + self.node_spacing * np.arange(self.n_modes)

    @cached_property
    def mode_numbers(self) -> np.ndarray:
        """Integer modes in FFT order: [0, 1, ..., N/2-1, -N/2, ..., -1]."""
        return np.fft.fftfreq(self.n_modes, d=1.0 / self.n_modes)

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """ktilde = pi*k/l in the same FFT order as `mode_numbers`."""
        return (np.pi / self.half_length) * self.mode_numbers

    @cached_property
    def _phase(self) -> np.ndarray:
        # (-1)^k factor mapping raw FFT output (first node at -l) to
        # coefficients of exp(i*ktilde*x); its own inverse.
        return np.where(self.mode_numbers.astype(int) % 2 == 0, 1.0, -1.0)


@dataclass(frozen=True, eq=False)
class StatePair:
    """The real pair (zeta, u) as its (2, N/2+1) half spectrum `half`: rows
    zeta_hat and u_hat at k = 0..N/2-1, and the real -N/2 coefficient last."""

    half: np.ndarray

    @cached_property
    def _full(self) -> np.ndarray:
        # the full-length views, for perfbench's ladder and the tests: c[-k] = conj(c[k])
        h = self.half.shape[1] - 1
        full = np.empty((2, 2 * h), dtype=complex)
        full[:, : h + 1] = self.half
        np.conj(self.half[:, h - 1: 0: -1], out=full[:, h + 1:])
        full.flags.writeable = False
        return full

    @property
    def zeta_hat(self) -> np.ndarray:
        return self._full[0]

    @property
    def u_hat(self) -> np.ndarray:
        return self._full[1]


# ----------------------------------------------------------------------------
# Fourier symbols
# ----------------------------------------------------------------------------

def symbol_g(params: ModelParams, k) -> np.ndarray:
    """Nonlocal symbol g(k) of the chosen regime (even, >= 0, nondecreasing in |k|);
    where (alpha/gamma)|k| overflows, g is its limit +inf: T = 0, J = (alpha-1)/alpha."""
    ak = np.abs(np.asarray(k, dtype=float))
    scale = params.alpha / params.gamma
    with np.errstate(over="ignore"):
        if params.regime == BO:
            return scale * ak
        # ILW: |k| coth|k|, with its removable singularity at 0 set to 1; tanh
        # rounds to 1 far out and to its argument near 0, so no series is needed
        return scale * np.divide(ak, np.tanh(ak), out=np.ones_like(ak), where=ak > 0)


def symbol_T(params: ModelParams, k) -> np.ndarray:
    """Symbol of (1 + g(D))^{-1}; values in (0, 1]."""
    return 1.0 / (1.0 + symbol_g(params, k))


def symbol_J(params: ModelParams, k) -> np.ndarray:
    """Symbol of (1 + g(D))^{-1} (1 + ((alpha-1)/alpha) g(D)).

    Evaluated through the partial-fraction identity
    J = (alpha-1)/alpha + T/alpha, so only one nonlocal symbol is computed.
    Values lie in ((alpha-1)/alpha, 1].
    """
    a = params.alpha
    return (a - 1.0) / a + symbol_T(params, k) / a


# ----------------------------------------------------------------------------
# Transforms
# ----------------------------------------------------------------------------

def to_coefficients(grid: SpectralGrid, values: np.ndarray) -> np.ndarray:
    """Nodal values -> Fourier coefficients (forward transform divides by N)."""
    values = np.asarray(values)
    if values.shape != (grid.n_modes,):
        raise ValueError(
            f"expected {grid.n_modes} nodal values, got shape {values.shape}"
        )
    return grid._phase * scipy.fft.fft(values, norm="forward", workers=_fft_workers)


def to_nodal(grid: SpectralGrid, coeffs: np.ndarray) -> np.ndarray:
    """Fourier coefficients -> complex nodal values (use .real for real fields)."""
    coeffs = np.asarray(coeffs)
    if coeffs.shape != (grid.n_modes,):
        raise ValueError(
            f"expected {grid.n_modes} coefficients, got shape {coeffs.shape}"
        )
    return scipy.fft.ifft(grid._phase * coeffs, norm="forward", workers=_fft_workers)


def state_from_nodal(grid: SpectralGrid, zeta: np.ndarray, u: np.ndarray) -> StatePair:
    """The state of the real nodal fields (zeta, u): one batched rfft."""
    h = grid.n_modes // 2
    half = scipy.fft.rfft(np.stack((zeta, u)), norm="forward", workers=_fft_workers)
    with np.errstate(invalid="ignore"):  # an overflowed sum: inf * (1 + 0j) = inf + nan j
        return StatePair(grid._phase[: h + 1] * half)


def state_to_nodal(grid: SpectralGrid, state: StatePair) -> tuple[np.ndarray, np.ndarray]:
    """Nodal values of the real fields (zeta, u): one batched irfft."""
    h = grid.n_modes // 2
    values = scipy.fft.irfft(grid._phase[: h + 1] * state.half, grid.n_modes,
                             norm="forward", workers=_fft_workers)
    return values[0], values[1]


# ----------------------------------------------------------------------------
# Multipliers
# ----------------------------------------------------------------------------

def derivative_symbol(grid: SpectralGrid) -> np.ndarray:
    """Per-mode symbol of d/dx, i*ktilde, with the unpaired Nyquist mode zeroed.

    Zeroing mode -N/2 is what keeps an odd imaginary multiplier from breaking
    Hermitian symmetry (the +N/2 partner is not stored).
    """
    ik = 1j * grid.wavenumbers
    ik[grid.n_modes // 2] = 0.0
    return ik


def translate_state(grid: SpectralGrid, state: StatePair, shift: float) -> StatePair:
    """The state of x -> (zeta, u)(x - shift); exact for trigonometric polynomials.

    The -N/2 coefficient has no +N/2 partner to turn with, so it keeps the
    real part of its turned value.
    """
    h = grid.n_modes // 2
    half = state.half * np.exp(-1j * grid.wavenumbers[: h + 1] * shift)
    half[:, h] = half[:, h].real
    return StatePair(half)


# ----------------------------------------------------------------------------
# The dealiased product
# ----------------------------------------------------------------------------

def _padded_size(n: int) -> int:
    """The padded grid of the dealiased product at n modes: 25n/16 =
    2^(p-4) * 5^2 when n = 2^p >= 1024, else the least even size >= 3n/2.

    Any size >= 3n/2 removes every alias from quadratic products of modes in
    -n/2..n/2-1 that could land back in the retained band, so the choice
    moves only rounding; the (-1)^k phase comes from the origin at -l and
    holds at any size.  The size is picked for its FFT speed.  pocketfft's
    c2r + r2c pair on 2 rows, time at 25n/16 over time at 3n/2 (2-core VM,
    medians of 15 interleaved blocks, two sessions):

        n      128        512        1024       2048  4096       8192       16384
        ratio  1.05-1.07  1.08-1.10  0.95-0.98  0.99  0.88-0.89  0.98-1.00  0.93-0.96

    An odd size is as exact but moves the last bits of every product at
    n = 2 (mod 4).  test_the_padded_grid_takes_25n_over_16_at_powers_of_two_from_1024
    pins both branches.
    """
    if n >= 1024 and int(n).bit_count() == 1:
        return 25 * n // 16
    m = (3 * n + 1) // 2
    return m + (m % 2)


def projected_product(grid: SpectralGrid, f_hat: np.ndarray, g_hat: np.ndarray) -> np.ndarray:
    """Truncation P_N of the pointwise product of two trigonometric polynomials.

    Computed alias-free: zero-pad both factors to >= 3N/2 modes, multiply in
    nodal space on the fine grid, transform back and truncate.  Exact (to
    rounding) for any pair of band-limited inputs, Hermitian or not.  The -N/2
    input coefficient enters one-sided, at mode -N/2 of the padded band; the
    -N/2 output slot has no +N/2 partner and stays zero.
    """
    n = grid.n_modes
    if f_hat.shape != (n,) or g_hat.shape != (n,):
        raise ValueError("coefficient arrays do not match the grid")
    m, phase = _padded_size(n), grid._phase
    h = n // 2
    coarse = phase * np.stack((f_hat, g_hat))
    fine = np.zeros((2, m), dtype=complex)
    fine[:, :h], fine[:, m - h:] = coarse[:, :h], coarse[:, h:]
    values = scipy.fft.ifft(fine, norm="forward", overwrite_x=True, workers=_fft_workers)
    full = scipy.fft.fft(values[0] * values[1], norm="forward", overwrite_x=True,
                         workers=_fft_workers)
    out = phase * np.concatenate((full[:h], full[m - h:]))
    out[h] = 0.0
    return out


class ProductKernel:
    """The alias-free products (zeta u, u^2) of one grid's real pair, times
    per-row factors, on the zero-padded half spectrum of the >= 3N/2 grid.

    The per-row `factors` (scalars or tables over k = 0..N/2) are taken
    once, with the output phase (-1)^k folded in (exact: +-1 * f = +-f).  The
    kernel owns its padded, nodal and spectrum buffers and calls the
    pocketfft routines that `scipy.fft.irfft`/`rfft(norm="forward")` end in,
    with their arguments, straight into them: the same bits without
    scipy.fft's dispatch and output allocation.  It resolves the
    `set_fft_workers` count when it is built, as scipy.fft resolves
    `workers` (-1: every core; 0 raises ValueError).

    A call writes the rows of `half` times `input_phase` ((-1)^k, halved at
    -N/2, which splits that coefficient between -N/2 and +N/2) into the
    padded buffer, takes one batched inverse transform, forms both products
    in place and one batched forward transform back.  It writes modes
    0..N/2 of that spectrum times the factors into `out`, with the -N/2
    slot, outside the band, set to +0.0, and returns `out`; `half` is left
    alone.
    """

    def __init__(self, grid: SpectralGrid, factors):
        h = self._h = grid.n_modes // 2
        self.size = _padded_size(grid.n_modes)
        phase = grid._phase[: h + 1]
        self.input_phase = phase.copy()
        self.input_phase[h] *= 0.5
        self.factors = (phase * factors).astype(complex)
        self._threads = _pocketfft_workers(_fft_workers)
        self._padded = np.zeros((2, self.size // 2 + 1), dtype=complex)
        self._nodal = np.empty((2, self.size))
        self._nodal_rows = tuple(self._nodal)
        self._spectrum = np.empty_like(self._padded)
        self._padded_band = self._padded[:, : h + 1]
        self._spectrum_band = self._spectrum[:, : h + 1]

    def __call__(self, half: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.multiply(self.input_phase, half, out=self._padded_band)
        # c2r leaves its input alone, so the zero padding persists
        _pocketfft.c2r(self._padded, (-1,), self.size, False, 0, self._nodal, self._threads)
        zeta, u = self._nodal_rows
        zeta *= u
        u *= u
        _pocketfft.r2c(self._nodal, (-1,), True, 2, self._spectrum, self._threads)
        np.multiply(self._spectrum_band, self.factors, out=out)
        out[:, self._h] = 0.0  # a zero factor could leave -0 or nan here
        return out


class EvenProductKernel:
    """`ProductKernel` for an even real pair, on its (2, N/2+1) cosine
    coefficients: the real half spectrum, as `half.real` of the state.

    On the padded grid of m points shifted by half a cell, x_j = (j+1/2)2l/m,
    an even field's values at j = 0..m/2-1 are the DCT-III of its cosine
    coefficients (-N/2 halved, as in `ProductKernel`) zero-padded to m/2, and
    the product's coefficients are the DCT-II of the products over m: two
    real transforms of length m/2, which pocketfft takes through a real FFT
    of that length.  The origin of the shifted grid is x = 0, so no phase
    enters.  The kernel calls the pocketfft routine that public
    `scipy.fft.dct` (type 3, then type 2) ends in, with its arguments,
    straight into its own buffers.  It writes modes 0..N/2 times
    `factors / m` into `out`, with the -N/2 slot set to +0.0, and returns
    `out`; `half` is left alone.
    """

    def __init__(self, grid: SpectralGrid, factors):
        h = self._h = grid.n_modes // 2
        self.size = _padded_size(grid.n_modes)
        self.input_weight = np.ones(h + 1)
        self.input_weight[h] = 0.5
        self.factors = np.asarray(factors, dtype=float) / self.size
        self._threads = _pocketfft_workers(_fft_workers)
        self._padded = np.zeros((2, self.size // 2))
        self._nodal = np.empty_like(self._padded)
        self._nodal_rows = tuple(self._nodal)
        self._padded_band = self._padded[:, : h + 1]
        self._spectrum_band = self._nodal[:, : h + 1]

    def __call__(self, half: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.multiply(self.input_weight, half, out=self._padded_band)
        # out of place, so the zero padding persists; the DCT-II runs in place
        _pocketfft.dct(self._padded, 3, (-1,), 0, self._nodal, self._threads, None)
        zeta, u = self._nodal_rows
        zeta *= u
        u *= u
        _pocketfft.dct(self._nodal, 2, (-1,), 0, self._nodal, self._threads, None)
        np.multiply(self._spectrum_band, self.factors, out=out)
        out[:, self._h] = 0.0
        return out


# ----------------------------------------------------------------------------
# Inner products and norms
# ----------------------------------------------------------------------------

def nodal_inner(grid: SpectralGrid, a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean inner product of the stacked 2N nodal values of two real
    states, from their half spectra or cosine coefficients: by Parseval,
    N * Re sum_k a_hat conj(b_hat) over all N modes, where the modes -k
    double 1..N/2-1.
    """
    h = grid.n_modes // 2
    s = 2.0 * np.vdot(b, a) - np.vdot(b[:, ::h], a[:, ::h])
    return grid.n_modes * s.real


def nodal_norm(grid: SpectralGrid, a: np.ndarray) -> float:
    return float(np.sqrt(max(nodal_inner(grid, a, a), 0.0)))


def l2_norm(grid: SpectralGrid, half: np.ndarray) -> float:
    """||zeta|| + ||u|| of the real fields whose half spectra are the rows of
    `half`, each the continuous L2 norm on [-l, l]: ||f||^2 = 2l sum |f_hat|^2
    over all N modes, the node spacing times the row's `nodal_inner`."""
    return sum(float(np.sqrt(grid.node_spacing * nodal_inner(grid, row, row)))
               for row in half[:, None])
