"""Bit-exact functional emulation of the PCM crossbar matrix-vector unit.

The crossbar stores 4-bit signed weights (one logical weight = two physical
devices in a differential pair; the pair only matters for device/area
accounting, the arithmetic uses a single signed integer). Inputs are 8-bit
unsigned pulse-duration codes driven on the wordlines; each bitline
integrates the products and its ADC applies per-column scaling, rounding
and clamping to produce an 8-bit signed output:

    y_i = clamp(round(s_i * sum_j A_ij * x_j), -128, 127)

The accumulation is exact: it runs as one float64 matrix product of the
inputs and the cells' values, and every product and partial sum is exactly
representable (see below), so the sum does not depend on its order.
Noise-free calls are therefore deterministic and bit-identical to a direct
integer reference. `accumulate` returns the bitline sums, noise included,
before the ADC, and `mvm` is one `AdcConfig.requantize` call on them; an
emulator that spreads a layer over several arrays can convert their sums
block by block with one scale vector for the layer. Both take one input
vector or a batch of them; a batch of n behaves exactly as n successive
single-vector calls, noise draws included.

`accumulate_stack` drives a stack of g equally-shaped arrays, array j with
its own batch, in one float64 product; `accumulate` is its one-array case.
Only the read-noise draws stay per array, in stack order, each from the
array's own generator. Array j thus ends with the sums and the RNG state of
one `accumulate` call on its batch alone.

Two optional Gaussian noise terms model device non-ideality:
- `program_sigma`: drawn once per programmed cell at programming time
  (frozen write error), region by region in row-major order, and stored in
  fixed point, rounded to a multiple of 2**-24. A cell's value W + P is
  then a multiple of 2**-24, and so is each product with an integer input
  and each partial sum of a column. `program` rejects an array whose
  column sums could reach 2**29 (rows * 255 * (8 + max|P|)): below that a
  multiple of 2**-24 needs at most 53 significant bits, so float64 holds
  every partial sum exactly and programming noise rides in the same
  product as the weights, with no separate matvec;
- `noise_sigma`: read noise, drawn per output column per input vector.
  Column c's read-noise term sum_r mask_rc * n_rc * x_r, with iid
  n_rc ~ N(0, noise_sigma**2) per cell, has exactly the distribution
  N(0, noise_sigma**2 * sum_r mask_rc * x_r**2), so `accumulate` draws one
  standard normal z per column and adds noise_sigma * sqrt(var_c) * z, in
  input-vector order.
Both sigmas must be finite and >= 0; 0 disables the term. Noise applies to
programmed cells only; unprogrammed cells read as exact 0 and add no
variance. The RNG is owned by the array instance and is never shared
implicitly.

`_STACK_FLOATS` is the float64 budget of one block of emulation work: the
functional emulator in `verify` and the golden model size every temporary
that grows with a layer's output pixels by it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Sequence

import numpy as np

WEIGHT_MIN = -8
WEIGHT_MAX = 7
INPUT_MAX = 255
OUT_MIN = -128
OUT_MAX = 127
DEVICES_PER_WEIGHT = 2
_WEIGHT_MAG = max(-WEIGHT_MIN, WEIGHT_MAX)
# Programming noise is stored as a multiple of 2**-_NOISE_FRAC_BITS; column
# sums of such values below _EXACT_SUM_BOUND are exact in float64.
_NOISE_FRAC_BITS = 24
_EXACT_SUM_BOUND = 2**(53 - _NOISE_FRAC_BITS)
# Float64 values (512 KiB) that one block of a layer's emulation, or of its
# golden model, may hold in one temporary: a block's inputs or its sums.
_STACK_FLOATS = 2**16


class WeightOutOfRange(ValueError):
    """A weight falls outside the 4-bit signed range [-8, 7]."""


class RegionOverflow(ValueError):
    """A programming region does not fit within the array bounds."""


class RegionOverlap(ValueError):
    """A programming region overlaps previously programmed cells."""


class DimensionMismatch(ValueError):
    """Input vector length does not match the array row count."""


@dataclass(frozen=True, slots=True)
class Region:
    row_off: int
    col_off: int
    rows: int
    cols: int


@dataclass(frozen=True, slots=True)
class AdcConfig:
    """Per-column ADC transfer: affine scale, round half away from zero,
    clamp to the signed 8-bit output range.

    `scale` is either a single positive finite factor shared by all
    columns or a sequence with one factor per column. The same policy
    object is used by the golden-model reference so that equivalence
    checks exercise the mapping/streaming path, not the requantization
    choice.
    """

    scale: float | tuple[float, ...] = 1.0
    lo: ClassVar[int] = OUT_MIN
    hi: ClassVar[int] = OUT_MAX

    def __post_init__(self):
        scales = np.atleast_1d(np.asarray(self.scale, dtype=np.float64))
        if not np.all((scales > 0) & np.isfinite(scales)):
            raise ValueError("ADC scales must be positive and finite")

    def scales(self, cols: int) -> np.ndarray:
        s = np.atleast_1d(np.asarray(self.scale, dtype=np.float64))
        if s.size == 1:
            return np.full(cols, s[0])
        if s.size != cols:
            raise DimensionMismatch(f"{s.size} ADC scales for {cols} columns")
        return s

    def slice(self, start: int, stop: int) -> "AdcConfig":
        """Column sub-range of a per-column configuration (padded with 1.0)."""
        s = np.atleast_1d(np.asarray(self.scale, dtype=np.float64))
        if s.size == 1:
            return self
        padded = np.ones(stop, dtype=np.float64)
        avail = min(stop, s.size)
        padded[:avail] = s[:avail]
        return AdcConfig(tuple(padded[start:stop]))

    def requantize(self, acc: np.ndarray) -> np.ndarray:
        """Scale, round half away from zero, clamp. Returns int8."""
        return _requantize(acc, self.scales(acc.shape[-1]))


def _requantize(acc: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """The ADC on sums `acc` with positive `scales` broadcast along their
    last axis: scale, round half away from zero, clamp to int8.

    Works in place on one float64 buffer, so it adds one sums-sized array
    to peak memory. The scales are positive, so |acc| * s is |acc * s| and
    acc carries the sign.
    """
    r = np.abs(acc, dtype=np.float64)
    r *= scales
    r += 0.5
    np.floor(r, out=r)
    np.copysign(r, acc, out=r)
    np.clip(r, OUT_MIN, OUT_MAX, out=r)
    return r.astype(np.int8)


class ProgrammedArray:
    """Integer-weight crossbar state, programmed-cell mask and optional noise.

    Weights are stored at (row j, col i): column i accumulates
    sum_j W[j, i] * x[j]. Programming a region marks its cells in the
    programmed mask; structural zeros inside a region count as programmed
    (they are real, zero-conductance-pair devices).
    """

    def __init__(self, rows: int, cols: int, noise_sigma: float = 0.0,
                 program_sigma: float = 0.0, seed: int = 0):
        if rows < 1 or cols < 1:
            raise ValueError("array dimensions must be >= 1")
        self.rows = rows
        self.cols = cols
        self.noise_sigma = float(noise_sigma)
        self.program_sigma = float(program_sigma)
        if not (0 <= self.noise_sigma < np.inf
                and 0 <= self.program_sigma < np.inf):
            raise ValueError("noise sigmas must be finite and >= 0")
        self.weights = np.zeros((rows, cols), dtype=np.int16)
        self.mask = np.zeros((rows, cols), dtype=bool)
        self._program_noise = None  # lazily allocated float64 grid
        self._seed = seed

    @cached_property
    def _rng(self) -> np.random.Generator:
        # built on first draw: a noiseless array never pays for a generator
        return np.random.default_rng(self._seed)

    def program(self, region: Region, weights) -> "ProgrammedArray":
        """Write an integer weight block into `region`.

        Rejects weights outside [-8, 7], regions that overflow the array,
        and regions overlapping previously programmed cells. With
        `program_sigma` > 0 it draws the region's frozen noise, stored
        rounded to a multiple of 2**-24, and raises ValueError when a
        column sum could then leave the exact range (see the module
        docstring); the generator has drawn by then.
        """
        w = np.asarray(weights, dtype=np.int64)
        if w.shape != (region.rows, region.cols):
            raise DimensionMismatch(
                f"weight block {w.shape} does not match region "
                f"{(region.rows, region.cols)}")
        if region.row_off < 0 or region.col_off < 0 \
                or region.row_off + region.rows > self.rows \
                or region.col_off + region.cols > self.cols:
            raise RegionOverflow(f"{region} exceeds {self.rows}x{self.cols} array")
        if w.size and (w.min() < WEIGHT_MIN or w.max() > WEIGHT_MAX):
            bad = w[(w < WEIGHT_MIN) | (w > WEIGHT_MAX)][0]
            raise WeightOutOfRange(f"weight {bad} outside [{WEIGHT_MIN}, {WEIGHT_MAX}]")
        rs = slice(region.row_off, region.row_off + region.rows)
        cs = slice(region.col_off, region.col_off + region.cols)
        if np.count_nonzero(self.mask[rs, cs]):
            raise RegionOverlap(f"{region} overlaps programmed cells")
        if self.program_sigma > 0:
            draw = self._rng.normal(0.0, self.program_sigma,
                                    size=(region.rows, region.cols))
            noise = np.ldexp(np.round(np.ldexp(draw, _NOISE_FRAC_BITS)),
                             -_NOISE_FRAC_BITS)
            if self._program_noise is None:
                self._program_noise = np.zeros((self.rows, self.cols))
            peak = max(np.abs(noise).max(initial=0.0),
                       np.abs(self._program_noise).max())
            if self.rows * INPUT_MAX * (_WEIGHT_MAG + peak) >= _EXACT_SUM_BOUND:
                raise ValueError(f"programming noise up to {peak:g} on "
                                 f"{self.rows} rows leaves the exact sum range")
            self._program_noise[rs, cs] = noise
        self.weights[rs, cs] = w
        self.mask[rs, cs] = True
        return self

    def accumulate(self, x) -> np.ndarray:
        """Bitline sums of W^T x before the ADC: float64[cols] for one input
        vector x[rows], float64[n, cols] for a batch x[n, rows].

        A single vector is a batch of one, and a batch is a stack of one
        array; see `accumulate_stack`. Row i of a batch gets the same value,
        and the call leaves the same RNG state, as the i-th of n successive
        single-vector calls.
        """
        xv = np.asarray(x)
        if xv.ndim not in (1, 2) or xv.shape[-1] != self.rows:
            raise DimensionMismatch(f"input length {xv.shape} != rows {self.rows}")
        acc = accumulate_stack([self], np.atleast_2d(xv)[None])[0]
        return acc if xv.ndim == 2 else acc[0]

    def mvm(self, x, adc: AdcConfig) -> np.ndarray:
        """Crossbar operations y = requantize(W^T x): int8[cols] for one
        input vector x[rows], int8[n, cols] for a batch x[n, rows]; see
        `accumulate` for the sums the ADC converts."""
        return adc.requantize(self.accumulate(x))


def accumulate_stack(arrays: Sequence[ProgrammedArray], x) -> np.ndarray:
    """Bitline sums before the ADC of g arrays of one shape: float64[g, n,
    cols] for inputs x[g, n, rows], batch j driving `arrays[j]`.

    The sum for array j is
    - the product x[j] @ (W_j + P_j) of the inputs and the cells' values,
      weights plus frozen programming noise, one stacked float64 product for
      all g arrays (two-dimensional when g is 1, which needs no stacked
      temporaries). It is exact, and so row i does not depend on n: every
      product and partial sum is an integer, or with programming noise a
      multiple of 2**-24, below 2**29 in magnitude (see `program`);
    - read noise noise_sigma_j * sqrt(var) * z, where var = x[j]**2 @ mask_j
      is an exact sum over programmed cells (integers of at most
      rows * 255**2; the call squares its own float64 copy of x in place)
      and z is one (n, cols) standard-normal draw from array j's generator,
      the draws running array by array, in stack order.
    """
    xv = np.asarray(x)
    if xv.ndim != 3 or xv.shape[::2] != (len(arrays), arrays[0].rows):
        raise DimensionMismatch(f"input stack {xv.shape} != "
                                f"({len(arrays)}, n, {arrays[0].rows})")
    if xv.dtype != np.uint8 and (np.any(xv < 0) or np.any(xv > INPUT_MAX)):
        raise ValueError("inputs must be unsigned 8-bit values")
    xf = xv.astype(np.float64)
    acc = _stacked_matmul(xf, [a.weights if a._program_noise is None
                               else a.weights + a._program_noise
                               for a in arrays])
    if any(a.noise_sigma > 0 for a in arrays):
        var = _stacked_matmul(np.square(xf, out=xf),
                              [a.mask for a in arrays])
        for j, a in enumerate(arrays):
            if a.noise_sigma > 0:
                term = np.sqrt(var[j], out=var[j])
                term *= a.noise_sigma
                term *= a._rng.standard_normal(term.shape)
                acc[j] += term
    return acc


def _stacked_matmul(xf: np.ndarray, mats: list[np.ndarray]) -> np.ndarray:
    """xf[j] @ mats[j] for every j, in float64; the matrices must share one
    shape."""
    if len(mats) == 1:
        return (xf[0] @ mats[0].astype(np.float64, copy=False))[None]
    return xf @ np.array(mats, dtype=np.float64)
