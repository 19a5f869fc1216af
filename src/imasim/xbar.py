"""Bit-exact functional emulation of the PCM crossbar matrix-vector unit.

The crossbar stores 4-bit signed weights (one logical weight = two physical
devices in a differential pair; the pair only matters for device/area
accounting, the arithmetic uses a single signed integer). Inputs are 8-bit
unsigned pulse-duration codes driven on the wordlines; each bitline
integrates the products and its ADC applies per-column scaling, rounding
and clamping to produce an 8-bit signed output:

    y_i = clamp(round(s_i * sum_j A_ij * x_j), -128, 127)

The integer accumulation is exact: it runs as a float64 matrix product, and
every partial sum is an integer of magnitude at most rows * 255 * 8, far
below 2**53. Noise-free calls are therefore deterministic and bit-identical
to a direct integer reference. `accumulate` returns those bitline sums,
noise included, before the ADC, and `mvm` is one `AdcConfig.requantize`
call on them; an emulator that spreads a layer over several arrays can
collect their sums and convert the whole layer in one ADC call. Both take
one input vector or a batch of them; a batch of n behaves exactly as n
successive single-vector calls, noise draws included.

Two optional Gaussian noise terms model device non-ideality:
- `program_sigma`: drawn once per programmed cell at programming time
  (frozen write error), region by region in row-major order;
- `noise_sigma`: read noise, drawn per output column per input vector.
  Column c's read-noise term sum_r mask_rc * n_rc * x_r, with iid
  n_rc ~ N(0, noise_sigma**2) per cell, has exactly the distribution
  N(0, noise_sigma**2 * sum_r mask_rc * x_r**2), so `accumulate` draws one
  standard normal z per column and adds noise_sigma * sqrt(var_c) * z, in
  input-vector order.
Noise applies to programmed cells only; unprogrammed cells read as exact 0
and add no variance. The RNG is owned by the array instance and is never
shared implicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

WEIGHT_MIN = -8
WEIGHT_MAX = 7
INPUT_MAX = 255
OUT_MIN = -128
OUT_MAX = 127
DEVICES_PER_WEIGHT = 2


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

    `scale` is either a single positive factor shared by all columns or a
    sequence with one factor per column. The same policy object is used by
    the golden-model reference so that equivalence checks exercise the
    mapping/streaming path, not the requantization choice.
    """

    scale: float | tuple[float, ...] = 1.0
    lo: ClassVar[int] = OUT_MIN
    hi: ClassVar[int] = OUT_MAX

    def __post_init__(self):
        scales = np.atleast_1d(np.asarray(self.scale, dtype=np.float64))
        if np.any(scales <= 0):
            raise ValueError("ADC scales must be positive")

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
        """Scale, round half away from zero, clamp. Returns int8.

        Works in place on one float64 buffer, so a large batch adds one
        accumulator-sized array to peak memory. The scales are positive,
        so |acc| * s is |acc * s| and acc carries the sign.
        """
        r = np.abs(acc, dtype=np.float64)
        r *= self.scales(acc.shape[-1])
        r += 0.5
        np.floor(r, out=r)
        np.copysign(r, acc, out=r)
        np.clip(r, self.lo, self.hi, out=r)
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
        and regions overlapping previously programmed cells.
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
        if np.any(w < WEIGHT_MIN) or np.any(w > WEIGHT_MAX):
            bad = w[(w < WEIGHT_MIN) | (w > WEIGHT_MAX)][0]
            raise WeightOutOfRange(f"weight {bad} outside [{WEIGHT_MIN}, {WEIGHT_MAX}]")
        rs = slice(region.row_off, region.row_off + region.rows)
        cs = slice(region.col_off, region.col_off + region.cols)
        if self.mask[rs, cs].any():
            raise RegionOverlap(f"{region} overlaps programmed cells")
        self.weights[rs, cs] = w
        self.mask[rs, cs] = True
        if self.program_sigma > 0:
            if self._program_noise is None:
                self._program_noise = np.zeros((self.rows, self.cols))
            self._program_noise[rs, cs] = self._rng.normal(
                0.0, self.program_sigma, size=(region.rows, region.cols))
        return self

    def accumulate(self, x) -> np.ndarray:
        """Bitline sums of W^T x before the ADC: float64[cols] for one input
        vector x[rows], float64[n, cols] for a batch x[n, rows].

        A single vector is a batch of one. The sum is
        - the integer product x @ W, computed in float64 and exact because
          every partial sum is an integer of magnitude at most
          rows * 255 * 8, far below 2**53;
        - the frozen programming-noise term x @ P, computed per input
          vector so that row i of a batch does not depend on n;
        - read noise noise_sigma * sqrt(var) * z, where var = x**2 @ mask
          is an exact sum over programmed cells (integers of at most
          rows * 255**2; the call squares its own float64 copy of x in
          place) and z is one (n, cols) standard-normal draw.
        Row i of a batch thus gets the same value, and the call leaves the
        same RNG state, as the i-th of n successive single-vector calls.
        """
        xv = np.asarray(x)
        batch = np.atleast_2d(xv)
        if xv.ndim not in (1, 2) or batch.shape[1] != self.rows:
            raise DimensionMismatch(f"input length {xv.shape} != rows {self.rows}")
        if xv.dtype != np.uint8 and (np.any(xv < 0) or np.any(xv > INPUT_MAX)):
            raise ValueError("inputs must be unsigned 8-bit values")
        xf = batch.astype(np.float64)
        acc = xf @ self.weights.astype(np.float64)
        if self._program_noise is not None:
            acc += (self._program_noise.T @ xf[:, :, None])[:, :, 0]
        if self.noise_sigma > 0:
            var = np.square(xf, out=xf) @ self.mask.astype(np.float64)
            acc += self.noise_sigma * np.sqrt(var) \
                * self._rng.standard_normal((len(batch), self.cols))
        return acc if xv.ndim == 2 else acc[0]

    def mvm(self, x, adc: AdcConfig) -> np.ndarray:
        """Crossbar operations y = requantize(W^T x): int8[cols] for one
        input vector x[rows], int8[n, cols] for a batch x[n, rows]; see
        `accumulate` for the sums the ADC converts."""
        return adc.requantize(self.accumulate(x))
