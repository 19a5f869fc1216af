"""Independent integer golden model and end-to-end equivalence checking.

`reference_conv` computes a quantized convolution the direct way: nested
loops over output pixels and filter taps with exact 64-bit accumulation,
then the same ADC scale/round/clamp policy the crossbar applies. It never
touches the mapper or the crossbar, so comparing it against the emulated
pipeline (program regions -> stream jobs -> mvm -> assemble output)
validates the mapping and streaming machinery, not the requantization
choice.

With noise disabled the two paths must agree bit for bit on every layer
kind, including padded borders and partial depthwise channel groups.

`execute_job_stream` runs a layer region by region: one gather of the
region's inputs through `mapper.gather_indices` and one batched `mvm` call,
noisy or not. Jobs reach each region's array in stream order, so seeded
noise draws match those of one `mvm` call per job; `gather_job_input` is
that per-job path's building block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mapper
from .mapper import CrossbarAllocation, JobStream, MappingStrategy
from .workload import (
    DepthwiseConv,
    LayerDescriptor,
    PointwiseConv,
    StandardConv,
    TensorShape,
    in_channels,
    kernel_size,
    layer_pad,
    layer_stride,
    out_channels,
    output_shape,
    weight_shape,
)
from .xbar import (
    WEIGHT_MAX,
    WEIGHT_MIN,
    AdcConfig,
    ProgrammedArray,
    Region,
)

# upper bound on one bitline accumulation; must stay well inside int64
_ACC_BOUND = 2**53


@dataclass(frozen=True, slots=True)
class QuantTensor:
    shape: TensorShape
    data: np.ndarray  # (h, w, c), uint8 activations or int8 outputs

    def __post_init__(self):
        expect = (self.shape.height, self.shape.width, self.shape.channels)
        if self.data.shape != expect:
            raise ValueError(f"data shape {self.data.shape} != {expect}")

    @property
    def flat(self) -> np.ndarray:
        return self.data.reshape(-1)  # HWC byte order


def quant_tensor(data: np.ndarray) -> QuantTensor:
    h, w, c = data.shape
    return QuantTensor(TensorShape(h, w, c), data)


def reference_conv(layer: LayerDescriptor, inp: QuantTensor, weights,
                   adc: AdcConfig) -> QuantTensor:
    """Direct quantized convolution with exact wide accumulation.

    Weights have the canonical layout of `workload.weight_shape`, as in
    `mapper.region_weight_matrix`.
    """
    w = np.asarray(weights, dtype=np.int64)
    if np.any(w < WEIGHT_MIN) or np.any(w > WEIGHT_MAX):
        raise ValueError("weights outside the 4-bit signed range")
    out_shape = output_shape(layer, inp.shape)
    x = inp.data.astype(np.int64)
    k, stride, pad = kernel_size(layer), layer_stride(layer), layer_pad(layer)
    if k * k * in_channels(layer) * WEIGHT_MAX * 255 >= _ACC_BOUND:
        raise ValueError("accumulator bound exceeded for this layer size")
    h, wdt = inp.shape.height, inp.shape.width
    out = np.zeros((out_shape.height, out_shape.width, out_shape.channels),
                   dtype=np.int8)
    for oy in range(out_shape.height):
        for ox in range(out_shape.width):
            acc = np.zeros(out_shape.channels, dtype=np.int64)
            for ky in range(k):
                iy = oy * stride - pad + ky
                if not 0 <= iy < h:
                    continue
                for kx in range(k):
                    ix = ox * stride - pad + kx
                    if not 0 <= ix < wdt:
                        continue
                    pix = x[iy, ix]
                    if isinstance(layer, DepthwiseConv):
                        acc += w[ky, kx] * pix
                    elif isinstance(layer, PointwiseConv):
                        acc += pix @ w
                    else:
                        acc += pix @ w[ky, kx]
            out[oy, ox] = adc.requantize(acc)
    return QuantTensor(out_shape, out)


def program_allocation(alloc: CrossbarAllocation, weights, *,
                       noise_sigma: float = 0.0, program_sigma: float = 0.0,
                       seed: int = 0) -> list[ProgrammedArray]:
    """Materialize one crossbar array per allocated region.

    The single logical array of the accounting model is realized as one
    physical array per region so jobs drive exactly their region's rows.
    """
    arrays = []
    for idx, region in enumerate(alloc.regions):
        block = mapper.region_weight_matrix(alloc, weights, idx)
        arr = ProgrammedArray(region.rows, region.cols,
                              noise_sigma=noise_sigma,
                              program_sigma=program_sigma,
                              seed=seed + idx)
        arr.program(Region(0, 0, region.rows, region.cols), block)
        arrays.append(arr)
    return arrays


def gather_job_input(job: mapper.Job, flat: np.ndarray) -> np.ndarray:
    """Streamer emulation: concatenate a job's segments (zero-fill -> zeros)."""
    parts = []
    for seg in job.segments:
        if seg.zero_fill:
            parts.append(np.zeros(seg.length, dtype=np.uint8))
        else:
            parts.append(flat[seg.offset:seg.offset + seg.length])
    return np.concatenate(parts)


def execute_job_stream(arrays: list[ProgrammedArray], stream: JobStream,
                       inp: QuantTensor, adc: AdcConfig) -> QuantTensor:
    """Run every job through the crossbar and assemble the output tensor.

    Region g's jobs go to `arrays[g]` as batches; the region writes its
    real output columns, from `g * cols` on, of every output pixel (a dense
    layer has one region).
    """
    flat_in = np.concatenate([inp.flat, np.zeros(1, dtype=inp.data.dtype)])
    out_shape = stream.out_shape
    out = np.zeros((out_shape.height * out_shape.width, out_shape.channels),
                   dtype=np.int8)
    for g, index in enumerate(mapper.gather_indices(stream)):
        arr = arrays[g]
        col_base = g * arr.cols
        real = min(arr.cols, out_shape.channels - col_base)
        region_adc = adc.slice(col_base, col_base + arr.cols)
        y = arr.mvm(flat_in[index], region_adc)
        out[:, col_base:col_base + real] = y[:, :real]
    return QuantTensor(out_shape,
                       out.reshape(out_shape.height, out_shape.width,
                                   out_shape.channels))


@dataclass(frozen=True, slots=True)
class EquivalenceResult:
    ok: bool
    index: tuple[int, int, int] | None = None  # first mismatch (y, x, c)
    expected: int | None = None
    actual: int | None = None

    def __str__(self):
        if self.ok:
            return "equivalent"
        return (f"mismatch at {self.index}: expected {self.expected}, "
                f"got {self.actual}")


def check_equivalence(layer: LayerDescriptor, strategy: MappingStrategy,
                      inp: QuantTensor, weights,
                      adc: AdcConfig) -> EquivalenceResult:
    """Emulated pipeline vs. direct reference; exact match required (no noise)."""
    alloc = mapper.map_layer(layer, strategy)
    arrays = program_allocation(alloc, weights)
    stream = mapper.job_stream(layer, inp.shape, strategy)
    got = execute_job_stream(arrays, stream, inp, adc)
    want = reference_conv(layer, inp, weights, adc)
    if np.array_equal(got.data, want.data):
        return EquivalenceResult(True)
    idx = tuple(int(v) for v in np.argwhere(got.data != want.data)[0])
    return EquivalenceResult(False, idx,
                             int(want.data[idx]), int(got.data[idx]))


# --- randomized suite ---------------------------------------------------------

def random_case(rng: np.random.Generator):
    """One random (layer, strategy, input, weights, adc) quintuple.

    Dimensions are kept small; the draw covers standard, pointwise and
    depthwise layers, strides, padded borders, and depthwise channel groups
    that do not divide the channel count.
    """
    kind = rng.choice(["standard", "pointwise", "depthwise"])
    scale_pool = (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03, 0.011)
    strategy = mapper.STANDARD_IM2COL
    if kind == "pointwise":
        c_in = int(rng.integers(1, 9))
        c_out = int(rng.integers(1, 9))
        layer = PointwiseConv(c_in=c_in, c_out=c_out)
        k, pad = 1, 0
    elif kind == "standard":
        k = int(rng.integers(1, 4))
        c_in = int(rng.integers(1, 7))
        c_out = int(rng.integers(1, 7))
        pad = int(rng.integers(0, 2))
        layer = StandardConv(k=k, c_in=c_in, c_out=c_out,
                             stride=int(rng.integers(1, 3)), pad=pad)
    else:
        k = int(rng.integers(2, 4))
        c = int(rng.integers(1, 13))
        pad = int(rng.integers(0, 2))
        layer = DepthwiseConv(k=k, c=c, stride=int(rng.integers(1, 3)), pad=pad)
        strategy = mapper.depthwise_block(int(rng.integers(1, c + 1)))
    h = int(rng.integers(k, k + 5))
    w = int(rng.integers(k, k + 5))
    c_in = in_channels(layer)
    data = rng.integers(0, 256, size=(h, w, c_in)).astype(np.uint8)
    weights = rng.integers(WEIGHT_MIN, WEIGHT_MAX + 1, size=weight_shape(layer))
    scales = tuple(float(rng.choice(scale_pool))
                   for _ in range(out_channels(layer)))
    return layer, strategy, quant_tensor(data), weights, AdcConfig(scales)


@dataclass(frozen=True, slots=True)
class SuiteSummary:
    cases: int
    passed: int
    failed: int
    first_failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.failed == 0


def run_random_suite(cases: int, seed: int = 0) -> SuiteSummary:
    """Randomized pipeline-vs-reference equivalence suite."""
    rng = np.random.default_rng(seed)
    passed = failed = 0
    first = None
    for i in range(cases):
        layer, strategy, inp, weights, adc = random_case(rng)
        result = check_equivalence(layer, strategy, inp, weights, adc)
        if result.ok:
            passed += 1
        else:
            failed += 1
            if first is None:
                first = f"case {i} ({layer}): {result}"
    return SuiteSummary(cases, passed, failed, first)
