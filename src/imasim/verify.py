"""Independent integer golden model and end-to-end equivalence checking.

`reference_conv` computes a quantized convolution the direct way: for each
of the k*k filter taps, one strided slice of the zero-padded input times
that tap's weights, summed over the output grid, then the same ADC
scale/round/clamp policy the crossbar applies. The sum is exact: every
partial sum is an integer of magnitude at most k*k*c_in*8*255, summed in
float64 for a dense layer (layers whose bound reaches 2**53 are rejected)
and in int32 for a depthwise one, whose outputs sum only k*k products
(kernels with k*k*8*255 at or above 2**31 are rejected). It never touches
the mapper, its gathered inputs or the crossbar, so comparing it against
the emulated pipeline (program regions -> stream jobs -> bitline sums ->
one ADC call) validates the mapping and streaming machinery, not the
requantization choice.

With noise disabled the two paths must agree bit for bit on every layer
kind, including padded borders and partial depthwise channel groups.

`execute_job_stream` runs a layer region by region: `mapper.gather_inputs`
gathers the region's (P, rows) inputs by whole input pixels, through one
(P, k^2) tap index that all regions share, and one batched
`ProgrammedArray.accumulate` call computes their bitline sums, noisy or
not, into the region's columns of one float64 accumulator for the layer.
One ADC call then converts the whole layer, as in `reference_conv`. Jobs
reach each region's array in stream order, so seeded noise draws match
those of one `mvm` call per job; `gather_job_input` is that per-job path's
building block.
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
    INPUT_MAX,
    WEIGHT_MAX,
    WEIGHT_MIN,
    AdcConfig,
    ProgrammedArray,
    Region,
)

# Every partial sum of a reference accumulation is an integer of magnitude
# at most k*k*c_in*_WEIGHT_MAG*INPUT_MAX; below _ACC_BOUND float64 holds it
# exactly, in any summation order.
_ACC_BOUND = 2**53
# A depthwise output sums k*k products, one per tap; below _INT32_BOUND
# int32 holds every partial sum.
_INT32_BOUND = 2**31
_WEIGHT_MAG = max(-WEIGHT_MIN, WEIGHT_MAX)


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
    `mapper.region_weight_matrix`. Each filter tap (ky, kx) adds its strided
    slice of the zero-padded input times that tap's weights to one
    accumulator (int32 for depthwise, float64 otherwise), which the ADC
    policy then requantizes in one call. The first tap writes the
    accumulator and each later tap one reused scratch buffer.
    """
    k, stride, pad = kernel_size(layer), layer_stride(layer), layer_pad(layer)
    depthwise = isinstance(layer, DepthwiseConv)
    if k * k * in_channels(layer) * _WEIGHT_MAG * INPUT_MAX >= _ACC_BOUND \
            or depthwise and k * k * _WEIGHT_MAG * INPUT_MAX >= _INT32_BOUND:
        raise ValueError("accumulator bound exceeded for this layer size")
    w = np.asarray(weights, dtype=np.int64)
    if w.shape != weight_shape(layer):
        raise ValueError(f"weights of shape {w.shape}, expected "
                         f"{weight_shape(layer)}")
    if np.any(w < WEIGHT_MIN) or np.any(w > WEIGHT_MAX):
        raise ValueError("weights outside the 4-bit signed range")
    out_shape = output_shape(layer, inp.shape)
    oh, ow, c_out = out_shape.height, out_shape.width, out_shape.channels
    h, wdt, c_in = inp.data.shape
    if depthwise:
        w = w.reshape(k, k, c_out).astype(np.int32)
        acc_dtype, product = np.int32, np.multiply
    else:
        w = w.reshape(k, k, c_in, c_out).astype(np.float64)
        acc_dtype, product = np.float64, np.matmul
    x = np.zeros((h + 2 * pad, wdt + 2 * pad, c_in), dtype=inp.data.dtype)
    x[pad:pad + h, pad:pad + wdt] = inp.data
    acc = np.empty((oh, ow, c_out), dtype=acc_dtype)
    scratch = np.empty_like(acc) if k > 1 else None
    for ky in range(k):
        for kx in range(k):
            tap = x[ky:ky + (oh - 1) * stride + 1:stride,
                    kx:kx + (ow - 1) * stride + 1:stride]
            if ky == kx == 0:
                product(tap, w[0, 0], out=acc)
            else:
                acc += product(tap, w[ky, kx], out=scratch)
    return QuantTensor(out_shape, adc.requantize(acc))


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

    Region g's jobs go to `arrays[g]` as one batch, whose bitline sums fill
    columns `g * cols` to `(g + 1) * cols` of one float64 accumulator over
    every output pixel (a dense layer has one region); one ADC call then
    converts its first `c_out` columns, the layer's real outputs. An ADC
    configuration without exactly one scale, or one per output channel,
    raises `DimensionMismatch`, as in `reference_conv`.
    """
    out_shape = stream.out_shape
    c_out = out_shape.channels
    adc.scales(c_out)  # a wrong scale count fails before any array runs
    cols = arrays[0].cols
    acc = np.empty((out_shape.height * out_shape.width, len(arrays) * cols))
    for g, x in enumerate(mapper.gather_inputs(stream, inp.data)):
        acc[:, g * cols:(g + 1) * cols] = arrays[g].accumulate(x)
    out = adc.requantize(acc[:, :c_out])
    return QuantTensor(out_shape,
                       out.reshape(out_shape.height, out_shape.width, c_out))


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

_KINDS = ("standard", "pointwise", "depthwise")
_SCALE_POOL = (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03, 0.011)


def random_case(rng: np.random.Generator):
    """One random (layer, strategy, input, weights, adc) quintuple.

    Dimensions are kept small; the draw covers standard, pointwise and
    depthwise layers, strides, padded borders, and depthwise channel groups
    that do not divide the channel count. Inputs are uint8 and weights
    int8, so a large suite drawn up front stays small.
    """
    kind = _KINDS[rng.integers(len(_KINDS))]
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
    weights = rng.integers(WEIGHT_MIN, WEIGHT_MAX + 1,
                           size=weight_shape(layer)).astype(np.int8)
    scales = tuple(_SCALE_POOL[i] for i in
                   rng.integers(len(_SCALE_POOL), size=out_channels(layer)))
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
