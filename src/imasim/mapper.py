"""Map convolution layers onto crossbar regions and generate job streams.

Standard and pointwise convolutions map densely: the region has
k*k*c_in rows (the flattened receptive field in HWC order) and c_out
columns; every output pixel is one job and utilization is 1.

A depthwise layer only connects channel m to output channel m, so it maps
as a block-diagonal pattern. The channels are split into groups of `c_job`
channels per job; each group occupies a (k*k*c_job) x c_job region whose
off-diagonal weights are structural zeros. The crossbar cell count is

    weights_total = k^2 * c * c_job          (c divisible by c_job)

so utilization is exactly 1/c_job: throughput per job and array area trade
off directly. A non-divisible tail group is padded up to c_job columns
(rows likewise), which keeps per-job timing uniform.

The streamer performs a virtual im2col over the flat HWC activation buffer:
per job it fetches one contiguous slice per in-bounds receptive-field tap.
Taps that fall in the zero-padding border are zero-fill: the address
generator skips them, so they cost no memory traffic and no port cycles,
but they still occupy DAC rows. Stream traffic therefore depends only on
layer geometry, and `stream_geometry` gives it in closed form: with T the
in-bounds taps summed over output pixels (the product of the per-axis
sums) and P the output pixel count, group g fetches T slices of real_g
bytes and writes P slices of out_g bytes, in P jobs per group.

`job_stream` enumerates the same traffic as explicit (offset, length)
segments per job. It exists only where bytes are pushed through a
crossbar -- functional emulation in `verify` -- and as the test oracle for
`stream_geometry`; the cycle model never builds one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .workload import (
    DepthwiseConv,
    LayerDescriptor,
    Layout,
    NetworkDescriptor,
    PointwiseConv,
    StandardConv,
    TensorShape,
    in_channels,
    kernel_size,
    layer_pad,
    layer_stride,
    output_shape,
    params,
)
from .xbar import DEVICES_PER_WEIGHT, Region


class SplitRequired(ValueError):
    """Layer does not fit a single crossbar; multi-array splits unsupported."""


class LayoutMismatch(ValueError):
    """Job streams require HWC activation buffers."""


class StrategyKind(Enum):
    STANDARD_IM2COL = "standard_im2col"
    POINTWISE = "pointwise"
    DEPTHWISE_BLOCK = "depthwise_block"


@dataclass(frozen=True, slots=True)
class MappingStrategy:
    kind: StrategyKind
    c_job: int | None = None  # channels per job, depthwise only

    def __post_init__(self):
        if self.kind is StrategyKind.DEPTHWISE_BLOCK:
            if self.c_job is None or self.c_job < 1:
                raise ValueError("depthwise mapping needs c_job >= 1")


STANDARD_IM2COL = MappingStrategy(StrategyKind.STANDARD_IM2COL)
POINTWISE = MappingStrategy(StrategyKind.POINTWISE)


def depthwise_block(c_job: int) -> MappingStrategy:
    return MappingStrategy(StrategyKind.DEPTHWISE_BLOCK, c_job)


def default_strategy(layer: LayerDescriptor,
                     dw_c_job: int | None = None) -> MappingStrategy:
    """Natural strategy per layer kind; depthwise needs a c_job choice."""
    if isinstance(layer, PointwiseConv):
        return POINTWISE
    if isinstance(layer, DepthwiseConv):
        c_job = layer.c if dw_c_job is None else min(dw_c_job, layer.c)
        return depthwise_block(c_job)
    return STANDARD_IM2COL


@dataclass(frozen=True, slots=True)
class AllocatedRegion:
    region: Region
    group: int  # depthwise channel-group index; 0 for dense layers


@dataclass(frozen=True, slots=True)
class CrossbarAllocation:
    layer: LayerDescriptor
    strategy: MappingStrategy
    regions: tuple[AllocatedRegion, ...]
    rows_used: int
    cols_used: int
    weights_total: int   # crossbar cells claimed, incl. structural zeros
    weights_useful: int  # cells holding real parameters
    jobs_per_output_pixel: int

    @property
    def devices_total(self) -> int:
        return DEVICES_PER_WEIGHT * self.weights_total

    @property
    def devices_useful(self) -> int:
        return DEVICES_PER_WEIGHT * self.weights_useful


def map_standard(conv: StandardConv | PointwiseConv,
                 max_rows: int | None = None,
                 max_cols: int | None = None) -> CrossbarAllocation:
    """Dense mapping of a standard or pointwise convolution.

    One region of k*k*c_in rows by c_out columns, one job per output pixel.
    Raises SplitRequired when the region exceeds the given array bounds
    (by default the array is assumed sized to fit).
    """
    k = kernel_size(conv)
    rows = k * k * conv.c_in
    cols = conv.c_out
    if max_rows is not None and rows > max_rows:
        raise SplitRequired(f"needs {rows} rows, array has {max_rows}")
    if max_cols is not None and cols > max_cols:
        raise SplitRequired(f"needs {cols} columns, array has {max_cols}")
    weights = rows * cols
    return CrossbarAllocation(
        layer=conv, strategy=default_strategy(conv),
        regions=(AllocatedRegion(Region(0, 0, rows, cols), 0),),
        rows_used=rows, cols_used=cols,
        weights_total=weights, weights_useful=weights,
        jobs_per_output_pixel=1)


def map_depthwise(dw: DepthwiseConv, c_job: int) -> CrossbarAllocation:
    """Block-diagonal mapping of a depthwise convolution.

    ceil(c / c_job) groups, each a (k*k*c_job) x c_job region packed
    diagonally; a partial tail group is padded up to c_job. Useful weights
    are the k*k*c real taps.
    """
    if c_job < 1 or c_job > dw.c:
        raise ValueError(f"c_job must be in [1, {dw.c}], got {c_job}")
    groups = -(-dw.c // c_job)
    block_rows = dw.k * dw.k * c_job
    regions = tuple(
        AllocatedRegion(Region(g * block_rows, g * c_job, block_rows, c_job), g)
        for g in range(groups))
    weights_total = groups * block_rows * c_job  # k^2 * c * c_job when c_job | c
    return CrossbarAllocation(
        layer=dw, strategy=depthwise_block(c_job),
        regions=regions,
        rows_used=groups * block_rows, cols_used=groups * c_job,
        weights_total=weights_total,
        weights_useful=dw.k * dw.k * dw.c,
        jobs_per_output_pixel=groups)


def map_layer(layer: LayerDescriptor, strategy: MappingStrategy,
              max_rows: int | None = None,
              max_cols: int | None = None) -> CrossbarAllocation:
    if strategy.kind is StrategyKind.DEPTHWISE_BLOCK:
        if not isinstance(layer, DepthwiseConv):
            raise ValueError("depthwise strategy on a non-depthwise layer")
        return map_depthwise(layer, strategy.c_job)
    if isinstance(layer, DepthwiseConv):
        raise ValueError("depthwise layer needs a depthwise_block strategy")
    return map_standard(layer, max_rows, max_cols)


def utilization(alloc: CrossbarAllocation) -> float:
    return alloc.weights_useful / alloc.weights_total


# --- job streams ------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Segment:
    offset: int        # byte offset into the flat HWC buffer
    length: int        # bytes
    zero_fill: bool = False  # padding border: no fetch, zero data


@dataclass(frozen=True, slots=True)
class Job:
    segments: tuple[Segment, ...]
    out_offset: int
    out_length: int
    region_id: int


@dataclass(frozen=True, slots=True)
class JobStream:
    layer: LayerDescriptor
    strategy: MappingStrategy
    in_shape: TensorShape
    out_shape: TensorShape
    jobs: tuple[Job, ...]


def job_stream(layer: LayerDescriptor, in_shape: TensorShape,
               strategy: MappingStrategy) -> JobStream:
    """Generate the per-job streamer address segments for one layer.

    Dense layers: one job per output pixel with k^2 segments of c_in bytes
    (one per receptive-field pixel, zero-fill where padded).

    Depthwise groups: one job per (group, output pixel) with k^2 segments of
    c_job bytes covering the group's channel slice; a partial tail group
    emits its real slice plus a zero-fill pad so the DAC rows stay full.
    Group jobs are emitted group-major so each region is configured once.
    """
    out = _stream_output_shape(layer, in_shape, strategy)
    if isinstance(layer, DepthwiseConv):
        jobs = _depthwise_jobs(layer, in_shape, out, strategy.c_job)
    else:
        jobs = _dense_jobs(in_shape, out, kernel_size(layer),
                           layer_stride(layer), layer_pad(layer))
    return JobStream(layer, strategy, in_shape, out, tuple(jobs))


def _stream_output_shape(layer: LayerDescriptor, in_shape: TensorShape,
                         strategy: MappingStrategy) -> TensorShape:
    """Output shape of a streamed layer, after checking the stream's inputs."""
    if in_shape.layout is not Layout.HWC:
        raise LayoutMismatch(f"job streams require HWC input, got {in_shape.layout}")
    if in_shape.channels != in_channels(layer):
        raise ValueError("input shape does not match layer channels")
    if isinstance(layer, DepthwiseConv) \
            and strategy.kind is not StrategyKind.DEPTHWISE_BLOCK:
        raise ValueError("depthwise layer needs a depthwise_block strategy")
    return output_shape(layer, in_shape)


def _receptive_segments(in_shape: TensorShape, oy: int, ox: int,
                        k: int, stride: int, pad: int,
                        ch_off: int, ch_len: int) -> tuple[Segment, ...]:
    h, w, c = in_shape.height, in_shape.width, in_shape.channels
    segs = []
    for ky in range(k):
        iy = oy * stride - pad + ky
        for kx in range(k):
            ix = ox * stride - pad + kx
            if 0 <= iy < h and 0 <= ix < w:
                segs.append(Segment((iy * w + ix) * c + ch_off, ch_len))
            else:
                segs.append(Segment(0, ch_len, zero_fill=True))
    return tuple(segs)


def _dense_jobs(in_shape: TensorShape, out: TensorShape,
                k: int, stride: int, pad: int) -> list[Job]:
    c_in = in_shape.channels
    c_out = out.channels
    jobs = []
    for oy in range(out.height):
        for ox in range(out.width):
            segs = _receptive_segments(in_shape, oy, ox, k, stride, pad, 0, c_in)
            jobs.append(Job(segs, (oy * out.width + ox) * c_out, c_out, 0))
    return jobs


def _depthwise_jobs(dw: DepthwiseConv, in_shape: TensorShape,
                    out: TensorShape, c_job: int) -> list[Job]:
    c = dw.c
    groups = -(-c // c_job)
    jobs = []
    for g in range(groups):
        ch_off = g * c_job
        real = min(c_job, c - ch_off)
        pad_len = c_job - real
        for oy in range(out.height):
            for ox in range(out.width):
                segs = _receptive_segments(in_shape, oy, ox, dw.k, dw.stride,
                                           dw.pad, ch_off, real)
                if pad_len:
                    # channel pad of the tail group: interleave a zero-fill
                    # after each real slice so DAC rows stay contiguous
                    padded = []
                    for s in segs:
                        padded.append(s)
                        padded.append(Segment(0, pad_len, zero_fill=True))
                    segs = tuple(padded)
                jobs.append(Job(segs, (oy * out.width + ox) * c + ch_off,
                                real, g))
    return jobs


@dataclass(frozen=True, slots=True)
class StreamGeometry:
    """Closed-form stream traffic of one layer, equal to its `job_stream`.

    Every in-bounds tap of every output pixel fetches one slice per channel
    group, and every output pixel writes one slice per group; zero-fill
    taps and channel pads move nothing.
    """

    taps: int                     # T: in-bounds taps summed over output pixels
    pixels: int                   # P: output pixels
    slices_in: tuple[int, ...]    # real_g: bytes fetched per tap, per group
    slices_out: tuple[int, ...]   # out_g: bytes written per pixel, per group

    @property
    def jobs(self) -> int:
        return self.pixels * len(self.slices_in)

    @property
    def bytes_in(self) -> int:
        return self.taps * sum(self.slices_in)

    @property
    def bytes_out(self) -> int:
        return self.pixels * sum(self.slices_out)


def stream_geometry(layer: LayerDescriptor, in_shape: TensorShape,
                    strategy: MappingStrategy) -> StreamGeometry:
    """Stream traffic of a layer from its geometry, without enumerating jobs.

    Accepts and rejects exactly the arguments `job_stream` does. Dense
    layers have one group (c_in in, c_out out); depthwise group g has
    real_g = out_g = min(c_job, c - g * c_job).
    """
    out = _stream_output_shape(layer, in_shape, strategy)
    k, stride, pad = kernel_size(layer), layer_stride(layer), layer_pad(layer)
    taps = (_axis_taps(in_shape.height, out.height, k, stride, pad)
            * _axis_taps(in_shape.width, out.width, k, stride, pad))
    if isinstance(layer, DepthwiseConv):
        c_job = strategy.c_job
        slices = tuple(min(c_job, layer.c - off)
                       for off in range(0, layer.c, c_job))
        slices_in = slices_out = slices
    else:
        slices_in, slices_out = (in_shape.channels,), (out.channels,)
    return StreamGeometry(taps, out.height * out.width, slices_in, slices_out)


def stream_bytes(stream: JobStream) -> tuple[int, int]:
    """(streamed-in, streamed-out) bytes of an enumerated stream.

    Read from the stream's geometry, not by walking its jobs. Kept for
    callers that already hold a stream; the benchmark's per-layer metrics
    name this function.
    """
    geo = stream_geometry(stream.layer, stream.in_shape, stream.strategy)
    return geo.bytes_in, geo.bytes_out


def _axis_taps(size: int, out_size: int, k: int, stride: int, pad: int) -> int:
    """In-bounds filter taps along one axis, summed over output positions."""
    total = 0
    for o in range(out_size):
        start = o * stride - pad
        total += max(0, min(start + k, size) - max(start, 0))
    return total


def format_allocation(alloc: CrossbarAllocation) -> str:
    """Human-readable region table with cell counts and utilization."""
    lines = [f"{'region':>7} {'row_off':>8} {'col_off':>8} {'rows':>6} {'cols':>6}"]
    for ar in alloc.regions:
        r = ar.region
        lines.append(f"{ar.group:>7} {r.row_off:>8} {r.col_off:>8} "
                     f"{r.rows:>6} {r.cols:>6}")
    lines.append(f"cells: {alloc.weights_total} ({alloc.weights_useful} useful, "
                 f"utilization {utilization(alloc):.4f}), "
                 f"devices: {alloc.devices_total}, "
                 f"jobs/pixel: {alloc.jobs_per_output_pixel}")
    return "\n".join(lines)


# --- weight matrices --------------------------------------------------------

def region_weight_matrix(alloc: CrossbarAllocation, weights,
                         region_index: int = 0) -> np.ndarray:
    """Integer weight block for one allocated region.

    Canonical weight layouts:
      standard:  (k, k, c_in, c_out)
      pointwise: (c_in, c_out)
      depthwise: (k, k, c)

    Rows follow the streamer order (receptive-field pixel major, channel
    minor); depthwise blocks put channel m of the group on column m and
    structural zeros elsewhere.
    """
    layer = alloc.layer
    w = np.asarray(weights, dtype=np.int64)
    if isinstance(layer, PointwiseConv):
        if w.shape != (layer.c_in, layer.c_out):
            raise ValueError(f"pointwise weights must be (c_in, c_out), got {w.shape}")
        return w
    if isinstance(layer, StandardConv):
        expect = (layer.k, layer.k, layer.c_in, layer.c_out)
        if w.shape != expect:
            raise ValueError(f"standard weights must be {expect}, got {w.shape}")
        return w.reshape(layer.k * layer.k * layer.c_in, layer.c_out)
    # depthwise block-diagonal group
    expect = (layer.k, layer.k, layer.c)
    if w.shape != expect:
        raise ValueError(f"depthwise weights must be {expect}, got {w.shape}")
    c_job = alloc.strategy.c_job
    ch_off = region_index * c_job
    real = min(c_job, layer.c - ch_off)
    taps = layer.k * layer.k
    block = np.zeros((taps * c_job, c_job), dtype=np.int64)
    flat = w.reshape(taps, layer.c)
    for p in range(taps):
        for m in range(real):
            block[p * c_job + m, m] = flat[p, ch_off + m]
    return block


# --- network-wide device accounting ------------------------------------------

@dataclass(frozen=True, slots=True)
class DeviceCountReport:
    devices_total: int
    devices_useful: int
    params_total: int
    ratio: float  # devices_total / (2 * params_total)


StrategyPolicy = Callable[[LayerDescriptor], MappingStrategy]


def uniform_policy(dw_c_job: int | None = None) -> StrategyPolicy:
    """Policy mapping every layer to its natural strategy.

    `dw_c_job=None` maps each depthwise layer full-diagonal (c_job = c);
    otherwise c_job = min(dw_c_job, c) per layer.
    """
    return lambda layer: default_strategy(layer, dw_c_job)


def network_device_count(net: NetworkDescriptor,
                         policy: StrategyPolicy) -> DeviceCountReport:
    """Sum crossbar device requirements over a network under a strategy policy."""
    devices_total = 0
    devices_useful = 0
    params_total = 0
    for nl in net.layers:
        alloc = map_layer(nl.layer, policy(nl.layer))
        devices_total += alloc.devices_total
        devices_useful += alloc.devices_useful
        params_total += params(nl.layer)
    ratio = devices_total / (DEVICES_PER_WEIGHT * params_total)
    return DeviceCountReport(devices_total, devices_useful, params_total, ratio)
