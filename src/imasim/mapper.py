"""Map convolution layers onto crossbar regions and generate job streams.

The layer kind decides the mapping; the one choice left is `c_job`, how
many depthwise channels share a crossbar job. `MappingStrategy` carries
it, `None` for standard and pointwise layers.

Standard and pointwise convolutions map densely: the region has
k*k*c_in rows (the flattened receptive field in HWC order) and c_out
columns; every output pixel is one job and utilization is 1.

A depthwise layer only connects channel m to output channel m, so it maps
as a block-diagonal pattern. The channels are split into groups of `c_job`
channels per job; each group occupies a (k*k*c_job) x c_job region whose
off-diagonal weights are structural zeros. A non-divisible tail group is
padded up to c_job columns (rows likewise), which keeps per-job timing
uniform; a dense layer is one group of all its channels. An allocation is
its group geometry, groups x rows x cols with region g at (g*rows, g*cols),
and every count derives from it. The crossbar cell count is

    weights_total = groups * rows * cols = k^2 * c * c_job   (c_job | c)

so utilization is exactly 1/c_job: throughput per job and array area trade
off directly.

The streamer performs a virtual im2col over the flat HWC activation buffer:
per job it fetches one contiguous slice per in-bounds receptive-field tap.
Taps that fall in the zero-padding border are zero-fill: the address
generator skips them, so they cost no memory traffic and no port cycles,
but they still occupy DAC rows. Stream traffic therefore depends only on
layer geometry, and `stream_geometry` gives it in closed form: with T the
in-bounds taps summed over output pixels (the product of the per-axis
sums) and P the output pixel count, a layer fetches T * c_in bytes in
group slices and writes P * c_out bytes, in P jobs per group. Along an
axis of `size` inputs, tap t of output o reads input o*stride - pad + t,
in bounds for o from ceil((pad - t) / stride) to
floor((size - 1 + pad - t) / stride), clipped to [0, out_size); each
per-axis sum adds those k range lengths, so it costs O(k) and not
O(out_size).

`job_stream` describes the same traffic for functional emulation in
`verify`, where bytes are actually pushed through a crossbar; the cycle
model never builds one. `gather_inputs` runs a stream's virtual im2col on
an input tensor in blocks of regions x output pixels: per range of output
pixels one (p, k^2) index of input pixels, shared by every region, and per
block one numpy gather of whole pixel rows from a zero-bordered
group-major copy of the input. A block fits the float64 budget
`xbar._STACK_FLOATS`: consecutive regions that fit whole stack into one
block, so a small layer is one block, and a region that does not fit is
split into ranges of output pixels, so emulation memory does not grow
with a layer's output pixels.
`region_weight_matrix` builds every region's weight block in one
vectorized write. `JobStream.jobs` enumerates the jobs as explicit
(offset, length) segments, on first access only: it is the test oracle
for `stream_geometry` and for the gathered inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

import numpy as np

from . import xbar
from .workload import (
    DepthwiseConv,
    LayerDescriptor,
    NetworkDescriptor,
    TensorShape,
    in_channels,
    kernel_size,
    layer_pad,
    layer_stride,
    out_channels,
    output_shape,
    params,
    weight_shape,
)
from .xbar import DEVICES_PER_WEIGHT, Region


@dataclass(frozen=True, slots=True)
class MappingStrategy:
    """Depthwise channels per crossbar job; `None` maps a standard or
    pointwise layer densely."""

    c_job: int | None = None

    def __post_init__(self):
        if self.c_job is not None and self.c_job < 1:
            raise ValueError("depthwise mapping needs c_job >= 1")


STANDARD_IM2COL = MappingStrategy()  # dense: standard and pointwise layers


def default_strategy(layer: LayerDescriptor,
                     dw_c_job: int | None = None) -> MappingStrategy:
    """Natural strategy per layer kind; depthwise needs a c_job choice."""
    if isinstance(layer, DepthwiseConv):
        c_job = layer.c if dw_c_job is None else min(dw_c_job, layer.c)
        return MappingStrategy(c_job)
    return STANDARD_IM2COL


def _check_strategy(layer: LayerDescriptor, strategy: MappingStrategy) -> None:
    """Depthwise layers, and only they, take a c_job, of at most c."""
    c_job = strategy.c_job
    if isinstance(layer, DepthwiseConv) != (c_job is not None):
        raise ValueError(f"{type(layer).__name__} cannot map with c_job="
                         f"{c_job}: depthwise layers, and only they, take one")
    if c_job is not None and c_job > layer.c:
        raise ValueError(f"c_job must be in [1, {layer.c}], got {c_job}")


@dataclass(frozen=True, slots=True)
class CrossbarAllocation:
    """groups regions of rows x cols cells; region g at (g*rows, g*cols)."""

    layer: LayerDescriptor
    strategy: MappingStrategy
    groups: int  # channel groups: the regions, and the jobs per output pixel
    rows: int
    cols: int

    @property
    def regions(self) -> tuple[Region, ...]:
        return tuple(Region(g * self.rows, g * self.cols, self.rows, self.cols)
                     for g in range(self.groups))

    @property
    def weights_total(self) -> int:  # cells claimed, incl. structural zeros
        return self.groups * self.rows * self.cols

    @property
    def weights_useful(self) -> int:  # cells holding real parameters
        return params(self.layer)

    @property
    def devices_total(self) -> int:
        return DEVICES_PER_WEIGHT * self.weights_total

    @property
    def devices_useful(self) -> int:
        return DEVICES_PER_WEIGHT * self.weights_useful


def map_layer(layer: LayerDescriptor,
              strategy: MappingStrategy) -> CrossbarAllocation:
    """Map a layer as channel groups of c_job channels or, dense, all of
    them. Group g is the region at (g*rows, g*cols) of k*k*width rows and
    c_job (dense: c_out) columns; a partial tail group is padded up to
    c_job. The array is assumed sized to fit."""
    _check_strategy(layer, strategy)
    c_in = in_channels(layer)
    width = strategy.c_job or c_in
    return CrossbarAllocation(layer, strategy, groups=-(-c_in // width),
                              rows=kernel_size(layer) ** 2 * width,
                              cols=strategy.c_job or out_channels(layer))


def map_depthwise(dw: DepthwiseConv, c_job: int) -> CrossbarAllocation:
    """Block-diagonal mapping of a depthwise convolution: c_job channels
    a region."""
    return map_layer(dw, MappingStrategy(c_job))


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


@dataclass(frozen=True)
class JobStream:
    """The streamer program of one layer, fixed by its geometry.

    Group jobs run group-major so each region is configured once. `jobs`
    builds the explicit job list on first access and keeps it.
    """

    layer: LayerDescriptor
    strategy: MappingStrategy
    in_shape: TensorShape
    out_shape: TensorShape

    @cached_property
    def jobs(self) -> tuple[Job, ...]:
        """The per-job streamer address segments, one job per (channel
        group, output pixel).

        A job has k^2 segments of its group's real channel slice (one per
        receptive-field pixel, zero-fill where padded). A partial depthwise
        tail group follows each real slice with a zero-fill pad so the DAC
        rows stay full.
        """
        return tuple(_enumerate_jobs(self))


def job_stream(layer: LayerDescriptor, in_shape: TensorShape,
               strategy: MappingStrategy) -> JobStream:
    """The job stream of one layer, after checking the stream's inputs.

    Building it enumerates nothing; see `JobStream.jobs`.
    """
    _check_strategy(layer, strategy)
    return JobStream(layer, strategy, in_shape, output_shape(layer, in_shape))


def gather_inputs(stream: JobStream,
                  data: np.ndarray) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield the regions' inputs in blocks, as `(g, p0, x)`: x is the
    (n, p, rows) input of regions g to g + n - 1 at output pixels p0 to
    p0 + p - 1. Blocks run pixel range by pixel range and, within one, in
    region order, so every region meets its pixels in order.

    Row p of region g is the concatenated segments of the region's job for
    output pixel p: the streamer's virtual im2col of `data`, the (h, w, c)
    input. The input is copied once into a group-major array of shape
    (groups, (h + 2 pad) * (w + 2 pad), width), width being c_job or, for a
    dense layer, c, whose zero border and zero channel tail of a partial
    last group supply the zero-fill bytes. A (p, k^2) index of padded
    input pixels per pixel range, shared by every region, plays the
    address generator: output pixel (oy, ox) reads padded pixel
    (oy * stride + ky, ox * stride + kx) at tap (ky, kx). A block is then
    one gather of whole pixel rows from its groups' slabs.

    A block holds n * p * max(rows, cols) <= `xbar._STACK_FLOATS` values,
    so neither its inputs nor its sums exceed the budget once converted to
    float64, and at least one region and one pixel. When all P pixels of a
    region fit, one pixel range covers them and consecutive regions stack
    whole; otherwise each region is split into the fewest pixel ranges
    that fit, of near-equal size.
    """
    layer, in_shape, out = stream.layer, stream.in_shape, stream.out_shape
    k, stride, pad = kernel_size(layer), layer_stride(layer), layer_pad(layer)
    h, w, c = in_shape.height, in_shape.width, in_shape.channels
    if np.shape(data) != (h, w, c):
        raise ValueError(f"input of shape {np.shape(data)}, stream expects "
                         f"{(h, w, c)}")
    width = stream.strategy.c_job or c
    packed = _group_major(np.asarray(data), width, pad)
    wp = w + 2 * pad  # padded input width
    offsets = (np.arange(k)[:, None] * wp + np.arange(k)).ravel()
    rows = k * k * width
    per_pixel = max(rows, stream.strategy.c_job or out.channels)
    total = out.height * out.width
    cap = max(1, xbar._STACK_FLOATS // per_pixel)
    pixels = -(-total // -(-total // cap))  # fewest near-equal blocks
    stack = max(1, xbar._STACK_FLOATS // (pixels * per_pixel))
    for p in range(0, total, pixels):
        oy, ox = np.divmod(np.arange(p, min(p + pixels, total)), out.width)
        taps = ((oy * wp + ox) * stride)[:, None] + offsets
        for g in range(0, len(packed), stack):
            x = np.take(packed[g:g + stack], taps, axis=1)
            yield g, p, x.reshape(len(x), len(taps), rows)


def _group_major(data: np.ndarray, width: int, pad: int) -> np.ndarray:
    """(groups, (h + 2 pad) * (w + 2 pad), width) copy of (h, w, c) input
    `data`, group g holding channels g*width on, with a zero border `pad`
    pixels wide and zero channels past c. Filled in place: a
    channel-padded temporary copy cost the emulate benchmark about 1,400
    extra page faults a pass."""
    h, w, c = data.shape
    full, tail = divmod(c, width)
    packed = np.zeros((full + (tail > 0), h + 2 * pad, w + 2 * pad, width),
                      dtype=data.dtype)
    # (h, w, groups, width) view of the interior
    slabs = packed[:, pad:pad + h, pad:pad + w].transpose(1, 2, 0, 3)
    slabs[:, :, :full] = data[:, :, :full * width].reshape(h, w, full, width)
    if tail:
        slabs[:, :, full, :tail] = data[:, :, full * width:]
    return packed.reshape(len(packed), -1, width)


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


def _enumerate_jobs(stream: JobStream) -> Iterator[Job]:
    """Jobs group-major; group g reads and writes channels g * width on, of
    which min(width, c - g * width) are real."""
    layer, in_shape, out = stream.layer, stream.in_shape, stream.out_shape
    k, stride, pad = kernel_size(layer), layer_stride(layer), layer_pad(layer)
    width_in = stream.strategy.c_job or in_shape.channels
    width_out = stream.strategy.c_job or out.channels
    for g in range(-(-in_shape.channels // width_in)):
        real = min(width_in, in_shape.channels - g * width_in)
        out_len = min(width_out, out.channels - g * width_out)
        pad_len = width_in - real
        for oy in range(out.height):
            for ox in range(out.width):
                segs = _receptive_segments(in_shape, oy, ox, k, stride, pad,
                                           g * width_in, real)
                if pad_len:
                    # channel pad of the tail group: interleave a zero-fill
                    # after each real slice so DAC rows stay contiguous
                    zero = Segment(0, pad_len, zero_fill=True)
                    segs = tuple(x for s in segs for x in (s, zero))
                yield Job(segs, (oy * out.width + ox) * out.channels
                          + g * width_out, out_len, g)


@dataclass(frozen=True, slots=True)
class StreamGeometry:
    """Closed-form stream traffic of one layer, equal to its `job_stream`.

    Every in-bounds tap of every output pixel fetches one slice per channel
    group, and every output pixel writes one slice per group, the last
    group possibly partial; zero-fill taps and channel pads move nothing.
    """

    taps: int       # T: in-bounds taps summed over output pixels
    pixels: int     # P: output pixels
    c_in: int       # input channels, all fetched at every in-bounds tap
    c_out: int      # output channels, all written at every output pixel
    width_in: int   # input channels per group: c_job, or c_in when dense
    width_out: int  # output channels per group: c_job, or c_out when dense

    @property
    def jobs(self) -> int:
        return self.pixels * -(-self.c_in // self.width_in)

    @property
    def bytes_in(self) -> int:
        return self.taps * self.c_in

    @property
    def bytes_out(self) -> int:
        return self.pixels * self.c_out


def stream_geometry(layer: LayerDescriptor, in_shape: TensorShape,
                    strategy: MappingStrategy) -> StreamGeometry:
    """Stream traffic of a layer from its geometry, without enumerating jobs.

    Accepts and rejects exactly the arguments `job_stream` and `map_layer`
    do. The group width is c_job (depthwise) or the channel count (dense:
    one group, c_in in and c_out out). The taps T are the product of the
    per-axis sums of `_axis_taps`.
    """
    _check_strategy(layer, strategy)
    out = output_shape(layer, in_shape)
    k, stride, pad = kernel_size(layer), layer_stride(layer), layer_pad(layer)
    taps = (_axis_taps(in_shape.height, out.height, k, stride, pad)
            * _axis_taps(in_shape.width, out.width, k, stride, pad))
    c_in, c_out = in_shape.channels, out.channels
    return StreamGeometry(taps, out.height * out.width, c_in, c_out,
                          strategy.c_job or c_in, strategy.c_job or c_out)


def stream_bytes(stream: JobStream) -> tuple[int, int]:
    """(streamed-in, streamed-out) bytes of an enumerated stream.

    Read from the stream's geometry, not by walking its jobs. Kept for
    callers that already hold a stream; the benchmark's per-layer metrics
    name this function.
    """
    geo = stream_geometry(stream.layer, stream.in_shape, stream.strategy)
    return geo.bytes_in, geo.bytes_out


def _axis_taps(size: int, out_size: int, k: int, stride: int, pad: int) -> int:
    """In-bounds filter taps along one axis, summed over output positions.

    Tap t of output o reads input o*stride - pad + t, which is in bounds
    for o from ceil((pad - t) / stride) to floor((size - 1 + pad - t) /
    stride), clipped to [0, out_size). The sum of those range lengths over
    the k taps costs O(k), whatever the feature-map size.
    """
    total = 0
    for t in range(k):
        first = max(0, -((t - pad) // stride))
        last = min(out_size - 1, (size - 1 + pad - t) // stride)
        if last >= first:
            total += last - first + 1
    return total


def format_allocation(alloc: CrossbarAllocation) -> str:
    """Human-readable region table with cell counts and utilization."""
    lines = [f"{'region':>7} {'row_off':>8} {'col_off':>8} {'rows':>6} {'cols':>6}"]
    for i, r in enumerate(alloc.regions):
        lines.append(f"{i:>7} {r.row_off:>8} {r.col_off:>8} "
                     f"{r.rows:>6} {r.cols:>6}")
    lines.append(f"cells: {alloc.weights_total} ({alloc.weights_useful} useful, "
                 f"utilization {utilization(alloc):.4f}), "
                 f"devices: {alloc.devices_total}, "
                 f"jobs/pixel: {alloc.groups}")
    return "\n".join(lines)


# --- weight matrices --------------------------------------------------------

def region_weight_matrix(alloc: CrossbarAllocation, weights) -> np.ndarray:
    """Integer weight blocks of every allocated region, stacked in region
    order: (regions, rows, cols).

    `weights` has the canonical layout of `workload.weight_shape`. Rows
    follow the streamer order (receptive-field pixel major, channel minor);
    depthwise blocks put channel m of the group on column m and structural
    zeros elsewhere, a partial tail group's missing channels included. All
    blocks are written in one vectorized assignment.
    """
    layer = alloc.layer
    w = np.asarray(weights, dtype=np.int64)
    expect = weight_shape(layer)
    if w.shape != expect:
        raise ValueError(f"weights must be {expect}, got {w.shape}")
    if not isinstance(layer, DepthwiseConv):
        return w.reshape(1, -1, out_channels(layer))
    # depthwise block-diagonal groups: diag[g, p, m] is tap p of group g's
    # channel m, zero past the last real channel
    c_job = alloc.strategy.c_job
    taps = layer.k * layer.k
    groups = alloc.groups
    flat = np.zeros((taps, groups * c_job), dtype=np.int64)
    flat[:, :layer.c] = w.reshape(taps, layer.c)
    diag = flat.reshape(taps, groups, c_job).transpose(1, 0, 2)
    blocks = np.zeros((groups, taps, c_job, c_job), dtype=np.int64)
    m = np.arange(c_job)
    blocks[..., m, m] = diag
    return blocks.reshape(groups, taps * c_job, c_job)


# --- network-wide device accounting ------------------------------------------

@dataclass(frozen=True, slots=True)
class DeviceCountReport:
    devices_total: int
    devices_useful: int  # 2 devices per parameter, so 2 * sum(params)

    @property
    def ratio(self) -> float:  # devices_total / (2 * sum(params))
        return self.devices_total / self.devices_useful


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
    for nl in net.layers:
        alloc = map_layer(nl.layer, policy(nl.layer))
        devices_total += alloc.devices_total
        devices_useful += alloc.devices_useful
    return DeviceCountReport(devices_total, devices_useful)
