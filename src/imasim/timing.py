"""Cycle model for accelerator jobs, software execution, and block schedules.

An accelerator job runs three strictly sequential phases:

  stream-in   ceil(segment_bytes / (4 * n_load)) cycles per real segment;
              zero-fill segments cost nothing
  compute     ceil(t_array_ns * f / 1e9) cycles, fixed per array operation
  stream-out  ceil(output_bytes / (4 * n_store)) cycles

Every real segment of a layer is one channel-group slice, so the totals
have a closed form in the geometry of `mapper.stream_geometry`: with T the
in-bounds taps summed over output pixels, P the output pixels and real_g /
out_g the per-group slices,

  stream-in   T * sum_g ceil(real_g / (4 * n_load))
  stream-out  P * sum_g ceil(out_g / (4 * n_store))
  jobs        P * groups

The cycle model uses only this form; enumerated job streams exist for
functional emulation and as the test oracle.

A schedule folds a placement table: `placements(b, plan)` walks a block's
layers once for their shapes, MACs and, on the accelerator, stream geometry
and crossbar allocation; `fold_schedule` sums one port config's phases,
bytes and jobs over those rows. A sweep builds one table per plan.

Jobs of a layer run back-to-back with a small per-job trigger/handshake,
and one configuration burst is charged per layer (multiple jobs pipeline
behind a single register-file setup). Handshake cycles are reported inside
the `config` bucket of the phase breakdown.

Software execution on the cluster's cores is throughput-modeled:
macs / (n_cores * simd_macs_per_core_cycle * eta), with a high utilization
factor for standard/pointwise convolutions and a separate calibrated factor
for depthwise. A software depthwise additionally pays an HWC->CHW->HWC
marshalling pass (2 * h * w * c bytes at marshal_bytes_per_cycle); the
accelerator consumes HWC directly and never marshals.

The TCDM is modeled as an ideal word-interleaved scratchpad: segments are
contiguous, every port moves one 4-byte word per cycle and no port ever
waits on a bank conflict.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .workload import (
    BottleneckDescriptor,
    DepthwiseConv,
    LayerDescriptor,
    PointwiseConv,
    StandardConv,
    TensorShape,
    macs,
    output_shape,
)
from . import mapper
from .mapper import JobStream, MappingStrategy

PORT_CHOICES = (1, 2, 4, 8, 16)
PORT_WIDTH_BYTES = 4


@dataclass(frozen=True, slots=True)
class PortConfig:
    n_load: int
    n_store: int

    def __post_init__(self):
        if self.n_load not in PORT_CHOICES or self.n_store not in PORT_CHOICES:
            raise ValueError(f"port counts must be one of {PORT_CHOICES}")

    @property
    def total(self) -> int:
        return self.n_load + self.n_store

    def __str__(self):
        return f"{self.n_load}/{self.n_store}"


@dataclass(frozen=True, slots=True)
class ClusterConfig:
    n_cores: int
    f_hz: int
    simd_macs_per_core_cycle: int
    eta_conv: float   # SIMD MAC utilization, standard/pointwise
    eta_dw: float     # SIMD MAC utilization, depthwise
    marshal_bytes_per_cycle: int

    def __post_init__(self):
        # the model divides by each of these
        for name in ("n_cores", "simd_macs_per_core_cycle",
                     "marshal_bytes_per_cycle", "f_hz"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        for name in ("eta_conv", "eta_dw"):
            eta = getattr(self, name)
            if not 0 < eta <= 1 or self.sw_rate_micro(eta) < 1:
                raise ValueError(f"{name} must be in (0, 1] and give at least "
                                 f"1e-6 software MACs per cycle, got {eta}")

    def sw_rate_micro(self, eta: float) -> int:
        """Software MACs per cycle in millionths, rounded: a scaled integer,
        exact for calibration etas of <= 6 decimals."""
        return round(self.n_cores * self.simd_macs_per_core_cycle * eta
                     * 1_000_000)


@dataclass(frozen=True, slots=True)
class ImaTiming:
    t_array_ns: float
    cfg_overhead_cycles: int   # one register-file burst per layer
    job_handshake_cycles: int

    def __post_init__(self):
        if self.t_array_ns <= 0:
            raise ValueError("array operation time must be positive")
        for name in ("cfg_overhead_cycles", "job_handshake_cycles"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True, slots=True)
class PhaseBreakdown:
    streamin: int = 0
    compute: int = 0
    streamout: int = 0
    config: int = 0   # per-layer configuration + per-job handshakes
    sw: int = 0       # core execution (SW conv layers, residual adds)
    marshal: int = 0  # HWC<->CHW conversion, SW depthwise only

    @property
    def total(self) -> int:
        return (self.streamin + self.compute + self.streamout
                + self.config + self.sw + self.marshal)

    def __add__(self, other: "PhaseBreakdown") -> "PhaseBreakdown":
        return PhaseBreakdown(
            self.streamin + other.streamin,
            self.compute + other.compute,
            self.streamout + other.streamout,
            self.config + other.config,
            self.sw + other.sw,
            self.marshal + other.marshal)


class Plan(Enum):
    SW = "sw"           # everything on the cores
    IMA8 = "ima8"       # all layers on the accelerator, depthwise c_job=8
    IMA16 = "ima16"     # all layers on the accelerator, depthwise c_job=16
    HYBRID = "hybrid"   # pointwise on the accelerator, depthwise on the cores


PLAN_ORDER = (Plan.SW, Plan.IMA8, Plan.IMA16, Plan.HYBRID)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def streamin_cycles(segments, n_load: int) -> int:
    """Cycles to stream a job's input segments through n_load 32-bit ports."""
    beat = PORT_WIDTH_BYTES * n_load
    return sum(_ceil_div(s.length, beat) for s in segments if not s.zero_fill)


def streamout_cycles(out_bytes: int, n_store: int) -> int:
    return _ceil_div(out_bytes, PORT_WIDTH_BYTES * n_store)


def array_op_cycles(t_array_ns: float, f_hz: int) -> int:
    """Cycles spanned by an analog operation of t_array_ns at the cluster clock."""
    return _ceil_div(int(t_array_ns * f_hz), 1_000_000_000)


def layer_cycles_ima(layer: LayerDescriptor, strategy: MappingStrategy,
                     in_shape: TensorShape, ports: PortConfig,
                     ima: ImaTiming, cluster: ClusterConfig) -> PhaseBreakdown:
    """Accelerator phase breakdown of one full layer, from its geometry."""
    return _geometry_phases(mapper.stream_geometry(layer, in_shape, strategy),
                            ports, ima, cluster)


def _geometry_phases(geo: mapper.StreamGeometry, ports: PortConfig,
                     ima: ImaTiming, cluster: ClusterConfig) -> PhaseBreakdown:
    """The closed-form phase fold of `layer_cycles_ima` over a layer's
    stream geometry."""
    n_jobs = geo.jobs
    beat_in = PORT_WIDTH_BYTES * ports.n_load
    beat_out = PORT_WIDTH_BYTES * ports.n_store
    si = geo.taps * sum(_ceil_div(r, beat_in) for r in geo.slices_in)
    so = geo.pixels * sum(_ceil_div(o, beat_out) for o in geo.slices_out)
    comp = n_jobs * array_op_cycles(ima.t_array_ns, cluster.f_hz)
    cfg = ima.cfg_overhead_cycles + n_jobs * ima.job_handshake_cycles
    return PhaseBreakdown(streamin=si, compute=comp, streamout=so, config=cfg)


def stream_cycles_ima(stream: JobStream, ports: PortConfig,
                      ima: ImaTiming, cluster: ClusterConfig) -> PhaseBreakdown:
    """`layer_cycles_ima` of an enumerated stream's layer; its jobs are not
    walked. Kept for callers that already hold a stream; the benchmark's
    per-layer metrics name this function."""
    return layer_cycles_ima(stream.layer, stream.strategy, stream.in_shape,
                            ports, ima, cluster)


def layer_cycles_sw(layer: LayerDescriptor, in_shape: TensorShape,
                    cluster: ClusterConfig) -> PhaseBreakdown:
    """Software phase breakdown of one layer on the 8-core cluster."""
    return _sw_phases(layer, in_shape, macs(layer, in_shape), cluster)


def _sw_phases(layer: LayerDescriptor, in_shape: TensorShape, n_macs: int,
               cluster: ClusterConfig) -> PhaseBreakdown:
    """`layer_cycles_sw` of a layer whose MAC count is known."""
    if isinstance(layer, DepthwiseConv):
        eta = cluster.eta_dw
        marshal = _ceil_div(2 * in_shape.size_bytes,
                            cluster.marshal_bytes_per_cycle)
    else:
        eta = cluster.eta_conv
        marshal = 0
    sw = _ceil_div(n_macs * 1_000_000, cluster.sw_rate_micro(eta))
    return PhaseBreakdown(sw=sw, marshal=marshal)


def residual_add_cycles(shape: TensorShape, cluster: ClusterConfig) -> int:
    """Elementwise residual addition on the cores: each core adds four 8-bit
    lanes (one 32-bit word) per cycle."""
    return _ceil_div(shape.size_bytes, cluster.n_cores * 4)


@dataclass(frozen=True, slots=True)
class ScheduleResult:
    plan: Plan
    ports: PortConfig
    layers: tuple[tuple[str, PhaseBreakdown], ...]
    totals: PhaseBreakdown
    macs: int
    bytes_streamed_in: int
    bytes_streamed_out: int
    ima_jobs: int
    f_hz: int

    @property
    def total_cycles(self) -> int:
        return self.totals.total

    @property
    def wall_time_s(self) -> float:
        return self.total_cycles / self.f_hz

    @property
    def sw_active_cycles(self) -> int:
        # cycles during which the cores do useful work
        return self.totals.sw + self.totals.marshal


_DW_CJOB = {Plan.IMA8: 8, Plan.IMA16: 16}
_KIND_NAMES = {DepthwiseConv: "depthwise", PointwiseConv: "pointwise",
               StandardConv: "conv"}   # row names: l<index>.<kind>


def plan_strategy(plan: Plan, layer: LayerDescriptor) -> MappingStrategy | None:
    """Strategy a plan assigns to a layer; None means software execution."""
    if plan is Plan.SW:
        return None
    if isinstance(layer, DepthwiseConv) and plan not in _DW_CJOB:
        return None  # HYBRID runs depthwise on the cores
    return mapper.default_strategy(layer, _DW_CJOB.get(plan))


@dataclass(frozen=True, slots=True)
class Placement:
    """A layer's row of a placement table; no geometry or allocation: on the cores."""

    name: str
    layer: LayerDescriptor
    in_shape: TensorShape
    out_shape: TensorShape
    macs: int
    geometry: mapper.StreamGeometry | None
    allocation: mapper.CrossbarAllocation | None
    residual: bool   # the block's residual add follows this layer


def placements(b: BottleneckDescriptor, plan: Plan) -> tuple[Placement, ...]:
    """The placement table of a bottleneck under a plan, in layer order."""
    rows = []
    layers = b.expand()
    shape = b.input_shape
    for i, layer in enumerate(layers):
        out = output_shape(layer, shape)
        strategy = plan_strategy(plan, layer)
        geo = alloc = None
        if strategy is not None:
            geo = mapper.stream_geometry(layer, shape, strategy)
            alloc = mapper.map_layer(layer, strategy)
        rows.append(Placement(f"l{i}.{_KIND_NAMES[type(layer)]}", layer,
                              shape, out, macs(layer, shape), geo, alloc,
                              b.residual and i == len(layers) - 1))
        shape = out
    return tuple(rows)


def table_allocations(rows: tuple[Placement, ...]) -> list[mapper.CrossbarAllocation]:
    """The allocation column of a placement table (for area models)."""
    return [row.allocation for row in rows if row.allocation is not None]


def plan_allocations(b: BottleneckDescriptor, plan: Plan) -> list[mapper.CrossbarAllocation]:
    """Crossbar allocations a plan claims for a bottleneck (for area models)."""
    return table_allocations(placements(b, plan))


def fold_schedule(rows: tuple[Placement, ...], plan: Plan, ports: PortConfig,
                  ima: ImaTiming, cluster: ClusterConfig) -> ScheduleResult:
    """Sequential execution of a placement table at one port config: no
    cross-layer overlap, and a residual add runs on the cores after its row."""
    entries: list[tuple[str, PhaseBreakdown]] = []
    for row in rows:
        if row.geometry is None:
            phases = _sw_phases(row.layer, row.in_shape, row.macs, cluster)
        else:
            phases = _geometry_phases(row.geometry, ports, ima, cluster)
        entries.append((row.name, phases))
        if row.residual:
            entries.append(("residual", PhaseBreakdown(
                sw=residual_add_cycles(row.out_shape, cluster))))
    geos = [row.geometry for row in rows if row.geometry is not None]
    return ScheduleResult(plan=plan, ports=ports, layers=tuple(entries),
                          totals=sum((p for _, p in entries), PhaseBreakdown()),
                          macs=sum(row.macs for row in rows),
                          bytes_streamed_in=sum(g.bytes_in for g in geos),
                          bytes_streamed_out=sum(g.bytes_out for g in geos),
                          ima_jobs=sum(g.jobs for g in geos), f_hz=cluster.f_hz)


def bottleneck_schedule(b: BottleneckDescriptor, plan: Plan, ports: PortConfig,
                        ima: ImaTiming, cluster: ClusterConfig) -> ScheduleResult:
    """Sequential execution of a bottleneck under a plan: its table's fold."""
    return fold_schedule(placements(b, plan), plan, ports, ima, cluster)
