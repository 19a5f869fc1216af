"""Throughput, energy-efficiency and area-efficiency models.

Area: PCM area is the devices claimed (`CrossbarAllocation.devices_total`,
padding included) times `pcm_device_um2` each; every crossbar cell is a
differential pair of `xbar.DEVICES_PER_WEIGHT` devices. The full-area
variant adds the digital cluster.

Energy: streamed bytes and array operations carry fixed per-unit dynamic
costs; the cores burn an active power while software phases run and an
idle power otherwise; a baseline static power covers the whole run, plus
a per-port term for the streamer/interconnect of the accelerator
subsystem (wider-port designs are physically larger, which is what makes
over-provisioned ports cost efficiency once the bandwidth has saturated).
The accelerator subsystem is treated as power-gated in software-only
schedules.

All energy parameters and the cluster area are calibration constants
fitted to reproduce endpoint metrics, not measurements; they ship in
calibration/default.json and every report labels them as fitted.

Throughput convention: 1 MAC = 2 OPs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import astuple, dataclass
from typing import Iterable

from .mapper import CrossbarAllocation
from .timing import ScheduleResult

UM2_PER_MM2 = 1e6


@dataclass(frozen=True, slots=True)
class AreaModel:
    pcm_device_um2: float
    cluster_mm2: float

    def __post_init__(self):
        if min(astuple(self)) < 0:
            raise ValueError("area parameters must be nonnegative")
        # the cluster is always present and `report` divides by its area;
        # a zero device area would make a design's PCM area 0 mm2
        for name in ("pcm_device_um2", "cluster_mm2"):
            if getattr(self, name) == 0:  # -0.0 too
                raise ValueError(f"{name} must be > 0")


@dataclass(frozen=True, slots=True)
class EnergyModel:
    e_stream_in_pj_per_byte: float
    e_stream_out_pj_per_byte: float
    e_job_fixed_pj: float        # DAC + array + ADC per operation
    p_core_active_mw: float      # all cores, software phases
    p_core_idle_mw: float
    p_cluster_static_mw: float
    p_ima_port_mw: float         # per 32-bit TCDM master port

    def __post_init__(self):
        if min(astuple(self)) < 0:
            raise ValueError("energy parameters must be nonnegative")


def pcm_area_mm2(allocations: Iterable[CrossbarAllocation],
                 model: AreaModel) -> float:
    devices = sum(a.devices_total for a in allocations)
    return devices * model.pcm_device_um2 / UM2_PER_MM2


def energy(schedule: ScheduleResult, model: EnergyModel) -> float:
    """Total energy of a schedule in joules."""
    t_total = schedule.wall_time_s
    t_active = schedule.sw_active_cycles / schedule.f_hz
    t_idle = t_total - t_active
    joules = (schedule.bytes_streamed_in * model.e_stream_in_pj_per_byte
              + schedule.bytes_streamed_out * model.e_stream_out_pj_per_byte
              + schedule.ima_jobs * model.e_job_fixed_pj) * 1e-12
    joules += (model.p_core_active_mw * t_active
               + model.p_core_idle_mw * t_idle
               + model.p_cluster_static_mw * t_total) * 1e-3
    if schedule.ima_jobs > 0:  # accelerator power-gated when unused
        joules += model.p_ima_port_mw * schedule.ports.total * t_total * 1e-3
    return joules


@dataclass(frozen=True, slots=True)
class MetricsReport:
    gops: float
    tops_per_w: float
    gops_per_mm2_pcm: float | None  # undefined when no device is allocated
    gops_per_mm2_full: float
    total_cycles: int
    wall_time_s: float
    energy_j: float
    macs: int


def report(schedule: ScheduleResult,
           allocations: Iterable[CrossbarAllocation],
           area_model: AreaModel,
           energy_model: EnergyModel) -> MetricsReport:
    """Combine a schedule with area/energy models into the headline metrics;
    raises ValueError when the energy, an area or a ratio is not finite."""
    ops = 2 * schedule.macs
    try:
        gops = ops * schedule.f_hz / (schedule.total_cycles * 1e9)
    except OverflowError:  # an int operand is too large for a float
        operand = ("the workload's cycle count"
                   if schedule.total_cycles > sys.float_info.max
                   else "the workload's MAC count" if ops > sys.float_info.max
                   else "the workload's OPs times cluster.f_hz")
        raise ValueError(f"throughput is not finite: {operand} leaves the "
                         "float range") from None
    joules = energy(schedule, energy_model)
    tops_per_w = ops / joules / 1e12 if joules > 0 else 0.0
    allocations = tuple(allocations)
    a_pcm = pcm_area_mm2(allocations, area_model)
    a_full = a_pcm + area_model.cluster_mm2
    gops_per_mm2_pcm = None
    if any(a.devices_total for a in allocations):
        # an area that underflows to 0.0 still holds devices
        gops_per_mm2_pcm = gops / a_pcm if a_pcm > 0 else math.inf
    gops_per_mm2_full = gops / a_full
    # a_full >= a_pcm; a ratio overflows when its divisor is tiny
    if not all(map(math.isfinite, (joules, a_full, tops_per_w, gops_per_mm2_full,
                                   gops_per_mm2_pcm or 0.0))):
        raise ValueError(f"energy {joules} J, area {a_full} mm2 or a ratio of them "
                         "is not finite: an energy or area parameter leaves the "
                         "float range")
    return MetricsReport(
        gops=gops,
        tops_per_w=tops_per_w,
        gops_per_mm2_pcm=gops_per_mm2_pcm,
        gops_per_mm2_full=gops_per_mm2_full,
        total_cycles=schedule.total_cycles,
        wall_time_s=schedule.wall_time_s,
        energy_j=joules,
        macs=schedule.macs)
