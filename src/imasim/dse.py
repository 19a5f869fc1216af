"""Design-space sweep driver: {port configs} x {execution plans} -> table.

Every sweep point is evaluated independently from immutable inputs and the
rows are emitted in a fixed order (plan-major, ports-minor), so repeated
runs of the same spec produce byte-identical output.

CSV schema (header row, '.' decimal separator, no locale):
  plan, n_load, n_store, cycles_total, cycles_streamin, cycles_compute,
  cycles_streamout, cycles_sw, cycles_marshal, gops, tops_per_w,
  gops_per_mm2_pcm, gops_per_mm2_full

`gops_per_mm2_pcm` is empty for rows that allocate no PCM (pure software).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, fields

from . import metrics, timing
from .calibration import Calibration
from .timing import PLAN_ORDER, Plan, PortConfig
from .workload import BottleneckDescriptor

DEFAULT_PORTS = tuple(PortConfig(n, n) for n in (1, 2, 4, 8, 16))


@dataclass(frozen=True, slots=True)
class SweepSpec:
    workload: BottleneckDescriptor
    calibration: Calibration


@dataclass(frozen=True, slots=True)
class SweepRow:
    plan: str
    n_load: int
    n_store: int
    cycles_total: int
    cycles_streamin: int
    cycles_compute: int
    cycles_streamout: int
    cycles_sw: int
    cycles_marshal: int
    gops: float
    tops_per_w: float
    gops_per_mm2_pcm: float | None
    gops_per_mm2_full: float


COLUMNS = tuple(f.name for f in fields(SweepRow))


def evaluate_point(workload: BottleneckDescriptor, plan: Plan,
                   ports: PortConfig, cal: Calibration) -> SweepRow:
    schedule = timing.bottleneck_schedule(workload, plan, ports,
                                          cal.ima, cal.cluster)
    allocations = timing.plan_allocations(workload, plan)
    rep = metrics.report(schedule, allocations, cal.area, cal.energy)
    t = schedule.totals
    return SweepRow(
        plan=plan.value, n_load=ports.n_load, n_store=ports.n_store,
        cycles_total=t.total, cycles_streamin=t.streamin,
        cycles_compute=t.compute, cycles_streamout=t.streamout,
        cycles_sw=t.sw, cycles_marshal=t.marshal,
        gops=rep.gops, tops_per_w=rep.tops_per_w,
        gops_per_mm2_pcm=rep.gops_per_mm2_pcm,
        gops_per_mm2_full=rep.gops_per_mm2_full)


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate PLAN_ORDER x DEFAULT_PORTS; row order is plan-major."""
    return [evaluate_point(spec.workload, plan, ports, spec.calibration)
            for plan in PLAN_ORDER
            for ports in DEFAULT_PORTS]


def best_by(rows: list[SweepRow], metric: str) -> SweepRow:
    """Row maximizing `metric`; ties prefer fewer ports, then plan order.

    Rows with an undefined metric value (None) are skipped.
    """
    if not rows:
        raise ValueError("empty sweep table")
    if metric not in COLUMNS:
        raise ValueError(f"unknown metric {metric!r}")
    plan_rank = {p.value: i for i, p in enumerate(PLAN_ORDER)}
    candidates = [r for r in rows if getattr(r, metric) is not None]
    if not candidates:
        raise ValueError(f"metric {metric!r} undefined on every row")
    return max(candidates,
               key=lambda r: (getattr(r, metric),
                              -(r.n_load + r.n_store),
                              -plan_rank.get(r.plan, len(plan_rank))))


def rows_to_dicts(rows: list[SweepRow]) -> list[dict]:
    return [{c: getattr(r, c) for c in COLUMNS} for r in rows]


def _format_cell(value) -> str:
    if value is None:
        return ""
    return str(value)


def render_csv(rows: list[SweepRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COLUMNS)
    for row in rows:
        writer.writerow([_format_cell(getattr(row, c)) for c in COLUMNS])
    return buf.getvalue()


def emit(rows: list[SweepRow], path: str, fmt: str = "csv") -> str:
    """Write the sweep table to `path` as CSV or JSON; returns the path."""
    if fmt == "csv":
        payload = render_csv(rows)
    elif fmt == "json":
        payload = json.dumps({"schema_version": 1, "rows": rows_to_dicts(rows)},
                             indent=2) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w") as f:
        f.write(payload)
    return path
