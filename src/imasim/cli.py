"""Command-line entry point.

Subcommands:
  simulate   one (workload, plan, ports) point -> metrics + phase table
  sweep      full plan x ports sweep -> CSV/JSON table
  verify     randomized golden-model equivalence suite
  devices    network-wide crossbar device counts under a mapping policy

Exit codes: 0 success, 2 validation error, 3 verification mismatch,
4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import calibration, dse, mapper, metrics, timing, verify, workload
from .timing import Plan, PortConfig

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_MISMATCH = 3
EXIT_IO = 4


class ValidationError(Exception):
    pass


def _parse_ports(text: str) -> PortConfig:
    try:
        load, store = text.split("/")
        return PortConfig(int(load), int(store))
    except (ValueError, TypeError) as e:
        raise ValidationError(f"bad port config {text!r}: {e}") from None


def _parse_plan(text: str) -> Plan:
    try:
        return Plan(text)
    except ValueError:
        names = ", ".join(p.value for p in Plan)
        raise ValidationError(f"unknown plan {text!r} (expected one of: {names})") \
            from None


def _load_calibration(path: str | None, overrides: list[str] | None = None
                      ) -> calibration.Calibration:
    """The shipped or `path` calibration with each `--set` override over it."""
    if path is None:
        d = calibration.shipped()
    else:
        try:
            with open(path) as f:
                d = json.load(f)
            calibration.calibration_from_dict(d)  # its errors name the file
        except OSError as e:
            raise OSError(f"cannot read calibration file: {e}") from e
        except (ValueError, TypeError, KeyError) as e:
            raise ValidationError(f"bad calibration file {path}: {e}") from None
    for item in overrides or ():
        try:
            key, raw = item.split("=", 1)
            section, field = key.split(".", 1)
        except ValueError:
            raise ValidationError(
                f"bad override {item!r}; expected section.key=value") from None
        if section not in calibration.SECTIONS:
            raise ValidationError(f"unknown calibration section {section!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            raise ValidationError(f"override value {raw!r} is not a number") \
                from None
        d = {**d, section: {**d.get(section, {}), field: value}}
    try:
        return calibration.calibration_from_dict(d)
    except (ValueError, TypeError) as e:
        raise ValidationError(f"bad calibration override: {e}") from None


def _load_workload_file(path: str, kind: str, cls):
    """The workload JSON file at `path`, which must describe a `kind` (`cls`)."""
    try:
        wl = workload.load_workload(path)
    except OSError as e:
        raise OSError(f"cannot read workload file: {e}") from e
    except (ValueError, KeyError, TypeError) as e:
        raise ValidationError(f"bad workload file: {e}") from None
    if not isinstance(wl, cls):
        raise ValidationError(f"workload file must describe a {kind}")
    return wl


def _load_bottleneck(args) -> workload.BottleneckDescriptor:
    if args.workload_file:
        return _load_workload_file(args.workload_file, "bottleneck",
                                   workload.BottleneckDescriptor)
    if args.preset == "bottleneck":
        return workload.default_bottleneck()
    raise ValidationError(f"unknown preset {args.preset!r}")


_CAL_NOTE = "calibration constants are fitted to endpoint metrics, not measured"


# least width of each phase table column, by header
_PHASE_WIDTHS = {"layer": 16, "streamin": 10, "compute": 10, "streamout": 11,
                 "config": 8, "sw": 10, "marshal": 9, "total": 10}


def _phase_table(layers) -> list[str]:
    """Header and one line per (name, phases); a column is wider than its
    longest value, so values never run into one another."""
    heads = list(_PHASE_WIDTHS)
    cells = [heads] + [[name] + [str(getattr(p, h)) for h in heads[1:]]
                       for name, p in layers]
    widths = [max(w, 1 + max(len(r[i]) for r in cells))
              for i, w in enumerate(_PHASE_WIDTHS.values())]
    return [r[0].ljust(widths[0]) + "".join(map(str.rjust, r[1:], widths[1:]))
            for r in cells]


def cmd_simulate(args) -> int:
    if args.allocations and args.format == "json":
        raise ValidationError("--allocations applies to the text report, "
                              "not to --format json")
    cal = _load_calibration(args.calibration, args.set)
    b = _load_bottleneck(args)
    plan = _parse_plan(args.plan)
    ports = _parse_ports(args.ports)
    rows = timing.placements(b, plan)
    allocations = timing.table_allocations(rows)
    try:
        schedule = timing.fold_schedule(rows, ports, cal.ima, cal.cluster)
        rep = metrics.report(schedule, allocations, cal.area, cal.energy)
    except ValueError as e:  # the message names the operand at fault
        raise ValidationError(str(e)) from None
    if args.format == "json":
        payload = {
            "schema_version": 1,
            "note": _CAL_NOTE,
            "plan": plan.value,
            "ports": str(ports),
            "metrics": asdict(rep),
            "layers": [{"name": name, **asdict(p), "total": p.total}
                       for name, p in schedule.layers],
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        pcm = ("n/a" if rep.gops_per_mm2_pcm is None
               else f"{rep.gops_per_mm2_pcm:.2f}")
        lines = [
            f"plan: {plan.value}   ports: {ports}   "
            f"workload: bottleneck({b.c_in}, t={b.expansion}, {b.c_out}, "
            f"{b.height}x{b.width})",
            f"note: {_CAL_NOTE}",
            "",
            *_phase_table((*schedule.layers, ("TOTAL", schedule.totals))),
            "",
            f"cycles: {rep.total_cycles}   wall: {rep.wall_time_s * 1e3:.3f} ms   "
            f"energy: {rep.energy_j * 1e6:.3f} uJ",
            f"gops: {rep.gops:.2f}   tops/w: {rep.tops_per_w:.3f}   "
            f"gops/mm2: {pcm} (pcm), {rep.gops_per_mm2_full:.2f} (pcm+cluster)",
        ]
        if args.allocations:
            for alloc in allocations:
                lines += ["", f"allocation: {alloc.layer}",
                          mapper.format_allocation(alloc)]
        text = "\n".join(lines) + "\n"
    _write_output(text, args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    cal = _load_calibration(args.calibration, args.set)
    b = _load_bottleneck(args)
    spec = dse.SweepSpec(workload=b, calibration=cal)
    try:
        rows = dse.run_sweep(spec)
    except ValueError as e:  # the message names the operand at fault
        raise ValidationError(str(e)) from None
    out = args.out or f"sweep.{args.format}"
    dse.emit(rows, out, args.format)
    best = dse.best_by(rows, "gops")
    print(f"wrote {len(rows)} rows to {out}")
    print(f"best gops: {best.plan} @ {best.n_load}/{best.n_store} "
          f"({best.gops:.2f} GOPS)")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.cases == 0:
        print("warning: zero verification cases requested; trivially passing")
        return EXIT_OK
    if args.cases < 0:
        raise ValidationError("--cases must be >= 0")
    if args.seed < 0:
        raise ValidationError("--seed must be >= 0")
    summary = verify.run_random_suite(args.cases, args.seed)
    print(f"{summary.passed}/{summary.cases} randomized equivalence cases passed "
          f"(seed {args.seed})")
    if not summary.ok:
        print(f"FAIL: {summary.first_failure}", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_devices(args) -> int:
    if args.network_file:
        net = _load_workload_file(args.network_file, "network",
                                  workload.NetworkDescriptor)
    elif args.preset == "mobilenet_v2":
        try:
            net = workload.mobilenet_v2_preset(args.width_multiplier)
        except ValueError as e:
            raise ValidationError(str(e)) from None
    else:
        raise ValidationError(f"unknown preset {args.preset!r}")
    if args.cjob == "full":
        policy = mapper.uniform_policy(None)
        label = "full diagonal (c_job = c)"
    else:
        try:
            c_job = int(args.cjob)
        except ValueError:
            raise ValidationError("--cjob must be an integer or 'full'") from None
        if c_job < 1:
            raise ValidationError("--cjob must be >= 1")
        policy = mapper.uniform_policy(c_job)
        label = f"depthwise c_job = {c_job}"
    print(f"network: {net.name}   policy: {label}")
    for scope, n in (("all layers", net), ("bottlenecks only", net.without_stem_head())):
        if not n.layers:
            continue  # a network of only stem and head has no bottlenecks
        rep = mapper.network_device_count(n, policy)
        print(f"  {scope:<18} devices: {rep.devices_total:>12,}   "
              f"useful: {rep.devices_useful:>12,}   "
              f"devices/(2*params): {rep.ratio:.3f}")
    return EXIT_OK


def _write_output(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="imasim",
        description="Analog in-memory accelerator cluster simulator and "
                    "design-space explorer")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--preset", default="bottleneck",
                       help="workload preset (default: bottleneck)")
        p.add_argument("--workload-file", default=None,
                       help="JSON bottleneck descriptor (overrides --preset)")
        p.add_argument("--calibration", default=None,
                       help="calibration JSON (default: shipped constants)")
        p.add_argument("--set", action="append", default=None,
                       metavar="SECTION.KEY=VALUE",
                       help="override one calibration constant (sections: "
                            f"{', '.join(calibration.SECTIONS)}; repeatable; "
                            "e.g. --set cluster.eta_dw=0.2)")

    p_sim = sub.add_parser("simulate", help="evaluate one design point")
    add_common(p_sim)
    p_sim.add_argument("--plan", default="hybrid",
                       help="execution plan: sw, ima8, ima16, hybrid")
    p_sim.add_argument("--ports", default="4/4",
                       help="load/store port counts, e.g. 4/4 (each in 1,2,4,8,16)")
    p_sim.add_argument("--format", choices=("text", "json"), default="text")
    p_sim.add_argument("--out", default=None, help="write report to a file")
    p_sim.add_argument("--allocations", action="store_true",
                       help="append the crossbar region tables to the report")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="plan x ports sweep to CSV/JSON")
    add_common(p_sweep)
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--out", default=None,
                         help="output path (default: sweep.<format>)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify",
                              help="randomized golden-model equivalence suite")
    p_verify.add_argument("--cases", type=int, default=1000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)

    p_dev = sub.add_parser("devices", help="network-wide device counting")
    p_dev.add_argument("--preset", default="mobilenet_v2")
    p_dev.add_argument("--network-file", default=None,
                       help="JSON network descriptor (overrides --preset)")
    p_dev.add_argument("--width-multiplier", type=float, default=1.0)
    p_dev.add_argument("--cjob", default="full",
                       help="depthwise channels per job, or 'full' for c_job = c")
    p_dev.set_defaults(func=cmd_devices)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
