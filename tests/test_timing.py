import copy
import dataclasses

import numpy as np
import pytest

from imasim import calibration, dse, mapper, metrics, timing
from imasim.mapper import MappingStrategy, Segment
from imasim.timing import (
    PORT_CHOICES,
    PhaseBreakdown,
    Plan,
    PortConfig,
    array_op_cycles,
)
from imasim.workload import (
    BottleneckDescriptor,
    DepthwiseConv,
    PointwiseConv,
    StandardConv,
    TensorShape,
    default_bottleneck,
    macs,
    output_shape,
)

BASELINE_CONV = StandardConv(k=3, c_in=32, c_out=64, stride=1, pad=1)
BASELINE_IN = TensorShape(16, 16, 32)


def segs(n, length):
    return [Segment(0, length) for _ in range(n)]


def streamin_cycles(segments, n_load: int) -> int:
    """Oracle: cycles to stream a job's input segments through n_load
    32-bit ports, one segment at a time."""
    beat = timing.PORT_WIDTH_BYTES * n_load
    return sum(-(-s.length // beat) for s in segments if not s.zero_fill)


def streamout_cycles(out_bytes: int, n_store: int) -> int:
    return -(-out_bytes // (timing.PORT_WIDTH_BYTES * n_store))


class TestPhaseArithmetic:
    def test_streamin_bandwidth(self):
        assert streamin_cycles(segs(9, 32), n_load=1) == 72
        assert streamin_cycles(segs(1, 192), n_load=4) == 12

    def test_streamin_saturates(self):
        # a 16-byte depthwise slice fits one beat at >= 4 load ports
        for n in (4, 8, 16):
            assert streamin_cycles(segs(9, 16), n_load=n) == 9

    def test_zero_fill_costs_nothing(self):
        padded = segs(5, 32) + [Segment(0, 32, zero_fill=True)] * 4
        assert streamin_cycles(padded, n_load=1) == 40

    def test_array_op_cycles(self):
        assert array_op_cycles(70, 250_000_000) == 18  # ceil(17.5)
        assert array_op_cycles(70, 100_000_000) == 7
        assert array_op_cycles(0, 250_000_000) == 0

    def test_compute_cycles_from_timing(self, cal):
        assert array_op_cycles(cal.ima.t_array_ns, cal.cluster.f_hz) == 18

    def test_streamout(self):
        assert streamout_cycles(64, 1) == 16
        assert streamout_cycles(64, 16) == 1
        assert streamout_cycles(0, 4) == 0


class TestPortConfig:
    def test_str(self):
        assert str(PortConfig(4, 4)) == "4/4"

    @pytest.mark.parametrize("bad", [(3, 3), (0, 1), (1, 32), (5, 4)])
    def test_invalid_counts_rejected(self, bad):
        with pytest.raises(ValueError):
            PortConfig(*bad)

    def test_all_supported(self):
        for n in (1, 2, 4, 8, 16):
            PortConfig(n, n)


class TestBaselineConvLayer:
    def test_sw_cycles_and_throughput(self, cal):
        phases = timing.layer_cycles_sw(BASELINE_CONV, BASELINE_IN, cal.cluster)
        assert phases.sw == 268_102  # ceil(4,718,592 / (8 * 4 * 0.55))
        assert phases.marshal == 0
        gops = 2 * macs(BASELINE_CONV, BASELINE_IN) * cal.cluster.f_hz \
            / (phases.total * 1e9)
        assert gops == pytest.approx(8.8, rel=0.01)

    def test_ima_1_1_total(self, cal):
        phases = timing.layer_cycles_ima(BASELINE_CONV, mapper.STANDARD_IM2COL,
                                         BASELINE_IN, PortConfig(1, 1),
                                         cal.ima, cal.cluster)
        assert phases.total == 26_176
        assert phases.streamin == 16_928  # 46*46 segments, 8 cycles each
        assert phases.compute == 256 * 18
        assert phases.streamout == 256 * 16
        assert phases.config == 32 + 256 * 2

    def test_speedup_range(self, cal):
        sw = timing.layer_cycles_sw(BASELINE_CONV, BASELINE_IN, cal.cluster).total
        speedups = []
        for n in (1, 2, 4, 8, 16):
            ima = timing.layer_cycles_ima(BASELINE_CONV, mapper.STANDARD_IM2COL,
                                          BASELINE_IN, PortConfig(n, n),
                                          cal.ima, cal.cluster)
            speedups.append(sw / ima.total)
        assert speedups == sorted(speedups)  # monotone in ports
        assert 10.2 * 0.7 <= speedups[0] <= 10.2 * 1.3
        assert 30 <= speedups[-1] <= 45


class TestSwLayers:
    def test_depthwise_charges_marshalling(self, cal):
        dw = DepthwiseConv(k=3, c=192, pad=1)
        phases = timing.layer_cycles_sw(dw, TensorShape(32, 32, 192), cal.cluster)
        assert phases.marshal == 2 * 32 * 32 * 192 // 8
        assert phases.sw == 423_725  # ceil(1,769,472 / (32 * 0.1305))

    def test_ima_depthwise_has_no_marshalling(self, cal):
        dw = DepthwiseConv(k=3, c=192, pad=1)
        phases = timing.layer_cycles_ima(dw, MappingStrategy(16),
                                         TensorShape(32, 32, 192),
                                         PortConfig(4, 4), cal.ima, cal.cluster)
        assert phases.marshal == 0
        assert phases.sw == 0

    def test_minimal_layer_rounds_up(self, cal):
        phases = timing.layer_cycles_sw(PointwiseConv(1, 1),
                                        TensorShape(1, 1, 1), cal.cluster)
        assert phases.sw == 1


def sum_phases(parts) -> PhaseBreakdown:
    """Oracle: the field-by-field sum of phase breakdowns."""
    parts = list(parts)
    return PhaseBreakdown(*(sum(getattr(p, f.name) for p in parts)
                            for f in dataclasses.fields(PhaseBreakdown)))


class TestPhaseBreakdown:
    def test_total_is_sum_of_parts(self):
        p = PhaseBreakdown(streamin=1, compute=2, streamout=3, config=4,
                           sw=5, marshal=6)
        assert p.total == 21


# frozen totals of the default bottleneck at 4/4 under shipped calibration
EXPECTED_CYCLES_4_4 = {
    Plan.SW: 1_188_841,
    Plan.IMA8: 798_912,
    Plan.IMA16: 434_832,
    Plan.HYBRID: 543_597,
}


class TestBottleneckSchedule:
    @pytest.mark.parametrize("plan", list(Plan))
    def test_frozen_totals(self, cal, plan):
        sched = timing.bottleneck_schedule(default_bottleneck(), plan,
                                           PortConfig(4, 4), cal.ima, cal.cluster)
        assert sched.total_cycles == EXPECTED_CYCLES_4_4[plan]

    def test_phase_totals_sum_exactly(self, cal):
        for plan in Plan:
            sched = timing.bottleneck_schedule(default_bottleneck(), plan,
                                               PortConfig(2, 2), cal.ima,
                                               cal.cluster)
            agg = sum_phases(phases for _, phases in sched.layers)
            assert dataclasses.asdict(agg) == dataclasses.asdict(sched.totals)
            assert sched.total_cycles == sched.totals.total

    def test_hybrid_speedup_about_3x(self, cal):
        b = default_bottleneck()
        sw = timing.bottleneck_schedule(b, Plan.SW, PortConfig(4, 4),
                                        cal.ima, cal.cluster)
        hy = timing.bottleneck_schedule(b, Plan.HYBRID, PortConfig(4, 4),
                                        cal.ima, cal.cluster)
        speedup = sw.total_cycles / hy.total_cycles
        assert 3.0 * 0.7 <= speedup <= 3.0 * 1.3

    def test_residual_charged_in_every_plan(self, cal):
        for plan in Plan:
            sched = timing.bottleneck_schedule(default_bottleneck(), plan,
                                               PortConfig(4, 4), cal.ima,
                                               cal.cluster)
            names = dict(sched.layers)
            assert names["residual"].sw == 1_024

    def test_no_residual_when_channels_change(self, cal):
        from imasim.workload import BottleneckDescriptor
        b = BottleneckDescriptor(32, 6, 64, stride=1, height=16, width=16)
        sched = timing.bottleneck_schedule(b, Plan.SW, PortConfig(4, 4),
                                           cal.ima, cal.cluster)
        assert "residual" not in dict(sched.layers)

    def test_ima16_depthwise_saturates_at_4_ports(self, cal):
        b = default_bottleneck()
        dw_phases = {}
        for n in (4, 8, 16):
            sched = timing.bottleneck_schedule(b, Plan.IMA16, PortConfig(n, n),
                                               cal.ima, cal.cluster)
            dw_phases[n] = dict(sched.layers)["l1.depthwise"]
        assert dw_phases[4].streamin == dw_phases[8].streamin \
            == dw_phases[16].streamin == 106_032
        assert dw_phases[4].total == dw_phases[8].total == dw_phases[16].total

    def test_cycles_monotone_in_ports(self, cal):
        b = default_bottleneck()
        for plan in Plan:
            totals = [timing.bottleneck_schedule(b, plan, PortConfig(n, n),
                                                 cal.ima, cal.cluster).total_cycles
                      for n in (1, 2, 4, 8, 16)]
            assert totals == sorted(totals, reverse=True)

    def test_streamed_bytes_accounting(self, cal):
        sched = timing.bottleneck_schedule(default_bottleneck(), Plan.HYBRID,
                                           PortConfig(4, 4), cal.ima, cal.cluster)
        # two pointwise layers on the accelerator: 1024 jobs each
        assert sched.ima_jobs == 2_048
        assert sched.bytes_streamed_in == 1024 * 32 + 1024 * 192
        assert sched.bytes_streamed_out == 1024 * 192 + 1024 * 32

    def test_sw_plan_uses_no_accelerator(self, cal):
        sched = timing.bottleneck_schedule(default_bottleneck(), Plan.SW,
                                           PortConfig(4, 4), cal.ima, cal.cluster)
        assert sched.ima_jobs == 0
        assert sched.bytes_streamed_in == 0
        assert sched.totals.streamin == sched.totals.compute == 0


class TestModelKnobs:
    def test_cluster_validation(self, cal):
        with pytest.raises(ValueError):
            dataclasses.replace(cal.cluster, eta_conv=0.0)
        with pytest.raises(ValueError):
            dataclasses.replace(cal.ima, t_array_ns=0)
        for field in ("n_cores", "simd_macs_per_core_cycle",
                      "marshal_bytes_per_cycle", "f_hz"):
            with pytest.raises(ValueError):
                dataclasses.replace(cal.cluster, **{field: 0})
        for field in ("cfg_overhead_cycles", "job_handshake_cycles"):
            with pytest.raises(ValueError):
                dataclasses.replace(cal.ima, **{field: -1})
            dataclasses.replace(cal.ima, **{field: 0})  # zero overhead is allowed


# --- closed form vs enumerated job streams ------------------------------------

def enumerated_phases(stream, ports, ima, cluster) -> PhaseBreakdown:
    """Oracle: fold an enumerated job stream job by job."""
    si = sum(streamin_cycles(job.segments, ports.n_load)
             for job in stream.jobs)
    so = sum(streamout_cycles(job.out_length, ports.n_store)
             for job in stream.jobs)
    n_jobs = len(stream.jobs)
    comp = n_jobs * array_op_cycles(ima.t_array_ns, cluster.f_hz)
    return PhaseBreakdown(streamin=si, compute=comp, streamout=so,
                          config=ima.cfg_overhead_cycles
                          + n_jobs * ima.job_handshake_cycles)


def random_geometry(rng: np.random.Generator, kind: str):
    """(layer, strategy, in_shape) with padding, stride up to 3 and, for
    depthwise, any c_job in [1, c] (so non-dividing tail groups occur)."""
    if kind == "pointwise":
        k, stride, pad = 1, 1, 0
        layer = PointwiseConv(int(rng.integers(1, 40)), int(rng.integers(1, 40)))
        strategy = mapper.STANDARD_IM2COL
    else:
        k = int(rng.choice([1, 3, 5]))
        stride = int(rng.integers(1, 4))
        pad = int(rng.integers(0, k // 2 + 2))
        if kind == "standard":
            layer = StandardConv(k=k, c_in=int(rng.integers(1, 40)),
                                 c_out=int(rng.integers(1, 40)),
                                 stride=stride, pad=pad)
            strategy = mapper.STANDARD_IM2COL
        else:
            c = int(rng.integers(1, 40))
            layer = DepthwiseConv(k=k, c=c, stride=stride, pad=pad)
            strategy = MappingStrategy(int(rng.integers(1, c + 1)))
    lo = max(1, k - 2 * pad)  # smallest input with a non-empty output
    shape = TensorShape(int(rng.integers(lo, lo + 9)),
                        int(rng.integers(lo, lo + 9)),
                        layer.c if kind == "depthwise" else layer.c_in)
    return layer, strategy, shape


@pytest.mark.parametrize("kind", ["standard", "pointwise", "depthwise"])
def test_closed_form_matches_enumerated_job_stream(cal, kind):
    rng = np.random.default_rng(["standard", "pointwise", "depthwise"].index(kind))
    port_pairs = [PortConfig(a, b) for a in PORT_CHOICES for b in PORT_CHOICES]
    for _ in range(40):
        layer, strategy, shape = random_geometry(rng, kind)
        stream = mapper.job_stream(layer, shape, strategy)
        out = stream.out_shape
        pixels = out.height * out.width
        bytes_in = mapper.stream_taps(layer, shape) * shape.channels
        case = f"{layer} {strategy} on {shape}"
        assert pixels * stream.allocation.groups == len(stream.jobs), case
        assert bytes_in == sum(s.length for job in stream.jobs
                               for s in job.segments if not s.zero_fill), case
        assert pixels * out.channels \
            == sum(job.out_length for job in stream.jobs), case
        assert mapper.stream_bytes(stream) == (bytes_in, pixels * out.channels)
        for ports in port_pairs:
            got = timing.layer_cycles_ima(layer, strategy, shape, ports,
                                          cal.ima, cal.cluster)
            want = enumerated_phases(stream, ports, cal.ima, cal.cluster)
            assert got == want, f"{case} at {ports}"
            assert timing.stream_cycles_ima(stream, ports, cal.ima,
                                            cal.cluster) == want


# --- closed form vs the per-group sum it replaced -------------------------------

def group_slices(channels: int, width: int) -> tuple[int, ...]:
    """Oracle: channels of each group of `width`, the last one possibly
    partial."""
    full, tail = divmod(channels, width)
    return (width,) * full + ((tail,) if tail else ())


def group_traffic(layer, strategy, shape):
    """Oracle: (T, P, input slices, output slices) of a layer, its groups
    c_job channels wide, or all of them when dense, as the strategy reads."""
    out = output_shape(layer, shape)
    return (mapper.stream_taps(layer, shape), out.height * out.width,
            group_slices(shape.channels, strategy.c_job or shape.channels),
            group_slices(out.channels, strategy.c_job or out.channels))


def per_group_phases(layer, strategy, shape, ports, ima,
                     cluster) -> PhaseBreakdown:
    """Oracle: sum each group's slice ceilings, one group at a time."""
    taps, pixels, slices_in, slices_out = group_traffic(layer, strategy, shape)
    beat_in = timing.PORT_WIDTH_BYTES * ports.n_load
    beat_out = timing.PORT_WIDTH_BYTES * ports.n_store
    n_jobs = pixels * len(slices_in)
    return PhaseBreakdown(
        streamin=taps * sum(-(-r // beat_in) for r in slices_in),
        compute=n_jobs * array_op_cycles(ima.t_array_ns, cluster.f_hz),
        streamout=pixels * sum(-(-o // beat_out) for o in slices_out),
        config=ima.cfg_overhead_cycles + n_jobs * ima.job_handshake_cycles)


def wide_geometry(rng: np.random.Generator, kind: str):
    """(layer, strategy, in_shape) of up to 10**4 channels on a small
    feature map; a depthwise c_job rarely divides c, so tails are partial."""
    k = int(rng.choice([1, 3, 5]))
    stride, pad = int(rng.integers(1, 3)), k // 2
    c = int(rng.integers(1, 10_001))
    if kind == "depthwise":
        layer = DepthwiseConv(k=k, c=c, stride=stride, pad=pad)
        strategy = MappingStrategy(int(rng.integers(1, min(c, 64) + 1)))
    elif k == 1:
        layer = PointwiseConv(c, int(rng.integers(1, 10_001)))
        strategy = mapper.STANDARD_IM2COL
    else:
        layer = StandardConv(k=k, c_in=c, c_out=int(rng.integers(1, 10_001)),
                             stride=stride, pad=pad)
        strategy = mapper.STANDARD_IM2COL
    size = int(rng.integers(k, k + 6))
    return layer, strategy, TensorShape(size, size, c)


@pytest.mark.parametrize("kind", ["dense", "depthwise"])
def test_closed_form_matches_per_group_sum(cal, kind):
    rng = np.random.default_rng(["dense", "depthwise"].index(kind) + 20)
    port_pairs = [PortConfig(a, b) for a in PORT_CHOICES for b in PORT_CHOICES]
    tails = 0
    for _ in range(60):
        layer, strategy, shape = wide_geometry(rng, kind)
        case = f"{layer} {strategy} on {shape}"
        slices_in = group_traffic(layer, strategy, shape)[2]
        tails += slices_in[-1] != slices_in[0]
        for ports in port_pairs:
            assert timing.layer_cycles_ima(layer, strategy, shape, ports,
                                           cal.ima, cal.cluster) \
                == per_group_phases(layer, strategy, shape, ports, cal.ima,
                                    cal.cluster), f"{case} at {ports}"
    if kind == "depthwise":
        assert tails > 30  # most cases end in a partial group


def test_fold_is_constant_in_the_group_count(cal):
    # a per-group structure could neither be built nor folded at 2**63
    groups = 2 ** 63
    layer = DepthwiseConv(k=3, c=groups, stride=1, pad=1)
    shape = TensorShape(4, 4, groups)
    taps = mapper.stream_taps(layer, shape)
    alloc = mapper.map_layer(layer, MappingStrategy(1))
    assert (alloc.groups, alloc.width, alloc.cols) == (groups, 1, 1)
    assert all(type(n) is int
               for n in (taps, alloc.groups, alloc.rows, alloc.cols))
    row = timing.Placement("l0.depthwise", layer, shape,
                           output_shape(layer, shape), macs(layer, shape),
                           taps, alloc, residual=False)
    result = timing.fold_schedule((row,), PortConfig(4, 4), cal.ima,
                                  cal.cluster)
    assert result.ima_jobs == 16 * groups
    assert result.bytes_streamed_in == taps * groups
    assert result.totals.streamin == taps * groups  # 1 beat a 1-byte slice


def test_schedule_builds_no_job_streams(cal, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the cycle model enumerated a job stream")

    monkeypatch.setattr(mapper, "job_stream", forbidden)
    for plan in Plan:
        timing.bottleneck_schedule(default_bottleneck(), plan, PortConfig(4, 4),
                                   cal.ima, cal.cluster)


def test_schedule_counts_taps_once_per_accelerator_layer(cal, monkeypatch):
    calls = []
    real = mapper.stream_taps

    def counted(layer, in_shape):
        calls.append(layer)
        return real(layer, in_shape)

    monkeypatch.setattr(mapper, "stream_taps", counted)
    b = default_bottleneck()
    for plan in Plan:
        calls.clear()
        timing.bottleneck_schedule(b, plan, PortConfig(4, 4), cal.ima,
                                   cal.cluster)
        want = [layer for layer in b.expand()
                if timing.plan_strategy(plan, layer) is not None]
        assert calls == want, plan


# --- placement table vs the per-layer walk it replaced ------------------------

def _oracle_layer_name(layer, index):
    if isinstance(layer, DepthwiseConv):
        return f"l{index}.depthwise"
    if isinstance(layer, PointwiseConv):
        return f"l{index}.pointwise"
    return f"l{index}.conv"


def oracle_schedule(b, plan, ports, ima, cluster):
    """Oracle: walk the bottleneck's layers one by one, accumulating phases,
    bytes, jobs and MACs, as `bottleneck_schedule` did before the table."""
    entries = []
    total_macs = bytes_in = bytes_out = n_jobs = 0
    shape = b.input_shape
    for i, layer in enumerate(b.expand()):
        name = _oracle_layer_name(layer, i)
        strategy = timing.plan_strategy(plan, layer)
        if strategy is None:
            entries.append((name, timing.layer_cycles_sw(layer, shape, cluster)))
        else:
            taps, pixels, slices_in, slices_out = \
                group_traffic(layer, strategy, shape)
            # not `layer_cycles_ima`, which is the fold of a one-row table
            entries.append((name, per_group_phases(layer, strategy, shape,
                                                   ports, ima, cluster)))
            bytes_in += taps * sum(slices_in)
            bytes_out += pixels * sum(slices_out)
            n_jobs += pixels * len(slices_in)
        total_macs += macs(layer, shape)
        shape = output_shape(layer, shape)
    if b.residual:
        entries.append(("residual", PhaseBreakdown(
            sw=timing.residual_add_cycles(shape, cluster))))
    return timing.ScheduleResult(ports=ports, layers=tuple(entries),
                                 totals=sum_phases(p for _, p in entries),
                                 macs=total_macs,
                                 bytes_streamed_in=bytes_in,
                                 bytes_streamed_out=bytes_out,
                                 ima_jobs=n_jobs, f_hz=cluster.f_hz)


def oracle_allocations(b, plan):
    """Oracle: map every layer the plan puts on the accelerator."""
    allocs = []
    for layer in b.expand():
        strategy = timing.plan_strategy(plan, layer)
        if strategy is not None:
            allocs.append(mapper.map_layer(layer, strategy))
    return allocs


def random_bottleneck(rng: np.random.Generator) -> BottleneckDescriptor:
    """A small bottleneck: expansion 1 or more, stride 1 or 2, and a c_out
    that equals c_in half the time, so residual blocks occur."""
    c_in = int(rng.integers(1, 25))
    return BottleneckDescriptor(
        c_in=c_in,
        expansion=1 if rng.random() < 0.3 else int(rng.integers(2, 7)),
        c_out=c_in if rng.random() < 0.5 else int(rng.integers(1, 25)),
        stride=int(rng.integers(1, 3)),
        height=int(rng.integers(1, 13)), width=int(rng.integers(1, 13)))


def scaled_calibrations() -> list:
    """The shipped calibration with one constant scaled by 0.9 or by 1.1,
    for every constant where that stays valid; an integer constant moves
    by the rounded step, and by at least 1."""
    base = calibration.shipped()
    cals = []
    for section in calibration.SECTIONS:
        for key, value in base[section].items():
            for factor in (0.9, 1.1):
                d = copy.deepcopy(base)
                if type(value) is int:
                    step = round(value * (factor - 1)) \
                        or (1 if factor > 1 else -1)
                    d[section][key] = value + step
                else:
                    d[section][key] = value * factor
                try:
                    cals.append(calibration.calibration_from_dict(d))
                except ValueError:
                    pass
    return cals


def oracle_sweep_rows(b, cal) -> list[dse.SweepRow]:
    """Oracle: the sweep's rows built point by point from one-port folds."""
    rows = []
    for plan in Plan:
        table = timing.placements(b, plan)
        allocations = timing.table_allocations(table)
        for ports in dse.DEFAULT_PORTS:
            schedule = timing.fold_schedule(table, ports, cal.ima, cal.cluster)
            rep = metrics.report(schedule, allocations, cal.area, cal.energy)
            t = schedule.totals
            rows.append(dse.SweepRow(
                plan.value, ports.n_load, ports.n_store, t.total, t.streamin,
                t.compute, t.streamout, t.sw, t.marshal, rep.gops,
                rep.tops_per_w, rep.gops_per_mm2_pcm, rep.gops_per_mm2_full))
    return rows


def test_placement_table_matches_per_layer_walk(cal):
    rng = np.random.default_rng(11)
    port_pairs = tuple(PortConfig(n_load, n_store) for n_load in PORT_CHOICES
                       for n_store in PORT_CHOICES)
    scaled = scaled_calibrations()
    # every constant the fold reads is scaled in some calibration
    timing_fields = [(section, f.name)
                     for section in ("cluster", "ima")
                     for f in dataclasses.fields(getattr(cal, section))]
    assert {(s, k) for c in scaled for s, k in timing_fields
            if getattr(getattr(c, s), k) != getattr(getattr(cal, s), k)} \
        == set(timing_fields)
    kinds = set()
    for case in range(200):
        b = random_bottleneck(rng)
        kinds.add((b.expansion == 1, b.residual, b.stride))
        cals = (cal, scaled[case % len(scaled)])
        for plan in Plan:
            assert timing.plan_allocations(b, plan) \
                == oracle_allocations(b, plan), (b, plan)
            rows = timing.placements(b, plan)
            for c in cals:
                # all 25 port pairs in one fold
                got = timing.fold_schedules(rows, port_pairs, c.ima, c.cluster)
                assert len(got) == len(port_pairs)
                for ports, result in zip(port_pairs, got):
                    want = oracle_schedule(b, plan, ports, c.ima, c.cluster)
                    for f in dataclasses.fields(want):
                        assert getattr(result, f.name) \
                            == getattr(want, f.name), (b, plan, ports, f.name)
                    # the one-port call is the same fold
                    assert timing.fold_schedule(rows, ports, c.ima,
                                                c.cluster) == want
                # the public entry point is the fold of a freshly built table
                assert timing.bottleneck_schedule(b, plan, ports, c.ima,
                                                  c.cluster) == want, (b, plan)
        for c in cals:
            assert dse.run_sweep(dse.SweepSpec(b, c)) \
                == oracle_sweep_rows(b, c), (b, c)
    # every block shape the table distinguishes was drawn
    assert kinds == {(single, residual, stride) for single in (True, False)
                     for residual, stride in ((True, 1), (False, 1),
                                              (False, 2))}
