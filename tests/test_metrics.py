import dataclasses
import math

import numpy as np
import pytest

from imasim import mapper, metrics, timing
from imasim.calibration import default_calibration, shipped
from imasim.metrics import EnergyModel
from imasim.timing import PhaseBreakdown, Plan, PortConfig, ScheduleResult
from imasim.workload import (
    BottleneckDescriptor,
    DepthwiseConv,
    default_bottleneck,
)

AREA = default_calibration().area


def schedule_for(cal, plan, n):
    return timing.bottleneck_schedule(default_bottleneck(), plan,
                                      PortConfig(n, n), cal.ima, cal.cluster)


def report_for(cal, plan, n):
    sched = schedule_for(cal, plan, n)
    allocs = timing.plan_allocations(default_bottleneck(), plan)
    return metrics.report(sched, allocs, cal.area, cal.energy)


class TestArea:
    def test_depthwise_cjob8_pcm_area(self):
        alloc = mapper.map_depthwise(DepthwiseConv(k=3, c=192, pad=1), 8)
        assert metrics.pcm_area_mm2([alloc], AREA) == \
            pytest.approx(0.5032, abs=1e-3)

    def test_empty_allocation(self, cal):
        assert metrics.pcm_area_mm2([], AREA) == 0.0
        # with no PCM the full area is the cluster alone
        rep = report_for(cal, Plan.SW, 4)
        assert rep.gops_per_mm2_pcm is None
        assert rep.gops_per_mm2_full == rep.gops / cal.area.cluster_mm2

    def test_plan_area_ratios_exact(self):
        areas = {p: metrics.pcm_area_mm2(
            timing.plan_allocations(default_bottleneck(), p), AREA)
            for p in (Plan.IMA8, Plan.IMA16, Plan.HYBRID)}
        assert areas[Plan.IMA16] / areas[Plan.HYBRID] == 3.25
        assert areas[Plan.IMA8] / areas[Plan.HYBRID] == 2.125

    def test_area_ordering_structural(self):
        # padding grows with c_job, so HYBRID < IMA8 < IMA16 on PCM area
        rng = np.random.default_rng(2)
        for _ in range(10):
            c_in = int(rng.choice([16, 24, 32, 48, 64]))
            b = BottleneckDescriptor(c_in, 6, int(rng.choice([16, 32, 64])),
                                     stride=1, height=8, width=8)
            areas = [metrics.pcm_area_mm2(timing.plan_allocations(b, p), AREA)
                     for p in (Plan.HYBRID, Plan.IMA8, Plan.IMA16)]
            assert areas[0] < areas[1] < areas[2]

    @pytest.mark.parametrize("plan", [Plan.SW, Plan.IMA8, Plan.IMA16, Plan.HYBRID])
    def test_pcm_area_is_mapper_device_count(self, plan):
        allocs = timing.plan_allocations(default_bottleneck(), plan)
        devices = sum(a.devices_total for a in allocs)
        assert metrics.pcm_area_mm2(allocs, AREA) == \
            devices * AREA.pcm_device_um2 / 1e6

    def test_area_increasing_in_weights(self):
        small = mapper.map_depthwise(DepthwiseConv(k=3, c=64), 8)
        large = mapper.map_depthwise(DepthwiseConv(k=3, c=64), 16)
        assert metrics.pcm_area_mm2([small], AREA) < \
            metrics.pcm_area_mm2([large], AREA)


def synthetic_schedule(**overrides) -> ScheduleResult:
    defaults = dict(
        ports=PortConfig(4, 4),
        layers=(), totals=PhaseBreakdown(), macs=0,
        bytes_streamed_in=0, bytes_streamed_out=0, ima_jobs=0,
        f_hz=250_000_000)
    defaults.update(overrides)
    return ScheduleResult(**defaults)


class TestEnergy:
    def test_zero_cycle_schedule(self, cal):
        assert metrics.energy(synthetic_schedule(), cal.energy) == 0.0

    def test_streaming_term_is_linear(self, cal):
        base = synthetic_schedule(totals=PhaseBreakdown(streamin=100),
                                  bytes_streamed_in=1000, ima_jobs=1)
        double = synthetic_schedule(totals=PhaseBreakdown(streamin=100),
                                    bytes_streamed_in=2000, ima_jobs=1)
        delta = metrics.energy(double, cal.energy) - metrics.energy(base, cal.energy)
        assert delta == pytest.approx(1000 * cal.energy.e_stream_in_pj_per_byte
                                      * 1e-12)

    def test_accelerator_power_gated_when_unused(self, cal):
        sw4 = schedule_for(cal, Plan.SW, 4)
        sw16 = schedule_for(cal, Plan.SW, 16)
        assert metrics.energy(sw4, cal.energy) == metrics.energy(sw16, cal.energy)

    def test_port_power_charged_when_used(self, cal):
        base = synthetic_schedule(totals=PhaseBreakdown(compute=1000), ima_jobs=1)
        wide = synthetic_schedule(totals=PhaseBreakdown(compute=1000), ima_jobs=1,
                                  ports=PortConfig(16, 16))
        assert metrics.energy(wide, cal.energy) > metrics.energy(base, cal.energy)


class TestReport:
    def test_gops_definition_exact(self, cal):
        rep = report_for(cal, Plan.HYBRID, 4)
        ops_back = rep.gops * rep.total_cycles * 1e9 / cal.cluster.f_hz
        assert math.isclose(ops_back, 2 * rep.macs, rel_tol=1e-12)

    def test_hybrid_endpoints(self, cal):
        rep = report_for(cal, Plan.HYBRID, 4)
        assert rep.gops == pytest.approx(13.2, rel=0.25)
        assert rep.tops_per_w == pytest.approx(2.55, rel=0.25)
        assert rep.gops_per_mm2_full == pytest.approx(19.7, rel=0.25)

    def test_sw_plan_has_no_pcm_area(self, cal):
        rep = report_for(cal, Plan.SW, 4)
        assert rep.gops_per_mm2_pcm is None
        assert rep.gops_per_mm2_full > 0

    def test_gops_per_mm2_ratios(self, cal):
        hy = report_for(cal, Plan.HYBRID, 4)
        i16 = report_for(cal, Plan.IMA16, 4)
        i8 = report_for(cal, Plan.IMA8, 4)
        assert hy.gops_per_mm2_full / i16.gops_per_mm2_full == \
            pytest.approx(1.82, rel=0.20)
        assert hy.gops_per_mm2_full / i8.gops_per_mm2_full == \
            pytest.approx(2.56, rel=0.20)

    def test_efficiency_peaks(self, cal):
        def tops_per_w(plan):
            return {n: report_for(cal, plan, n).tops_per_w
                    for n in (1, 2, 4, 8, 16)}

        hybrid = tops_per_w(Plan.HYBRID)
        assert max(hybrid, key=hybrid.get) == 4
        ima16 = tops_per_w(Plan.IMA16)
        assert max(ima16, key=ima16.get) == 4
        ima8 = tops_per_w(Plan.IMA8)
        assert max(ima8, key=ima8.get) == 2

    def test_report_dict_round_trip_fields(self, cal):
        rep = report_for(cal, Plan.IMA16, 2)
        d = dataclasses.asdict(rep)
        assert d["total_cycles"] == rep.total_cycles
        assert d["gops"] == rep.gops


def test_models_reject_negative_parameters(cal):
    with pytest.raises(ValueError):
        dataclasses.replace(cal.area, pcm_device_um2=-1)
    with pytest.raises(ValueError):
        dataclasses.replace(cal.energy, e_job_fixed_pj=-0.1)


@pytest.mark.parametrize("section", ["area", "energy"],
                         ids=["AreaModel", "EnergyModel"])
def test_every_model_parameter_rejects_negatives(cal, section):
    model = getattr(cal, section)
    for field in dataclasses.fields(model):
        with pytest.raises(ValueError):
            dataclasses.replace(model, **{field.name: -1.0})


@pytest.mark.parametrize("plan,section,changes", [
    pytest.param(Plan.IMA8, "energy", {"e_job_fixed_pj": 1e308},
                 id="energy-e_job_fixed_pj"),
    pytest.param(Plan.IMA8, "energy", {"e_stream_in_pj_per_byte": 1e308},
                 id="energy-e_stream_in_pj_per_byte"),
    pytest.param(Plan.IMA8, "area", {"pcm_device_um2": 1e308},
                 id="area-pcm_device_um2"),
    # a tiny positive area or energy makes a ratio infinite
    pytest.param(Plan.SW, "area", {"cluster_mm2": 1e-320},
                 id="sw-area-cluster_mm2-tiny"),
    pytest.param(Plan.IMA8, "area", {"pcm_device_um2": 1e-320},
                 id="area-pcm_device_um2-tiny"),
    pytest.param(Plan.IMA8, "energy",
                 {**{f.name: 0.0 for f in dataclasses.fields(EnergyModel)},
                  "e_job_fixed_pj": 1e-300},
                 id="energy-e_job_fixed_pj-tiny")])
def test_report_rejects_non_finite_energy_or_area(cal, plan, section, changes):
    sched = schedule_for(cal, plan, 4)
    allocs = timing.plan_allocations(default_bottleneck(), plan)
    models = {"area": cal.area, "energy": cal.energy}
    models[section] = dataclasses.replace(models[section], **changes)
    with pytest.raises(ValueError, match="not finite"):
        metrics.report(sched, allocs, models["area"], models["energy"])


def test_pcm_area_underflow_is_not_no_pcm(cal):
    """"No PCM" follows the device count: an area that underflows to 0.0
    under allocated devices gives an infinite ratio, which is rejected."""
    area = dataclasses.replace(cal.area, pcm_device_um2=5e-324)
    allocs = timing.plan_allocations(default_bottleneck(), Plan.IMA8)
    assert metrics.pcm_area_mm2(allocs, area) == 0.0
    with pytest.raises(ValueError, match="not finite"):
        # a one-shot iterable: report reads the allocations twice
        metrics.report(schedule_for(cal, Plan.IMA8, 4), iter(allocs), area,
                       cal.energy)
    rep = metrics.report(schedule_for(cal, Plan.SW, 4), [], area, cal.energy)
    assert rep.gops_per_mm2_pcm is None


def test_settable_calibration_keys():
    # a new calibration knob is a deliberate edit of this list
    keys = sorted(f"{section}.{key}"
                  for section, values in shipped().items()
                  if isinstance(values, dict) for key in values)
    assert keys == [
        "area.cluster_mm2", "area.pcm_device_um2",
        "cluster.eta_conv", "cluster.eta_dw", "cluster.f_hz",
        "cluster.marshal_bytes_per_cycle", "cluster.n_cores",
        "cluster.simd_macs_per_core_cycle",
        "energy.e_job_fixed_pj", "energy.e_stream_in_pj_per_byte",
        "energy.e_stream_out_pj_per_byte", "energy.p_cluster_static_mw",
        "energy.p_core_active_mw", "energy.p_core_idle_mw",
        "energy.p_ima_port_mw",
        "ima.cfg_overhead_cycles", "ima.job_handshake_cycles",
        "ima.t_array_ns"]


def test_calibrated_cluster_area_flagged():
    # the defaults ship with an explicit fitted-constants note
    assert "fitted" in shipped()["note"]
