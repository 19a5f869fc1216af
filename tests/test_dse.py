import json

import pytest

from imasim import dse
from imasim.dse import SweepRow, SweepSpec, best_by
from imasim.workload import default_bottleneck


@pytest.fixture(scope="module")
def rows(cal):
    spec = SweepSpec(workload=default_bottleneck(), calibration=cal)
    return dse.run_sweep(spec)


def test_default_sweep_cardinality(rows):
    assert len(rows) == 4 * 5
    assert len({(r.plan, r.n_load, r.n_store) for r in rows}) == 20


def test_row_order_plan_major(rows):
    assert [r.plan for r in rows[:5]] == ["sw"] * 5
    assert [r.n_load for r in rows[:5]] == [1, 2, 4, 8, 16]
    assert rows[5].plan == "ima8" and rows[10].plan == "ima16" \
        and rows[15].plan == "hybrid"


def test_sw_rows_identical_across_ports(rows):
    sw = [r for r in rows if r.plan == "sw"]
    ref = sw[0]
    for r in sw[1:]:
        assert r.cycles_total == ref.cycles_total
        assert r.gops == ref.gops
        assert r.tops_per_w == ref.tops_per_w


def test_hybrid_gops_rises_then_flattens(rows):
    hybrid = {r.n_load: r.gops for r in rows if r.plan == "hybrid"}
    assert hybrid[1] <= hybrid[2] <= hybrid[4]
    # port benefits fall off after 4/4: marginal gains beyond
    assert hybrid[8] / hybrid[4] < 1.05
    assert hybrid[16] / hybrid[8] < 1.05


def test_sweep_is_deterministic(rows, cal, tmp_path):
    again = dse.run_sweep(SweepSpec(workload=default_bottleneck(),
                                    calibration=cal))
    assert again == rows
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    dse.emit(rows, str(p1))
    dse.emit(again, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_shape(rows, tmp_path):
    path = tmp_path / "sweep.csv"
    dse.emit(rows, str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 21
    assert lines[0].split(",") == list(dse.COLUMNS)
    # undefined PCM-area efficiency renders as an empty cell on sw rows
    first_sw = lines[1].split(",")
    assert first_sw[0] == "sw"
    assert first_sw[dse.COLUMNS.index("gops_per_mm2_pcm")] == ""


def test_empty_table_csv_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    dse.emit([], str(path))
    assert path.read_text().splitlines() == [",".join(dse.COLUMNS)]


def test_json_round_trip_identity(rows, tmp_path):
    path = tmp_path / "sweep.json"
    dse.emit(rows, str(path), fmt="json")
    loaded = json.loads(path.read_text())
    assert loaded == {"schema_version": 1, "rows": dse.rows_to_dicts(rows)}


def test_unknown_format_rejected(rows, tmp_path):
    with pytest.raises(ValueError):
        dse.emit(rows, str(tmp_path / "x.yaml"), fmt="yaml")


class TestBestBy:
    def test_best_tops_per_w_is_a_peak_port_row(self, rows):
        best = best_by(rows, "tops_per_w")
        assert (best.n_load, best.n_store) in {(4, 4), (2, 2)}

    def test_single_row_table(self, rows):
        assert best_by(rows[:1], "gops") == rows[0]

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            best_by([], "gops")

    def test_unknown_metric_rejected(self, rows):
        with pytest.raises(ValueError):
            best_by(rows, "nonexistent")

    def test_tie_prefers_fewer_ports_then_plan_order(self):
        def row(plan, n, gops):
            return SweepRow(plan=plan, n_load=n, n_store=n, cycles_total=1,
                            cycles_streamin=0, cycles_compute=0,
                            cycles_streamout=0, cycles_sw=0, cycles_marshal=0,
                            gops=gops, tops_per_w=1.0, gops_per_mm2_pcm=None,
                            gops_per_mm2_full=1.0)

        table = [row("hybrid", 8, 5.0), row("hybrid", 4, 5.0), row("sw", 4, 5.0)]
        best = best_by(table, "gops")
        assert (best.plan, best.n_load) == ("sw", 4)

    def test_none_metric_rows_skipped(self, rows):
        best = best_by(rows, "gops_per_mm2_pcm")
        assert best.plan != "sw"


def test_sweep_maps_each_plan_once(cal, monkeypatch):
    """A plan's allocations and stream geometries do not depend on ports,
    so a sweep builds them once per plan: 3 + 3 + 2 accelerator layers
    under ima8, ima16 and hybrid, not once per port config."""
    from imasim import mapper

    calls = {"map_layer": 0, "stream_geometry": 0}

    def counting(name):
        real = getattr(mapper, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(mapper, name, counting(name))
    dse.run_sweep(SweepSpec(workload=default_bottleneck(), calibration=cal))
    assert calls == {"map_layer": 8, "stream_geometry": 8}


def test_fold_rebuilds_no_shapes(cal, monkeypatch):
    """A fold reads each row's shapes and MACs from the placement table:
    no `output_shape` call runs inside `timing.fold_schedule`, for software
    rows included."""
    from imasim import timing, workload

    inside = {"fold": False, "output_shape": 0}

    def counted_shape(real):
        def counted(*args, **kwargs):
            inside["output_shape"] += inside["fold"]
            return real(*args, **kwargs)
        return counted

    real_fold = timing.fold_schedule

    def fold(*args, **kwargs):
        inside["fold"] = True
        try:
            return real_fold(*args, **kwargs)
        finally:
            inside["fold"] = False

    for mod in (workload, timing):
        monkeypatch.setattr(mod, "output_shape", counted_shape(mod.output_shape))
    monkeypatch.setattr(timing, "fold_schedule", fold)
    rows = dse.run_sweep(SweepSpec(workload=default_bottleneck(), calibration=cal))
    assert len(rows) == 20
    assert inside["output_shape"] == 0
