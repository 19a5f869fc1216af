import json

import pytest

from imasim.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_default_point(capsys):
    code, out, _ = run(capsys, "simulate", "--preset", "bottleneck",
                       "--plan", "hybrid", "--ports", "4/4")
    assert code == EXIT_OK
    assert "gops: 13.20" in out
    assert "fitted" in out  # calibration provenance flagged in the header


def test_simulate_json_format(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "simulate", "--plan", "hybrid", "--ports", "4/4",
                     "--format", "json", "--out", str(out_path))
    assert code == EXIT_OK
    payload = json.loads(out_path.read_text())
    assert payload["metrics"]["gops"] == pytest.approx(13.2, rel=0.01)
    assert payload["metrics"]["total_cycles"] == 543_597
    assert len(payload["layers"]) == 4  # three layers + residual


def test_unknown_plan_is_validation_error(capsys):
    code, _, err = run(capsys, "simulate", "--plan", "turbo")
    assert code == EXIT_VALIDATION
    assert "unknown plan" in err


def test_unsupported_port_count_rejected(capsys):
    code, _, err = run(capsys, "simulate", "--ports", "3/3")
    assert code == EXIT_VALIDATION
    assert "3/3" in err


def test_sweep_writes_csv_and_is_reproducible(capsys, tmp_path):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    assert run(capsys, "sweep", "--out", str(p1))[0] == EXIT_OK
    assert run(capsys, "sweep", "--out", str(p2))[0] == EXIT_OK
    assert len(p1.read_text().splitlines()) == 21
    assert p1.read_bytes() == p2.read_bytes()


def test_verify_subcommand(capsys):
    code, out, _ = run(capsys, "verify", "--cases", "40", "--seed", "3")
    assert code == EXIT_OK
    assert "40/40" in out


def test_verify_zero_cases_warns(capsys):
    code, out, _ = run(capsys, "verify", "--cases", "0")
    assert code == EXIT_OK
    assert "warning" in out


def test_verify_mismatch_exit_code(capsys, monkeypatch):
    import imasim.cli as cli
    from imasim.verify import SuiteSummary

    monkeypatch.setattr(cli.verify, "run_random_suite",
                        lambda cases, seed: SuiteSummary(cases, cases - 1, 1,
                                                         "case 0: mismatch"))
    code, _, err = run(capsys, "verify", "--cases", "5")
    assert code == 3
    assert "FAIL" in err


def test_devices_reports_both_scopes(capsys):
    code, out, _ = run(capsys, "devices", "--cjob", "full")
    assert code == EXIT_OK
    assert "all layers" in out and "bottlenecks only" in out
    code, out, _ = run(capsys, "devices", "--cjob", "8")
    assert code == EXIT_OK
    assert "c_job = 8" in out


def test_devices_bad_cjob(capsys):
    assert run(capsys, "devices", "--cjob", "zero")[0] == EXIT_VALIDATION


def test_missing_calibration_file_is_io_error(capsys):
    code, _, err = run(capsys, "simulate", "--calibration", "/nonexistent.json")
    assert code == EXIT_IO


def test_bad_calibration_is_validation_error(capsys, tmp_path):
    path = tmp_path / "cal.json"
    path.write_text(json.dumps({"schema_version": 99}))
    assert run(capsys, "simulate", "--calibration", str(path))[0] == EXIT_VALIDATION


def test_calibration_override_changes_result(capsys, tmp_path):
    from imasim.calibration import calibration_to_dict, default_calibration
    d = calibration_to_dict(default_calibration())
    d["cluster"]["f_hz"] = 500_000_000
    path = tmp_path / "cal.json"
    path.write_text(json.dumps(d))
    code, out, _ = run(capsys, "simulate", "--calibration", str(path),
                       "--plan", "sw", "--ports", "1/1")
    assert code == EXIT_OK
    assert "gops: 12.07" in out  # sw throughput doubles with the clock


def test_workload_file_round_trip(capsys, tmp_path):
    from imasim import workload as wl
    b = wl.BottleneckDescriptor(16, 6, 16, stride=1, height=16, width=16)
    path = tmp_path / "b.json"
    path.write_text(json.dumps(wl.bottleneck_to_dict(b)))
    code, out, _ = run(capsys, "simulate", "--workload-file", str(path),
                       "--plan", "ima16", "--ports", "4/4")
    assert code == EXIT_OK
    assert "bottleneck(16, t=6, 16, 16x16)" in out


def test_set_overrides_calibration_constant(capsys):
    code, out, _ = run(capsys, "simulate", "--plan", "sw", "--ports", "1/1",
                       "--set", "cluster.f_hz=500000000")
    assert code == EXIT_OK
    assert "gops: 12.07" in out


def test_set_rejects_malformed_overrides(capsys):
    assert run(capsys, "simulate", "--set", "eta_dw=0.2")[0] == EXIT_VALIDATION
    assert run(capsys, "simulate", "--set", "cluster.eta_dw=high")[0] == \
        EXIT_VALIDATION
    assert run(capsys, "simulate", "--set", "motor.rpm=3")[0] == EXIT_VALIDATION
    assert run(capsys, "simulate", "--set", "cluster.bogus=1")[0] == \
        EXIT_VALIDATION


def test_allocation_tables_in_report(capsys):
    code, out, _ = run(capsys, "simulate", "--plan", "ima8", "--ports", "4/4",
                       "--allocations")
    assert code == EXIT_OK
    assert "utilization 0.1250" in out  # depthwise c_job=8 block
    assert "jobs/pixel: 24" in out


def test_argparse_rejects_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def assert_one_line_error(err):
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("field,value", [
    ("height", 32.5), ("width", True), ("c_in", "32"), ("stride", 1.0)])
def test_non_integer_geometry_is_validation_error(capsys, tmp_path, field, value):
    from imasim import workload as wl
    d = wl.bottleneck_to_dict(wl.default_bottleneck())
    d[field] = value
    path = tmp_path / "b.json"
    path.write_text(json.dumps(d))
    code, _, err = run(capsys, "simulate", "--workload-file", str(path))
    assert code == EXIT_VALIDATION
    assert_one_line_error(err)


@pytest.mark.parametrize("override", [
    "cluster.n_cores=0", "cluster.simd_macs_per_core_cycle=0",
    "cluster.marshal_bytes_per_cycle=0", "cluster.f_hz=0"])
def test_zero_cluster_divisor_is_validation_error(capsys, override):
    code, _, err = run(capsys, "simulate", "--plan", "sw", "--set", override)
    assert code == EXIT_VALIDATION
    assert_one_line_error(err)


@pytest.mark.parametrize("override", [
    "ima.cfg_overhead_cycles=-5", "ima.job_handshake_cycles=-1"])
def test_negative_ima_overhead_is_validation_error(capsys, override):
    code, _, err = run(capsys, "simulate", "--plan", "ima16", "--set", override)
    assert code == EXIT_VALIDATION
    assert_one_line_error(err)
