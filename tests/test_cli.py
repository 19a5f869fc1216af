import hashlib
import json

import pytest

from imasim import workload as wl
from imasim.calibration import shipped
from imasim.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, main

# sha256 of the default `sweep` CSV and of `simulate --ports 4/4 --format json`
SWEEP_CSV_SHA256 = \
    "1f6f0c78ce145a92f878c13e3c9b418a41cde575bcf7abb49ef4342739236070"
SIMULATE_JSON_SHA256 = {
    "sw": "ebbbc11a345fd3047059c35b57e7681c4b8c11df90b6f9c3c9acfceacfae30dd",
    "ima8": "afadb8baa1f77ca494511e5e6e6f61a4c47285f0a1c820c703012454ec60fe42",
    "ima16": "e7ea25932153e402d67bdc934235058db869df8836ac422c68572eff6c5963e1",
    "hybrid": "2b62948ed65d6a54e4e59c712fb4f23edd2e2fe6bfa1c9b19b0585b06d235039",
}
# sha256 of the text report of `simulate --ports 4/4 --allocations`
SIMULATE_TEXT_SHA256 = {
    "sw": "0e97922abe79dabb09ccebbe8481554304d900ee39b0cadfdac5cd1c571546cc",
    "ima8": "a3193bdbcbd0e34e29c73a8b170a5ec309be0b15e90db2a7da321af94300713c",
    "ima16": "14afcaeb28f8aa21f578d6a95bfffc1ded7e63af8ce951f37932326f6e616f21",
    "hybrid": "5216711ed225cdcb5578843c752afb51bccb7d788a9a4925a6d41ac4d074a4d2",
}


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


@pytest.mark.parametrize("option,value", [("--cases", "-1"), ("--seed", "-1")])
def test_bad_verify_option_is_validation_error(capsys, option, value):
    code, _, err = run(capsys, "verify", option, value)
    assert code == EXIT_VALIDATION
    assert_one_line_error(err)
    assert option in err


def test_missing_calibration_file_is_io_error(capsys):
    code, _, err = run(capsys, "simulate", "--calibration", "/nonexistent.json")
    assert code == EXIT_IO


@pytest.mark.parametrize("schema_version", [99, 1, 2.0, True])
def test_bad_calibration_is_validation_error(capsys, tmp_path, schema_version):
    d = shipped()
    d["schema_version"] = schema_version  # 1 is the pre-cleanup key set
    path = tmp_path / "cal.json"
    path.write_text(json.dumps(d))
    code, _, err = run(capsys, "simulate", "--calibration", str(path))
    assert code == EXIT_VALIDATION
    assert_one_line_error(err)


def test_non_string_calibration_note_is_validation_error(capsys, tmp_path):
    d = shipped()
    d["note"] = 5
    path = tmp_path / "cal.json"
    path.write_text(json.dumps(d))
    code, _, err = run(capsys, "simulate", "--calibration", str(path))
    assert code == EXIT_VALIDATION
    assert_one_line_error(err)
    assert "note" in err


# knobs that only ever shipped at the value that switched their code off
REMOVED_CALIBRATION_KEYS = {"cluster.contention_factor": 1.0,
                            "ima.overlap_streamin_compute": False,
                            "area.ima_periphery_mm2": 0.0}


@pytest.mark.parametrize("given", ["set", "file"])
@pytest.mark.parametrize("key", list(REMOVED_CALIBRATION_KEYS))
def test_removed_calibration_key_is_validation_error(capsys, tmp_path, key,
                                                     given):
    section, field = key.split(".")
    value = REMOVED_CALIBRATION_KEYS[key]
    if given == "set":
        options = ["--set", f"{key}={json.dumps(value)}"]
    else:
        d = shipped()
        d[section][field] = value
        path = tmp_path / "cal.json"
        path.write_text(json.dumps(d))
        options = ["--calibration", str(path)]
    code, _, err = run(capsys, "simulate", *options)
    assert code == EXIT_VALIDATION
    assert_one_line_error(err)
    assert f"unknown {section} calibration keys: ['{field}']" in err


def test_unknown_top_level_calibration_key_is_validation_error(capsys,
                                                               tmp_path):
    path = tmp_path / "cal.json"
    path.write_text(json.dumps({"schema_version": 2,
                                "clustre": {"n_cores": 4}}))
    code, out, err = run(capsys, "simulate", "--calibration", str(path))
    assert code == EXIT_VALIDATION
    assert_one_line_error(err)
    assert "unknown calibration keys: ['clustre']" in err
    assert out == ""


def test_calibration_override_changes_result(capsys, tmp_path):
    d = shipped()
    d["cluster"]["f_hz"] = 500_000_000
    path = tmp_path / "cal.json"
    path.write_text(json.dumps(d))
    code, out, _ = run(capsys, "simulate", "--calibration", str(path),
                       "--plan", "sw", "--ports", "1/1")
    assert code == EXIT_OK
    assert "gops: 12.07" in out  # sw throughput doubles with the clock


def test_workload_file_round_trip(capsys, tmp_path):
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
    # knobs the model never read are gone, not silently accepted
    for removed in ("cluster.n_banks=16", "cluster.bank_width=4",
                    "area.devices_per_weight=2"):
        assert run(capsys, "simulate", "--set", removed)[0] == EXIT_VALIDATION


def test_allocation_tables_in_report(capsys):
    code, out, _ = run(capsys, "simulate", "--plan", "ima8", "--ports", "4/4",
                       "--allocations")
    assert code == EXIT_OK
    assert "utilization 0.1250" in out  # depthwise c_job=8 block
    assert "jobs/pixel: 24" in out


def test_allocations_with_json_format_is_validation_error(capsys):
    code, out, err = run(capsys, "simulate", "--plan", "ima8", "--format",
                         "json", "--allocations")
    assert code == EXIT_VALIDATION
    assert_one_line_error(err)
    assert "--allocations" in err and "text report" in err
    assert out == ""


def test_argparse_rejects_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def assert_one_line_error(err):
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("field,value", [
    ("height", 32.5), ("width", True), ("c_in", "32"), ("stride", 1.0),
    ("schema_version", True), ("schema_version", 1.0)])
def test_non_integer_geometry_is_validation_error(capsys, tmp_path, field, value):
    d = wl.bottleneck_to_dict(wl.default_bottleneck())
    d[field] = value
    path = tmp_path / "b.json"
    path.write_text(json.dumps(d))
    code, _, err = run(capsys, "simulate", "--workload-file", str(path))
    assert code == EXIT_VALIDATION
    assert_one_line_error(err)


@pytest.mark.parametrize("override", [
    "cluster.n_cores=0", "cluster.simd_macs_per_core_cycle=0",
    "cluster.marshal_bytes_per_cycle=0", "cluster.f_hz=0",
    "cluster.contention_factor=1e400", "energy.p_core_idle_mw=NaN",
    "cluster.n_cores=1.5", "cluster.f_hz=true", "cluster.eta_dw=1e-9",
    "cluster.eta_conv=1e-9", "area.cluster_mm2=0"])
def test_zero_cluster_divisor_is_validation_error(capsys, override):
    code, _, err = run(capsys, "simulate", "--plan", "sw", "--set", override)
    assert code == EXIT_VALIDATION
    assert_one_line_error(err)


@pytest.mark.parametrize("command,options", [
    ("simulate", ["--plan", "ima8"]), ("sweep", ["--out", "sweep.csv"])],
    ids=["simulate", "sweep"])
def test_overflowing_contention_factor_is_validation_error(
        capsys, tmp_path, monkeypatch, command, options):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, command, *options,
                       "--set", "cluster.contention_factor=1e308")
    assert code == EXIT_VALIDATION
    assert_one_line_error(err)
    assert "contention_factor" in err


NON_FINITE_COMMANDS = {
    "simulate-json": ["simulate", "--plan", "ima8", "--format", "json"],
    "simulate-sw-json": ["simulate", "--plan", "sw", "--format", "json"],
    "simulate": ["simulate", "--plan", "ima8"],
    "sweep": ["sweep", "--out", "sweep.csv"]}
NON_FINITE_CASES = [
    *((command, override) for command in ("simulate-json", "simulate", "sweep")
      for override in ("energy.e_job_fixed_pj=1e308",
                       "area.pcm_device_um2=1e308")),
    # a tiny positive area makes a GOPS/mm2 ratio infinite
    ("simulate-sw-json", "area.cluster_mm2=1e-320"),
    ("simulate-json", "area.pcm_device_um2=1e-320"),
    ("sweep", "area.cluster_mm2=1e-320"),
    # a PCM area that underflows to 0.0 still holds devices: not "n/a"
    ("simulate", "area.pcm_device_um2=5e-324")]


@pytest.mark.parametrize("command,override", NON_FINITE_CASES,
                         ids=[f"{c}-{o}" for c, o in NON_FINITE_CASES])
def test_non_finite_energy_or_area_is_validation_error(
        capsys, tmp_path, monkeypatch, command, override):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *NON_FINITE_COMMANDS[command],
                         "--set", override)
    assert code == EXIT_VALIDATION
    assert_one_line_error(err)
    assert "not finite" in err
    assert out == ""
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_overflowing_throughput_is_validation_error(
        capsys, tmp_path, monkeypatch, command):
    # f_hz passes the t_array_ns * f_hz check, but ops * f_hz is an int
    # too large for a float
    monkeypatch.chdir(tmp_path)
    argv = {"simulate": ["simulate", "--plan", "sw"],
            "sweep": ["sweep", "--out", "sweep.csv"]}[command]
    code, out, err = run(capsys, *argv, "--set", "cluster.f_hz=1" + "0" * 305)
    assert code == EXIT_VALIDATION
    assert_one_line_error(err)
    assert "not finite" in err and "f_hz" in err
    assert out == ""
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("override", [
    "ima.cfg_overhead_cycles=-5", "ima.job_handshake_cycles=-1",
    "ima.t_array_ns=1e400", "ima.cfg_overhead_cycles=1.5",
    "ima.overlap_streamin_compute=3", "ima.t_array_ns=1e300"])
def test_negative_ima_overhead_is_validation_error(capsys, override):
    code, _, err = run(capsys, "simulate", "--plan", "ima16", "--set", override)
    assert code == EXIT_VALIDATION
    assert_one_line_error(err)


def test_outputs_are_byte_identical(capsys, tmp_path):
    path = tmp_path / "sweep.csv"
    assert run(capsys, "sweep", "--out", str(path))[0] == EXIT_OK
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SWEEP_CSV_SHA256
    for plan, digest in SIMULATE_JSON_SHA256.items():
        code, out, _ = run(capsys, "simulate", "--plan", plan, "--ports", "4/4",
                           "--format", "json")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest, plan


@pytest.mark.parametrize("plan", list(SIMULATE_TEXT_SHA256))
def test_text_report_is_byte_identical(capsys, plan):
    code, out, _ = run(capsys, "simulate", "--plan", plan, "--ports", "4/4",
                       "--allocations")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == \
        SIMULATE_TEXT_SHA256[plan]


def _network(**changes):
    d = wl.network_to_dict(wl.mobilenet_v2_preset())
    d.update(changes)
    return d


def _network_with_layer(index, layer):
    d = _network()
    d["layers"][index]["layer"] = layer
    return d


@pytest.mark.parametrize("command,option,content", [
    ("simulate", "--calibration", []),
    ("simulate", "--calibration", {"schema_version": 2, "cluster": []}),
    ("simulate", "--workload-file", []),
    ("devices", "--network-file", _network(input_shape=[224, 224, 3])),
    ("devices", "--network-file", _network(layers=["stem"])),
    ("devices", "--network-file", _network_with_layer(0, "standard")),
    ("devices", "--network-file",
     _network_with_layer(0, {"type": ["standard"], "k": 3, "c_in": 3,
                             "c_out": 32, "stride": 2, "pad": 1})),
    ("devices", "--network-file", _network(name=[1])),
    ("devices", "--network-file",
     _network(layers=[{"name": 5, "layer": {"type": "pointwise",
                                             "c_in": 3, "c_out": 8}}])),
], ids=["calibration", "calibration-section", "workload", "input-shape",
        "network-entry", "layer", "layer-type", "network-name",
        "layer-name"])
def test_non_object_json_is_validation_error(capsys, tmp_path, command,
                                             option, content):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(content))
    code, _, err = run(capsys, command, option, str(path))
    assert code == EXIT_VALIDATION
    assert_one_line_error(err)


@pytest.mark.parametrize("layers", [5, {"x": 1}, "ab", None],
                         ids=["int", "object", "string", "null"])
def test_non_list_network_layers_is_validation_error(capsys, tmp_path, layers):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(_network(layers=layers)))
    code, _, err = run(capsys, "devices", "--network-file", str(path))
    assert code == EXIT_VALIDATION
    assert_one_line_error(err)
    assert "layers must be a JSON list" in err


@pytest.mark.parametrize("command,option,content", [
    ("simulate", "--workload-file",
     {**wl.bottleneck_to_dict(wl.default_bottleneck()), "bogus": 1}),
    ("devices", "--network-file", _network(bogus=1)),
    ("devices", "--network-file",
     _network(input_shape={"height": 224, "width": 224, "channels": 3,
                           "bogus": 1})),
    ("devices", "--network-file",
     _network(layers=[{"name": "stem", "layer": {"type": "pointwise",
                                                 "c_in": 3, "c_out": 8},
                       "bogus": 1}])),
    ("devices", "--network-file",
     _network_with_layer(1, {"type": "depthwise", "k": 3, "c": 32,
                             "bogus": 2, "pad": 1})),
], ids=["bottleneck", "network", "input-shape", "network-entry", "layer"])
def test_unknown_workload_key_is_validation_error(capsys, tmp_path, command,
                                                  option, content):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(content))
    code, _, err = run(capsys, command, option, str(path))
    assert code == EXIT_VALIDATION
    assert_one_line_error(err)
    assert "bogus" in err


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_bad_width_multiplier_is_validation_error(capsys, value):
    code, _, err = run(capsys, "devices", "--width-multiplier", value)
    assert code == EXIT_VALIDATION
    assert_one_line_error(err)


def _write_network(tmp_path, content):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(content))
    return str(path)


def test_empty_network_is_validation_error(capsys, tmp_path):
    path = _write_network(tmp_path, _network(layers=[]))
    code, _, err = run(capsys, "devices", "--network-file", path)
    assert code == EXIT_VALIDATION
    assert_one_line_error(err)
    assert "must not be empty" in err


def test_stem_and_head_network_has_no_bottleneck_row(capsys, tmp_path):
    layers = _network()["layers"]
    stem, head = layers[0], layers[-1]
    head["layer"]["c_in"] = stem["layer"]["c_out"]
    path = _write_network(tmp_path, _network(layers=[stem, head]))
    code, out, _ = run(capsys, "devices", "--network-file", path)
    assert code == EXIT_OK
    assert "all layers" in out and "bottlenecks only" not in out


def _without(d, key):
    return {k: v for k, v in d.items() if k != key}


@pytest.mark.parametrize("command,option,content,key", [
    ("simulate", "--workload-file",
     _without(wl.bottleneck_to_dict(wl.default_bottleneck()), "height"),
     "height"),
    ("devices", "--network-file", _without(_network(), "layers"), "layers"),
    ("devices", "--network-file",
     _network(input_shape={"height": 224, "width": 224}), "channels"),
    ("devices", "--network-file", _network(layers=[{"name": "stem"}]), "layer"),
    ("devices", "--network-file",
     _network_with_layer(1, {"type": "depthwise", "c": 32, "pad": 1}), "k"),
], ids=["bottleneck", "network", "input-shape", "network-entry", "layer"])
def test_missing_workload_key_is_validation_error(capsys, tmp_path, command,
                                                  option, content, key):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(content))
    code, _, err = run(capsys, command, option, str(path))
    assert code == EXIT_VALIDATION
    assert_one_line_error(err)
    assert f"is missing keys: [{key!r}]" in err


def test_unchained_network_is_validation_error(capsys, tmp_path):
    layers = [{"name": "stem", "layer": {"type": "standard", "k": 3, "c_in": 3,
                                         "c_out": 4, "stride": 2, "pad": 1}},
              {"name": "b1.project",
               "layer": {"type": "pointwise", "c_in": 7, "c_out": 8}}]
    path = _write_network(tmp_path, _network(layers=layers))
    code, _, err = run(capsys, "devices", "--network-file", path)
    assert code == EXIT_VALIDATION
    assert_one_line_error(err)
    assert "'b1.project' does not chain" in err
