"""The benchmark's traced names still exist in the package, and its
`emulate` workload passes its gates.

`benchmarks/run.py --trace 1` exits 1 when a per-layer metric of
BENCHMARK.json has no value, which happens when a function it names is
renamed or deleted, or when a counting hook no longer finds what it reads.
An `emulate` pass fails when emulation stops being bit-exact, its outputs
turn degenerate, or seeded noise stops moving or repeating them.
"""

import gc
import json
import sys
import types
from pathlib import Path

import numpy as np

import imasim
from imasim import dse, mapper, verify, xbar
from imasim.calibration import default_calibration
from imasim.workload import DepthwiseConv, TensorShape, default_bottleneck

ROOT = Path(__file__).resolve().parents[1]


def _load_benchmark(name: str):
    """benchmarks/<name>.py as a module, leaving no bytecode cache behind.

    The module is registered while it runs, because `dataclass` looks its
    defining module up in `sys.modules`.
    """
    path = ROOT / "benchmarks" / f"{name}.py"
    module = types.ModuleType(f"benchmark_{name}")
    sys.modules[module.__name__] = module
    try:
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


def _load_tracer():
    """benchmarks/tracer.py, after the workloads have imported every imasim
    module the tracer wraps, as in the benchmark worker: `import imasim`
    alone loads no submodule."""
    _load_benchmark("workloads")
    return _load_benchmark("tracer")


def test_traced_names_exist():
    tracer_mod = _load_tracer()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        labels = set(tracer.labels)
        for metric in spec["per_layer"]:
            for suffix in (".self_s", ".calls"):
                if metric["name"].endswith(suffix):
                    assert metric["name"][:-len(suffix)] in labels, metric
        # the wrapped call runs the counting hook, which reads the jobs
        stream = mapper.job_stream(DepthwiseConv(k=3, c=5, pad=1),
                                   TensorShape(4, 4, 5),
                                   mapper.MappingStrategy(2))
        counts = tracer.counts[tracer_mod.SETUP_PASS]
        assert counts["mapper.jobs"] == len(stream.jobs) == 3 * 16
        assert counts["mapper.segments"] == 3 * 16 * 9 + 16 * 9
    finally:
        tracer.uninstall()
    assert not hasattr(mapper.job_stream, "__wrapped__")


def test_traced_sweep_names_each_point_by_plan():
    """`--trace 1` reads the per-plan `dse.evaluate_point.<plan>` spans,
    which the tracer names from the call's `plan` argument."""
    tracer_mod = _load_tracer()
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        dse.run_sweep(dse.SweepSpec(workload=default_bottleneck(),
                                    calibration=default_calibration()))
    finally:
        tracer.uninstall()
    row = tracer.summary()[tracer_mod.SETUP_PASS]
    for plan in ("sw", "ima8", "ima16", "hybrid"):
        assert row[f"dse.evaluate_point.{plan}.calls"] == 5, plan
        assert len(row[f"dse.evaluate_point.{plan}.durations_s"]) == 5, plan


def test_traced_emulator_hooks_count_cells():
    """The `verify.program_allocation` hook tags each returned array with
    its allocation's useful share, through a weak reference, and the
    `ProgrammedArray.mvm` hook counts the cells an array drives; uninstall
    puts back every attribute the tracer replaced."""
    tracer_mod = _load_tracer()

    def attributes():
        owners = [getattr(imasim, name) for name in tracer_mod.MODULES]
        owners += [getattr(getattr(imasim, module), cls)
                   for module, cls, _ in tracer_mod.METHODS]
        return {(owner.__name__, attr): value for owner in owners
                for attr, value in vars(owner).items()}

    before = attributes()
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert attributes() != before
        case = verify.random_case(np.random.default_rng(3))
        assert verify.check_equivalence(*case).ok
        layer, strategy, _, weights, adc = case
        alloc = mapper.map_layer(layer, strategy)
        arrays = verify.program_allocation(alloc, weights, noise_sigma=0.5)
        arr = arrays[0]
        arr.mvm(np.ones((3, arr.rows), dtype=np.uint8), xbar.AdcConfig())
    finally:
        tracer.uninstall()
    assert attributes() == before
    row = tracer.summary()[tracer_mod.SETUP_PASS]
    assert row["verify.program_allocation.calls"] == 2
    assert row["xbar.mvm.calls"] == 1
    gc.collect()
    # the arrays of the equivalence check are gone, these are still tagged
    share = alloc.weights_useful / alloc.weights_total
    assert 0 < share < 1  # a padded allocation, so the share shows
    assert dict(tracer._useful) == {a: share for a in arrays}
    counts = tracer.counts[tracer_mod.SETUP_PASS]
    cells = arr.rows * arr.cols
    assert counts["xbar.cells_driven"] == cells
    assert counts["xbar.cells_attributed"] == cells
    assert counts["xbar.useful_cells"] == cells * share
    assert counts["xbar.mvm.noisy_calls"] == 1


def test_emulate_pass_meets_its_gates():
    workloads = _load_benchmark("workloads")
    result = workloads.emulate_pass(workloads.emulate_setup(0))
    assert result.attempted == 5
    assert result.failed == 0, result.first_failure
