"""The benchmark's traced names still exist in the package.

`benchmarks/run.py --trace 1` exits 1 when a per-layer metric of
BENCHMARK.json has no value, which happens when a function it names is
renamed or deleted, or when a counting hook no longer finds what it reads.
"""

import json
import types
from pathlib import Path

import imasim.dse  # noqa: F401  (the tracer wraps every imasim module it names)
from imasim import mapper
from imasim.workload import DepthwiseConv, TensorShape

ROOT = Path(__file__).resolve().parents[1]


def _load_tracer():
    """benchmarks/tracer.py as a module, leaving no bytecode cache behind."""
    path = ROOT / "benchmarks" / "tracer.py"
    module = types.ModuleType("benchmark_tracer")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


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
                                   mapper.depthwise_block(2))
        counts = tracer.counts[tracer_mod.SETUP_PASS]
        assert counts["mapper.jobs"] == len(stream.jobs) == 3 * 16
        assert counts["mapper.segments"] == 3 * 16 * 9 + 16 * 9
    finally:
        tracer.uninstall()
    assert not hasattr(mapper.job_stream, "__wrapped__")
