"""The benchmark's three workloads: inputs from a seed, one pass, its checks.

Each workload is a `Workload(setup, run_pass)` pair. `setup(seed)` builds
every input the passes need, so the timed passes receive only generated
data. `run_pass(inputs)` does one pass, checks its output and returns a
`PassResult`. A pass is closed-loop: the next starts after this one ends.

- sweep    the default bottleneck over 4 plans x 5 symmetric port configs,
           as `imasim sweep` runs it; the CSV bytes must hash to the value
           the sweep produced when this benchmark was written. The input
           does not depend on the seed.
- verify   1000 cases of `imasim verify --seed <seed>` a pass, drawn in
           set-up; each pass checks every case with `check_equivalence`.
- emulate  functional emulation of the default bottleneck's three layers at
           full size under plan ima8, bit-exact against `reference_conv`,
           then the depthwise layer twice more with read and programming
           noise at a fixed noise seed.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from imasim import calibration, dse, mapper, timing, verify, workload, xbar

# sha256 of the default sweep's CSV; `imasim sweep` must keep producing it
SWEEP_CSV_SHA256 = \
    "1f6f0c78ce145a92f878c13e3c9b418a41cde575bcf7abb49ef4342739236070"
VERIFY_CASES = 1000
VERIFY_BATCHES = 10
# The noisy pair uses its own fixed seed: the run seed draws the data, and
# the noise must repeat exactly whatever the data are.
NOISE_SEED = 2021
READ_SIGMA = 0.5
PROGRAM_SIGMA = 0.5
# An emulated layer output fails the check when more than this share of it
# is zero or sits on a clamp bound: a bit-exact match there proves nothing.
DEGENERATE_SHARE = 0.25


@dataclass
class PassResult:
    attempted: int
    failed: int
    case_s: list[float] | None = None  # per-case times; None: a case is a pass
    first_failure: str | None = None

    def fail(self, message: str) -> None:
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = message


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int], object]
    run_pass: Callable[[object], PassResult]


# --- sweep ---------------------------------------------------------------------

def sweep_setup(seed: int) -> dse.SweepSpec:
    return dse.SweepSpec(workload=workload.default_bottleneck(),
                         calibration=calibration.default_calibration())


def sweep_pass(spec: dse.SweepSpec) -> PassResult:
    text = dse.render_csv(dse.run_sweep(spec))
    result = PassResult(attempted=1, failed=0)
    digest = hashlib.sha256(text.encode()).hexdigest()
    if digest != SWEEP_CSV_SHA256:
        result.fail(f"sweep CSV sha256 {digest} != {SWEEP_CSV_SHA256}")
    return result


# --- verify --------------------------------------------------------------------

class CaseBatches:
    """VERIFY_BATCHES batches of VERIFY_CASES cases; each pass takes the next.

    The first batch is exactly the cases of `imasim verify --cases 1000
    --seed <seed>`; the others continue the same random stream. One batch
    has only 10 cases beyond its p99, and which large cases it draws depends
    on the seed, so the p99 of a single batch moves by about a quarter from
    seed to seed; pooling the batches of a run steadies it.
    """

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.batches = [[verify.random_case(rng) for _ in range(VERIFY_CASES)]
                        for _ in range(VERIFY_BATCHES)]
        self.passes = 0

    def next(self) -> list[tuple]:
        batch = self.batches[self.passes % len(self.batches)]
        self.passes += 1
        return batch


def verify_pass(batches: CaseBatches) -> PassResult:
    result = PassResult(attempted=0, failed=0, case_s=[])
    perf = time.perf_counter
    for i, case in enumerate(batches.next()):
        t0 = perf()
        outcome = verify.check_equivalence(*case)
        result.case_s.append(perf() - t0)
        result.attempted += 1
        if not outcome.ok:
            result.fail(f"case {i} ({case[0]}): {outcome}")
    return result


# --- emulate -------------------------------------------------------------------

@dataclass(frozen=True)
class LayerCase:
    layer: workload.LayerDescriptor
    strategy: mapper.MappingStrategy
    inp: verify.QuantTensor
    weights: np.ndarray
    adc: xbar.AdcConfig


def _weight_shape(layer) -> tuple[int, ...]:
    if isinstance(layer, workload.PointwiseConv):
        return (layer.c_in, layer.c_out)
    if isinstance(layer, workload.StandardConv):
        return (layer.k, layer.k, layer.c_in, layer.c_out)
    return (layer.k, layer.k, layer.c)


def _adc_for(layer, rng: np.random.Generator) -> xbar.AdcConfig:
    """Per-column scales that spread the outputs over the int8 range.

    For uniform uint8 inputs and uniform 4-bit weights, one product has mean
    -63.75 and standard deviation about 680, so a bitline summing `fan_in`
    products sits near fan_in * -63.75 with spread 680 * sqrt(fan_in).
    Mapping mean + 3 sigma to full scale keeps clamping rare; each column
    gets a random factor in [0.5, 1.5) on top.
    """
    k = workload.kernel_size(layer)
    fan_in = k * k * (1 if isinstance(layer, workload.DepthwiseConv)
                      else workload.in_channels(layer))
    full_scale = fan_in * 63.75 + 3 * 680 * fan_in ** 0.5
    cols = workload.out_channels(layer)
    factors = rng.uniform(0.5, 1.5, size=cols)
    return xbar.AdcConfig(tuple(float(f) * 127 / full_scale for f in factors))


def emulate_setup(seed: int) -> list[LayerCase]:
    rng = np.random.default_rng(seed)
    b = workload.default_bottleneck()
    shape = b.input_shape
    cases = []
    for layer in b.expand():
        data = rng.integers(0, 256, size=(shape.height, shape.width,
                                          shape.channels), dtype=np.uint8)
        weights = rng.integers(xbar.WEIGHT_MIN, xbar.WEIGHT_MAX + 1,
                               size=_weight_shape(layer))
        cases.append(LayerCase(layer, timing.plan_strategy(timing.Plan.IMA8, layer),
                               verify.quant_tensor(data), weights,
                               _adc_for(layer, rng)))
        shape = workload.output_shape(layer, shape)
    return cases


def degenerate(out: np.ndarray, adc: xbar.AdcConfig) -> str | None:
    """Why an output is too degenerate for a bit-exact match to count."""
    n = out.size
    zeros = np.count_nonzero(out == 0) / n
    clamped = np.count_nonzero((out == adc.lo) | (out == adc.hi)) / n
    if zeros > DEGENERATE_SHARE:
        return f"{zeros:.0%} of the outputs are zero"
    if clamped > DEGENERATE_SHARE:
        return f"{clamped:.0%} of the outputs are clamped"
    return None


def _emulate(case: LayerCase, stream: mapper.JobStream, **noise) -> np.ndarray:
    alloc = mapper.map_layer(case.layer, case.strategy)
    arrays = verify.program_allocation(alloc, case.weights, **noise)
    return verify.execute_job_stream(arrays, stream, case.inp, case.adc).data


def emulate_pass(cases: list[LayerCase]) -> PassResult:
    result = PassResult(attempted=0, failed=0)
    for case in cases:
        stream = mapper.job_stream(case.layer, case.inp.shape, case.strategy)
        got = _emulate(case, stream)
        want = verify.reference_conv(case.layer, case.inp, case.weights,
                                     case.adc).data
        result.attempted += 1
        if not np.array_equal(got, want):
            result.fail(f"{case.layer}: emulation differs from the reference")
        elif (why := degenerate(want, case.adc)) is not None:
            result.fail(f"{case.layer}: degenerate output, {why}")
        if isinstance(case.layer, workload.DepthwiseConv):
            clean, dw_case, dw_stream = got, case, stream
    noisy = [_emulate(dw_case, dw_stream, noise_sigma=READ_SIGMA,
                      program_sigma=PROGRAM_SIGMA, seed=NOISE_SEED)
             for _ in range(2)]
    result.attempted += 2
    for i, out in enumerate(noisy):
        if np.array_equal(out, clean):
            result.fail("noisy depthwise output equals the noiseless one")
        elif i and not np.array_equal(out, noisy[0]):
            result.fail("noisy depthwise outputs differ under one noise seed")
    return result


WORKLOADS = {
    "sweep": Workload(sweep_setup, sweep_pass),
    "verify": Workload(CaseBatches, verify_pass),
    "emulate": Workload(emulate_setup, emulate_pass),
}
