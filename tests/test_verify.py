import numpy as np
import pytest

from imasim import mapper, timing, verify, workload
from imasim.verify import (
    QuantTensor,
    check_equivalence,
    quant_tensor,
    reference_conv,
    run_random_suite,
)
from imasim.workload import DepthwiseConv, PointwiseConv, StandardConv
from imasim.xbar import OUT_MAX, OUT_MIN, AdcConfig

ADC1 = AdcConfig(1.0)


def u8(array) -> QuantTensor:
    return quant_tensor(np.asarray(array, dtype=np.uint8))


class TestReferenceConv:
    def test_identity_1x1(self):
        out = reference_conv(PointwiseConv(1, 1), u8([[[1]]]), [[1]], ADC1)
        assert out.data.tolist() == [[[1]]]

    def test_zero_weights_zero_output(self):
        rng = np.random.default_rng(0)
        inp = u8(rng.integers(0, 256, size=(4, 4, 3)))
        out = reference_conv(StandardConv(k=3, c_in=3, c_out=2, pad=1),
                             inp, np.zeros((3, 3, 3, 2), dtype=int), ADC1)
        assert not out.data.any()

    def test_clamps_and_rounds_like_adc(self):
        inp = u8([[[255]]])
        out = reference_conv(PointwiseConv(1, 1), inp, [[7]], AdcConfig(0.5))
        # 255 * 7 * 0.5 = 892.5 clamps to 127
        assert out.data.tolist() == [[[127]]]

    def test_depthwise_is_per_channel(self):
        inp = u8([[[10, 20]]])
        w = np.zeros((1, 1, 2), dtype=int)
        w[0, 0] = [1, 2]
        out = reference_conv(DepthwiseConv(k=1, c=2), inp, w, ADC1)
        assert out.data.tolist() == [[[10, 40]]]

    def test_weight_range_enforced(self):
        with pytest.raises(ValueError):
            reference_conv(PointwiseConv(1, 1), u8([[[1]]]), [[9]], ADC1)

    def test_accumulator_guard(self, monkeypatch):
        monkeypatch.setattr(verify, "_ACC_BOUND", 10)
        with pytest.raises(ValueError):
            reference_conv(PointwiseConv(1, 1), u8([[[1]]]), [[1]], ADC1)


class TestEquivalence:
    def test_standard_conv_random(self):
        rng = np.random.default_rng(1)
        layer = StandardConv(k=3, c_in=4, c_out=3, stride=1, pad=1)
        inp = u8(rng.integers(0, 256, size=(5, 5, 4)))
        w = rng.integers(-8, 8, size=(3, 3, 4, 3))
        result = check_equivalence(layer, mapper.STANDARD_IM2COL, inp, w,
                                   AdcConfig((0.03, 1.0, 0.125)))
        assert result.ok, str(result)

    def test_depthwise_padded_tail_group(self):
        rng = np.random.default_rng(2)
        layer = DepthwiseConv(k=3, c=12, stride=1, pad=1)
        inp = u8(rng.integers(0, 256, size=(6, 6, 12)))
        w = rng.integers(-8, 8, size=(3, 3, 12))
        result = check_equivalence(layer, mapper.depthwise_block(8), inp, w,
                                   AdcConfig(0.02))
        assert result.ok, str(result)

    def test_strided_with_border_padding(self):
        rng = np.random.default_rng(3)
        layer = StandardConv(k=3, c_in=2, c_out=5, stride=2, pad=1)
        inp = u8(rng.integers(0, 256, size=(7, 7, 2)))
        w = rng.integers(-8, 8, size=(3, 3, 2, 5))
        result = check_equivalence(layer, mapper.STANDARD_IM2COL, inp, w,
                                   AdcConfig(0.05))
        assert result.ok, str(result)

    def test_corrupted_weight_detected_and_located(self):
        rng = np.random.default_rng(4)
        layer = PointwiseConv(4, 4)
        inp = u8(rng.integers(1, 256, size=(3, 3, 4)))
        w = rng.integers(1, 8, size=(4, 4))
        adc = AdcConfig(0.01)
        alloc = mapper.map_layer(layer, mapper.STANDARD_IM2COL)
        arrays = verify.program_allocation(alloc, w)
        arrays[0].weights[2, 1] = -7  # fault injection
        stream = mapper.job_stream(layer, inp.shape, mapper.STANDARD_IM2COL)
        got = verify.execute_job_stream(arrays, stream, inp, adc)
        want = reference_conv(layer, inp, w, adc)
        mismatches = np.argwhere(got.data != want.data)
        assert mismatches.size > 0
        assert all(c == 1 for _, _, c in mismatches)  # only column 1 corrupted

    def test_check_equivalence_reports_mismatch(self):
        # same fault injection through the public result type
        rng = np.random.default_rng(5)
        layer = PointwiseConv(2, 2)
        inp = u8(rng.integers(1, 256, size=(2, 2, 2)))
        w_good = np.array([[3, 1], [2, 5]])
        w_bad = np.array([[3, 1], [2, -5]])
        adc = AdcConfig(0.01)
        alloc = mapper.map_layer(layer, mapper.STANDARD_IM2COL)
        arrays = verify.program_allocation(alloc, w_bad)
        stream = mapper.job_stream(layer, inp.shape, mapper.STANDARD_IM2COL)
        got = verify.execute_job_stream(arrays, stream, inp, adc)
        want = reference_conv(layer, inp, w_good, adc)
        assert not np.array_equal(got.data, want.data)
        result = check_equivalence(layer, mapper.STANDARD_IM2COL, inp, w_good, adc)
        assert result.ok  # uncorrupted path still matches


def test_random_suite_smoke():
    summary = run_random_suite(120, seed=9)
    assert summary.ok
    assert summary.passed == 120


def test_random_suite_seeded_repeatable():
    a = run_random_suite(30, seed=5)
    b = run_random_suite(30, seed=5)
    assert a == b


def test_noise_statistical_smoke():
    # noisy arrays still produce plausible outputs near the clean result
    rng = np.random.default_rng(6)
    layer = PointwiseConv(8, 4)
    inp = u8(rng.integers(0, 256, size=(4, 4, 8)))
    w = rng.integers(-8, 8, size=(8, 4))
    adc = AdcConfig(0.02)
    alloc = mapper.map_layer(layer, mapper.STANDARD_IM2COL)
    clean = verify.execute_job_stream(verify.program_allocation(alloc, w),
                                      mapper.job_stream(layer, inp.shape,
                                                        mapper.STANDARD_IM2COL),
                                      inp, adc)
    noisy_arrays = verify.program_allocation(alloc, w, noise_sigma=0.2, seed=1)
    noisy = verify.execute_job_stream(noisy_arrays,
                                      mapper.job_stream(layer, inp.shape,
                                                        mapper.STANDARD_IM2COL),
                                      inp, adc)
    diff = np.abs(clean.data.astype(int) - noisy.data.astype(int))
    assert diff.mean() < 10  # perturbed, not destroyed


# --- batched emulation against the per-job path --------------------------------

def execute_per_job(arrays, stream, inp, adc) -> np.ndarray:
    """The obvious emulation: one gathered input and one 1-D mvm per job."""
    shape = stream.out_shape
    out = np.zeros(shape.size_bytes, dtype=np.int8)
    for job in stream.jobs:
        arr = arrays[job.region_id]
        col_base = job.out_offset % shape.channels  # first output channel
        y = arr.mvm(verify.gather_job_input(job, inp.flat),
                    adc.slice(col_base, col_base + arr.cols))
        out[job.out_offset:job.out_offset + job.out_length] = \
            y[:job.out_length]
    return out.reshape(shape.height, shape.width, shape.channels)


def _emulate_both(case, **noise):
    """Batched and per-job outputs of one case, with the arrays' RNG
    states after each run."""
    layer, strategy, inp, weights, adc = case
    alloc = mapper.map_layer(layer, strategy)
    stream = mapper.job_stream(layer, inp.shape, strategy)
    runs = []
    for execute in (lambda *a: verify.execute_job_stream(*a).data,
                    execute_per_job):
        arrays = verify.program_allocation(alloc, weights, **noise)
        out = execute(arrays, stream, inp, adc)
        runs.append((out, [a._rng.bit_generator.state for a in arrays]))
    return runs


def test_batched_emulation_matches_per_job_path():
    rng = np.random.default_rng(11)
    for i in range(60):
        case = verify.random_case(rng)
        for noise in ({}, {"noise_sigma": 0.5, "program_sigma": 0.3, "seed": i},
                      {"noise_sigma": 0.7, "seed": i},
                      {"program_sigma": 0.4, "seed": i}):
            (batched, states_b), (per_job, states_j) = _emulate_both(case, **noise)
            assert np.array_equal(batched, per_job), (i, case[0], noise)
            assert states_b == states_j, (i, case[0], noise)


def test_noisy_batched_emulation_draws_noise():
    # the noisy comparison above is not vacuous: noise moves the outputs
    rng = np.random.default_rng(12)
    layer = DepthwiseConv(k=3, c=12, stride=1, pad=1)
    inp = u8(rng.integers(0, 256, size=(8, 8, 12)))
    w = rng.integers(-8, 8, size=(3, 3, 12))
    case = (layer, mapper.depthwise_block(5), inp, w, AdcConfig(0.02))
    (clean, _), _ = _emulate_both(case)
    (noisy, _), (oracle, _) = _emulate_both(case, noise_sigma=0.5, seed=3)
    assert np.array_equal(noisy, oracle)
    assert not np.array_equal(noisy, clean)


def _full_scale_adc(layer, rng) -> AdcConfig:
    """Per-column scales that put mean + 3 sigma of a uniform-input bitline
    at full scale, so the outputs spread over the int8 range."""
    k = workload.kernel_size(layer)
    fan_in = k * k * (1 if isinstance(layer, DepthwiseConv)
                      else workload.in_channels(layer))
    full_scale = fan_in * 63.75 + 3 * 680 * fan_in ** 0.5
    factors = rng.uniform(0.5, 1.5, size=workload.out_channels(layer))
    return AdcConfig(tuple(float(f) * 127 / full_scale for f in factors))


@pytest.mark.parametrize("plan", [timing.Plan.IMA8, timing.Plan.IMA16])
def test_default_bottleneck_layers_bit_exact(plan):
    rng = np.random.default_rng(13)
    b = workload.default_bottleneck()
    shape = b.input_shape
    for layer in b.expand():
        inp = u8(rng.integers(0, 256, size=(shape.height, shape.width,
                                            shape.channels)))
        w = rng.integers(-8, 8, size=workload.weight_shape(layer))
        adc = _full_scale_adc(layer, rng)
        strategy = timing.plan_strategy(plan, layer)
        alloc = mapper.map_layer(layer, strategy)
        got = verify.execute_job_stream(
            verify.program_allocation(alloc, w),
            mapper.job_stream(layer, inp.shape, strategy), inp, adc)
        want = reference_conv(layer, inp, w, adc)
        assert np.array_equal(got.data, want.data), (plan, layer)
        # a bit-exact match on mostly zero or clamped outputs proves little
        assert np.mean(want.data == 0) < 0.25
        assert np.mean((want.data == OUT_MIN) | (want.data == OUT_MAX)) < 0.25
        shape = workload.output_shape(layer, shape)
