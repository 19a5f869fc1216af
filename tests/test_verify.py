import hashlib
import tracemalloc

import numpy as np
import pytest

from imasim import mapper, timing, verify, workload, xbar
from imasim.verify import (
    QuantTensor,
    check_equivalence,
    quant_tensor,
    reference_conv,
    run_random_suite,
)
from imasim.workload import (
    DepthwiseConv,
    PointwiseConv,
    StandardConv,
    TensorShape,
)
from imasim.xbar import (
    INPUT_MAX,
    OUT_MAX,
    OUT_MIN,
    WEIGHT_MAX,
    WEIGHT_MIN,
    AdcConfig,
    DimensionMismatch,
    ProgrammedArray,
)

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

    def test_accumulator_guard_counts_the_weight_minus_8(self):
        # the largest weight magnitude is -WEIGHT_MIN = 8: this layer fits
        # a 7-based bound but not the true one, and is rejected from its
        # geometry alone, before any input or weight is read
        c_in = -(-2**53 // (-WEIGHT_MIN * INPUT_MAX))
        assert c_in * WEIGHT_MAX * INPUT_MAX < 2**53 <= \
            c_in * -WEIGHT_MIN * INPUT_MAX
        layer = StandardConv(k=1, c_in=c_in, c_out=1)
        inp = QuantTensor(TensorShape(1, 1, c_in),
                          np.broadcast_to(np.uint8(0), (1, 1, c_in)))
        weights = np.broadcast_to(np.int64(0), (1, 1, c_in, 1))
        with pytest.raises(ValueError, match="accumulator bound"):
            reference_conv(layer, inp, weights, ADC1)

    def test_depthwise_int32_accumulator_bound(self):
        # depthwise taps sum in int32: the smallest kernel whose k*k products
        # can reach 2**31 is rejected from its geometry alone, though its
        # float64 bound holds
        k = 1
        while k * k * -WEIGHT_MIN * INPUT_MAX < 2**31:
            k += 1
        assert k * k * -WEIGHT_MIN * INPUT_MAX < 2**53
        layer = DepthwiseConv(k=k, c=1)
        inp = QuantTensor(TensorShape(k, k, 1),
                          np.broadcast_to(np.uint8(0), (k, k, 1)))
        weights = np.broadcast_to(np.int64(0), (k, k, 1))
        with pytest.raises(ValueError, match="accumulator bound"):
            reference_conv(layer, inp, weights, ADC1)

    def test_weight_shape_enforced(self):
        with pytest.raises(ValueError, match="weights of shape"):
            reference_conv(StandardConv(k=3, c_in=2, c_out=2),
                           u8(np.zeros((3, 3, 2))),
                           np.zeros((3, 3, 2, 1), dtype=int), ADC1)

    def test_independent_of_the_gather_index(self):
        # the golden model never shares the emulator's gather
        names = reference_conv.__code__.co_names
        assert "mapper" not in names and "gather_inputs" not in names


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
        result = check_equivalence(layer, mapper.MappingStrategy(8), inp, w,
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


@pytest.mark.parametrize("layer,scales", [
    (PointwiseConv(4, 4), (0.1, 0.1)),
    (PointwiseConv(4, 4), (0.1,) * 5),
    (DepthwiseConv(k=3, c=5, pad=1), (0.1,) * 4),
    (DepthwiseConv(k=3, c=5, pad=1), (0.1,) * 7),
], ids=["pointwise-too-few", "pointwise-too-many", "depthwise-too-few",
        "depthwise-too-many"])
def test_wrong_adc_scale_count_rejected(layer, scales):
    # the emulator rejects a per-column scale count that is not the layer's
    # output channel count, as the reference does
    rng = np.random.default_rng(17)
    c_in = workload.in_channels(layer)
    inp = u8(rng.integers(0, 256, size=(4, 4, c_in)))
    w = rng.integers(WEIGHT_MIN, WEIGHT_MAX + 1,
                     size=workload.weight_shape(layer))
    strategy = mapper.default_strategy(layer, 2)
    adc = AdcConfig(scales)
    arrays = verify.program_allocation(mapper.map_layer(layer, strategy), w)
    stream = mapper.job_stream(layer, inp.shape, strategy)
    with pytest.raises(DimensionMismatch):
        verify.execute_job_stream(arrays, stream, inp, adc)
    with pytest.raises(DimensionMismatch):
        reference_conv(layer, inp, w, adc)
    with pytest.raises(DimensionMismatch):
        check_equivalence(layer, strategy, inp, w, adc)


def test_emulated_block_takes_one_adc_call(monkeypatch):
    # each block's sums go through one ADC call straight into the output,
    # with the scale vector built once a layer: no AdcConfig built and no
    # per-region ADC slice; the budget splits the layer both ways
    calls = {"blocks": 0, "adc": 0, "scales": 0, "slice": 0, "built": 0}

    def counting(name, real):
        def counted(*args):
            calls[name] += 1
            return real(*args)
        return counted

    def counting_blocks(real):
        def counted(*args):
            for block in real(*args):
                calls["blocks"] += 1
                yield block
        return counted

    rng = np.random.default_rng(25)
    layer = DepthwiseConv(k=3, c=11, stride=2, pad=1)
    inp = u8(rng.integers(0, 256, size=(7, 6, 11)))
    w = rng.integers(WEIGHT_MIN, WEIGHT_MAX + 1, size=(3, 3, 11))
    adc = AdcConfig(tuple(rng.uniform(0.01, 0.1, size=11)))
    strategy = mapper.MappingStrategy(4)
    alloc = mapper.map_layer(layer, strategy)
    assert alloc.groups == 3
    stream = mapper.job_stream(layer, inp.shape, strategy)
    want = reference_conv(layer, inp, w, adc)
    # 12 output pixels, 3 regions of 36 rows
    for budget, blocks in ((2**16, 1), (36 * 12 * 2, 2), (36 * 6, 3 * 2)):
        monkeypatch.setattr(xbar, "_STACK_FLOATS", budget)
        monkeypatch.setattr(verify, "_requantize",
                            counting("adc", verify._requantize))
        monkeypatch.setattr(mapper, "gather_inputs",
                            counting_blocks(mapper.gather_inputs))
        for name in ("scales", "slice", "__post_init__"):
            monkeypatch.setattr(AdcConfig, name, counting(
                "built" if name == "__post_init__" else name,
                getattr(AdcConfig, name)))
        for noise in ({}, {"noise_sigma": 0.5, "program_sigma": 0.3,
                           "seed": 4}):
            arrays = verify.program_allocation(alloc, w, **noise)
            for name in calls:
                calls[name] = 0
            got = verify.execute_job_stream(arrays, stream, inp, adc)
            if not noise:
                assert np.array_equal(got.data, want.data)
            assert calls == {"blocks": blocks, "adc": blocks, "scales": 1,
                             "slice": 0, "built": 0}, (budget, noise)
        monkeypatch.undo()


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
        y = arr.mvm(verify.gather_job_input(job, inp.data.reshape(-1)),
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
    case = (layer, mapper.MappingStrategy(5), inp, w, AdcConfig(0.02))
    (clean, _), _ = _emulate_both(case)
    (noisy, _), (oracle, _) = _emulate_both(case, noise_sigma=0.5, seed=3)
    assert np.array_equal(noisy, oracle)
    assert not np.array_equal(noisy, clean)


# --- stacked regions against the per-group path ---------------------------------

def execute_per_group(arrays, stream, region_inputs, adc) -> np.ndarray:
    """The obvious emulation: per region, its gathered (P, rows) input and
    one plain sum of products, programming noise and read noise, drawn
    from the region's own generator; one ADC call for the layer."""
    shape = stream.out_shape
    cols = arrays[0].cols
    acc = np.empty((shape.height * shape.width, len(arrays) * cols))
    for g, (arr, x) in enumerate(zip(arrays, region_inputs)):
        sums = x @ arr.weights.astype(np.float64)
        if arr._program_noise is not None:
            sums += (arr._program_noise.T @ x[:, :, None])[:, :, 0]
        if arr.noise_sigma > 0:
            var = np.square(x) @ arr.mask.astype(np.float64)
            sums += arr.noise_sigma * np.sqrt(var) \
                * arr._rng.standard_normal(sums.shape)
        acc[:, g * cols:(g + 1) * cols] = sums
    out = adc.requantize(acc[:, :shape.channels])
    return out.reshape(shape.height, shape.width, shape.channels)


def _job_inputs(stream, inp) -> list[np.ndarray]:
    """Each region's float64 (P, rows) input, one `gather_job_input` a job."""
    pixels = stream.out_shape.height * stream.out_shape.width
    flat = inp.data.reshape(-1)
    x = np.array([verify.gather_job_input(job, flat) for job in stream.jobs],
                 dtype=np.float64)
    return list(x.reshape(-1, pixels, x.shape[1]))


def random_multigroup_depthwise(rng: np.random.Generator):
    """A random depthwise case with 2 to c channel groups."""
    k = int(rng.integers(2, 4))
    c = int(rng.integers(2, 13))
    layer = DepthwiseConv(k=k, c=c, stride=int(rng.integers(1, 3)),
                          pad=int(rng.integers(0, 2)))
    strategy = mapper.MappingStrategy(int(rng.integers(1, c)))
    inp = u8(rng.integers(0, 256, size=(int(rng.integers(k, k + 5)),
                                        int(rng.integers(k, k + 5)), c)))
    w = rng.integers(WEIGHT_MIN, WEIGHT_MAX + 1, size=(k, k, c))
    adc = AdcConfig(tuple(rng.choice([0.5, 0.125, 0.03, 0.011], size=c)))
    return layer, strategy, inp, w, adc


def block_shape(pixels: int, rows: int, cols: int,
                budget: int) -> tuple[int, int]:
    """(pixel blocks a region, regions a block) of the emulator's blocks:
    the fewest pixel blocks of at most budget // max(rows, cols) pixels,
    then as many whole regions as fit the budget; at least one of each."""
    per_pixel = max(rows, cols)
    cap = max(1, budget // per_pixel)
    splits = -(-pixels // cap)
    block = -(-pixels // splits)
    return splits, max(1, budget // (block * per_pixel))


def test_stacked_emulation_matches_per_group_path(monkeypatch):
    # blocks of consecutive regions, or of one region's pixels, give every
    # region the output and the final generator state of driving it alone,
    # whether a block holds part of a region, one region, several or all
    rng = np.random.default_rng(33)
    split = whole = pixel_split = 0
    for i in range(300):
        case = random_multigroup_depthwise(rng)
        layer, strategy, inp, w, adc = case
        alloc = mapper.map_layer(layer, strategy)
        stream = mapper.job_stream(layer, inp.shape, strategy)
        region_inputs = _job_inputs(stream, inp)
        groups, (pixels, rows) = alloc.groups, region_inputs[0].shape
        for budget in (300, 2**20):
            monkeypatch.setattr(xbar, "_STACK_FLOATS", budget)
            splits, fit = block_shape(pixels, rows, alloc.cols, budget)
            pixel_split += splits > 1
            split += 1 < fit < groups
            whole += fit >= groups
            for noise in ({}, {"noise_sigma": 0.5, "program_sigma": 0.3,
                               "seed": i},
                          {"noise_sigma": 0.7, "seed": i},
                          {"program_sigma": 0.4, "seed": i}):
                runs = []
                for execute in (
                        lambda a: verify.execute_job_stream(a, stream, inp,
                                                            adc).data,
                        lambda a: execute_per_group(a, stream, region_inputs,
                                                    adc)):
                    arrays = verify.program_allocation(alloc, w, **noise)
                    runs.append((execute(arrays), [
                        a._rng.bit_generator.state for a in arrays]))
                (stacked, states_s), (per_group, states_g) = runs
                assert np.array_equal(stacked, per_group), (i, case[0], noise)
                assert states_s == states_g, (i, case[0], noise)
    assert split > 0 and whole > 0 and pixel_split > 0


def test_small_depthwise_layer_is_one_stacked_product(monkeypatch):
    # a tiny 12-group layer is gathered as one stack and driven through one
    # stacked call: no per-region loop around the crossbar
    layer = DepthwiseConv(k=3, c=12, pad=1)
    strategy = mapper.MappingStrategy(1)
    rng = np.random.default_rng(34)
    inp = u8(rng.integers(0, 256, size=(5, 5, 12)))
    w = rng.integers(WEIGHT_MIN, WEIGHT_MAX + 1, size=(3, 3, 12))
    adc = AdcConfig(0.03)
    stream = mapper.job_stream(layer, inp.shape, strategy)
    assert [(g, p, x.shape) for g, p, x in
            mapper.gather_inputs(stream, inp.data)] == [(0, 0, (12, 25, 9))]
    calls = []
    real = verify.accumulate_stack

    def counted(arrays, x):
        calls.append(len(arrays))
        return real(arrays, x)

    def per_array(*args):
        raise AssertionError("a region was driven on its own")

    monkeypatch.setattr(verify, "accumulate_stack", counted)
    monkeypatch.setattr(ProgrammedArray, "accumulate", per_array)
    arrays = verify.program_allocation(mapper.map_layer(layer, strategy), w)
    got = verify.execute_job_stream(arrays, stream, inp, adc)
    assert calls == [12]
    assert np.array_equal(got.data, reference_conv(layer, inp, w, adc).data)


def _full_scale_adc(layer, rng) -> AdcConfig:
    """Per-column scales that put mean + 3 sigma of a uniform-input bitline
    at full scale, so the outputs spread over the int8 range."""
    k = workload.kernel_size(layer)
    fan_in = k * k * (1 if isinstance(layer, DepthwiseConv)
                      else workload.in_channels(layer))
    full_scale = fan_in * 63.75 + 3 * 680 * fan_in ** 0.5
    factors = rng.uniform(0.5, 1.5, size=workload.out_channels(layer))
    return AdcConfig(tuple(float(f) * 127 / full_scale for f in factors))


def _assert_emulation_bit_exact(layer, strategy, inp, w, adc):
    """Emulate one layer without noise and require the reference's output,
    which must not be mostly zero or clamped: a bit-exact match on such an
    output proves little."""
    alloc = mapper.map_layer(layer, strategy)
    got = verify.execute_job_stream(
        verify.program_allocation(alloc, w),
        mapper.job_stream(layer, inp.shape, strategy), inp, adc)
    want = reference_conv(layer, inp, w, adc)
    assert np.array_equal(got.data, want.data), layer
    assert np.mean(want.data == 0) < 0.25, layer
    assert np.mean((want.data == OUT_MIN) | (want.data == OUT_MAX)) < 0.25, \
        layer


def _random_layer_inputs(layer, shape, rng):
    inp = u8(rng.integers(0, 256, size=(shape.height, shape.width,
                                        shape.channels)))
    w = rng.integers(WEIGHT_MIN, WEIGHT_MAX + 1,
                     size=workload.weight_shape(layer))
    return inp, w, _full_scale_adc(layer, rng)


@pytest.mark.parametrize("plan", [timing.Plan.IMA8, timing.Plan.IMA16])
def test_default_bottleneck_layers_bit_exact(plan):
    rng = np.random.default_rng(13)
    b = workload.default_bottleneck()
    shape = b.input_shape
    for layer in b.expand():
        inp, w, adc = _random_layer_inputs(layer, shape, rng)
        _assert_emulation_bit_exact(layer, timing.plan_strategy(plan, layer),
                                    inp, w, adc)
        shape = workload.output_shape(layer, shape)


# sha256 of the int8 output bytes of the default bottleneck's layers under
# ima8, inputs from `_random_layer_inputs` with data seed 0, and of the
# depthwise output with read noise, programming noise and both at noise
# seed 2021 (sigma 0.5 each). The read-noise and programming-noise pins
# predate fixed-point programming noise; that change moved 1 of the
# 196,608 outputs with both noises, by 1 LSB (it was 442b6791...f587f1b5).
PINNED_EMULATION = {
    "clean": (
        "846b0fbbca5c9ed93c2ded93487e51bc3da7781a92c8ae9bc4dca8f764e1bbb2",
        "100f68830c2b471ee62e93acf00f18fb725f38f681552e09bcd7499be5eab11c",
        "45adb6099de80b123d5b9e3dcd354b6d9320bd414a6e7d97b769df94e8857d6e",
    ),
    "read_noise_depthwise":
        "cbc127a549ddfc78e9edbe4ccd6dece6fcb0309b3b1a2a39f97d684b3abf9a23",
    "program_noise_depthwise":
        "3bbb1b4725e9e4d1e7e8cf4fb5b39fc66c0fbad9b1e2c52612bfc4c145e0b919",
    "noisy_depthwise":
        "12e36a509c0b519e13d5fd21cd8062c9c29d8951b924c105e440772486522ac6",
}
NOISE_PINS = {
    "read_noise_depthwise": {"noise_sigma": 0.5},
    "program_noise_depthwise": {"program_sigma": 0.5},
    "noisy_depthwise": {"noise_sigma": 0.5, "program_sigma": 0.5},
}


def _emulated_sha256(alloc, stream, inp, w, adc, **noise) -> str:
    arrays = verify.program_allocation(alloc, w, **noise)
    out = verify.execute_job_stream(arrays, stream, inp, adc).data
    return hashlib.sha256(out.tobytes()).hexdigest()


def test_seeded_emulation_is_pinned():
    rng = np.random.default_rng(0)
    b = workload.default_bottleneck()
    shape = b.input_shape
    clean = []
    for layer in b.expand():
        inp, w, adc = _random_layer_inputs(layer, shape, rng)
        strategy = timing.plan_strategy(timing.Plan.IMA8, layer)
        case = (mapper.map_layer(layer, strategy),
                mapper.job_stream(layer, inp.shape, strategy), inp, w, adc)
        clean.append(_emulated_sha256(*case))
        if isinstance(layer, DepthwiseConv):
            noisy = {name: _emulated_sha256(*case, seed=2021, **noise)
                     for name, noise in NOISE_PINS.items()}
        shape = workload.output_shape(layer, shape)
    assert {"clean": tuple(clean), **noisy} == PINNED_EMULATION


def test_mobilenet_v2_layers_bit_exact():
    # every layer of the whole network at full size, depthwise layers in
    # channel groups of 16
    rng = np.random.default_rng(14)
    net = workload.mobilenet_v2_preset()
    assert len(net.layers) == 52
    shape = net.input_shape
    for named in net.layers:
        layer = named.layer
        inp, w, adc = _random_layer_inputs(layer, shape, rng)
        _assert_emulation_bit_exact(layer, mapper.default_strategy(layer, 16),
                                    inp, w, adc)
        shape = workload.output_shape(layer, shape)


def _peak_bytes(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _bounded_memory_cases():
    """The default depthwise layer under ima8 and MobileNetV2's first
    112 x 112 depthwise layer in channel groups of 16, at full size."""
    b = workload.default_bottleneck()
    expand, dw, _ = b.expand()
    yield dw, timing.plan_strategy(timing.Plan.IMA8, dw), \
        workload.output_shape(expand, b.input_shape)
    net = workload.mobilenet_v2_preset()
    shape = net.input_shape
    for named in net.layers:
        if named.name == "b1.dw":
            yield named.layer, mapper.default_strategy(named.layer, 16), shape
            return
        shape = workload.output_shape(named.layer, shape)


@pytest.mark.parametrize("layer,strategy,shape", list(_bounded_memory_cases()),
                         ids=["default-depthwise", "mobilenet-b1.dw"])
def test_emulation_and_reference_memory_is_bounded(layer, strategy, shape):
    # the working set of emulation, clean or noisy, and of the golden model
    # stays within a fixed multiple of the block budget whatever the
    # layer's output pixel count; a layer-sized float64 buffer breaks it
    assert shape.height * shape.width >= 32 * 32
    inp, w, adc = _random_layer_inputs(layer, shape, np.random.default_rng(15))
    alloc = mapper.map_layer(layer, strategy)
    stream = mapper.job_stream(layer, inp.shape, strategy)
    limit = 4 * 8 * xbar._STACK_FLOATS
    for noise in ({}, {"noise_sigma": 0.5, "program_sigma": 0.5, "seed": 3}):
        arrays = verify.program_allocation(alloc, w, **noise)
        peak = _peak_bytes(
            lambda: verify.execute_job_stream(arrays, stream, inp, adc))
        assert peak < limit, (noise, peak)
    assert _peak_bytes(lambda: reference_conv(layer, inp, w, adc)) < limit


# --- the vectorised reference against the direct loop ----------------------------

def reference_conv_loop(layer, inp, weights, adc) -> np.ndarray:
    """The obvious golden model: loops over output pixels and filter taps,
    exact int64 accumulation and one requantization per pixel."""
    w = np.asarray(weights, dtype=np.int64)
    out_shape = workload.output_shape(layer, inp.shape)
    x = inp.data.astype(np.int64)
    k = workload.kernel_size(layer)
    stride, pad = workload.layer_stride(layer), workload.layer_pad(layer)
    h, wdt = inp.shape.height, inp.shape.width
    out = np.zeros((out_shape.height, out_shape.width, out_shape.channels),
                   dtype=np.int8)
    for oy in range(out_shape.height):
        for ox in range(out_shape.width):
            acc = np.zeros(out_shape.channels, dtype=np.int64)
            for ky in range(k):
                iy = oy * stride - pad + ky
                if not 0 <= iy < h:
                    continue
                for kx in range(k):
                    ix = ox * stride - pad + kx
                    if not 0 <= ix < wdt:
                        continue
                    pix = x[iy, ix]
                    if isinstance(layer, DepthwiseConv):
                        acc += w[ky, kx] * pix
                    elif isinstance(layer, PointwiseConv):
                        acc += pix @ w
                    else:
                        acc += pix @ w[ky, kx]
            out[oy, ox] = adc.requantize(acc)
    return out


def _assert_reference_matches_loop(layer, inp, weights, adc):
    data, w = inp.data.copy(), np.array(weights, copy=True)
    got = reference_conv(layer, inp, weights, adc)
    assert got.data.dtype == np.int8
    assert np.array_equal(got.data, reference_conv_loop(layer, inp, w, adc)), \
        layer
    # neither the input tensor nor the weights are written
    assert np.array_equal(inp.data, data) and inp.data.dtype == data.dtype
    assert np.array_equal(weights, w)


def test_reference_matches_loop_on_random_cases():
    rng = np.random.default_rng(15)
    for _ in range(2000):
        layer, _, inp, weights, adc = verify.random_case(rng)
        _assert_reference_matches_loop(layer, inp, weights, adc)


def test_reference_matches_loop_on_default_bottleneck():
    rng = np.random.default_rng(16)
    b = workload.default_bottleneck()
    shape = b.input_shape
    for layer in b.expand():
        _assert_reference_matches_loop(layer,
                                       *_random_layer_inputs(layer, shape, rng))
        shape = workload.output_shape(layer, shape)


@pytest.mark.parametrize("layer", [
    StandardConv(k=3, c_in=64, c_out=3, stride=1, pad=1),
    StandardConv(k=3, c_in=5, c_out=2, stride=2, pad=1),
    PointwiseConv(c_in=320, c_out=4),
    DepthwiseConv(k=3, c=6, stride=2, pad=1),
])
@pytest.mark.parametrize("weight", [WEIGHT_MIN, WEIGHT_MAX])
def test_reference_worst_case_accumulation(layer, weight):
    # every tap at full input and the extreme weight: the largest
    # accumulator magnitudes the layer can reach
    k = workload.kernel_size(layer)
    fan_in = k * k * (1 if isinstance(layer, DepthwiseConv)
                      else workload.in_channels(layer))
    inp = u8(np.full((6, 6, workload.in_channels(layer)), INPUT_MAX))
    weights = np.full(workload.weight_shape(layer), weight)
    # a power-of-two scale keeps the full-window sum in range and exact
    scale = 2.0 ** -int(np.ceil(np.log2(fan_in * 8 * INPUT_MAX / 100)))
    adc = AdcConfig(scale)
    _assert_reference_matches_loop(layer, inp, weights, adc)
    full = fan_in * weight * INPUT_MAX * scale
    interior = reference_conv(layer, inp, weights, adc).data[1, 1]
    assert np.all(interior == np.sign(full) * np.floor(abs(full) + 0.5))


# --- random_case against rng.choice draws ----------------------------------------

def random_case_choice(rng: np.random.Generator):
    """`verify.random_case` as first written, drawing with `rng.choice`."""
    kind = rng.choice(["standard", "pointwise", "depthwise"])
    scale_pool = (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03, 0.011)
    strategy = mapper.STANDARD_IM2COL
    if kind == "pointwise":
        c_in = int(rng.integers(1, 9))
        c_out = int(rng.integers(1, 9))
        layer = PointwiseConv(c_in=c_in, c_out=c_out)
        k, pad = 1, 0
    elif kind == "standard":
        k = int(rng.integers(1, 4))
        c_in = int(rng.integers(1, 7))
        c_out = int(rng.integers(1, 7))
        pad = int(rng.integers(0, 2))
        layer = StandardConv(k=k, c_in=c_in, c_out=c_out,
                             stride=int(rng.integers(1, 3)), pad=pad)
    else:
        k = int(rng.integers(2, 4))
        c = int(rng.integers(1, 13))
        pad = int(rng.integers(0, 2))
        layer = DepthwiseConv(k=k, c=c, stride=int(rng.integers(1, 3)), pad=pad)
        strategy = mapper.MappingStrategy(int(rng.integers(1, c + 1)))
    h = int(rng.integers(k, k + 5))
    w = int(rng.integers(k, k + 5))
    c_in = workload.in_channels(layer)
    data = rng.integers(0, 256, size=(h, w, c_in)).astype(np.uint8)
    weights = rng.integers(WEIGHT_MIN, WEIGHT_MAX + 1,
                           size=workload.weight_shape(layer))
    scales = tuple(float(rng.choice(scale_pool))
                   for _ in range(workload.out_channels(layer)))
    return layer, strategy, quant_tensor(data), weights, AdcConfig(scales)


@pytest.mark.parametrize("seed", [0, 1, 2021])
def test_random_case_matches_choice_draws(seed):
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(5000):
        layer, strategy, inp, weights, adc = verify.random_case(fast)
        layer_c, strategy_c, inp_c, weights_c, adc_c = random_case_choice(slow)
        assert (layer, strategy) == (layer_c, strategy_c)
        assert inp.data.dtype == inp_c.data.dtype
        assert np.array_equal(inp.data, inp_c.data)
        assert weights.dtype == np.int8  # the same values, stored small
        assert np.array_equal(weights, weights_c)
        assert adc.scale == adc_c.scale
    assert fast.bit_generator.state == slow.bit_generator.state
