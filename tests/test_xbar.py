import numpy as np
import pytest

from imasim import mapper, verify, workload
from imasim.workload import DepthwiseConv, StandardConv
from imasim.xbar import (
    DEVICES_PER_WEIGHT,
    INPUT_MAX,
    OUT_MAX,
    OUT_MIN,
    AdcConfig,
    DimensionMismatch,
    ProgrammedArray,
    Region,
    RegionOverflow,
    RegionOverlap,
    WEIGHT_MAX,
    WEIGHT_MIN,
    WeightOutOfRange,
    accumulate_stack,
)

ADC1 = AdcConfig(1.0)


def test_program_readback_round_trip():
    arr = ProgrammedArray(4, 4)
    arr.program(Region(0, 0, 2, 2), [[1, -2], [3, 4]])
    assert arr.weights[:2, :2].tolist() == [[1, -2], [3, 4]]


def test_weight_out_of_range():
    arr = ProgrammedArray(2, 2)
    with pytest.raises(WeightOutOfRange):
        arr.program(Region(0, 0, 1, 1), [[8]])
    with pytest.raises(WeightOutOfRange):
        arr.program(Region(0, 0, 1, 1), [[-9]])
    arr.program(Region(0, 0, 2, 1), [[7], [-8]])  # extremes are fine


def test_device_accounting():
    arr = ProgrammedArray(288, 64)
    arr.program(Region(0, 0, 288, 64), np.zeros((288, 64), dtype=int))
    # zero weights are programmed too: 18,432 cells, two PCM devices each,
    # which is the mapper's device count for the layer
    alloc = mapper.map_layer(StandardConv(k=3, c_in=32, c_out=64),
                             mapper.STANDARD_IM2COL)
    assert alloc.devices_total == DEVICES_PER_WEIGHT * int(arr.mask.sum()) \
        == 36_864


def test_region_overflow():
    arr = ProgrammedArray(4, 4)
    with pytest.raises(RegionOverflow):
        arr.program(Region(2, 2, 3, 3), np.zeros((3, 3), dtype=int))


def test_region_overlap_rejected():
    arr = ProgrammedArray(4, 4)
    arr.program(Region(0, 0, 2, 2), np.ones((2, 2), dtype=int))
    with pytest.raises(RegionOverlap):
        arr.program(Region(1, 1, 2, 2), np.ones((2, 2), dtype=int))


def test_mvm_direct_arithmetic():
    arr = ProgrammedArray(2, 2)
    arr.program(Region(0, 0, 2, 2), [[1, -2], [3, 4]])
    y = arr.mvm(np.array([10, 20], dtype=np.uint8), ADC1)
    assert y.tolist() == [70, 60]
    assert y.dtype == np.int8


def test_mvm_zero_input():
    arr = ProgrammedArray(3, 5)
    arr.program(Region(0, 0, 3, 5), np.full((3, 5), 7))
    y = arr.mvm(np.zeros(3, dtype=np.uint8), ADC1)
    assert not y.any()


def test_mvm_clamps_to_int8():
    arr = ProgrammedArray(288, 1)
    arr.program(Region(0, 0, 288, 1), np.full((288, 1), 7))
    y = arr.mvm(np.full(288, 255, dtype=np.uint8), ADC1)
    # raw accumulation is 7 * 255 * 288 = 514,080
    assert y.tolist() == [127]


def test_mvm_dimension_mismatch():
    arr = ProgrammedArray(4, 4)
    with pytest.raises(DimensionMismatch):
        arr.mvm(np.zeros(3, dtype=np.uint8), ADC1)


def test_read_unprogrammed_is_zero():
    arr = ProgrammedArray(4, 4)
    arr.program(Region(3, 4 - 1, 1, 1), [[5]])
    assert arr.weights[3, 3] == 5
    assert arr.weights[0, 0] == 0


def test_noise_free_mvm_is_deterministic_and_exact():
    rng = np.random.default_rng(3)
    arr = ProgrammedArray(16, 8)
    w = rng.integers(-8, 8, size=(16, 8))
    arr.program(Region(0, 0, 16, 8), w)
    x = rng.integers(0, 256, size=16).astype(np.uint8)
    adc = AdcConfig(0.03)
    first = arr.mvm(x, adc)
    for _ in range(5):
        assert np.array_equal(arr.mvm(x, adc), first)
    # exact integer reference with the same requantization policy
    ref = adc.requantize(w.T.astype(np.int64) @ x.astype(np.int64))
    assert np.array_equal(first, ref)


def test_linearity_before_quantization():
    rng = np.random.default_rng(4)
    arr = ProgrammedArray(2, 3)
    arr.program(Region(0, 0, 2, 3), rng.integers(-1, 2, size=(2, 3)))
    for _ in range(20):
        x1 = rng.integers(0, 25, size=2).astype(np.uint8)
        x2 = rng.integers(0, 25, size=2).astype(np.uint8)
        y12 = arr.mvm((x1 + x2).astype(np.uint8), ADC1)
        y1 = arr.mvm(x1, ADC1)
        y2 = arr.mvm(x2, ADC1)
        assert np.array_equal(y12.astype(int), y1.astype(int) + y2.astype(int))


def test_outputs_always_within_int8():
    rng = np.random.default_rng(5)
    for _ in range(20):
        rows = int(rng.integers(1, 40))
        cols = int(rng.integers(1, 12))
        arr = ProgrammedArray(rows, cols)
        arr.program(Region(0, 0, rows, cols), rng.integers(-8, 8, size=(rows, cols)))
        x = rng.integers(0, 256, size=rows).astype(np.uint8)
        y = arr.mvm(x, AdcConfig(float(rng.choice([0.01, 0.5, 1.0, 4.0]))))
        assert y.min() >= -128 and y.max() <= 127


def test_seeded_noise_reproducible():
    def run(seed):
        arr = ProgrammedArray(8, 4, noise_sigma=0.5, seed=seed)
        arr.program(Region(0, 0, 8, 4), np.full((8, 4), 3))
        x = np.full(8, 100, dtype=np.uint8)
        return [arr.mvm(x, AdcConfig(0.05)).tolist() for _ in range(4)]

    assert run(11) == run(11)
    assert run(11) != run(12)


def test_noise_perturbs_outputs():
    arr = ProgrammedArray(64, 1, noise_sigma=1.0, seed=0)
    arr.program(Region(0, 0, 64, 1), np.ones((64, 1), dtype=int))
    x = np.full(64, 50, dtype=np.uint8)
    outs = {int(arr.mvm(x, AdcConfig(0.01))[0]) for _ in range(32)}
    assert len(outs) > 1


def test_program_noise_frozen_at_write():
    arr = ProgrammedArray(8, 2, program_sigma=0.3, seed=7)
    arr.program(Region(0, 0, 8, 2), np.full((8, 2), 2))
    x = np.full(8, 80, dtype=np.uint8)
    first = arr.mvm(x, ADC1)
    assert np.array_equal(arr.mvm(x, ADC1), first)  # no per-read resampling


def test_monotone_scale():
    rng = np.random.default_rng(6)
    arr = ProgrammedArray(6, 4)
    arr.program(Region(0, 0, 6, 4), rng.integers(0, 8, size=(6, 4)))
    x = rng.integers(0, 256, size=6).astype(np.uint8)
    prev = None
    for s in (0.001, 0.01, 0.05, 0.2, 1.0, 10.0):
        y = arr.mvm(x, AdcConfig(s)).astype(int)
        if prev is not None:
            assert np.all(y >= prev)
        prev = y


def test_rounding_half_away_from_zero():
    arr = ProgrammedArray(1, 2)
    arr.program(Region(0, 0, 1, 2), [[5, -5]])
    y = arr.mvm(np.array([1], dtype=np.uint8), AdcConfig(0.5))
    assert y.tolist() == [3, -3]


def test_adc_rejects_nonpositive_scale():
    with pytest.raises(ValueError):
        AdcConfig(0.0)
    with pytest.raises(ValueError):
        AdcConfig((1.0, -2.0))
    # a NaN scale would read 0 and an infinite one saturate every output
    for scale in (float("nan"), float("inf"), (1.0, float("nan"))):
        with pytest.raises(ValueError):
            AdcConfig(scale)


@pytest.mark.parametrize("sigma", [-0.5, float("nan"), float("inf")])
@pytest.mark.parametrize("name", ["noise_sigma", "program_sigma"])
def test_array_rejects_negative_or_nonfinite_sigma(name, sigma):
    with pytest.raises(ValueError, match="sigma"):
        ProgrammedArray(4, 2, **{name: sigma})
    alloc = mapper.map_depthwise(DepthwiseConv(k=3, c=4, pad=1), 2)
    with pytest.raises(ValueError, match="sigma"):
        verify.program_allocation(alloc, np.zeros((3, 3, 4), dtype=int),
                                  **{name: sigma})


def test_format_allocation_text():
    alloc = mapper.map_depthwise(DepthwiseConv(k=3, c=192, pad=1), 8)
    text = mapper.format_allocation(alloc)
    assert "utilization 0.1250" in text
    assert text.count("\n") == 1 + 24  # header + one line per region


# --- batched mvm ----------------------------------------------------------------

def _array(noise_sigma=0.0, program_sigma=0.0, seed=0):
    rng = np.random.default_rng(21)
    arr = ProgrammedArray(12, 6, noise_sigma=noise_sigma,
                          program_sigma=program_sigma, seed=seed)
    arr.program(Region(0, 0, 12, 5), rng.integers(-8, 8, size=(12, 5)))
    return arr  # column 5 unprogrammed: its read noise is masked off


@pytest.mark.parametrize("noise", [
    {}, {"noise_sigma": 0.5}, {"program_sigma": 0.5},
    {"noise_sigma": 0.5, "program_sigma": 0.3}])
def test_batched_mvm_equals_successive_calls(noise):
    rng = np.random.default_rng(22)
    x = rng.integers(0, 256, size=(9, 12)).astype(np.uint8)
    adc = AdcConfig(tuple(rng.uniform(0.005, 0.05, size=6)))
    one, many = _array(**noise, seed=5), _array(**noise, seed=5)
    batch = one.mvm(x, adc)
    assert batch.shape == (9, 6) and batch.dtype == np.int8
    successive = np.stack([many.mvm(row, adc) for row in x])
    assert np.array_equal(batch, successive)
    assert one._rng.bit_generator.state == many._rng.bit_generator.state


@pytest.mark.parametrize("noise", [
    {}, {"noise_sigma": 0.5}, {"program_sigma": 0.5},
    {"noise_sigma": 0.5, "program_sigma": 0.3}])
def test_accumulate_then_requantize_equals_mvm(noise):
    # the emulator's path (bitline sums, then one ADC call) against mvm, for
    # one vector and for a batch: same outputs, same RNG state after
    rng = np.random.default_rng(24)
    adc = AdcConfig(tuple(rng.uniform(0.005, 0.05, size=6)))
    for x in (rng.integers(0, 256, size=12).astype(np.uint8),
              rng.integers(0, 256, size=(9, 12)).astype(np.float64)):
        before = x.copy()
        split, whole = _array(**noise, seed=5), _array(**noise, seed=5)
        acc = split.accumulate(x)
        assert acc.shape == x.shape[:-1] + (6,) and acc.dtype == np.float64
        assert np.array_equal(x, before)  # the read-noise square is private
        assert np.array_equal(adc.requantize(acc), whole.mvm(x, adc))
        assert split._rng.bit_generator.state \
            == whole._rng.bit_generator.state


def test_noiseless_array_builds_no_generator():
    arr = _array(seed=9)
    arr.mvm(np.arange(12, dtype=np.uint8), ADC1)
    assert "_rng" not in vars(arr)
    assert arr._rng.bit_generator.state \
        == np.random.default_rng(9).bit_generator.state


def test_noisy_mvm_draws_follow_the_seed():
    # program noise at write time, then one cols-long standard-normal draw
    # per input vector, scaled per column by the read-noise spread of the
    # programmed cells the input drives, all from one seeded RNG
    arr = _array(noise_sigma=0.5, program_sigma=0.3, seed=8)
    rng = np.random.default_rng(8)
    program_noise = np.zeros((12, 6))
    program_noise[:, :5] = np.round(rng.normal(0.0, 0.3, size=(12, 5))
                                    * 2**24) / 2**24  # fixed point
    assert np.array_equal(arr._program_noise, program_noise)
    x = np.random.default_rng(23).integers(0, 256, size=(4, 12))
    adc = AdcConfig(0.02)
    for row, y in zip(x, arr.mvm(x.astype(np.uint8), adc)):
        xf = row.astype(np.float64)
        spread = 0.5 * np.sqrt((xf * xf) @ arr.mask)
        assert spread[5] == 0  # the unprogrammed column reads no noise
        acc = xf @ arr.weights + program_noise.T @ xf \
            + spread * rng.standard_normal(6)
        assert np.array_equal(y, adc.requantize(acc))


def test_batched_mvm_keeps_input_checks():
    arr = _array()
    with pytest.raises(DimensionMismatch):
        arr.mvm(np.zeros((3, 11), dtype=np.uint8), ADC1)
    with pytest.raises(DimensionMismatch):
        arr.mvm(np.zeros((2, 3, 12), dtype=np.uint8), ADC1)
    bad = np.zeros((3, 12), dtype=np.int64)
    for value in (-1, 256):
        bad[2, 7] = value
        with pytest.raises(ValueError, match="unsigned 8-bit"):
            arr.mvm(bad, ADC1)
        with pytest.raises(ValueError, match="unsigned 8-bit"):
            accumulate_stack([arr, _array()], np.stack([bad, bad * 0]))
    # one batch per stacked array, of the arrays' row count
    for shape in ((3, 4, 12), (2, 4, 11), (2, 12)):
        with pytest.raises(DimensionMismatch):
            accumulate_stack([arr, _array()], np.zeros(shape, np.uint8))


def test_adc_clamp_bounds_are_constants():
    adc = AdcConfig((0.5, 0.25))
    assert (adc.lo, adc.hi) == (OUT_MIN, OUT_MAX)
    assert (adc.slice(1, 3).lo, adc.slice(1, 3).hi) == (OUT_MIN, OUT_MAX)
    with pytest.raises(TypeError):
        AdcConfig(1.0, -5, 5)


# --- read noise: per-column draw against the per-cell model -------------------

def per_cell_mvm(arr: ProgrammedArray, x: np.ndarray, adc: AdcConfig,
                 rng: np.random.Generator) -> np.ndarray:
    """The per-cell read-noise model that `mvm` replaces: a fresh rows x cols
    N(0, noise_sigma^2) grid for the input vector, masked to the programmed
    cells and added to the weights (arrays without programming noise)."""
    w = arr.weights + rng.normal(0.0, arr.noise_sigma,
                                 size=(arr.rows, arr.cols)) * arr.mask
    return adc.requantize(w.T @ x.astype(np.float64))


STAT_SEEDS = 2000


def _partly_programmed(seed=0):
    rng = np.random.default_rng(31)
    arr = ProgrammedArray(16, 5, noise_sigma=1.0, seed=seed)
    arr.program(Region(0, 0, 12, 4), rng.integers(-2, 3, size=(12, 4)))
    arr.program(Region(12, 2, 4, 2), rng.integers(-2, 3, size=(4, 2)))
    # rows 12-15 of columns 0 and 1, and all of column 4, unprogrammed
    return arr


def test_per_column_read_noise_matches_per_cell_model():
    # the unprogrammed rows carry the largest inputs, so a variance that
    # counted them would be several times too large
    x = np.concatenate([np.random.default_rng(32).integers(0, 21, size=12),
                        [40, 40, 40, 40]]).astype(np.uint8)
    adc = AdcConfig(0.1)
    per_column = np.array([_partly_programmed(seed).mvm(x, adc)
                           for seed in range(STAT_SEEDS)], dtype=np.float64)
    ref = _partly_programmed()
    per_cell = np.array([per_cell_mvm(ref, x, adc, np.random.default_rng(seed))
                         for seed in range(STAT_SEEDS)], dtype=np.float64)
    n = STAT_SEEDS
    for sample in (per_column, per_cell):
        assert OUT_MIN < sample.min() and sample.max() < OUT_MAX  # no clamping
        assert np.all(sample[:, :4].var(axis=0) > 4)  # noise spans several codes
        assert np.all(sample[:, 4] == 0)  # unprogrammed column: no noise
        # distinct noisy columns are uncorrelated
        corr = np.corrcoef(sample[:, :4], rowvar=False)
        assert np.all(np.abs(corr[np.triu_indices(4, 1)]) < 4 / np.sqrt(n))
    mean_a, mean_b = per_column.mean(axis=0), per_cell.mean(axis=0)
    var_a, var_b = per_column.var(axis=0, ddof=1), per_cell.var(axis=0, ddof=1)
    se_mean = np.sqrt((var_a + var_b) / n)
    assert np.all(np.abs(mean_a - mean_b) <= 4 * se_mean)
    # standard error of a sample variance: sqrt((m4 - var^2) / n)
    m4_a = ((per_column - mean_a) ** 4).mean(axis=0)
    m4_b = ((per_cell - mean_b) ** 4).mean(axis=0)
    se_var = np.sqrt((m4_a - var_a ** 2 + m4_b - var_b ** 2) / n)
    assert np.all(np.abs(var_a - var_b) <= 4 * se_var)


# --- exactness of the float64 accumulation and in-place requantization --------

class _RecordingAdc:
    """Stands in for an AdcConfig and keeps the accumulator `mvm` hands it."""

    def requantize(self, acc):
        self.acc = acc
        return ADC1.requantize(acc)


def _tallest_mobilenet_region() -> Region:
    """The tallest array region any MobileNetV2 layer maps to: a full-diagonal
    depthwise layer (9 * c rows) at the widest multiplier."""
    return max((region
                for m in (0.35, 0.5, 0.75, 1.0, 1.3, 1.4)
                for nl in workload.mobilenet_v2_preset(m).layers
                for region in mapper.map_layer(
                    nl.layer, mapper.default_strategy(nl.layer)).regions),
               key=lambda region: region.rows)


@pytest.mark.parametrize("weight", [WEIGHT_MIN, WEIGHT_MAX])
def test_worst_case_accumulation_is_exact(weight):
    rows = _tallest_mobilenet_region().rows
    assert rows == 9 * 1344  # the 960-channel depthwise layer at width 1.4
    arr = ProgrammedArray(rows, 3)
    arr.program(Region(0, 0, rows, 3), np.full((rows, 3), weight))
    # all-255 rows reach the largest magnitude; rows of random inputs near
    # 255 keep nearly as large sums whose low bits are all significant
    x = np.full((16, rows), INPUT_MAX, dtype=np.uint8)
    x[8:] = np.random.default_rng(34).integers(INPUT_MAX - 15, INPUT_MAX + 1,
                                               size=(8, rows))
    adc = _RecordingAdc()
    arr.mvm(x, adc)
    exact = x.astype(np.int64) @ arr.weights.astype(np.int64)
    assert np.all(exact[:8] == rows * INPUT_MAX * weight)
    assert np.array_equal(adc.acc.astype(np.int64), exact)
    assert np.array_equal(adc.acc, exact.astype(np.float64))


def test_programming_noise_rides_in_the_exact_product():
    # with programming noise and no read noise, the sums of a stack of two
    # arrays equal sum_r x_r * (W_rc * 2**24 + P_rc * 2**24) / 2**24 on
    # Python integers: the noise sits on the 2**-24 grid and the float64
    # product is exact; rows below a partial region hold neither
    rng = np.random.default_rng(35)
    unit = 2**24
    for i in range(40):
        rows, cols = int(rng.integers(1, 40)), int(rng.integers(1, 9))
        sigma = float(rng.choice([0.01, 0.5, 3.0, 40.0]))
        top = int(rng.integers(0, rows))
        arrays = []
        for j in range(2):
            arr = ProgrammedArray(rows, cols, program_sigma=sigma,
                                  seed=2 * i + j)
            arrays.append(arr.program(
                Region(top, 0, rows - top, cols),
                rng.integers(WEIGHT_MIN, WEIGHT_MAX + 1,
                             size=(rows - top, cols))))
        x = rng.integers(0, INPUT_MAX + 1, size=(2, int(rng.integers(1, 6)),
                                                 rows))
        got = accumulate_stack(arrays, x.astype(np.uint8))
        for arr, xs, sums in zip(arrays, x, got):
            scaled = arr._program_noise * unit
            assert np.array_equal(scaled, np.round(scaled))
            cells = [[int(arr.weights[r, c]) * unit + int(scaled[r, c])
                      for c in range(cols)] for r in range(rows)]
            want = [[sum(int(v[r]) * cells[r][c] for r in range(rows)) / unit
                     for c in range(cols)] for v in xs]
            assert sums.tolist() == want, (i, rows, cols, sigma)
            assert np.array_equal(arr.accumulate(xs), sums)


def test_programming_noise_past_the_exact_range_is_rejected():
    # an array whose column sums could reach 2**29, rows * 255 * (8 +
    # max|P|), is refused before any cell is written
    outcomes = set()
    for sigma in (100.0, 500.0, 1000.0, 1e4):
        draw = np.random.default_rng(3).normal(0.0, sigma, size=(1000, 2))
        peak = np.abs(np.round(draw * 2**24) / 2**24).max()
        arr = ProgrammedArray(1000, 2, program_sigma=sigma, seed=3)
        program = lambda: arr.program(Region(0, 0, 1000, 2),
                                      np.zeros((1000, 2), dtype=int))
        rejected = 1000 * INPUT_MAX * (8 + peak) >= 2**29
        outcomes.add(rejected)
        if rejected:
            with pytest.raises(ValueError, match="exact sum range"):
                program()
            assert not arr.mask.any()
        else:
            program()
            assert arr.mask.all()
    assert outcomes == {False, True}


def requantize_oracle(adc: AdcConfig, acc: np.ndarray) -> np.ndarray:
    """The original requantization: sign(s) * floor(|s| + 0.5), clamped."""
    scaled = acc.astype(np.float64) * adc.scales(acc.shape[-1])
    rounded = np.sign(scaled) * np.floor(np.abs(scaled) + 0.5)
    return np.clip(rounded, adc.lo, adc.hi).astype(np.int8)


_SCALES = (1.0, 0.5, 0.25, 2.0, 0.03, 0.011)


def _accumulators(rng, dtype, shape) -> np.ndarray:
    """Random accumulators salted with exact .5 ties (under power-of-two
    scales), signed zeros and values beyond both clamp bounds."""
    if dtype is np.int64:
        specials = np.array([0, 1, -1, 255, -255, 257, -257, 2**40, -2**40])
        values = rng.integers(-600, 600, size=shape)
    else:
        specials = np.array([0.0, -0.0, 0.5, -0.5, 126.5, 127.5, -127.5,
                             -128.5, 0.49999999999999994,
                             -0.49999999999999994, 1e300, -1e300])
        values = rng.uniform(-600, 600, size=shape)
        ties = rng.random(shape) < 0.3
        values[ties] = np.round(values[ties]) + 0.5
    salt = rng.random(shape) < 0.3
    values[salt] = rng.choice(specials, size=int(salt.sum()))
    return values.astype(dtype)


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
@pytest.mark.parametrize("shape", [(7,), (5, 7)])
@pytest.mark.parametrize("per_column", [False, True])
def test_requantize_matches_sign_floor_expression(dtype, shape, per_column):
    rng = np.random.default_rng(33)
    seen = {"tie": 0, "-0.0": 0, "above": 0, "below": 0}
    for _ in range(300):
        scale = tuple(float(s) for s in rng.choice(_SCALES, size=shape[-1])) \
            if per_column else float(rng.choice(_SCALES))
        adc = AdcConfig(scale)
        acc = _accumulators(rng, dtype, shape)
        before = acc.copy()
        got = adc.requantize(acc)
        assert got.dtype == np.int8 and got.shape == shape
        assert np.array_equal(got, requantize_oracle(adc, acc))
        assert np.array_equal(acc, before)  # the caller's array is untouched
        scaled = acc.astype(np.float64) * adc.scales(shape[-1])
        seen["tie"] += np.count_nonzero(np.abs(scaled) % 1 == 0.5)
        seen["-0.0"] += np.count_nonzero((scaled == 0) & np.signbit(scaled))
        seen["above"] += np.count_nonzero(scaled > OUT_MAX + 0.5)
        seen["below"] += np.count_nonzero(scaled < OUT_MIN - 0.5)
    if dtype is np.int64:
        del seen["-0.0"]  # an integer accumulator has no negative zero
    assert all(seen.values()), seen
