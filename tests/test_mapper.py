import numpy as np
import pytest

from imasim import mapper, verify, workload
from imasim.mapper import depthwise_block
from imasim.workload import (
    DepthwiseConv,
    NamedLayer,
    NetworkDescriptor,
    PointwiseConv,
    StandardConv,
    TensorShape,
)
from imasim.xbar import Region


class TestDenseMapping:
    def test_standard_conv(self):
        alloc = mapper.map_standard(StandardConv(k=3, c_in=32, c_out=64))
        assert alloc.regions == (Region(0, 0, 288, 64),)
        assert alloc.weights_total == alloc.weights_useful == 18_432
        assert mapper.utilization(alloc) == 1.0
        assert alloc.jobs_per_output_pixel == 1

    def test_pointwise(self):
        alloc = mapper.map_standard(PointwiseConv(32, 192))
        assert alloc.regions == (Region(0, 0, 32, 192),)

    def test_minimal(self):
        alloc = mapper.map_standard(StandardConv(k=1, c_in=1, c_out=1))
        assert alloc.regions == (Region(0, 0, 1, 1),)


class TestDepthwiseMapping:
    def test_cjob8(self):
        alloc = mapper.map_depthwise(DepthwiseConv(k=3, c=192, pad=1), 8)
        assert alloc.weights_total == 13_824  # 9 * 192 * 8
        assert alloc.weights_useful == 1_728
        assert mapper.utilization(alloc) == 1 / 8
        assert alloc.jobs_per_output_pixel == 24

    def test_cjob1_no_padding(self):
        alloc = mapper.map_depthwise(DepthwiseConv(k=3, c=192, pad=1), 1)
        assert alloc.weights_total == alloc.weights_useful == 1_728
        assert mapper.utilization(alloc) == 1.0

    def test_full_diagonal(self):
        alloc = mapper.map_depthwise(DepthwiseConv(k=3, c=192, pad=1), 192)
        assert alloc.weights_total == 331_776  # 9 * 192^2
        assert mapper.utilization(alloc) == 1 / 192

    def test_cell_count_formula(self):
        # weights_total = k^2 * c * c_job whenever c_job divides c
        for k in (1, 2, 3, 5):
            for c in (8, 16, 96, 192):
                for c_job in (1, 2, 4, 8, c):
                    alloc = mapper.map_depthwise(DepthwiseConv(k=k, c=c), c_job)
                    assert alloc.weights_total == k * k * c * c_job
                    assert mapper.utilization(alloc) == pytest.approx(1 / c_job)

    def test_partial_tail_group_padded_up(self):
        alloc = mapper.map_depthwise(DepthwiseConv(k=3, c=12), 8)
        assert len(alloc.regions) == 2
        # tail group padded to a full 8-column block
        assert alloc.weights_total == 2 * 9 * 8 * 8
        assert alloc.weights_useful == 9 * 12

    def test_cjob_bounds(self):
        with pytest.raises(ValueError):
            mapper.map_depthwise(DepthwiseConv(k=3, c=8), 9)
        with pytest.raises(ValueError):
            mapper.map_depthwise(DepthwiseConv(k=3, c=8), 0)


class TestJobStream:
    def test_standard_interior_pixel_segments(self):
        stream = mapper.job_stream(StandardConv(k=3, c_in=32, c_out=64, pad=1),
                                   TensorShape(16, 16, 32),
                                   mapper.STANDARD_IM2COL)
        interior = stream.jobs[5 * 16 + 5]
        real = [s for s in interior.segments if not s.zero_fill]
        assert len(real) == 9
        assert all(s.length == 32 for s in real)

    def test_pointwise_single_segment(self):
        stream = mapper.job_stream(PointwiseConv(32, 192),
                                   TensorShape(4, 4, 32), mapper.STANDARD_IM2COL)
        for job in stream.jobs:
            assert len(job.segments) == 1
            assert job.segments[0].length == 32
            assert not job.segments[0].zero_fill

    def test_depthwise_group_segments(self):
        stream = mapper.job_stream(DepthwiseConv(k=3, c=192, pad=1),
                                   TensorShape(8, 8, 192), depthwise_block(16))
        job = stream.jobs[len(stream.jobs) // 2]
        real = [s for s in job.segments if not s.zero_fill]
        assert all(s.length == 16 for s in job.segments)
        assert 3 <= len(real) <= 9

    def test_border_zero_fill_count(self):
        # 16x16 output with pad 1: (3*16-2)^2 receptive-field pixels in bounds
        stream = mapper.job_stream(StandardConv(k=3, c_in=32, c_out=64, pad=1),
                                   TensorShape(16, 16, 32),
                                   mapper.STANDARD_IM2COL)
        real = sum(1 for j in stream.jobs for s in j.segments if not s.zero_fill)
        zero = sum(1 for j in stream.jobs for s in j.segments if s.zero_fill)
        assert real == 46 * 46
        assert real + zero == 256 * 9

    @pytest.mark.parametrize("layer,strategy,shape", [
        (StandardConv(k=3, c_in=5, c_out=7, stride=2, pad=1),
         mapper.STANDARD_IM2COL, TensorShape(9, 7, 5)),
        (PointwiseConv(6, 11), mapper.STANDARD_IM2COL, TensorShape(5, 5, 6)),
        (DepthwiseConv(k=3, c=12, pad=1), depthwise_block(8), TensorShape(6, 6, 12)),
        (DepthwiseConv(k=2, c=7, stride=2), depthwise_block(3), TensorShape(8, 8, 7)),
    ])
    def test_output_coverage_exact(self, layer, strategy, shape):
        # every output byte written exactly once
        stream = mapper.job_stream(layer, shape, strategy)
        out = stream.out_shape
        coverage = np.zeros(out.size_bytes, dtype=int)
        for job in stream.jobs:
            coverage[job.out_offset:job.out_offset + job.out_length] += 1
        assert np.all(coverage == 1)

    def test_input_rows_match_region(self):
        # sum of segment lengths equals the region's DAC row count
        layer = DepthwiseConv(k=3, c=12, pad=1)
        strategy = depthwise_block(8)
        alloc = mapper.map_layer(layer, strategy)
        stream = mapper.job_stream(layer, TensorShape(6, 6, 12), strategy)
        rows = alloc.regions[0].rows
        for job in stream.jobs:
            assert sum(s.length for s in job.segments) == rows

    def test_jobs_are_built_once(self):
        stream = mapper.job_stream(DepthwiseConv(k=3, c=12, pad=1),
                                   TensorShape(6, 6, 12), depthwise_block(8))
        assert "jobs" not in vars(stream)  # nothing enumerated up front
        assert stream.jobs is stream.jobs
        assert len(stream.jobs) == 2 * 36

    def test_gather_index_rows_are_job_segments(self):
        # row p of region g's gathered input is the concatenated segments of
        # job g * P + p; input byte i holds i + 1, so a fetched segment reads
        # offset+1 ... offset+length and a zero-fill segment reads zeros
        rng = np.random.default_rng(31)
        for _ in range(150):
            layer, strategy, inp, _, _ = verify.random_case(rng)
            shape = inp.shape
            stream = mapper.job_stream(layer, shape, strategy)
            data = np.arange(1, shape.size_bytes + 1, dtype=np.int64).reshape(
                shape.height, shape.width, shape.channels)
            regions = list(mapper.gather_inputs(stream, data))
            pixels = stream.out_shape.height * stream.out_shape.width
            assert len(regions) == len(mapper.map_layer(layer, strategy).regions)
            assert len(stream.jobs) == pixels * len(regions)
            for i, job in enumerate(stream.jobs):
                g, p = divmod(i, pixels)
                assert job.region_id == g
                expect = np.concatenate([
                    np.zeros(s.length, dtype=np.int64) if s.zero_fill
                    else np.arange(s.offset + 1, s.offset + s.length + 1)
                    for s in job.segments])
                assert np.array_equal(regions[g][p], expect), (layer, i)

    def test_gather_rejects_a_misshaped_input(self):
        stream = mapper.job_stream(DepthwiseConv(k=3, c=4, pad=1),
                                   TensorShape(5, 6, 4), depthwise_block(2))
        with pytest.raises(ValueError, match="input of shape"):
            next(mapper.gather_inputs(stream, np.zeros((6, 5, 4), np.uint8)))

    def test_stream_bytes_excludes_zero_fill(self):
        geo = mapper.stream_geometry(StandardConv(k=3, c_in=32, c_out=64, pad=1),
                                     TensorShape(16, 16, 32),
                                     mapper.STANDARD_IM2COL)
        assert geo.taps == 46 * 46  # in-bounds taps only, as above
        assert geo.bytes_in == 46 * 46 * 32
        assert geo.bytes_out == 256 * 64
        assert geo.jobs == 256


def region_weight_matrix_loop(alloc, weights, region_index=0) -> np.ndarray:
    """`mapper.region_weight_matrix` with the depthwise block filled one
    (tap, channel) cell at a time: its oracle."""
    layer = alloc.layer
    w = np.asarray(weights, dtype=np.int64)
    if not isinstance(layer, DepthwiseConv):
        return w.reshape(-1, workload.out_channels(layer))
    c_job = alloc.strategy.c_job
    ch_off = region_index * c_job
    real = min(c_job, layer.c - ch_off)
    taps = layer.k * layer.k
    block = np.zeros((taps * c_job, c_job), dtype=np.int64)
    flat = w.reshape(taps, layer.c)
    for p in range(taps):
        for m in range(real):
            block[p * c_job + m, m] = flat[p, ch_off + m]
    return block


class TestWeightMatrices:
    def test_depthwise_block_is_diagonal(self):
        layer = DepthwiseConv(k=3, c=8)
        alloc = mapper.map_layer(layer, depthwise_block(4))
        w = np.arange(9 * 8).reshape(3, 3, 8) % 8 - 4
        block = mapper.region_weight_matrix(alloc, w, region_index=1)
        assert block.shape == (36, 4)
        for p in range(9):
            for m in range(4):
                for col in range(4):
                    expect = int(w[p // 3, p % 3, 4 + m]) if col == m else 0
                    assert block[p * 4 + m, col] == expect

    def test_standard_rows_are_hwc_im2col_order(self):
        layer = StandardConv(k=2, c_in=3, c_out=2)
        alloc = mapper.map_layer(layer, mapper.STANDARD_IM2COL)
        w = np.arange(2 * 2 * 3 * 2).reshape(2, 2, 3, 2) % 5 - 2
        m = mapper.region_weight_matrix(alloc, w)
        assert m.shape == (12, 2)
        # row index = (ky*k + kx) * c_in + ci
        assert m[0 * 3 + 1, 0] == w[0, 0, 1, 0]
        assert m[3 * 3 + 2, 1] == w[1, 1, 2, 1]

    def test_pointwise_matrix_is_weights_unchanged(self):
        layer = PointwiseConv(c_in=3, c_out=5)
        alloc = mapper.map_layer(layer, mapper.STANDARD_IM2COL)
        w = np.arange(15).reshape(3, 5) % 16 - 8
        m = mapper.region_weight_matrix(alloc, w)
        assert m.shape == (3, 5)
        assert np.array_equal(m, w)

    def test_matches_per_tap_loop_on_random_cases(self):
        rng = np.random.default_rng(32)
        tails = 0
        for _ in range(500):
            layer, strategy, _, weights, _ = verify.random_case(rng)
            alloc = mapper.map_layer(layer, strategy)
            for g in range(len(alloc.regions)):
                got = mapper.region_weight_matrix(alloc, weights, g)
                want = region_weight_matrix_loop(alloc, weights, g)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want), (layer, strategy, g)
            c_job = strategy.c_job
            tails += c_job is not None and layer.c % c_job != 0
        assert tails > 0  # partial tail groups were drawn

    @pytest.mark.parametrize("layer,strategy,bad_shape", [
        (StandardConv(k=2, c_in=3, c_out=2), mapper.STANDARD_IM2COL, (12, 2)),
        (PointwiseConv(c_in=3, c_out=2), mapper.STANDARD_IM2COL, (2, 3)),
        (DepthwiseConv(k=3, c=8), depthwise_block(4), (9, 8)),
    ], ids=["standard", "pointwise", "depthwise"])
    def test_misshaped_weights_rejected(self, layer, strategy, bad_shape):
        alloc = mapper.map_layer(layer, strategy)
        with pytest.raises(ValueError):
            mapper.region_weight_matrix(alloc, np.zeros(bad_shape, dtype=int))


def test_network_device_count_small():
    net = NetworkDescriptor(
        "tiny", TensorShape(8, 8, 4),
        (NamedLayer("a", PointwiseConv(4, 4)),
         NamedLayer("b", DepthwiseConv(k=3, c=4, pad=1))))
    rep = mapper.network_device_count(net, mapper.uniform_policy(2))
    # pointwise 16 weights + depthwise 9*4*2 = 72 weights
    assert rep.devices_total == 2 * (16 + 72)
    assert rep.devices_useful == 2 * (16 + 36)
    assert rep.params_total == 52
    assert rep.ratio == pytest.approx(88 / 52)


def test_uniform_policy_caps_cjob_at_channel_count():
    policy = mapper.uniform_policy(16)
    strategy = policy(DepthwiseConv(k=3, c=8))
    assert strategy == depthwise_block(8)


def test_strategy_layer_mismatch_rejected():
    with pytest.raises(ValueError):
        mapper.map_layer(PointwiseConv(4, 4), depthwise_block(2))
    with pytest.raises(ValueError):
        mapper.map_layer(DepthwiseConv(k=3, c=4), mapper.STANDARD_IM2COL)


def _accepts(fn, *args) -> bool:
    try:
        fn(*args)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("layer", [
    StandardConv(k=3, c_in=4, c_out=4, pad=1), PointwiseConv(4, 4),
    DepthwiseConv(k=3, c=4, pad=1)], ids=["standard", "pointwise", "depthwise"])
@pytest.mark.parametrize("strategy", [
    mapper.STANDARD_IM2COL, depthwise_block(1), depthwise_block(2),
    depthwise_block(4), depthwise_block(5)],
    ids=["dense", "cjob1", "cjob2", "cjob4", "cjob5"])
def test_strategy_checks_agree(layer, strategy):
    # depthwise layers, and only they, take a c_job, of at most c
    shape = TensorShape(6, 6, 4)
    verdicts = {_accepts(mapper.map_layer, layer, strategy),
                _accepts(mapper.job_stream, layer, shape, strategy),
                _accepts(mapper.stream_geometry, layer, shape, strategy)}
    expect = (isinstance(layer, DepthwiseConv) and strategy.c_job <= 4) \
        if strategy.c_job else not isinstance(layer, DepthwiseConv)
    assert verdicts == {expect}


def axis_taps_loop(size: int, out_size: int, k: int, stride: int,
                   pad: int) -> int:
    """In-bounds taps along one axis, one output position at a time: the
    oracle of `mapper._axis_taps`."""
    total = 0
    for o in range(out_size):
        start = o * stride - pad
        total += max(0, min(start + k, size) - max(start, 0))
    return total


def test_axis_taps_matches_per_output_loop():
    cases = stride_over_k = padding_only = 0
    for size in range(1, 41):
        for k in range(1, 8):
            for stride in range(1, 5):
                for pad in range(k + 1):
                    out_size = (size + 2 * pad - k) // stride + 1
                    if out_size < 1:
                        continue
                    want = axis_taps_loop(size, out_size, k, stride, pad)
                    got = mapper._axis_taps(size, out_size, k, stride, pad)
                    assert got == want, (size, k, stride, pad)
                    cases += 1
                    stride_over_k += stride > k
                    padding_only += any(  # an output reads only padding
                        min(o * stride - pad + k, size) <= max(o * stride - pad, 0)
                        for o in range(out_size))
    assert cases > 5000 and stride_over_k > 0 and padding_only > 0
