import hashlib
import json

import numpy as np
import pytest

from imasim import workload as wl
from imasim.workload import (
    BottleneckDescriptor,
    ChannelMismatch,
    DepthwiseConv,
    PointwiseConv,
    StandardConv,
    TensorShape,
)
from workload_dicts import bottleneck_dict, layer_dict, network_dict


def depthwise_param_share(net: wl.NetworkDescriptor) -> float:
    dw = sum(wl.params(nl.layer) for nl in net.layers
             if isinstance(nl.layer, DepthwiseConv))
    return dw / sum(wl.params(nl.layer) for nl in net.layers)


def test_output_shape_pointwise_preserves_spatial():
    out = wl.output_shape(PointwiseConv(32, 192), TensorShape(32, 32, 32))
    assert out == TensorShape(32, 32, 192)


def test_output_shape_depthwise_same_padding():
    layer = DepthwiseConv(k=3, c=192, stride=1, pad=1)
    out = wl.output_shape(layer, TensorShape(32, 32, 192))
    assert out == TensorShape(32, 32, 192)


def test_output_shape_strided():
    layer = StandardConv(k=3, c_in=32, c_out=64, stride=2, pad=1)
    out = wl.output_shape(layer, TensorShape(16, 16, 32))
    assert (out.height, out.width, out.channels) == (8, 8, 64)


def test_output_shape_channel_mismatch():
    with pytest.raises(ChannelMismatch):
        wl.output_shape(PointwiseConv(32, 64), TensorShape(8, 8, 16))


def test_macs_baseline_conv():
    # 3x3, 32 -> 64 channels, 16x16 output
    layer = StandardConv(k=3, c_in=32, c_out=64, stride=1, pad=1)
    assert wl.macs(layer, TensorShape(16, 16, 32)) == 4_718_592


def test_macs_depthwise():
    layer = DepthwiseConv(k=3, c=192, stride=1, pad=1)
    assert wl.macs(layer, TensorShape(32, 32, 192)) == 1_769_472


def test_macs_minimal_pointwise():
    assert wl.macs(PointwiseConv(1, 1), TensorShape(1, 1, 1)) == 1


def test_params():
    assert wl.params(DepthwiseConv(k=3, c=192)) == 1_728
    assert wl.params(PointwiseConv(32, 192)) == 6_144
    assert wl.params(StandardConv(k=3, c_in=32, c_out=64)) == 18_432


def test_depthwise_params_formula():
    rng = np.random.default_rng(0)
    for _ in range(50):
        k = int(rng.integers(1, 8))
        c = int(rng.integers(1, 1025))
        assert wl.params(DepthwiseConv(k=k, c=c)) == k * k * c


class TestDefaultBottleneck:
    def test_expansion_layers(self):
        b = wl.default_bottleneck()
        layers = b.expand()
        assert layers == (
            PointwiseConv(32, 192),
            DepthwiseConv(k=3, c=192, stride=1, pad=1),
            PointwiseConv(192, 32),
        )
        assert b.residual

    def test_total_macs(self):
        assert wl.bottleneck_macs(wl.default_bottleneck()) == 14_352_384

    def test_macs_is_sum_of_expanded_layers(self):
        b = wl.default_bottleneck()
        total = 0
        shape = b.input_shape
        for layer in b.expand():
            total += wl.macs(layer, shape)
            shape = wl.output_shape(layer, shape)
        assert wl.bottleneck_macs(b) == total

    def test_activation_footprint_fits_512kb_untiled(self):
        b = wl.default_bottleneck()
        footprint = b.height * b.width * (b.c_in + 2 * b.expanded_channels + b.c_out)
        assert footprint == 458_752
        assert footprint < 512 * 1024

    def test_stride1_chain_returns_input_spatial_dims(self):
        b = wl.default_bottleneck()
        shape = b.input_shape
        for layer in b.expand():
            shape = wl.output_shape(layer, shape)
        assert (shape.height, shape.width) == (b.height, b.width)
        assert shape.channels == b.c_out


def test_non_residual_bottleneck():
    assert not BottleneckDescriptor(32, 6, 64, stride=1).residual
    assert not BottleneckDescriptor(32, 6, 32, stride=2).residual


class TestMobileNetV2Preset:
    def test_seventeen_bottlenecks_first_has_no_expand(self):
        net = wl.mobilenet_v2_preset()
        dw_layers = [nl for nl in net.layers if isinstance(nl.layer, DepthwiseConv)]
        assert len(dw_layers) == 17
        names = [nl.name for nl in net.layers]
        assert "b1.expand" not in names  # t = 1 on the first block
        assert "b2.expand" in names

    def test_total_conv_params_near_2p2m(self):
        total = sum(wl.params(nl.layer)
                    for nl in wl.mobilenet_v2_preset().layers)
        assert total == 2_189_760
        assert abs(total - 2.2e6) / 2.2e6 < 0.10

    def test_depthwise_share_about_4_percent(self):
        net = wl.mobilenet_v2_preset()
        share_all = depthwise_param_share(net)
        share_core = depthwise_param_share(net.without_stem_head())
        # ~4% of the weights are depthwise; the share is slightly lower when
        # the stem/head convolutions are counted in the denominator
        assert 0.030 <= share_core <= 0.050
        assert 0.025 <= share_all <= 0.045
        assert share_all < share_core

    def test_shapes_chain_end_to_end(self):
        net = wl.mobilenet_v2_preset()
        final = wl.validate_chain(net)
        assert (final.height, final.width, final.channels) == (7, 7, 1280)

    def test_width_multiplier_rounds_to_multiple_of_8(self):
        net = wl.mobilenet_v2_preset(width_multiplier=0.75)
        for nl in net.layers:
            if nl.name == "stem":
                continue
            assert wl.out_channels(nl.layer) % 8 == 0

    def test_width_multiplier_must_be_positive(self):
        with pytest.raises(ValueError):
            wl.mobilenet_v2_preset(width_multiplier=0)


class TestSerialization:
    @pytest.mark.parametrize("layer", [
        StandardConv(k=3, c_in=32, c_out=64, stride=2, pad=1),
        DepthwiseConv(k=3, c=192, stride=1, pad=1),
        PointwiseConv(32, 192),
    ])
    def test_layer_round_trip(self, layer):
        assert wl.layer_from_dict(layer_dict(layer)) == layer

    def test_bottleneck_round_trip(self):
        b = wl.default_bottleneck()
        assert wl.bottleneck_from_dict(bottleneck_dict(b)) == b

    def test_network_round_trip(self):
        net = wl.mobilenet_v2_preset()
        assert wl.network_from_dict(network_dict(net)) == net

    def test_dict_key_order_is_fixed(self):
        # files written from these dicts keep the documented key order
        assert list(layer_dict(StandardConv(3, 3, 32, 2, 1))) == \
            ["type", "k", "c_in", "c_out", "stride", "pad"]
        assert list(layer_dict(DepthwiseConv(3, 8, pad=1))) == \
            ["type", "k", "c", "stride", "pad"]
        assert list(layer_dict(PointwiseConv(4, 5))) == \
            ["type", "c_in", "c_out"]
        assert list(bottleneck_dict(wl.default_bottleneck())) == \
            ["schema_version", "kind", "c_in", "expansion", "c_out", "stride",
             "height", "width"]
        text = json.dumps(network_dict(wl.mobilenet_v2_preset()))
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "a06d8a2cf81cb87b2fd54aed8aa7cb2f4b07a1d655a8198b841e6e9c6e39f51a"

    def test_load_workload_file(self, tmp_path):
        path = tmp_path / "b.json"
        b = wl.default_bottleneck()
        path.write_text(json.dumps(bottleneck_dict(b)))
        assert wl.load_workload(str(path)) == b

    def test_bad_schema_version_rejected(self):
        # true and 1.0 compare equal to 1 but are not the integer version
        for version in (99, True, 1.0):
            d = bottleneck_dict(wl.default_bottleneck())
            d["schema_version"] = version
            with pytest.raises(ValueError, match="schema_version"):
                wl.bottleneck_from_dict(d)
            d = network_dict(wl.mobilenet_v2_preset())
            d["schema_version"] = version
            with pytest.raises(ValueError, match="schema_version"):
                wl.network_from_dict(d)


def test_invalid_descriptors_rejected():
    with pytest.raises(ValueError):
        TensorShape(0, 4, 4)
    with pytest.raises(ValueError):
        StandardConv(k=0, c_in=1, c_out=1)
    with pytest.raises(ValueError):
        DepthwiseConv(k=3, c=8, stride=0)
    # geometry must be integral: non-integers and bools are rejected, not
    # left to fail deep inside the model
    for build in (lambda: TensorShape(32.0, 4, 4),
                  lambda: TensorShape(4, True, 4),
                  lambda: StandardConv(k=3.0, c_in=1, c_out=1),
                  lambda: StandardConv(k=3, c_in=1, c_out=1, pad=-1),
                  lambda: DepthwiseConv(k=3, c=8, pad=0.5),
                  lambda: PointwiseConv(c_in="8", c_out=8),
                  lambda: BottleneckDescriptor(32, 6, 32, height=32.5),
                  lambda: BottleneckDescriptor(32, 6, 32, width=0)):
        with pytest.raises(ValueError):
            build()
