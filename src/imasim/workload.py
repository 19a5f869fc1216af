"""Layer, bottleneck and network descriptors.

Everything in this module is a pure value type: shapes, layer geometry,
and the arithmetic derived from them (output shapes, MAC counts, parameter
counts). Activations are 8-bit unsigned, weights 4-bit signed throughout;
the descriptors only carry geometry.

Conventions:
- Activations live in HWC layout (channel-contiguous pixels).
- A pointwise convolution is a standard convolution with k = 1; it gets
  its own descriptor because it maps differently onto the crossbar.
- MobileNetV2-style bottleneck: pointwise expand -> 3x3 depthwise ->
  pointwise project, with a residual add when stride is 1 and the channel
  count is preserved.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import Union


class ChannelMismatch(ValueError):
    """Input tensor channels do not match the layer's input channels."""


@dataclass(frozen=True, slots=True)
class TensorShape:
    height: int
    width: int
    channels: int

    def __post_init__(self):
        _check_int("tensor height", self.height)
        _check_int("tensor width", self.width)
        _check_int("tensor channels", self.channels)

    @property
    def size_bytes(self) -> int:
        # one byte per 8-bit activation
        return self.height * self.width * self.channels


@dataclass(frozen=True, slots=True)
class StandardConv:
    k: int
    c_in: int
    c_out: int
    stride: int = 1
    pad: int = 0

    def __post_init__(self):
        _check_conv_fields(self.k, self.stride, self.c_in, self.c_out, self.pad)


@dataclass(frozen=True, slots=True)
class DepthwiseConv:
    k: int
    c: int
    stride: int = 1
    pad: int = 0

    def __post_init__(self):
        _check_conv_fields(self.k, self.stride, self.c, self.c, self.pad)


@dataclass(frozen=True, slots=True)
class PointwiseConv:
    c_in: int
    c_out: int

    def __post_init__(self):
        _check_conv_fields(1, 1, self.c_in, self.c_out)


LayerDescriptor = Union[StandardConv, DepthwiseConv, PointwiseConv]


def _check_int(name: str, value, minimum: int = 1) -> None:
    """Geometry is a non-bool integer (numpy integers too) of at least `minimum`."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def _check_conv_fields(k, stride, c_in, c_out, pad=0):
    _check_int("filter size", k)
    _check_int("stride", stride)
    _check_int("input channels", c_in)
    _check_int("output channels", c_out)
    _check_int("padding", pad, minimum=0)


def in_channels(layer: LayerDescriptor) -> int:
    if isinstance(layer, DepthwiseConv):
        return layer.c
    return layer.c_in


def out_channels(layer: LayerDescriptor) -> int:
    if isinstance(layer, DepthwiseConv):
        return layer.c
    return layer.c_out


def kernel_size(layer: LayerDescriptor) -> int:
    return 1 if isinstance(layer, PointwiseConv) else layer.k


def layer_stride(layer: LayerDescriptor) -> int:
    return 1 if isinstance(layer, PointwiseConv) else layer.stride


def layer_pad(layer: LayerDescriptor) -> int:
    return 0 if isinstance(layer, PointwiseConv) else layer.pad


def weight_shape(layer: LayerDescriptor) -> tuple[int, ...]:
    """Canonical weight layout: standard (k, k, c_in, c_out), pointwise
    (c_in, c_out), depthwise (k, k, c)."""
    if isinstance(layer, PointwiseConv):
        return (layer.c_in, layer.c_out)
    if isinstance(layer, DepthwiseConv):
        return (layer.k, layer.k, layer.c)
    return (layer.k, layer.k, layer.c_in, layer.c_out)


def output_shape(layer: LayerDescriptor, in_shape: TensorShape) -> TensorShape:
    """Output tensor shape of `layer` applied to `in_shape`.

    Raises ChannelMismatch if the input channel count does not match.
    """
    if in_shape.channels != in_channels(layer):
        raise ChannelMismatch(
            f"layer expects {in_channels(layer)} input channels, "
            f"got {in_shape.channels}"
        )
    k = kernel_size(layer)
    s = layer_stride(layer)
    p = layer_pad(layer)
    h_out = (in_shape.height + 2 * p - k) // s + 1
    w_out = (in_shape.width + 2 * p - k) // s + 1
    if h_out < 1 or w_out < 1:
        raise ValueError(f"layer {layer} produces empty output on {in_shape}")
    return TensorShape(h_out, w_out, out_channels(layer))


def macs(layer: LayerDescriptor, in_shape: TensorShape) -> int:
    """Multiply-accumulate count of one layer invocation (1 MAC = 2 OPs)."""
    out = output_shape(layer, in_shape)
    return out.height * out.width * params(layer)


def params(layer: LayerDescriptor) -> int:
    """Weight count of one layer (biases are out of scope)."""
    return math.prod(weight_shape(layer))


@dataclass(frozen=True, slots=True)
class BottleneckDescriptor:
    """Inverted-residual block: expand (1x1) -> depthwise (3x3) -> project (1x1)."""

    c_in: int
    expansion: int
    c_out: int
    stride: int = 1
    height: int = 32
    width: int = 32

    def __post_init__(self):
        _check_int("expansion factor", self.expansion)
        _check_int("height", self.height)
        _check_int("width", self.width)
        _check_conv_fields(3, self.stride, self.c_in, self.c_out)

    @property
    def residual(self) -> bool:
        return self.stride == 1 and self.c_in == self.c_out

    @property
    def input_shape(self) -> TensorShape:
        return TensorShape(self.height, self.width, self.c_in)

    @property
    def expanded_channels(self) -> int:
        return self.expansion * self.c_in

    def expand(self) -> tuple[LayerDescriptor, ...]:
        """Constituent layers in execution order.

        With expansion factor 1 the leading 1x1 expansion is omitted, as in
        the published MobileNetV2 architecture.
        """
        c_exp = self.expanded_channels
        dw = DepthwiseConv(k=3, c=c_exp, stride=self.stride, pad=1)
        project = PointwiseConv(c_in=c_exp, c_out=self.c_out)
        if self.expansion == 1:
            return (dw, project)
        return (PointwiseConv(c_in=self.c_in, c_out=c_exp), dw, project)


def bottleneck_macs(b: BottleneckDescriptor) -> int:
    total = 0
    shape = b.input_shape
    for layer in b.expand():
        total += macs(layer, shape)
        shape = output_shape(layer, shape)
    return total


def default_bottleneck() -> BottleneckDescriptor:
    """Case-study block: 32 -> (x6) 192 -> 32 channels on a 32x32 feature map.

    Sized so that all four activation buffers fit a 512 kB L1 scratchpad
    with no tiling: 32*32*(32+192+192+32) = 448 kB.
    """
    return BottleneckDescriptor(c_in=32, expansion=6, c_out=32, stride=1,
                                height=32, width=32)


@dataclass(frozen=True, slots=True)
class NamedLayer:
    name: str
    layer: LayerDescriptor


@dataclass(frozen=True, slots=True)
class NetworkDescriptor:
    name: str
    input_shape: TensorShape
    layers: tuple[NamedLayer, ...]

    def without_stem_head(self) -> "NetworkDescriptor":
        """Bottleneck layers only (drops the 'stem' and 'head' entries)."""
        kept = tuple(nl for nl in self.layers if nl.name not in ("stem", "head"))
        # input shape is only meaningful for chain validation; keep the
        # original since the filtered list is used for weight counting.
        return NetworkDescriptor(self.name + "-bottlenecks", self.input_shape, kept)


def network_params(net: NetworkDescriptor) -> int:
    return sum(params(nl.layer) for nl in net.layers)


def validate_chain(net: NetworkDescriptor) -> TensorShape:
    """Fold output_shape over the network; raises if shapes do not chain."""
    shape = net.input_shape
    for nl in net.layers:
        shape = output_shape(nl.layer, shape)
    return shape


def depthwise_param_share(net: NetworkDescriptor) -> float:
    dw = sum(params(nl.layer) for nl in net.layers
             if isinstance(nl.layer, DepthwiseConv))
    return dw / network_params(net)


def _make_divisible(v: float, divisor: int = 8) -> int:
    # channel rounding used when scaling by a width multiplier
    new_v = max(divisor, int(v + divisor / 2) // divisor * divisor)
    if new_v < 0.9 * v:
        new_v += divisor
    return new_v


# (expansion t, output channels c, repeats n, first stride s)
_MOBILENET_V2_TABLE = (
    (1, 16, 1, 1),
    (6, 24, 2, 2),
    (6, 32, 3, 2),
    (6, 64, 4, 2),
    (6, 96, 3, 1),
    (6, 160, 3, 2),
    (6, 320, 1, 1),
)


def mobilenet_v2_preset(width_multiplier: float = 1.0) -> NetworkDescriptor:
    """The standard 17-bottleneck MobileNetV2 convolutional backbone.

    Includes the 3x3 stem convolution and the final 1x1 head convolution
    (320 -> 1280); the average pool and classifier are not convolutions and
    are excluded. Channel counts are rounded to multiples of 8 when a
    non-unit width multiplier is applied.
    """
    # the largest scaled channel count, the head's 1280, must stay finite
    if not (width_multiplier > 0 and math.isfinite(1280 * width_multiplier)):
        raise ValueError("width multiplier must be positive and finite, "
                         f"got {width_multiplier}")

    def scale(c: int) -> int:
        if width_multiplier == 1.0:
            return c
        return _make_divisible(c * width_multiplier)

    layers: list[NamedLayer] = []
    stem_out = scale(32)
    layers.append(NamedLayer("stem", StandardConv(k=3, c_in=3, c_out=stem_out,
                                                  stride=2, pad=1)))
    c_prev = stem_out
    block = 0
    for t, c, n, s in _MOBILENET_V2_TABLE:
        c_out = scale(c)
        for i in range(n):
            block += 1
            stride = s if i == 0 else 1
            c_exp = c_prev * t
            prefix = f"b{block}"
            if t > 1:
                layers.append(NamedLayer(f"{prefix}.expand",
                                         PointwiseConv(c_in=c_prev, c_out=c_exp)))
            layers.append(NamedLayer(f"{prefix}.dw",
                                     DepthwiseConv(k=3, c=c_exp, stride=stride, pad=1)))
            layers.append(NamedLayer(f"{prefix}.project",
                                     PointwiseConv(c_in=c_exp, c_out=c_out)))
            c_prev = c_out
    head_out = 1280 if width_multiplier <= 1.0 else _make_divisible(1280 * width_multiplier)
    layers.append(NamedLayer("head", PointwiseConv(c_in=c_prev, c_out=head_out)))
    return NetworkDescriptor(f"mobilenet_v2-{width_multiplier}",
                             TensorShape(224, 224, 3),
                             tuple(layers))


# --- JSON (de)serialization -------------------------------------------------
#
# Schema (version 1), documented in the README:
#   layer:      {"type": "standard"|"depthwise"|"pointwise", ...geometry}
#   bottleneck: {"schema_version": 1, "kind": "bottleneck", c_in, expansion,
#                c_out, stride, height, width}
#   network:    {"schema_version": 1, "kind": "network", name,
#                input_shape: {height, width, channels},
#                layers: [{name, layer}]}
# Every object must be a JSON object with no keys beyond these.

SCHEMA_VERSION = 1
_LAYER_TYPES = {"standard": StandardConv, "depthwise": DepthwiseConv,
                "pointwise": PointwiseConv}


def layer_to_dict(layer: LayerDescriptor) -> dict:
    if isinstance(layer, StandardConv):
        return {"type": "standard", "k": layer.k, "c_in": layer.c_in,
                "c_out": layer.c_out, "stride": layer.stride, "pad": layer.pad}
    if isinstance(layer, DepthwiseConv):
        return {"type": "depthwise", "k": layer.k, "c": layer.c,
                "stride": layer.stride, "pad": layer.pad}
    return {"type": "pointwise", "c_in": layer.c_in, "c_out": layer.c_out}


def layer_from_dict(d: dict) -> LayerDescriptor:
    """Layer from its dict; omitted stride and pad default to 1 and 0."""
    if not isinstance(d, dict):
        raise ValueError(f"layer must be a JSON object, got {type(d).__name__}")
    kind = d.get("type")
    if kind not in _LAYER_TYPES:
        raise ValueError(f"unknown layer type {kind!r}")
    cls = _LAYER_TYPES[kind]
    _check_object(d, f"{kind} layer", ("type", *_field_names(cls)))
    return cls(**{key: value for key, value in d.items() if key != "type"})


def bottleneck_to_dict(b: BottleneckDescriptor) -> dict:
    return {"schema_version": SCHEMA_VERSION, "kind": "bottleneck",
            "c_in": b.c_in, "expansion": b.expansion, "c_out": b.c_out,
            "stride": b.stride, "height": b.height, "width": b.width}


def bottleneck_from_dict(d: dict) -> BottleneckDescriptor:
    _check_schema(d, "bottleneck", _field_names(BottleneckDescriptor))
    return BottleneckDescriptor(c_in=d["c_in"], expansion=d["expansion"],
                                c_out=d["c_out"], stride=d.get("stride", 1),
                                height=d["height"], width=d["width"])


def network_to_dict(net: NetworkDescriptor) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "network",
        "name": net.name,
        "input_shape": {"height": net.input_shape.height,
                        "width": net.input_shape.width,
                        "channels": net.input_shape.channels},
        "layers": [{"name": nl.name, "layer": layer_to_dict(nl.layer)}
                   for nl in net.layers],
    }


def network_from_dict(d: dict) -> NetworkDescriptor:
    _check_schema(d, "network", ("name", "input_shape", "layers"))
    shape = _check_object(d["input_shape"], "input_shape",
                          _field_names(TensorShape))
    layers = d["layers"]
    if not isinstance(layers, list):
        raise ValueError(f"network layers must be a JSON list, "
                         f"got {type(layers).__name__}")
    entries = [_check_object(entry, "network layer entry", ("name", "layer"))
               for entry in layers]
    return NetworkDescriptor(
        d["name"], TensorShape(**shape),
        tuple(NamedLayer(entry["name"], layer_from_dict(entry["layer"]))
              for entry in entries),
    )


def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _check_object(d, what: str, keys: tuple[str, ...]) -> dict:
    """`d`, after checking that it is a dict with no keys beyond `keys`."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(d).__name__}")
    unknown = set(d) - set(keys)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    return d


def _check_schema(d: dict, kind: str, keys: tuple[str, ...]):
    _check_object(d, kind, ("schema_version", "kind", *keys))
    if d.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {d.get('schema_version')!r}")
    if d.get("kind") != kind:
        raise ValueError(f"expected kind {kind!r}, got {d.get('kind')!r}")


def load_workload(path: str) -> BottleneckDescriptor | NetworkDescriptor:
    """Load a bottleneck or network descriptor from a JSON file."""
    with open(path) as f:
        d = json.load(f)
    if not isinstance(d, dict):
        raise ValueError(f"workload must be a JSON object, got {type(d).__name__}")
    kind = d.get("kind")
    if kind == "bottleneck":
        return bottleneck_from_dict(d)
    if kind == "network":
        return network_from_dict(d)
    raise ValueError(f"unknown workload kind {kind!r}")
