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
from dataclasses import MISSING, asdict, dataclass, fields
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


def _check_str(name: str, value) -> None:
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")


@dataclass(frozen=True, slots=True)
class NamedLayer:
    name: str
    layer: LayerDescriptor

    def __post_init__(self):
        _check_str("layer name", self.name)


@dataclass(frozen=True, slots=True)
class NetworkDescriptor:
    name: str
    input_shape: TensorShape
    layers: tuple[NamedLayer, ...]

    def __post_init__(self):
        _check_str("network name", self.name)

    def without_stem_head(self) -> "NetworkDescriptor":
        """Bottleneck layers only (drops the 'stem' and 'head' entries)."""
        kept = tuple(nl for nl in self.layers if nl.name not in ("stem", "head"))
        # input shape is only meaningful for chain validation; keep the
        # original since the filtered list is used for weight counting.
        return NetworkDescriptor(self.name + "-bottlenecks", self.input_shape, kept)


def network_params(net: NetworkDescriptor) -> int:
    return sum(params(nl.layer) for nl in net.layers)


def validate_chain(net: NetworkDescriptor) -> TensorShape:
    """Fold output_shape over the network; raises, naming the first layer
    that does not chain, if shapes do not chain."""
    shape = net.input_shape
    for nl in net.layers:
        try:
            shape = output_shape(nl.layer, shape)
        except ValueError as e:
            raise ValueError(f"layer {nl.name!r} does not chain: {e}") from None
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

    image = TensorShape(224, 224, 3)
    stem = StandardConv(k=3, c_in=3, c_out=scale(32), stride=2, pad=1)
    layers = [NamedLayer("stem", stem)]
    shape = output_shape(stem, image)
    block = 0
    for t, c, n, s in _MOBILENET_V2_TABLE:
        for i in range(n):
            block += 1
            parts = BottleneckDescriptor(
                c_in=shape.channels, expansion=t, c_out=scale(c),
                stride=s if i == 0 else 1, height=shape.height,
                width=shape.width).expand()
            names = ("expand", "dw", "project")[-len(parts):]
            for name, layer in zip(names, parts):
                layers.append(NamedLayer(f"b{block}.{name}", layer))
                shape = output_shape(layer, shape)
    head_out = 1280 if width_multiplier <= 1.0 else _make_divisible(1280 * width_multiplier)
    layers.append(NamedLayer("head", PointwiseConv(c_in=shape.channels,
                                                   c_out=head_out)))
    return NetworkDescriptor(f"mobilenet_v2-{width_multiplier}", image,
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
_TYPE_NAMES = {cls: kind for kind, cls in _LAYER_TYPES.items()}


def layer_to_dict(layer: LayerDescriptor) -> dict:
    return {"type": _TYPE_NAMES[type(layer)], **asdict(layer)}


def layer_from_dict(d: dict) -> LayerDescriptor:
    """Layer from its dict; omitted stride and pad default to 1 and 0."""
    if not isinstance(d, dict):
        raise ValueError(f"layer must be a JSON object, got {type(d).__name__}")
    if "type" not in d:
        raise ValueError("layer is missing keys: ['type']")
    kind = d["type"]
    if not isinstance(kind, str) or kind not in _LAYER_TYPES:
        raise ValueError(f"unknown layer type {kind!r}")
    cls = _LAYER_TYPES[kind]
    required = tuple(f.name for f in fields(cls) if f.default is MISSING)
    optional = tuple(f.name for f in fields(cls) if f.default is not MISSING)
    _check_object(d, f"{kind} layer", ("type", *required), optional)
    return cls(**{key: value for key, value in d.items() if key != "type"})


def bottleneck_to_dict(b: BottleneckDescriptor) -> dict:
    return {"schema_version": SCHEMA_VERSION, "kind": "bottleneck", **asdict(b)}


def bottleneck_from_dict(d: dict) -> BottleneckDescriptor:
    _check_schema(d, "bottleneck",
                  ("c_in", "expansion", "c_out", "height", "width"), ("stride",))
    return BottleneckDescriptor(**{key: value for key, value in d.items()
                                   if key not in ("schema_version", "kind")})


def network_to_dict(net: NetworkDescriptor) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "network",
        "name": net.name,
        "input_shape": asdict(net.input_shape),
        "layers": [{"name": nl.name, "layer": layer_to_dict(nl.layer)}
                   for nl in net.layers],
    }


def network_from_dict(d: dict) -> NetworkDescriptor:
    """Network from its dict, after checking that its layers chain."""
    _check_schema(d, "network", ("name", "input_shape", "layers"))
    shape = _check_object(d["input_shape"], "input_shape",
                          tuple(f.name for f in fields(TensorShape)))
    layers = d["layers"]
    if not isinstance(layers, list):
        raise ValueError(f"network layers must be a JSON list, "
                         f"got {type(layers).__name__}")
    if not layers:
        raise ValueError("network layers must not be empty")
    entries = [_check_object(entry, "network layer entry", ("name", "layer"))
               for entry in layers]
    net = NetworkDescriptor(
        d["name"], TensorShape(**shape),
        tuple(NamedLayer(entry["name"], layer_from_dict(entry["layer"]))
              for entry in entries),
    )
    validate_chain(net)
    return net


def _check_object(d, what: str, required: tuple[str, ...],
                  optional: tuple[str, ...] = ()) -> dict:
    """`d`, after checking that it is a dict that has every key of
    `required` and no keys beyond `required` and `optional`."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(d).__name__}")
    unknown = set(d) - set(required) - set(optional)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    missing = [key for key in required if key not in d]
    if missing:
        raise ValueError(f"{what} is missing keys: {missing}")
    return d


def _check_schema(d: dict, kind: str, required: tuple[str, ...],
                  optional: tuple[str, ...] = ()):
    _check_object(d, kind, ("schema_version", "kind", *required), optional)
    version = d["schema_version"]
    # 1.0 and true compare equal to 1; the version must be an integer
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r}")
    if d["kind"] != kind:
        raise ValueError(f"expected kind {kind!r}, got {d['kind']!r}")


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
