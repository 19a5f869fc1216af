"""Workload-file dicts of descriptors, in the documented schema (version 1)
and key order, for tests that write or edit workload files."""

from dataclasses import asdict

from imasim.workload import DepthwiseConv, PointwiseConv, StandardConv

_TYPES = {StandardConv: "standard", DepthwiseConv: "depthwise",
          PointwiseConv: "pointwise"}


def layer_dict(layer) -> dict:
    return {"type": _TYPES[type(layer)], **asdict(layer)}


def bottleneck_dict(b) -> dict:
    return {"schema_version": 1, "kind": "bottleneck", **asdict(b)}


def network_dict(net) -> dict:
    return {"schema_version": 1, "kind": "network", "name": net.name,
            "input_shape": asdict(net.input_shape),
            "layers": [{"name": nl.name, "layer": layer_dict(nl.layer)}
                       for nl in net.layers]}
