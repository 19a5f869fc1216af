"""Calibration bundle: every tunable constant of the cost model in one place.

The shipped `calibration/default.json` is the only copy of each value. A
file passed via `--calibration` overrides any subset of fields, an omitted
key taking its shipped value, and `--set` overlays single keys on either;
a top-level key other than `schema_version`, `note` and the sections is
rejected. Fitted constants (eta_dw, energy parameters, cluster area) are
labeled as such in the file and in report headers.
"""

from __future__ import annotations

import json
import math
import typing
from dataclasses import dataclass
from importlib import resources

from .metrics import AreaModel, EnergyModel
from .timing import ClusterConfig, ImaTiming, array_op_cycles

SCHEMA_VERSION = 2


@dataclass(frozen=True, slots=True)
class Calibration:
    cluster: ClusterConfig
    ima: ImaTiming
    area: AreaModel
    energy: EnergyModel

    def __post_init__(self):
        try:
            array_op_cycles(self.ima.t_array_ns, self.cluster.f_hz)
        except OverflowError:
            raise ValueError("ima.t_array_ns * cluster.f_hz overflows "
                             "the array operation's cycle count") from None


SECTIONS = {
    "cluster": ClusterConfig,
    "ima": ImaTiming,
    "area": AreaModel,
    "energy": EnergyModel,
}


# Type of a value per field annotation; ranges are checked by each section's
# __post_init__. JSON integers are valid floats; bools are neither.
_TYPE_CHECKS = {
    int: ("an integer",
          lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a finite number",
            lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v)),
}


def shipped() -> dict:
    """A fresh copy of the shipped calibration file's JSON object."""
    text = resources.files("imasim").joinpath("calibration/default.json").read_text()
    return json.loads(text)


def calibration_from_dict(d: dict) -> Calibration:
    """The calibration of a JSON object; omitted keys take shipped values."""
    if not isinstance(d, dict):
        raise ValueError(f"calibration must be a JSON object, got {type(d).__name__}")
    version = d.get("schema_version")
    # 2.0 and true compare equal to integers; the version must be one
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError(f"unsupported calibration schema_version {version!r}")
    unknown = set(d) - {"schema_version", "note", *SECTIONS}
    if unknown:
        raise ValueError(f"unknown calibration keys: {sorted(unknown)}")
    if not isinstance(d.get("note", ""), str):  # a label; the model reads none
        raise ValueError(f"calibration note must be a string, got {d['note']!r}")
    base = shipped()
    parts = {}
    for section, cls in SECTIONS.items():
        given = d.get(section, {})
        if not isinstance(given, dict):
            raise ValueError(f"calibration {section} must be a JSON object")
        hints = typing.get_type_hints(cls)  # one per field
        unknown = set(given) - set(hints)
        if unknown:
            raise ValueError(f"unknown {section} calibration keys: {sorted(unknown)}")
        for name, value in given.items():
            what, ok = _TYPE_CHECKS[hints[name]]
            if not ok(value):
                raise ValueError(f"{section}.{name} must be {what}, got {value!r}")
        parts[section] = cls(**{**base[section], **given})
    return Calibration(**parts)


def default_calibration() -> Calibration:
    return calibration_from_dict(shipped())
