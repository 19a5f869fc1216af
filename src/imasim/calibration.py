"""Calibration bundle: every tunable constant of the cost model in one place.

The shipped `calibration/default.json` contains the defaults; a user file
passed via `--calibration` overrides any subset of fields. Fitted constants
(eta_dw, energy parameters, cluster area) are labeled as such in the file
and in report headers.
"""

from __future__ import annotations

import dataclasses
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
    note: str = ""

    def __post_init__(self):
        try:
            array_op_cycles(self.ima.t_array_ns, self.cluster.f_hz)
        except OverflowError:
            raise ValueError("ima.t_array_ns * cluster.f_hz overflows "
                             "the array operation's cycle count") from None


_SECTIONS = {
    "cluster": ClusterConfig,
    "ima": ImaTiming,
    "area": AreaModel,
    "energy": EnergyModel,
}


# Type of a value per field annotation; ranges are checked by each section's
# __post_init__. JSON integers are valid floats, bools are valid only as bools.
_TYPE_CHECKS = {
    int: ("an integer",
          lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a finite number",
            lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v)),
    bool: ("true or false", lambda v: isinstance(v, bool)),
}


def calibration_from_dict(d: dict) -> Calibration:
    if not isinstance(d, dict):
        raise ValueError(f"calibration must be a JSON object, got {type(d).__name__}")
    if d.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported calibration schema_version {d.get('schema_version')!r}")
    parts = {}
    for section, cls in _SECTIONS.items():
        fields = {f.name for f in dataclasses.fields(cls)}
        given = d.get(section, {})
        if not isinstance(given, dict):
            raise ValueError(f"calibration {section} must be a JSON object")
        unknown = set(given) - fields
        if unknown:
            raise ValueError(f"unknown {section} calibration keys: {sorted(unknown)}")
        hints = typing.get_type_hints(cls)
        for name, value in given.items():
            what, ok = _TYPE_CHECKS[hints[name]]
            if not ok(value):
                raise ValueError(f"{section}.{name} must be {what}, got {value!r}")
        parts[section] = cls(**given)
    return Calibration(note=d.get("note", ""), **parts)


def calibration_to_dict(cal: Calibration) -> dict:
    d = {"schema_version": SCHEMA_VERSION, "note": cal.note}
    for section in _SECTIONS:
        d[section] = dataclasses.asdict(getattr(cal, section))
    return d


def load_calibration(path: str) -> Calibration:
    with open(path) as f:
        return calibration_from_dict(json.load(f))


def default_calibration() -> Calibration:
    text = resources.files("imasim").joinpath("calibration/default.json").read_text()
    return calibration_from_dict(json.loads(text))
