import dataclasses
import json

import pytest

from imasim import calibration
from imasim.calibration import SECTIONS, calibration_from_dict, shipped
from imasim.cli import _load_calibration

SHIPPED_KEYS = [(section, key) for section, values in shipped().items()
                if isinstance(values, dict) for key in values]


def test_section_dataclasses_declare_no_defaults():
    # default.json is the only copy of each calibration value
    for cls in SECTIONS.values():
        for field in dataclasses.fields(cls):
            assert field.default is dataclasses.MISSING, field.name
            assert field.default_factory is dataclasses.MISSING, field.name


@pytest.mark.parametrize("section,key", SHIPPED_KEYS,
                         ids=[f"{s}.{k}" for s, k in SHIPPED_KEYS])
def test_file_with_one_key_overrides_only_that_key(cal, tmp_path, section, key):
    value = shipped()[section][key]
    changed = value + 1 if isinstance(value, int) else value / 2
    path = tmp_path / "cal.json"
    path.write_text(json.dumps({"schema_version": calibration.SCHEMA_VERSION,
                                section: {key: changed}}))
    loaded = _load_calibration(str(path))
    expected = dataclasses.replace(
        cal, **{section: dataclasses.replace(getattr(cal, section),
                                                      **{key: changed})})
    assert loaded == expected


def test_file_with_only_schema_version_is_shipped_calibration(cal):
    loaded = calibration_from_dict({"schema_version": calibration.SCHEMA_VERSION})
    assert loaded == cal


def test_unknown_top_level_key_is_rejected():
    d = {"schema_version": calibration.SCHEMA_VERSION, "clustre": {"n_cores": 4}}
    with pytest.raises(ValueError,
                       match=r"unknown calibration keys: \['clustre'\]"):
        calibration_from_dict(d)

