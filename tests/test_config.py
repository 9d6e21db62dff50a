"""JSON configuration loading onto the parameter dataclasses."""
from __future__ import annotations

import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

from volkey.config import load_config
from volkey.descriptors import ExtractionConfig
from volkey.errors import RejectedInputError
from volkey.kernels import KernelParams
from volkey.matching import HoughParams
from volkey.registration import RegistrationConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def test_defaults_cover_all_sections():
    cfg = load_config(None)
    assert set(cfg) == {"extraction", "kernel", "hough", "registration"}
    assert cfg["extraction"].base_sigma == 1.6
    assert cfg["kernel"].k == 12.0
    assert cfg["kernel"].sigma_t_sq == 200.0
    assert cfg["hough"].eps_cos == 0.7
    reg = cfg["registration"]
    assert reg.variant == "sift_cpd"
    assert reg.w == 0.1
    assert reg.max_iterations == 100
    # registration holds the kernel and hough sections themselves
    assert reg.kernel is cfg["kernel"] and reg.hough is cfg["hough"]


def test_missing_path_yields_defaults():
    cfg = load_config(None)
    assert cfg["extraction"] == ExtractionConfig()
    assert cfg["kernel"] == KernelParams()
    assert cfg["hough"] == HoughParams()
    assert cfg["registration"] == RegistrationConfig()


def test_readme_config_block_matches_the_defaults():
    text = README.read_text()
    section = text[text.index("## Configuration") :]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    documented = json.loads(block)
    cfg = load_config(None)
    defaults = {
        name: {f.name: getattr(obj, f.name) for f in fields(obj) if f.name not in cfg}
        for name, obj in cfg.items()
    }
    assert documented == defaults


def test_overlay_merges_partial_sections(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"registration": {"w": 0.25}, "kernel": {"k": 6.0}}))
    cfg = load_config(path)
    assert cfg["registration"].w == 0.25
    assert cfg["kernel"].k == 6.0
    assert cfg["registration"].kernel.k == 6.0
    # untouched values keep their defaults
    assert cfg["registration"].variant == "sift_cpd"
    assert cfg["kernel"].sigma_t_sq == 200.0
    assert cfg["extraction"] == ExtractionConfig()
    assert cfg["hough"] == HoughParams()
    assert cfg["registration"] == RegistrationConfig(w=0.25, kernel=KernelParams(k=6.0))


def test_unknown_sections_and_keys_are_rejected(tmp_path):
    bad_section = tmp_path / "a.json"
    bad_section.write_text(json.dumps({"registrations": {"w": 0.25}}))
    with pytest.raises(RejectedInputError, match="unknown config section"):
        load_config(bad_section)
    bad_key = tmp_path / "b.json"
    bad_key.write_text(json.dumps({"registration": {"outlier_w": 0.25}}))
    with pytest.raises(RejectedInputError, match="unknown key"):
        load_config(bad_key)
    # the nested sections are sections of their own, not registration keys
    nested = tmp_path / "n.json"
    nested.write_text(json.dumps({"registration": {"kernel": {"k": 6.0}}}))
    with pytest.raises(RejectedInputError, match="unknown key registration.kernel"):
        load_config(nested)
    not_object = tmp_path / "c.json"
    not_object.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(RejectedInputError, match="must be an object"):
        load_config(not_object)
    section_not_object = tmp_path / "d.json"
    section_not_object.write_text(json.dumps({"kernel": 6.0}))
    with pytest.raises(RejectedInputError, match="section 'kernel' must be an object"):
        load_config(section_not_object)


def test_invalid_values_fail_at_construction(tmp_path):
    path = tmp_path / "c.json"
    for overlay in (
        {"registration": {"w": 1.5}},
        {"registration": {"variant": "sift-cpd"}},
        {"extraction": {"max_count": 0}},
        {"kernel": {"k": 0.0}},
        {"hough": {"eps_cos": 1.0}},
    ):
        path.write_text(json.dumps(overlay))
        (section,) = overlay
        prefix = f"^{re.escape(str(path))}: section '{section}'"
        with pytest.raises(RejectedInputError, match=prefix):
            load_config(path)


@pytest.mark.parametrize(
    "text, match",
    [
        pytest.param('{"registration": {"w": 0.2', "malformed JSON", id="malformed-json"),
        pytest.param(
            '{"registration": {"w": "abc"}}',
            "section 'registration': w must",
            id="string-for-float",
        ),
        pytest.param(
            '{"registration": {"max_iterations": null}}',
            "section 'registration': max_iterations must",
            id="null-for-int",
        ),
        pytest.param(
            '{"extraction": {"max_count": 2.5}}',
            "section 'extraction': max_count must",
            id="float-for-int",
        ),
    ],
)
def test_load_config_rejects_malformed_values(tmp_path, text, match):
    path = tmp_path / "c.json"
    path.write_text(text)
    with pytest.raises(RejectedInputError, match=match):
        load_config(path)


def test_load_config_accepts_ints_for_floats_and_null_octaves(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"kernel": {"k": 6}, "extraction": {"num_octaves": None}}))
    cfg = load_config(path)
    assert cfg["kernel"].k == 6.0
    assert cfg["extraction"].num_octaves is None
    path.write_text(json.dumps({"extraction": {"num_octaves": 2}}))
    assert load_config(path)["extraction"].num_octaves == 2
    path.write_text(json.dumps({"kernel": {"use_orientation_states": 1}}))
    with pytest.raises(RejectedInputError, match="section 'kernel': use_orientation_states must"):
        load_config(path)


@pytest.mark.parametrize(
    "make",
    [
        lambda: ExtractionConfig(max_count=-1),
        lambda: ExtractionConfig(max_count=0),
        lambda: ExtractionConfig(window_factor=0.0),
        lambda: ExtractionConfig(window_factor=1000.5),
        lambda: ExtractionConfig(window_factor=1e300),
        lambda: ExtractionConfig(base_sigma=float("nan")),
        lambda: ExtractionConfig(num_octaves=0),
        lambda: ExtractionConfig(min_abs_response=-1e-3),
        lambda: ExtractionConfig(estimator="fancy"),
        lambda: HoughParams(trans_bin=0.0),
        lambda: HoughParams(rot_bin=-1.0),
        lambda: HoughParams(log_scale_bin=float("inf")),
        lambda: HoughParams(eps_disp=0.0),
        lambda: HoughParams(eps_log_scale=float("nan")),
        lambda: HoughParams(eps_cos=1.0),
        lambda: KernelParams(k=float("nan")),
        lambda: KernelParams(k=float("inf")),
        lambda: KernelParams(sigma_t_sq=float("inf")),
        lambda: RegistrationConfig(lambda_sq_floor=float("nan")),
    ],
)
def test_config_dataclasses_validate_at_construction(make):
    with pytest.raises(RejectedInputError):
        make()


# wrongly typed values for each field annotation; the nested sections take the rest
_WRONG = {
    "float": ["1.5", True, None],
    "int": [2.5, True, "3", None],
    "int | None": [2.5, True, "3"],
    "bool": ["no", 1, None],
    "str": [3, True, None],
}


def _wrongly_typed_fields():
    for cls in (ExtractionConfig, KernelParams, HoughParams, RegistrationConfig):
        for f in fields(cls):
            for value in _WRONG.get(f.type, [None, 1.0]):
                yield pytest.param(cls, f.name, value, id=f"{cls.__name__}.{f.name}={value!r}")


@pytest.mark.parametrize("cls, name, value", _wrongly_typed_fields())
def test_config_dataclasses_reject_wrongly_typed_fields(cls, name, value):
    with pytest.raises(RejectedInputError, match=f"^{name} must be of type"):
        cls(**{name: value})


def test_config_dataclasses_store_ints_for_floats_as_floats():
    assert ExtractionConfig(num_octaves=None).num_octaves is None
    for config, name in (
        (ExtractionConfig(base_sigma=2), "base_sigma"),
        (KernelParams(k=6), "k"),
        (HoughParams(trans_bin=10), "trans_bin"),
        (RegistrationConfig(w=0), "w"),
    ):
        assert type(getattr(config, name)) is float
