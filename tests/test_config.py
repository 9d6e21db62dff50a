"""JSON configuration loading and typed constructor plumbing."""
from __future__ import annotations

import json

import pytest

from volkey.config import (
    default_config,
    extraction_config,
    hough_params,
    kernel_params,
    load_config,
    registration_config,
)
from volkey.descriptors import ExtractionConfig
from volkey.errors import RejectedInputError
from volkey.matching import HoughParams


def test_defaults_cover_all_sections():
    cfg = default_config()
    assert set(cfg) == {"extraction", "kernel", "hough", "registration"}
    assert extraction_config(cfg).base_sigma == 1.6
    assert kernel_params(cfg).k == 12.0
    assert kernel_params(cfg).sigma_t_sq == 200.0
    assert hough_params(cfg).eps_cos == 0.7
    reg = registration_config(cfg)
    assert reg.variant == "sift_cpd"
    assert reg.w == 0.1
    assert reg.max_iterations == 100


def test_missing_path_yields_defaults():
    assert load_config(None) == default_config()


def test_overlay_merges_partial_sections(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"registration": {"w": 0.25}, "kernel": {"k": 6.0}}))
    cfg = load_config(path)
    assert registration_config(cfg).w == 0.25
    assert kernel_params(cfg).k == 6.0
    # untouched values keep their defaults
    assert registration_config(cfg).variant == "sift_cpd"
    assert kernel_params(cfg).sigma_t_sq == 200.0


def test_unknown_sections_and_keys_are_rejected(tmp_path):
    bad_section = tmp_path / "a.json"
    bad_section.write_text(json.dumps({"registrations": {"w": 0.25}}))
    with pytest.raises(RejectedInputError, match="unknown config section"):
        load_config(bad_section)
    bad_key = tmp_path / "b.json"
    bad_key.write_text(json.dumps({"registration": {"outlier_w": 0.25}}))
    with pytest.raises(RejectedInputError, match="unknown key"):
        load_config(bad_key)
    not_object = tmp_path / "c.json"
    not_object.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(RejectedInputError, match="must be an object"):
        load_config(not_object)


def test_invalid_values_fail_at_construction(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"registration": {"w": 1.5}}))
    cfg = load_config(path)
    with pytest.raises(RejectedInputError):
        registration_config(cfg)


@pytest.mark.parametrize(
    "text, match",
    [
        pytest.param('{"registration": {"w": 0.2', "malformed JSON", id="malformed-json"),
        pytest.param('{"registration": {"w": "abc"}}', "registration.w", id="string-for-float"),
        pytest.param(
            '{"registration": {"max_iterations": null}}',
            "registration.max_iterations",
            id="null-for-int",
        ),
        pytest.param(
            '{"extraction": {"max_count": 2.5}}', "extraction.max_count", id="float-for-int"
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
    assert kernel_params(cfg).k == 6.0
    assert extraction_config(cfg).num_octaves is None
    path.write_text(json.dumps({"kernel": {"use_orientation_states": 1}}))
    with pytest.raises(RejectedInputError, match="kernel.use_orientation_states"):
        load_config(path)


@pytest.mark.parametrize(
    "make",
    [
        lambda: ExtractionConfig(max_count=-1),
        lambda: ExtractionConfig(max_count=0),
        lambda: ExtractionConfig(window_factor=0.0),
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
        lambda: HoughParams(max_seeds=0),
        lambda: HoughParams(max_refit_iters=-1),
    ],
)
def test_config_dataclasses_validate_at_construction(make):
    with pytest.raises(RejectedInputError):
        make()
