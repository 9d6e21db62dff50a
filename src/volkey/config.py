"""Layered run configuration: built-in defaults, optional JSON file, CLI flags.

Precedence is flag > config file > defaults.  The schema mirrors the
parameter dataclasses; unknown keys, malformed JSON and values whose type
differs from the default's are rejected so typos fail loudly.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

from .descriptors import ExtractionConfig
from .errors import RejectedInputError
from .kernels import KernelParams
from .matching import HoughParams
from .registration import RegistrationConfig


def default_config() -> dict:
    return {
        "extraction": {
            "base_sigma": 1.6,
            "num_octaves": None,
            "min_abs_response": 0.0,
            "max_count": 6000,
            "estimator": "max_gradient",
            "window_factor": 1.5,
        },
        "kernel": {
            "k": 12.0,
            "sigma_t_sq": 200.0,
            "use_orientation_states": True,
        },
        "hough": {
            "eps_cos": 0.7,
            "eps_log_scale": math.log(1.5),
            "eps_disp": 0.25,
            "rot_bin": math.pi / 8.0,
            "log_scale_bin": math.log(1.5),
            "trans_bin": 10.0,
        },
        "registration": {
            "variant": "sift_cpd",
            "w": 0.1,
            "max_iterations": 100,
            "lambda_sq_floor": 1e-12,
        },
    }


# keys whose default is None, and the type they take when set
_NULLABLE = {"extraction.num_octaves": int}


def _check_type(path, name: str, value, default) -> None:
    """A value has its default's type; an int may stand for a float."""
    if value is None and name in _NULLABLE:
        return
    want = _NULLABLE.get(name, type(default))
    accepted = (int, float) if want is float else want
    if isinstance(value, bool) != (want is bool) or not isinstance(value, accepted):
        raise RejectedInputError(f"{path}: {name} must be of type {want.__name__}, got {value!r}")


def load_config(path: str | Path | None) -> dict:
    """Defaults overlaid with a JSON config file (section -> key -> value)."""
    cfg = default_config()
    if path is None:
        return cfg
    try:
        with open(path) as fh:
            user = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise RejectedInputError(f"{path}: malformed JSON ({exc})") from exc
    if not isinstance(user, dict):
        raise RejectedInputError(f"{path}: config root must be an object")
    for section, entries in user.items():
        if section not in cfg:
            raise RejectedInputError(f"{path}: unknown config section {section!r}")
        if not isinstance(entries, dict):
            raise RejectedInputError(f"{path}: section {section!r} must be an object")
        for key, value in entries.items():
            if key not in cfg[section]:
                raise RejectedInputError(f"{path}: unknown key {section}.{key}")
            _check_type(path, f"{section}.{key}", value, cfg[section][key])
            cfg[section][key] = value
    return cfg


def extraction_config(cfg: dict) -> ExtractionConfig:
    return ExtractionConfig(**cfg["extraction"])


def kernel_params(cfg: dict) -> KernelParams:
    return KernelParams(**cfg["kernel"])


def hough_params(cfg: dict) -> HoughParams:
    return HoughParams(**cfg["hough"])


def registration_config(cfg: dict) -> RegistrationConfig:
    return RegistrationConfig(
        kernel=kernel_params(cfg),
        hough=hough_params(cfg),
        **cfg["registration"],
    )
