"""Layered run configuration: built-in defaults, optional JSON file, CLI flags.

Precedence is flag > config file > defaults.  The schema and the defaults
are the parameter dataclasses' own fields; unknown keys, malformed JSON and
values whose type differs from the default's are rejected so typos fail
loudly.
"""
from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

from .descriptors import ExtractionConfig
from .errors import RejectedInputError
from .kernels import KernelParams
from .matching import HoughParams
from .registration import RegistrationConfig

# each section's keys and defaults are the fields of its parameter dataclass
_SECTIONS = {
    "extraction": ExtractionConfig,
    "kernel": KernelParams,
    "hough": HoughParams,
    "registration": RegistrationConfig,
}


def default_config() -> dict:
    """Section -> key -> default, read off the parameter dataclasses; the
    registration section leaves out its nested kernel and hough sections."""
    return {
        name: {f.name: f.default for f in fields(cls) if f.name not in _SECTIONS}
        for name, cls in _SECTIONS.items()
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
