"""Run configuration: the parameter dataclasses, overlaid by a JSON file.

`load_config` returns one instance per section, each built from its
dataclass defaults plus the file's values, so each checks its values' types
and ranges as it is built.  Unknown sections and keys, malformed JSON and
values the dataclass rejects all fail inside `load_config`, naming the file
and the section.  The CLI then replaces the fields whose flags
were given, so precedence is flag > config file > defaults.
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

# each section's keys and defaults are the fields of its parameter dataclass;
# registration's nested kernel and hough fields take the sections built before it
_SECTIONS = {
    "extraction": ExtractionConfig,
    "kernel": KernelParams,
    "hough": HoughParams,
    "registration": RegistrationConfig,
}


def _read(path: str | Path) -> dict:
    """The file's section -> key -> value object, after the section checks."""
    try:
        with open(path) as fh:
            user = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise RejectedInputError(f"{path}: malformed JSON ({exc})") from exc
    if not isinstance(user, dict):
        raise RejectedInputError(f"{path}: config root must be an object")
    for section, entries in user.items():
        if section not in _SECTIONS:
            raise RejectedInputError(f"{path}: unknown config section {section!r}")
        if not isinstance(entries, dict):
            raise RejectedInputError(f"{path}: section {section!r} must be an object")
    return user


def load_config(path: str | Path | None) -> dict:
    """Section name -> its dataclass, built from the defaults and the JSON file.

    The registration section holds the kernel and hough instances themselves.
    """
    user = {} if path is None else _read(path)
    built: dict = {}
    for section, cls in _SECTIONS.items():
        keys = {f.name for f in fields(cls) if f.name not in _SECTIONS}
        entries = user.get(section, {})
        for key in entries:
            if key not in keys:
                raise RejectedInputError(f"{path}: unknown key {section}.{key}")
        nested = {f.name: built[f.name] for f in fields(cls) if f.name in _SECTIONS}
        try:
            built[section] = cls(**entries, **nested)
        except RejectedInputError as exc:
            raise RejectedInputError(f"{path}: section {section!r}: {exc}") from exc
    return built
