"""Shared fixtures and phantom builders for the test suite.

The 40-blob phantom, its scale space and its extracted features are session
fixtures: extraction is the expensive step and every consumer treats the
results as read-only.  ``gaussian_blob`` builds single-blob volumes for
closed-form oracles; ``geometry_arrays`` and ``pair_table`` turn hand-built
Geometry records into the stacked arrays and match tables the library takes.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from volkey.descriptors import ExtractionConfig, extract_features
from volkey.matching import match_table
from volkey.synth import make_phantom, random_similarity
from volkey.volume import ScalarVolume, build_scale_space, resample

# Settings shared by the unit tests and the acceptance suite: 40 blobs on a
# 64^3 grid at 1 mm spacing, three octaves, a small response floor to drop
# noise extrema, and a 250-keypoint budget.
PHANTOM_SEED = 7
EXTRACTION = ExtractionConfig(num_octaves=3, min_abs_response=1e-3, max_count=250)

# Property tests draw the same examples on every run (no example database,
# seed from the test itself); shared hosts time too unevenly for deadlines.
settings.register_profile("volkey", derandomize=True, deadline=None, database=None)
settings.load_profile("volkey")

# One pass/fail line per acceptance criterion, printed after the run.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def volume_center(volume: ScalarVolume) -> tuple[float, float, float]:
    """World-space midpoint of the volume extent."""
    c = (np.asarray(volume.dims) - 1) * np.asarray(volume.spacing) / 2.0
    return tuple(float(v) for v in c)


def gaussian_blob(
    dims=(64, 64, 64),
    spacing=(1.0, 1.0, 1.0),
    center=None,
    widths=(4.0, 4.0, 4.0),
    amplitude=1.0,
    rotation=None,
) -> ScalarVolume:
    """Single (optionally anisotropic, rotated) Gaussian blob volume."""
    dims = tuple(int(d) for d in dims)
    sp = np.asarray(spacing, dtype=float)
    if center is None:
        center = (np.asarray(dims) - 1) * sp / 2.0
    center = np.asarray(center, dtype=float)
    widths = np.asarray(widths, dtype=float) * np.ones(3)
    rot = np.eye(3) if rotation is None else np.asarray(rotation, dtype=float)
    axes = [np.arange(d) * s for d, s in zip(dims, sp)]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    d = np.stack([gx - center[0], gy - center[1], gz - center[2]], axis=-1)
    prec = rot @ np.diag(1.0 / widths**2) @ rot.T
    q = np.einsum("...i,ij,...j->...", d, prec, d)
    return ScalarVolume(
        dims=dims, spacing=tuple(sp), origin=(0.0, 0.0, 0.0), data=amplitude * np.exp(-0.5 * q)
    )


def geometry_arrays(geoms):
    """Stacked locations (n, 3), scales (n,) and frames (n, 3, 3) of Geometry records."""
    return (
        np.array([g.x for g in geoms]).reshape(-1, 3),
        np.array([g.sigma for g in geoms]),
        np.array([g.theta for g in geoms]).reshape(-1, 3, 3),
    )


def pair_table(pairs):
    """Match table of (moving, fixed) Geometry pairs; row i pairs index i with i at state 0."""
    n = len(pairs)
    return match_table(
        geometry_arrays([f for _, f in pairs]),
        geometry_arrays([m for m, _ in pairs]),
        np.arange(n),
        np.arange(n),
        np.zeros(n, dtype=int),
        np.zeros(n),
    )


def negated(volume: ScalarVolume) -> ScalarVolume:
    return ScalarVolume(
        dims=volume.dims, spacing=volume.spacing, origin=volume.origin, data=-volume.data
    )


@pytest.fixture(scope="session")
def phantom() -> ScalarVolume:
    return make_phantom(seed=PHANTOM_SEED, num_blobs=40, dims=(64, 64, 64), spacing=(1.0, 1.0, 1.0))


@pytest.fixture(scope="session")
def phantom_scale_space(phantom):
    return build_scale_space(phantom, num_octaves=3)


@pytest.fixture(scope="session")
def phantom_features(phantom):
    return extract_features(phantom, EXTRACTION)


@pytest.fixture(scope="session")
def planted_pair(phantom, phantom_features):
    """(fixed features, moving features, ground truth moving-onto-fixed)."""
    tgt = random_similarity(4000, center=volume_center(phantom))
    moving = extract_features(resample(phantom, tgt), EXTRACTION)
    return phantom_features, moving, tgt.inverse()
