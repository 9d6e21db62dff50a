"""Seeded phantom volumes and random similarity transforms."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from volkey.errors import RejectedInputError
from volkey.synth import make_phantom, random_similarity
from volkey.transforms import is_rotation, rotation_x, rotation_y, rotation_z


def test_phantom_is_deterministic():
    a = make_phantom(42, num_blobs=10)
    b = make_phantom(42, num_blobs=10)
    np.testing.assert_array_equal(a.data, b.data)
    c = make_phantom(43, num_blobs=10)
    assert not np.array_equal(a.data, c.data)


def test_phantom_metadata_and_range():
    vol = make_phantom(1, num_blobs=5, dims=(32, 48, 40), spacing=(1.0, 0.5, 2.0))
    assert vol.dims == (32, 48, 40)
    assert vol.spacing == (1.0, 0.5, 2.0)
    assert vol.origin == (0.0, 0.0, 0.0)
    assert np.all(np.isfinite(vol.data))
    assert vol.data.min() >= 0.0
    assert vol.data.max() > 0.1


def test_single_blob_center_matches_seed_stream():
    seed = 5
    vol = make_phantom(seed, num_blobs=1)
    rng = np.random.default_rng(seed)
    extent = (np.asarray(vol.dims) - 1) * np.asarray(vol.spacing)
    center = (0.1 + 0.8 * rng.random(3)) * extent
    peak = np.unravel_index(np.argmax(vol.data), vol.dims)
    assert np.linalg.norm(np.asarray(peak) - center) < 1.5


def test_phantom_supports_feature_extraction(phantom_features):
    assert len(phantom_features) >= 30


def test_phantom_rejects_empty_scene():
    with pytest.raises(RejectedInputError):
        make_phantom(0, num_blobs=0)


def test_random_similarity_respects_ranges():
    for seed in range(1000):
        t = random_similarity(seed, center=(0.0, 0.0, 0.0))
        assert is_rotation(t.rotation, tol=1e-12)
        assert t.scale == 1.0
        r = t.rotation
        # factor R = Rx(a) Ry(b) Rz(c); valid because |angles| < 90 degrees
        b = np.arcsin(r[0, 2])
        c = np.arctan2(-r[0, 1], r[0, 0])
        a = np.arctan2(-r[1, 2], r[2, 2])
        for angle in (a, b, c):
            assert np.radians(10.0) - 1e-9 <= abs(angle) <= np.radians(30.0) + 1e-9
        rebuilt = rotation_x(a) @ rotation_y(b) @ rotation_z(c)
        np.testing.assert_allclose(rebuilt, r, atol=1e-12)
        # with the fixed point at the origin the translation is the raw shift
        assert np.all(np.abs(t.translation) <= 10.0 + 1e-9)


def test_random_similarity_center_is_fixed_point():
    center = np.array([12.0, -3.0, 40.0])
    t = random_similarity(77, trans_range_mm=(0.0, 0.0), center=center)
    np.testing.assert_allclose(t.apply(center), center, atol=1e-12)


def test_random_similarity_is_deterministic():
    a = random_similarity(9, center=(1.0, 2.0, 3.0))
    b = random_similarity(9, center=(1.0, 2.0, 3.0))
    np.testing.assert_array_equal(a.rotation, b.rotation)
    np.testing.assert_array_equal(a.translation, b.translation)


def test_random_similarity_validates_ranges():
    with pytest.raises(RejectedInputError):
        random_similarity(0, rot_range_deg=(30.0, 10.0))
    with pytest.raises(RejectedInputError):
        random_similarity(0, trans_range_mm=(-1.0, 5.0))
    with pytest.raises(RejectedInputError):
        random_similarity(0, rot_range_deg=(-5.0, 10.0))


_SEEDS = st.one_of(st.integers(-2, 2**64), st.sampled_from([True, 1.5, "1", None]))
# numbers at and past every bound, and values that are not numbers
_VALUES = st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -1.0, 1e-300, 2.0**-64, 0.5, 2.5, 2.0**64, 1e300, "a", None]
)


@settings(max_examples=150)
@given(
    seed=_SEEDS,
    num_blobs=st.one_of(st.integers(-1, 3), st.sampled_from([2.5, True, "2"])),
    dims=st.one_of(st.tuples(*[st.integers(-1, 9)] * 3), st.tuples(st.integers(1, 9))),
    spacing=st.one_of(st.tuples(*[_VALUES] * 3), st.tuples(_VALUES, _VALUES)),
    width_range=st.one_of(st.tuples(_VALUES, _VALUES), st.tuples(_VALUES)),
)
@example(seed=-1, num_blobs=1, dims=(4, 4, 4), spacing=(1, 1, 1), width_range=(2, 8))
@example(seed=0, num_blobs=2.5, dims=(4, 4, 4), spacing=(1, 1, 1), width_range=(2, 8))
@example(seed=0, num_blobs=1, dims=(4, 4, 4), spacing=(math.nan, 1, 1), width_range=(2, 8))
@example(seed=0, num_blobs=1, dims=(4, 4, 4), spacing=(1, 1, 1), width_range=(0, 0))
@example(seed=0, num_blobs=1, dims=(4, 4, 4), spacing=(1e300, 1, 1), width_range=(2, 8))
def test_make_phantom_contract(seed, num_blobs, dims, spacing, width_range):
    # a phantom of finite intensities, or RejectedInputError, never a bare
    # error or a warning: not for a negative seed, a float count, a NaN
    # spacing, zero widths or a spacing whose blob exponents would overflow
    try:
        vol = make_phantom(seed, num_blobs, dims, spacing, width_range)
    except RejectedInputError:
        return
    assert vol.dims == tuple(dims) and np.isfinite(vol.data).all()


@settings(max_examples=150)
@given(
    seed=_SEEDS,
    rot_range_deg=st.one_of(st.tuples(_VALUES, _VALUES), st.tuples(_VALUES)),
    trans_range_mm=st.one_of(st.tuples(_VALUES, _VALUES), st.tuples(_VALUES)),
    center=st.one_of(st.tuples(*[_VALUES] * 3), st.tuples(_VALUES, _VALUES)),
)
@example(seed=-1, rot_range_deg=(10, 30), trans_range_mm=(0, 10), center=(0, 0, 0))
@example(seed=0, rot_range_deg=(10, 30), trans_range_mm=(0, 10), center=(0, 0))
@example(seed=0, rot_range_deg=(10, math.inf), trans_range_mm=(0, 10), center=(0, 0, 0))
@example(seed=0, rot_range_deg=(10, 30), trans_range_mm=(0, 1e300), center=(1e300, 0, 0))
def test_random_similarity_contract(seed, rot_range_deg, trans_range_mm, center):
    # a similarity with unit scale, or RejectedInputError, never a bare error
    # or a warning: not for a negative seed, a two-entry center, an infinite
    # angle or a translation that overflows
    try:
        t = random_similarity(seed, rot_range_deg, trans_range_mm, center)
    except RejectedInputError:
        return
    assert is_rotation(t.rotation) and t.scale == 1.0 and np.isfinite(t.translation).all()
