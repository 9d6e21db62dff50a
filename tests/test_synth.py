"""Seeded phantom volumes and random similarity transforms."""
from __future__ import annotations

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import gaussian_blob, matrix_from_rotvec
from volkey.errors import RejectedInputError
from volkey.synth import _random_rotation, make_phantom, random_similarity
from volkey.transforms import is_rotation, rotation_x, rotation_y, rotation_z


def phantom_blobs(seed, num_blobs, dims, spacing, width_range):
    """make_phantom's seeded draws blob by blob: the first and past-the-end
    voxel per axis before clipping, the clipped box, the center, the inverse
    covariance and the amplitude."""
    rng = np.random.default_rng(seed)
    spacing = [float(s) for s in spacing]
    w_lo, w_hi = (float(w) for w in width_range)
    extent = (np.asarray(dims) - 1) * np.asarray(spacing)
    for _ in range(num_blobs):
        center = (0.1 + 0.8 * rng.random(3)) * extent
        widths = w_lo + (w_hi - w_lo) * rng.random(3)
        rot = _random_rotation(rng)
        amp = 0.5 + 0.5 * rng.random()
        reach = 4.0 * widths.max()
        first = [math.floor((center[a] - reach) / spacing[a]) for a in range(3)]
        end = [math.ceil((center[a] + reach) / spacing[a]) + 1 for a in range(3)]
        box = tuple(slice(max(0, f), min(d, e)) for f, e, d in zip(first, end, dims))
        yield first, end, box, center, rot @ np.diag(1.0 / widths**2) @ rot.T, amp


def einsum_quadratic_form(offsets, prec):
    """d^T prec d by np.einsum over the stacked meshgrid of per-axis offsets."""
    d = np.stack(np.meshgrid(*offsets, indexing="ij"), axis=-1)
    return np.einsum("...i,ij,...j->...", d, prec, d)


def einsum_phantom(seed, num_blobs, dims, spacing, width_range):
    """The oracle: make_phantom with each blob's quadratic form taken by
    einsum over a box-sized grid of offset vectors."""
    data = np.zeros(dims)
    axes = [np.arange(d) * float(s) for d, s in zip(dims, spacing)]
    for _, _, box, center, prec, amp in phantom_blobs(seed, num_blobs, dims, spacing, width_range):
        offsets = [ax[b] - c for ax, b, c in zip(axes, box, center)]
        data[box] += amp * np.exp(-0.5 * einsum_quadratic_form(offsets, prec))
    return data


def assert_same_bits(a, b):
    assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@settings(max_examples=150)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_blobs=st.integers(1, 6),
    dims=st.tuples(*[st.integers(1, 24)] * 3),
    spacing=st.tuples(*[st.floats(math.exp(-3), math.exp(3))] * 3),
    w_lo=st.floats(math.exp(-3), math.exp(3)),
    w_ratio=st.one_of(st.just(1.0), st.floats(1.0, math.exp(2))),
)
@example(seed=0, num_blobs=3, dims=(1, 2, 3), spacing=(1.0, 1.0, 1.0), w_lo=2.0, w_ratio=4.0)
@example(
    seed=1, num_blobs=2, dims=(9, 1, 8), spacing=(2.0**-64, 1.0, 2.0**64), w_lo=2.0**-64,
    w_ratio=2.0**64,
)
def test_phantom_equals_the_einsum_oracle(seed, num_blobs, dims, spacing, w_lo, w_ratio):
    # odd, even and 1-voxel axes, anisotropic spacings, lo = hi widths, and
    # boxes clipped at any face: summing per axis gives einsum's every bit
    width_range = (w_lo, w_lo * w_ratio)
    vol = make_phantom(seed, num_blobs, dims, spacing, width_range)
    assert_same_bits(vol.data, einsum_phantom(seed, num_blobs, dims, spacing, width_range))


def test_phantom_equals_the_einsum_oracle_on_blobs_clipped_at_every_face():
    args = (3, 12, (7, 10, 5), (1.0, 0.5, 2.0), (1.5, 3.0))
    clipped = set()
    for first, end, *_ in phantom_blobs(*args):
        clipped |= {(a, "lo") for a in range(3) if first[a] < 0}
        clipped |= {(a, "hi") for a in range(3) if end[a] > args[2][a]}
    assert len(clipped) == 6
    assert_same_bits(make_phantom(*args).data, einsum_phantom(*args))


@settings(max_examples=60)
@given(
    dims=st.tuples(*[st.integers(1, 20)] * 3),
    spacing=st.tuples(*[st.floats(0.25, 4.0)] * 3),
    center=st.tuples(*[st.floats(-10.0, 40.0)] * 3),
    widths=st.tuples(*[st.floats(0.5, 10.0)] * 3),
    rotvec=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
    amplitude=st.floats(-2.0, 2.0),
)
def test_gaussian_blob_equals_the_einsum_oracle(dims, spacing, center, widths, rotvec, amplitude):
    rot = matrix_from_rotvec(np.asarray(rotvec))
    vol = gaussian_blob(dims, spacing, center, widths, amplitude, rot)
    offsets = [np.arange(d) * s - c for d, s, c in zip(dims, spacing, center)]
    prec = rot @ np.diag(1.0 / np.asarray(widths) ** 2) @ rot.T
    assert_same_bits(vol.data, amplitude * np.exp(-0.5 * einsum_quadratic_form(offsets, prec)))


# SHA-256 of the little-endian C-order float64 bytes of the two benchmark
# phantoms (phantom64 and aniso128), as einsum formed them
@pytest.mark.parametrize(
    "dims, spacing, digest",
    [
        ((64, 64, 64), (1, 1, 1),
         "e447df7deb9efe6342522f1ac81d6b2c00feeb4eac0973ef8799f9fa4d5b3b59"),
        ((128, 128, 64), (1, 1, 2),
         "70b0037a7e044c80582b6005adb4e33f80ed47275b2ed177ca11bca5d650c5fe"),
    ],
)
def test_benchmark_phantoms_keep_their_bits(dims, spacing, digest):
    data = make_phantom(7, 40, dims, spacing).data
    assert hashlib.sha256(data.astype("<f8").tobytes(order="C")).hexdigest() == digest


@pytest.mark.parametrize("dims, spacing", [((64, 64, 64), (1, 1, 1)), ((128, 128, 64), (1, 1, 2))])
def test_phantom_peak_is_the_volume_and_three_boxes(dims, spacing):
    # the volume, and the largest blob's quadratic form, exponent and
    # exponential; a grid of offset vectors alone takes three more boxes
    blobs = phantom_blobs(7, 40, dims, spacing, (2, 8))
    box = max(math.prod(b.stop - b.start for b in blob[2]) for blob in blobs)
    tracemalloc.start()
    try:
        make_phantom(7, 40, dims, spacing)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * (math.prod(dims) + 3 * box) + 64 * 1024


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
