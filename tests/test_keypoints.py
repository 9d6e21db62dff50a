"""Scale-space extremum detection on analytic blobs and phantoms."""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from conftest import dog, gaussian_blob, negated
from volkey.errors import RejectedInputError
from volkey.keypoints import (
    _GATHER_BLOCK,
    _NEIGHBORS,
    Keypoint,
    _newton_steps,
    _ring_maxima,
    detect_keypoints,
)
from volkey.synth import make_phantom
from volkey.volume import Octave, ScalarVolume, build_scale_space


def _blob_space(widths, center=(32.0, 32.0, 32.0), amplitude=1.0):
    return build_scale_space(gaussian_blob(widths=widths, center=center, amplitude=amplitude), num_octaves=3)


def test_constant_volume_has_no_keypoints():
    vol = ScalarVolume((16, 16, 16), (1, 1, 1), (0, 0, 0), np.full((16, 16, 16), 2.0))
    assert detect_keypoints(build_scale_space(vol, num_octaves=1)) == []


def test_single_blob_location_scale_and_sign():
    sb = 4.0
    kps = detect_keypoints(_blob_space(sb))
    assert len(kps) == 1
    kp = kps[0]
    np.testing.assert_allclose(kp.x, [32.0, 32.0, 32.0], atol=1.0)
    # a bright blob is a darker-than-surround extremum of the Laplacian
    assert kp.sign == -1
    assert kp.response < 0.0
    # normalized-Laplacian response of a Gaussian of width sb peaks near
    # sb * sqrt(2/3); locate the optimum by dense scan and compare
    s = np.linspace(0.5, 12.0, 20000)
    s_star = s[np.argmax(3.0 * s**2 * sb**3 / (sb**2 + s**2) ** 2.5)]
    assert s_star / 1.3 < kp.sigma < s_star * 1.3
    assert abs(kp.sigma / s_star - 1.0) < 0.05


def test_negated_volume_flips_signs_only():
    vol = gaussian_blob(widths=3.0, center=(26.0, 34.0, 30.0))
    pos = detect_keypoints(build_scale_space(vol, num_octaves=3))
    neg = detect_keypoints(build_scale_space(negated(vol), num_octaves=3))
    assert len(pos) == len(neg) > 0
    for a, b in zip(pos, neg):
        np.testing.assert_allclose(a.x, b.x, atol=1e-12)
        assert a.sigma == pytest.approx(b.sigma, abs=1e-12)
        assert a.response == pytest.approx(-b.response, abs=1e-12)
        assert a.sign == -b.sign


def test_translation_covariance_on_grid():
    ka = detect_keypoints(_blob_space(3.0, center=(28.0, 30.0, 26.0)))[0]
    kb = detect_keypoints(_blob_space(3.0, center=(33.0, 27.0, 34.0)))[0]
    np.testing.assert_allclose(kb.x - ka.x, [5.0, -3.0, 8.0], atol=1e-9)
    assert ka.sigma == pytest.approx(kb.sigma, abs=1e-9)
    assert ka.response == pytest.approx(kb.response, rel=1e-9)


def test_scale_covariance_between_octaves():
    k3 = detect_keypoints(_blob_space(3.0))[0]
    k6 = detect_keypoints(_blob_space(6.0))[0]
    assert 1.7 < k6.sigma / k3.sigma < 2.3


def test_min_abs_response_monotonicity(phantom_scale_space):
    all_kps = detect_keypoints(phantom_scale_space)
    assert len(all_kps) >= 30
    thresholds = [0.0, 1e-4, 1e-3, 1e-2]
    counts = []
    for thr in thresholds:
        kps = detect_keypoints(phantom_scale_space, min_abs_response=thr)
        counts.append(len(kps))
        assert all(abs(k.response) >= thr for k in kps)
        # thresholding keeps a prefix-free subset of the unfiltered list
        keys = {(tuple(k.x), k.sigma) for k in all_kps}
        assert all((tuple(k.x), k.sigma) in keys for k in kps)
    assert counts == sorted(counts, reverse=True)


def test_ordering_and_truncation(phantom_scale_space):
    kps = detect_keypoints(phantom_scale_space)
    mags = [abs(k.response) for k in kps]
    assert mags == sorted(mags, reverse=True)
    top = detect_keypoints(phantom_scale_space, max_count=10)
    assert len(top) == 10
    for a, b in zip(top, kps[:10]):
        np.testing.assert_allclose(a.x, b.x, atol=0)
        assert a.response == b.response


def test_keypoint_invariants(phantom_scale_space):
    ss = phantom_scale_space
    for kp in detect_keypoints(ss):
        assert kp.sign == int(np.sign(kp.response))
        assert ss.sigma_min / 2.0 < kp.sigma < ss.sigma_max * 2.0
        assert np.all(kp.x >= np.asarray(ss.source_origin) - 1.0)


def test_border_flag_near_volume_edge():
    center = detect_keypoints(_blob_space(3.0))[0]
    assert center.border is False
    edge = detect_keypoints(_blob_space(3.0, center=(6.0, 32.0, 32.0)))[0]
    assert edge.border is True


@settings(max_examples=80)
@given(
    floor=st.one_of(
        st.floats(max_value=-5e-324),
        st.sampled_from([math.nan, math.inf, np.float64(np.nan), np.float32(np.inf)]),
        st.booleans(),
        st.none(),
        st.text(max_size=3),
        st.complex_numbers(),
        st.lists(st.floats(0.0, 1.0), max_size=2),
    )
)
@example(floor=-1.0)
def test_rejects_a_response_floor_that_is_not_a_finite_nonnegative_real(phantom_scale_space, floor):
    # a NaN floor would keep every keypoint, and a string would raise TypeError
    with pytest.raises(RejectedInputError, match="min_abs_response"):
        detect_keypoints(phantom_scale_space, min_abs_response=floor)


@settings(max_examples=150)
@given(sigma=st.floats(), sign=st.one_of(st.integers(-3, 3), st.floats(), st.text(max_size=2)))
def test_keypoint_takes_a_positive_finite_scale_and_a_unit_sign(sigma, sign):
    if 0.0 < sigma < math.inf and (sign == 1 or sign == -1):
        kp = Keypoint(x=np.zeros(3), sigma=sigma, sign=sign, response=1.0)
        assert kp.sigma == sigma and kp.sign == sign and type(kp.sign) is int
    else:
        with pytest.raises(RejectedInputError, match="sigma|sign"):
            Keypoint(x=np.zeros(3), sigma=sigma, sign=sign, response=1.0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("x", [math.nan, 0.0, 0.0]), ("x", [0.0, math.inf, 0.0]), ("x", [0.0, 0.0, -math.inf]),
        ("x", [1.0, 2.0]), ("x", "abc"), ("x", None),
        ("sigma", "abc"), ("sigma", None), ("sigma", [2.0]), ("sigma", "2.0"),
        ("response", "abc"), ("response", None), ("response", [1.0]),
        ("sigma", True), ("sigma", np.True_), ("response", False), ("sign", True), ("sign", np.True_),
    ],
)
def test_keypoint_rejects_a_non_finite_location_and_non_numbers(field, value):
    # a NaN location was accepted; sigma "abc" or None raised a bare float() error,
    # and a bool stood for 1 or 0
    args = {"x": np.zeros(3), "sigma": 2.0, "sign": 1, "response": 1.0, field: value}
    with pytest.raises(RejectedInputError, match=field):
        Keypoint(**args)


def test_keypoint_takes_numpy_and_python_numbers():
    kp = Keypoint(x=[1, 2, 3], sigma=np.float32(2.5), sign=np.int64(-1), response=np.float64(-0.5))
    assert kp.x.tolist() == [1.0, 2.0, 3.0] and kp.x.dtype == float
    assert (kp.sigma, kp.sign, kp.response) == (2.5, -1, -0.5)
    assert type(kp.sigma) is float and type(kp.sign) is int and type(kp.response) is float


@pytest.mark.parametrize("max_count", [-1, 0, 2.5, True])
def test_rejects_max_count_that_is_not_a_positive_integer(phantom_scale_space, max_count):
    with pytest.raises(RejectedInputError, match="max_count"):
        detect_keypoints(phantom_scale_space, max_count=max_count)


def _quadratic_step(stack: np.ndarray, j: int, x: int, y: int, z: int):
    """Scalar oracle: gradient, Hessian and Newton offset of the 4D fit at one voxel.

    Offset order is (x, y, z, scale); spatial steps are one voxel, scale steps
    one pyramid interval.
    """
    d = stack
    g = np.array(
        [
            (d[j, x + 1, y, z] - d[j, x - 1, y, z]) / 2.0,
            (d[j, x, y + 1, z] - d[j, x, y - 1, z]) / 2.0,
            (d[j, x, y, z + 1] - d[j, x, y, z - 1]) / 2.0,
            (d[j + 1, x, y, z] - d[j - 1, x, y, z]) / 2.0,
        ]
    )
    c = d[j, x, y, z]
    h = np.empty((4, 4))
    h[0, 0] = d[j, x + 1, y, z] - 2 * c + d[j, x - 1, y, z]
    h[1, 1] = d[j, x, y + 1, z] - 2 * c + d[j, x, y - 1, z]
    h[2, 2] = d[j, x, y, z + 1] - 2 * c + d[j, x, y, z - 1]
    h[3, 3] = d[j + 1, x, y, z] - 2 * c + d[j - 1, x, y, z]
    h[0, 1] = h[1, 0] = (
        d[j, x + 1, y + 1, z] - d[j, x + 1, y - 1, z] - d[j, x - 1, y + 1, z] + d[j, x - 1, y - 1, z]
    ) / 4.0
    h[0, 2] = h[2, 0] = (
        d[j, x + 1, y, z + 1] - d[j, x + 1, y, z - 1] - d[j, x - 1, y, z + 1] + d[j, x - 1, y, z - 1]
    ) / 4.0
    h[1, 2] = h[2, 1] = (
        d[j, x, y + 1, z + 1] - d[j, x, y + 1, z - 1] - d[j, x, y - 1, z + 1] + d[j, x, y - 1, z - 1]
    ) / 4.0
    h[0, 3] = h[3, 0] = (
        d[j + 1, x + 1, y, z] - d[j + 1, x - 1, y, z] - d[j - 1, x + 1, y, z] + d[j - 1, x - 1, y, z]
    ) / 4.0
    h[1, 3] = h[3, 1] = (
        d[j + 1, x, y + 1, z] - d[j + 1, x, y - 1, z] - d[j - 1, x, y + 1, z] + d[j - 1, x, y - 1, z]
    ) / 4.0
    h[2, 3] = h[3, 2] = (
        d[j + 1, x, y, z + 1] - d[j + 1, x, y, z - 1] - d[j - 1, x, y, z + 1] + d[j - 1, x, y, z - 1]
    ) / 4.0
    try:
        offset = -np.linalg.solve(h, g)
    except np.linalg.LinAlgError:
        offset = np.zeros(4)
    return g, offset


@settings(max_examples=100)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(3, 5), st.integers(3, 7), st.integers(3, 7), st.integers(3, 7)),
    count=st.integers(0, 30),
    flat_from=st.integers(1, 7),
)
def test_batched_refinement_equals_scalar_oracle(seed, shape, count, flat_from):
    rng = np.random.default_rng(seed)
    levels = rng.normal(size=(shape[0] + 1, *shape[1:]))
    # from x = flat_from on the levels do not vary along z: there every
    # Hessian has a zero row, so the oracle's solve fails and the offset is 0
    levels[:, flat_from:] = levels[:, flat_from:, :, :1]
    stack = levels[1:] - levels[:-1]
    at = np.stack([rng.integers(1, n - 1, count) for n in shape], axis=1).reshape(-1, 4)
    g, offset = _newton_steps(levels, at)
    for i, (j, x, y, z) in enumerate(at):
        g_oracle, offset_oracle = _quadratic_step(stack, j, x, y, z)
        np.testing.assert_array_equal(g[i], g_oracle)
        np.testing.assert_array_equal(offset[i], offset_oracle)
        if x - 1 >= flat_from:
            np.testing.assert_array_equal(offset[i], 0.0)


@settings(max_examples=20)
@given(seed=st.integers(0, 2**32 - 1), num_blobs=st.integers(4, 12))
def test_negation_flips_only_signs_and_responses(seed, num_blobs):
    volume = make_phantom(seed, num_blobs, dims=(24, 24, 24), width_range=(1.5, 4.0))
    pos = detect_keypoints(build_scale_space(volume, num_octaves=2))
    neg = detect_keypoints(build_scale_space(negated(volume), num_octaves=2))
    assert len(pos) == len(neg)
    for a, b in zip(pos, neg):
        np.testing.assert_array_equal(a.x, b.x)
        assert (a.sigma, a.border) == (b.sigma, b.border)
        assert a.response == -b.response
        assert a.sign == -b.sign


def _footprint_maxima(mag):
    """Oracle: argwhere of the entries above the 80-neighbour footprint maximum."""
    footprint = np.ones((3, 3, 3, 3), dtype=bool)
    footprint[1, 1, 1, 1] = False
    neighbor_max = ndimage.maximum_filter(mag, footprint=footprint, mode="constant", cval=np.inf)
    return np.argwhere(mag > neighbor_max)


def _strict_maxima(mag: np.ndarray) -> np.ndarray:
    """Stacked oracle: argwhere of the interior entries of the whole |DoG|
    stack mag strictly above all 80 neighbours, by the same axis prefilter
    and 80-neighbour gather as the ring, over all layers at once."""
    core = (slice(1, -1),) * mag.ndim
    inner = mag[core]
    candidate = inner > 0.0
    for axis, size in enumerate(mag.shape):
        for lo in (0, 2):
            beside = core[:axis] + (slice(lo, lo + size - 2),) + core[axis + 1 :]
            candidate &= inner >= mag[beside]
    at = np.argwhere(candidate) + 1
    strict = np.empty(len(at), dtype=bool)
    for lo in range(0, len(at), _GATHER_BLOCK):
        block = at[lo : lo + _GATHER_BLOCK]
        around = mag[tuple((block[:, None, :] + _NEIGHBORS).T)]
        strict[lo : lo + _GATHER_BLOCK] = (around < mag[tuple(block.T)]).all(axis=0)
    return at[strict]


def _levels_with_dog(seed, stack):
    """Levels (n + 1, X, Y, Z) whose DoG is exactly the stack (n, X, Y, Z)
    of small multiples of 0.25."""
    levels = np.empty((len(stack) + 1, *stack.shape[1:]))
    levels[0] = np.random.default_rng(seed).integers(-8, 8, stack.shape[1:]) * 0.25
    for k, layer in enumerate(stack):
        levels[k + 1] = levels[k] + layer
    np.testing.assert_array_equal(dog(Octave(levels, [], 1.0, np.zeros(3))), stack)
    return levels


def _assert_ring_equals_stacked(seed, mag):
    """The ring detector's indices, gradients and offsets on levels whose
    |DoG| is mag equal the stacked path's, bit for bit."""
    stack = np.random.default_rng(seed).choice([-1.0, 1.0], mag.shape) * mag
    levels = _levels_with_dog(seed, stack)
    want = _footprint_maxima(mag)
    np.testing.assert_array_equal(_strict_maxima(mag), want)
    at = _ring_maxima(levels)
    assert at.shape == (len(want), 4)
    np.testing.assert_array_equal(at, want)
    g, offset = _newton_steps(levels, at)
    for i, (j, x, y, z) in enumerate(at):
        g_oracle, offset_oracle = _quadratic_step(stack, j, x, y, z)
        np.testing.assert_array_equal(g[i], g_oracle)
        np.testing.assert_array_equal(offset[i], offset_oracle)
    return at


@settings(max_examples=200)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(*[st.integers(3, 7)] * 4),
    levels=st.sampled_from((1, 4, 30, 100, 300)),
    floor=st.sampled_from((0, 1)),
    zero_from=st.integers(0, 8),
    spikes=st.integers(0, 20),
)
# one nonzero plateau of 18^3 candidates in one layer, with 300 spikes
@example(seed=5, shape=(3, 20, 20, 20), levels=1, floor=1, zero_from=20, spikes=300)
def test_prefiltered_maxima_equal_the_footprint_filter(
    seed, shape, levels, floor, zero_from, spikes
):
    # quantized values: plateaus and ties with a neighbour are common at few
    # levels, strict maxima at many; a zero floor leaves zero backgrounds,
    # and from x = zero_from every layer is zero
    rng = np.random.default_rng(seed)
    mag = (rng.integers(0, levels, shape) + floor) * 0.25
    at = rng.choice(mag.size, min(spikes, mag.size), replace=False)
    mag.flat[at] = rng.integers(levels + 1, levels + 4, len(at))
    mag[:, zero_from:] = 0.0
    _assert_ring_equals_stacked(seed, mag)


@pytest.mark.parametrize("levels", [1, 2])
def test_prefilter_confirms_many_candidates_in_blocks(levels):
    # nonzero plateaus hold more candidates in one layer than one gather
    # block; spikes, some of them tied with a neighbour, are the strict
    # maxima among them
    rng = np.random.default_rng(levels)
    mag = (rng.integers(0, levels, (5, 24, 24, 24)) + 1) * 0.25
    mag.flat[rng.choice(mag.size, 400, replace=False)] = rng.integers(8, 12, 400)
    assert np.sum(mag[1] >= ndimage.maximum_filter(mag, size=3)[1]) > _GATHER_BLOCK
    assert len(_assert_ring_equals_stacked(levels, mag)) > 0


def _detection_peak(ss):
    """tracemalloc peak of detect_keypoints on ss, and its keypoints."""
    tracemalloc.start()
    try:
        kps = detect_keypoints(ss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, kps


def test_detection_memory_is_three_dog_layers(phantom):
    # three |DoG| layers of V float64 entries, plus the prefilter's masks
    ss = build_scale_space(phantom, num_octaves=1)
    peak, kps = _detection_peak(ss)
    assert kps
    assert peak < 3.5 * ss.octaves[0].data[0].size * 8


def test_detection_memory_on_a_zero_background():
    # a truncated blob in the corner of a zero volume: |DoG| stays exactly 0
    # wherever the blur's taps reach no data, a plateau of non-candidates
    data = np.zeros((64, 64, 64))
    g = np.arange(24) - 11.5
    data[2:26, 2:26, 2:26] = np.exp(-(g[:, None, None] ** 2 + g[:, None] ** 2 + g**2) / 32.0)
    ss = build_scale_space(ScalarVolume((64, 64, 64), (1, 1, 1), (0, 0, 0), data), num_octaves=1)
    assert np.mean(dog(ss.octaves[0]) == 0.0) > 0.5
    peak, kps = _detection_peak(ss)
    assert kps
    # gathering neighbours at every zero would take ~500 B a voxel
    assert peak < 3.5 * ss.octaves[0].data[0].size * 8
