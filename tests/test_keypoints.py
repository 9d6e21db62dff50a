"""Scale-space extremum detection on analytic blobs and phantoms."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gaussian_blob, negated
from volkey.errors import RejectedInputError
from volkey.keypoints import _newton_steps, detect_keypoints
from volkey.synth import make_phantom
from volkey.volume import ScalarVolume, build_scale_space


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


def test_rejects_negative_threshold(phantom_scale_space):
    with pytest.raises(RejectedInputError):
        detect_keypoints(phantom_scale_space, min_abs_response=-1.0)


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
    stack = rng.normal(size=shape)
    # from x = flat_from on the stack does not vary along z: there every
    # Hessian has a zero row, so the oracle's solve fails and the offset is 0
    stack[:, flat_from:] = stack[:, flat_from:, :, :1]
    at = np.stack([rng.integers(1, n - 1, count) for n in shape], axis=1).reshape(-1, 4)
    g, offset = _newton_steps(stack, at)
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
