"""Local orientation frames: estimators, sign states and invariances."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EXTRACTION, gaussian_blob, matrix_from_rotvec, negated
from volkey.descriptors import extract_features
from volkey.errors import AmbiguousFrameError, NoOrientationError, RejectedInputError
from volkey.frames import (
    MAX_WINDOW_FACTOR,
    STATE_SIGNS,
    Frame,
    _circle_scores,
    _frame_from_tensor,
    _window,
    enumerate_states,
    estimate_frame_max_gradient,
    estimate_frame_structure_tensor,
    icosphere_faces,
)
from volkey.keypoints import Keypoint, detect_keypoints
from volkey.transforms import SimilarityTransform, is_rotation, rotation_z
from volkey.volume import ScalarVolume, _nearest_level, build_scale_space, resample

#: worst-case angular resolution of the 320-face direction grid plus the
#: half-degree circle refinement, with headroom for interpolation noise
COARSE_DEG = 12.0


def _angle_deg(u, v):
    return float(np.degrees(np.arccos(np.clip(abs(float(u @ v)), -1.0, 1.0))))


def _aniso_setup():
    blob = gaussian_blob(widths=(2.0, 4.0, 8.0), center=(32.0, 32.0, 32.0))
    ss = build_scale_space(blob, num_octaves=3)
    return blob, ss, detect_keypoints(ss)[0]


def test_icosphere_face_grid():
    faces = icosphere_faces()
    assert faces.shape == (320, 3)
    np.testing.assert_allclose(np.linalg.norm(faces, axis=1), 1.0, atol=1e-12)
    # the grid is antipodally symmetric, which the sign logic relies on
    matched = np.isclose(np.abs(faces @ faces.T), 1.0, atol=1e-12).sum(axis=1)
    assert np.all(matched == 2)


def test_max_gradient_aligns_with_ramp():
    ax = np.arange(48.0)
    data = np.broadcast_to(ax[:, None, None], (48, 48, 48)).copy()
    vol = ScalarVolume((48, 48, 48), (1, 1, 1), (0, 0, 0), data)
    ss = build_scale_space(vol, num_octaves=2)
    kp = Keypoint(x=np.array([24.0, 24.0, 24.0]), sigma=2.0, sign=1, response=1.0)
    frame = estimate_frame_max_gradient(ss, kp)
    assert _angle_deg(frame.matrix[:, 0], np.array([1.0, 0.0, 0.0])) < COARSE_DEG
    # every gradient points along +x, so the disambiguated sign does too
    assert frame.matrix[0, 0] > 0.0


def test_estimators_on_anisotropic_blob():
    _, ss, kp = _aniso_setup()
    eye = np.eye(3)
    mg = estimate_frame_max_gradient(ss, kp)
    # steepest intensity change is along the narrowest blob axis
    assert _angle_deg(mg.matrix[:, 0], eye[0]) < COARSE_DEG
    st = estimate_frame_structure_tensor(ss, kp)
    for i in range(3):
        assert _angle_deg(st.matrix[:, i], eye[i]) < 5.0


def _covariance_deg(blob, ss, kp):
    """Worst axis angles (max_gradient, structure_tensor) between the frames
    of a 20-degree z-rotation of the blob and the rotated frames of kp."""
    r = rotation_z(np.radians(20.0))
    c = np.array([31.5, 31.5, 31.5])
    t = SimilarityTransform(rotation=r, translation=c - r @ c)
    ss_rot = build_scale_space(resample(blob, t), num_octaves=3)
    kp_rot = detect_keypoints(ss_rot)[0]
    np.testing.assert_allclose(kp_rot.x, t.apply(kp.x), atol=0.5)
    worst = []
    for estimate in (estimate_frame_max_gradient, estimate_frame_structure_tensor):
        want = r @ estimate(ss, kp).matrix
        got = estimate(ss_rot, kp_rot).matrix
        worst.append(max(_angle_deg(got[:, i], want[:, i]) for i in range(3)))
    return worst


def test_rotation_covariance_of_estimators():
    blob, ss, kp = _aniso_setup()
    mg, st = _covariance_deg(blob, ss, kp)
    assert mg < 15.0
    assert st < 5.0


def test_rotation_covariance_in_a_coarse_octave():
    # a wider blob whose keypoint samples octave 1 (2 mm voxels)
    blob = gaussian_blob(widths=(6.0, 9.0, 14.0), center=(32.0, 32.0, 32.0))
    ss = build_scale_space(blob, num_octaves=3)
    kp = detect_keypoints(ss)[0]
    assert _nearest_level(ss, kp.sigma)[0] == 1
    mg, st = _covariance_deg(blob, ss, kp)
    assert mg < 15.0
    assert st < 5.0


def test_extraction_commutes_with_origin_shift(phantom, phantom_features):
    # frames and descriptors sample at world points, so moving the volume's
    # origin moves every feature and changes nothing else
    shift = np.array([-40.0, 25.0, 10.0])
    shifted = ScalarVolume(phantom.dims, phantom.spacing, tuple(shift), phantom.data)
    moved = extract_features(shifted, EXTRACTION)
    assert len(moved) == len(phantom_features)
    for a, b in zip(phantom_features, moved):
        np.testing.assert_allclose(b.keypoint.x, a.keypoint.x + shift, rtol=0, atol=1e-9)
        np.testing.assert_allclose(b.frame.matrix, a.frame.matrix, rtol=0, atol=1e-9)
        for da, db in zip(a.descriptors, b.descriptors):
            np.testing.assert_array_equal(db.ranked, da.ranked)


def test_frame_from_tensor_axis_aligned():
    frame = _frame_from_tensor(np.diag([9.0, 4.0, 1.0]))
    np.testing.assert_array_equal(frame.matrix, np.eye(3))


def test_frame_from_tensor_recovers_rotated_basis():
    rng = np.random.default_rng(3)

    for _ in range(20):
        r = matrix_from_rotvec(rng.normal(size=3))
        tensor = r @ np.diag([9.0, 4.0, 1.0]) @ r.T
        frame = _frame_from_tensor(tensor)
        assert is_rotation(frame.matrix, tol=1e-9)
        for i in range(3):
            assert _angle_deg(frame.matrix[:, i], r[:, i]) < 1e-5
        # canonical sign: largest component of the two leading axes positive
        for i in range(2):
            col = frame.matrix[:, i]
            assert col[int(np.argmax(np.abs(col)))] > 0.0


def test_frame_from_tensor_rejects_degenerate_spectra():
    with pytest.raises(AmbiguousFrameError):
        _frame_from_tensor(np.diag([4.0, 4.0, 1.0]))
    with pytest.raises(NoOrientationError):
        _frame_from_tensor(np.zeros((3, 3)))


def test_isotropic_blob_has_no_tensor_frame():
    blob = gaussian_blob(widths=4.0, center=(32.0, 32.0, 32.0))
    ss = build_scale_space(blob, num_octaves=3)
    kp = detect_keypoints(ss)[0]
    with pytest.raises(AmbiguousFrameError):
        estimate_frame_structure_tensor(ss, kp)


def test_constant_volume_has_no_orientation():
    vol = ScalarVolume((16, 16, 16), (1, 1, 1), (0, 0, 0), np.ones((16, 16, 16)))
    ss = build_scale_space(vol, num_octaves=1)
    kp = Keypoint(x=np.array([8.0, 8.0, 8.0]), sigma=2.0, sign=1, response=1.0)
    with pytest.raises(NoOrientationError):
        estimate_frame_max_gradient(ss, kp)
    with pytest.raises(NoOrientationError):
        estimate_frame_structure_tensor(ss, kp)


@pytest.mark.parametrize("estimate", [estimate_frame_max_gradient, estimate_frame_structure_tensor])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_estimators_reject_non_finite_keypoints(estimate, bad):
    _, ss, kp = _aniso_setup()
    x = kp.x.copy()
    x[1] = bad
    with pytest.raises(RejectedInputError):
        estimate(ss, Keypoint(x=x, sigma=kp.sigma, sign=kp.sign, response=kp.response))


@pytest.mark.parametrize("estimate", [estimate_frame_max_gradient, estimate_frame_structure_tensor])
@pytest.mark.parametrize("factor", [np.nan, -1.0, 0.0, np.inf, 1e300, 1000.5, True, "1.5"])
def test_estimators_take_a_window_factor_in_the_config_range(estimate, factor):
    # NaN and -1.0 returned a frame, and 1e300 overflowed (window_factor sigma)^2
    _, ss, kp = _aniso_setup()
    with pytest.raises(RejectedInputError, match="window_factor"):
        estimate(ss, kp, window_factor=factor)
    wide = estimate(ss, kp, window_factor=MAX_WINDOW_FACTOR)
    assert is_rotation(wide.matrix)


def test_enumerate_states_signs_and_handedness():
    states = enumerate_states(Frame(np.eye(3)))
    assert [s.index for s in states] == [0, 1, 2, 3]
    np.testing.assert_array_equal(states[0].frame.matrix, np.eye(3))
    for k, state in enumerate(states):
        np.testing.assert_array_equal(state.frame.matrix, STATE_SIGNS[k])
        assert np.linalg.det(state.frame.matrix) == pytest.approx(1.0)
    rng = np.random.default_rng(4)

    base = Frame(matrix_from_rotvec(rng.normal(size=3)))
    for k, state in enumerate(enumerate_states(base)):
        np.testing.assert_array_equal(state.frame.matrix, base.matrix @ STATE_SIGNS[k])
        assert is_rotation(state.frame.matrix, tol=1e-9)


def test_state_set_closed_under_composition():
    # the four sign matrices form a group, so relabeling states permutes them
    mats = [np.diag(np.diag(s)) for s in STATE_SIGNS]
    for a in mats:
        for b in mats:
            prod = a @ b
            assert any(np.array_equal(prod, m) for m in mats)


def test_phantom_frames_are_rotations(phantom_features):
    assert len(phantom_features) >= 30
    for feat in phantom_features:
        assert is_rotation(feat.frame.matrix, tol=1e-9)
        for state in enumerate_states(feat.frame):
            assert np.linalg.det(state.frame.matrix) > 0.0


def test_structure_tensor_negation_invariance():
    blob, ss, kp = _aniso_setup()
    ss_neg = build_scale_space(negated(blob), num_octaves=3)
    pos = estimate_frame_structure_tensor(ss, kp)
    neg = estimate_frame_structure_tensor(ss_neg, kp)
    np.testing.assert_array_equal(pos.matrix, neg.matrix)


def test_max_gradient_negation_lands_on_parity_state(phantom, phantom_scale_space, phantom_features):
    # flipping contrast negates theta1 and theta2 while preserving theta3,
    # which is exactly state 3 of the original frame
    ss_neg = build_scale_space(negated(phantom), num_octaves=3)
    s3 = STATE_SIGNS[3]
    for feat in phantom_features:
        neg = estimate_frame_max_gradient(ss_neg, feat.keypoint)
        np.testing.assert_allclose(neg.matrix, feat.frame.matrix @ s3, atol=1e-9)


def _dense_ring(grads, weights, e1, e2):
    """Oracle: the windowed |projection| score at every 0.25 degree step of
    the half circle spanned by e1, e2, from one (K, 720) product."""
    alphas = np.arange(720) * (np.pi / 720)
    circle = np.cos(alphas)[:, None] * e1 + np.sin(alphas)[:, None] * e2
    return weights @ np.abs(grads @ circle.T)


@settings(max_examples=200)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(0, 200),
    zero=st.integers(0, 3),
    normal=st.integers(0, 3),
    a_zero=st.integers(0, 3),
    on_grid=st.lists(st.integers(0, 719), max_size=6),
)
def test_circle_sweep_equals_dense_ring(seed, count, zero, normal, a_zero, on_grid):
    rng = np.random.default_rng(seed)
    e1, e2, n = np.eye(3)
    # a random cloud plus zero rows, rows along the circle's normal (a = b = 0),
    # rows with a = 0, and rows whose sign flips on a grid angle
    t = np.array(on_grid) * (np.pi / 720)
    r = rng.normal(size=len(t))
    grads = np.concatenate(
        [
            rng.normal(size=(count, 3)) * rng.exponential(size=(count, 1)),
            np.zeros((zero, 3)),
            rng.normal(size=(normal, 1)) * n,
            rng.normal(size=(a_zero, 1)) * e2 + rng.normal(size=(a_zero, 1)) * n,
            np.stack([r * np.sin(t), -r * np.cos(t), rng.normal(size=len(t))], axis=1),
        ]
    )
    grads = rng.permutation(grads)
    weights = rng.random(len(grads))
    ring = _dense_ring(grads, weights, e1, e2)
    got = _circle_scores(grads @ e1, grads @ e2, weights)
    assert got.shape == (720,)
    np.testing.assert_allclose(got, ring, rtol=0, atol=1e-12 * ring.max(initial=0.0))
    second, top = np.sort(ring)[-2:]
    if top - second > 1e-9 * top:
        assert np.argmax(got) == np.argmax(ring)


@pytest.fixture(scope="module")
def wide_window():
    # sigma 5 on 1 mm voxels: a support ball of radius 15 voxels, K > 10^4
    blob = gaussian_blob(dims=(40, 40, 40), widths=(3.0, 5.0, 7.0), center=(20.0, 20.0, 20.0))
    ss = build_scale_space(blob, num_octaves=1)
    return ss, Keypoint(x=np.array([20.0, 20.0, 20.0]), sigma=5.0, sign=-1, response=-1.0)


def test_circle_search_memory_is_linear_in_the_window(wide_window):
    grads, weights = _window(*wide_window, 1.5)
    count = len(weights)
    assert count > 10_000
    a, b = grads[:, 0].copy(), grads[:, 1].copy()
    tracemalloc.start()
    try:
        _circle_scores(a, b, weights)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a handful of length-K temporaries; a dense (K, 720) ring takes 720 x 8 B
    # a sample for one array alone
    assert peak < 16 * 8 * count


def test_frame_holds_one_icosphere_array(wide_window):
    # the (K, 320) face projections take 2560 B a sample; the window itself
    # is a few hundred
    count = len(_window(*wide_window, 1.5)[1])
    tracemalloc.start()
    try:
        estimate_frame_max_gradient(*wide_window)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 320 * 8 * count
