"""Rotation utilities and the similarity-transform algebra."""
from __future__ import annotations

import numpy as np
import pytest

from volkey.errors import RejectedInputError
from volkey.transforms import (
    Geometry,
    SimilarityTransform,
    is_rotation,
    matrix_from_rotvec,
    project_to_rotation,
    rotation_x,
    rotation_y,
    rotation_z,
    rotvec_from_matrix,
)


def test_axis_rotations_act_on_basis_vectors():
    np.testing.assert_allclose(rotation_z(np.pi / 2) @ [1, 0, 0], [0, 1, 0], atol=1e-15)
    np.testing.assert_allclose(rotation_x(np.pi / 2) @ [0, 1, 0], [0, 0, 1], atol=1e-15)
    np.testing.assert_allclose(rotation_y(np.pi / 2) @ [0, 0, 1], [1, 0, 0], atol=1e-15)


def test_rotvec_round_trip_random():
    rng = np.random.default_rng(3)
    for _ in range(200):
        v = rng.normal(size=3)
        v *= rng.uniform(0.0, np.pi - 1e-3) / np.linalg.norm(v)
        r = matrix_from_rotvec(v)
        assert is_rotation(r, tol=1e-12)
        np.testing.assert_allclose(rotvec_from_matrix(r), v, atol=1e-9)


def test_rotvec_stable_near_zero_and_pi():
    tiny = np.array([1e-9, -2e-9, 5e-10])
    np.testing.assert_allclose(rotvec_from_matrix(matrix_from_rotvec(tiny)), tiny, atol=1e-15)
    np.testing.assert_allclose(rotvec_from_matrix(np.eye(3)), np.zeros(3), atol=1e-15)
    rng = np.random.default_rng(4)
    for _ in range(50):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        v = axis * (np.pi - 1e-9)
        back = rotvec_from_matrix(matrix_from_rotvec(v))
        # near pi the axis sign is ambiguous; compare as rotations
        np.testing.assert_allclose(matrix_from_rotvec(back), matrix_from_rotvec(v), atol=1e-6)


def test_project_to_rotation_recovers_noisy_rotation():
    rng = np.random.default_rng(5)
    r = matrix_from_rotvec(rng.normal(size=3))
    noisy = r + 1e-8 * rng.normal(size=(3, 3))
    p = project_to_rotation(noisy)
    assert is_rotation(p, tol=1e-12)
    np.testing.assert_allclose(p, r, atol=1e-7)
    # exact rotations are fixed points
    np.testing.assert_allclose(project_to_rotation(r), r, atol=1e-14)


def test_stacked_rotation_utilities_match_single_calls():
    rng = np.random.default_rng(6)
    vecs = [rng.normal(size=3) for _ in range(20)]
    vecs += [1e-9 * rng.normal(size=3) for _ in range(5)]
    vecs += [a / np.linalg.norm(a) * (np.pi - 1e-7) for a in rng.normal(size=(5, 3))]
    mats = [matrix_from_rotvec(v) for v in vecs] + [np.diag([1.0, -1.0, -1.0]), np.eye(3)]
    stack = np.array(mats).reshape(4, 8, 3, 3)
    rotvecs = rotvec_from_matrix(stack)
    assert rotvecs.shape == (4, 8, 3)
    np.testing.assert_array_equal(rotvecs.reshape(-1, 3), [rotvec_from_matrix(m) for m in mats])
    noisy = stack + 0.1 * rng.normal(size=stack.shape)
    projected = project_to_rotation(noisy)
    assert projected.shape == (4, 8, 3, 3)
    np.testing.assert_array_equal(
        projected.reshape(-1, 3, 3), [project_to_rotation(m) for m in noisy.reshape(-1, 3, 3)]
    )


def test_is_rotation_rejects_reflections_and_scalings():
    assert is_rotation(np.eye(3))
    assert not is_rotation(np.diag([1.0, 1.0, -1.0]))
    assert not is_rotation(2.0 * np.eye(3))
    assert not is_rotation(np.full((3, 3), np.nan))
    assert not is_rotation(np.eye(4)[:3])


def test_apply_matches_direct_formula():
    rng = np.random.default_rng(6)
    r = matrix_from_rotvec(rng.normal(size=3))
    t = SimilarityTransform(rotation=r, scale=1.7, translation=[1.0, -2.0, 0.5])
    pts = rng.normal(size=(40, 3))
    expected = 1.7 * pts @ r.T + np.array([1.0, -2.0, 0.5])
    np.testing.assert_allclose(t.apply(pts), expected, atol=1e-12)
    # single point keeps its shape
    assert t.apply(pts[0]).shape == (3,)


def test_inverse_composes_to_identity():
    rng = np.random.default_rng(7)
    t = SimilarityTransform(
        rotation=matrix_from_rotvec(rng.normal(size=3)),
        scale=0.6,
        translation=rng.normal(size=3),
    )
    both = t.compose(t.inverse())
    np.testing.assert_allclose(both.rotation, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(both.scale, 1.0, atol=1e-12)
    np.testing.assert_allclose(both.translation, np.zeros(3), atol=1e-12)
    pts = rng.normal(size=(10, 3))
    np.testing.assert_allclose(t.inverse().apply(t.apply(pts)), pts, atol=1e-12)


def test_compose_applies_other_first():
    rng = np.random.default_rng(8)
    t1 = SimilarityTransform(
        rotation=matrix_from_rotvec(rng.normal(size=3)), scale=2.0, translation=rng.normal(size=3)
    )
    t2 = SimilarityTransform(
        rotation=matrix_from_rotvec(rng.normal(size=3)), scale=0.5, translation=rng.normal(size=3)
    )
    pts = rng.normal(size=(10, 3))
    np.testing.assert_allclose(t1.compose(t2).apply(pts), t1.apply(t2.apply(pts)), atol=1e-12)


def test_apply_to_geometry_maps_all_three_components():
    rng = np.random.default_rng(9)
    frame = matrix_from_rotvec(rng.normal(size=3))
    g = Geometry(x=[1.0, 2.0, 3.0], sigma=2.5, theta=frame)
    t = SimilarityTransform(
        rotation=rotation_z(0.3), scale=2.0, translation=[0.0, 1.0, 0.0]
    )
    out = t.apply_to_geometry(g)
    np.testing.assert_allclose(out.x, t.apply(g.x), atol=1e-14)
    assert out.sigma == pytest.approx(5.0)
    np.testing.assert_allclose(out.theta, rotation_z(0.3) @ frame, atol=1e-14)


def test_dict_round_trip():
    t = SimilarityTransform(rotation=rotation_y(0.4), scale=1.25, translation=[3.0, -1.0, 2.0])
    back = SimilarityTransform.from_dict(t.as_dict())
    np.testing.assert_array_equal(back.rotation, t.rotation)
    assert back.scale == t.scale
    np.testing.assert_array_equal(back.translation, t.translation)


def test_validation_rejects_bad_inputs():
    with pytest.raises(RejectedInputError):
        SimilarityTransform(rotation=np.diag([1.0, 1.0, -1.0]))
    with pytest.raises(RejectedInputError):
        SimilarityTransform(scale=0.0)
    with pytest.raises(RejectedInputError):
        SimilarityTransform(scale=-1.0)
    with pytest.raises(RejectedInputError):
        SimilarityTransform(translation=[np.inf, 0.0, 0.0])


def test_identity_is_neutral():
    t = SimilarityTransform.identity()
    pts = np.arange(12.0).reshape(4, 3)
    np.testing.assert_array_equal(t.apply(pts), pts)
