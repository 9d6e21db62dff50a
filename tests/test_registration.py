"""EM refinement: correspondence probabilities, the weighted fit, variants."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    EXTRACTION,
    Geometry,
    geometry_arrays,
    kernel_geometry,
    negated,
    solve_rigid,
    volume_center,
)
from volkey.descriptors import Feature, extract_features, feature_geometry
from volkey.errors import (
    DegenerateCorrespondenceError,
    DegenerateGeometryError,
    RejectedInputError,
)
from volkey.frames import Frame
from volkey.kernels import kernel_matrix
from volkey.keypoints import Keypoint
from volkey.registration import (
    RegistrationConfig,
    e_step,
    init_lambda_sq,
    register,
)
from volkey.synth import random_similarity
from volkey.transforms import (
    SimilarityTransform,
    fit_similarity,
    matrix_from_rotvec,
    rotvec_from_matrix,
)
from volkey.volume import resample


def _rand_geoms(rng, count, span=50.0):
    return [
        Geometry(
            x=rng.uniform(0.0, span, 3),
            sigma=float(rng.uniform(1.5, 6.0)),
            theta=matrix_from_rotvec(rng.normal(size=3)),
        )
        for _ in range(count)
    ]


def _rot_err_deg(r_est, r_true):
    return float(np.degrees(np.linalg.norm(rotvec_from_matrix(r_est @ r_true.T))))


def test_init_lambda_sq_hand_value():
    fixed = np.array([[0.0, 0.0, 0.0]])
    moving = np.array([[3.0, 0.0, 0.0]])
    assert init_lambda_sq(fixed, moving) == pytest.approx(3.0, abs=1e-15)


def test_init_lambda_sq_matches_brute_force():
    rng = np.random.default_rng(30)
    fixed = rng.uniform(0.0, 40.0, (10, 3))
    moving = rng.uniform(0.0, 40.0, (10, 3))
    total = 0.0
    for f in fixed:
        for m in moving:
            total += float((f - m) @ (f - m))
    expected = total / (3.0 * 10 * 10)
    assert init_lambda_sq(fixed, moving) == pytest.approx(expected, rel=1e-12)


def test_init_lambda_sq_rejects_empty():
    with pytest.raises(RejectedInputError):
        init_lambda_sq(np.zeros((0, 3)), np.zeros((5, 3)))


def test_e_step_single_pair_and_equidistant_split():
    cfg = RegistrationConfig(variant="cpd", w=0.0)
    g = Geometry(x=np.zeros(3), sigma=2.0, theta=np.eye(3))
    p = e_step(*geometry_arrays([g]), *geometry_arrays([g]), 4.0, cfg)
    np.testing.assert_allclose(p, [[1.0]], atol=1e-15)
    left = Geometry(x=np.array([-2.0, 0.0, 0.0]), sigma=2.0, theta=np.eye(3))
    right = Geometry(x=np.array([2.0, 0.0, 0.0]), sigma=2.0, theta=np.eye(3))
    p = e_step(*geometry_arrays([g]), *geometry_arrays([left, right]), 4.0, cfg)
    np.testing.assert_allclose(p, [[0.5], [0.5]], atol=1e-12)


def test_e_step_matches_scalar_oracle():
    rng = np.random.default_rng(31)
    lambda_sq = 7.0
    w = 0.3
    cfg = RegistrationConfig(variant="sift_cpd", w=w)
    fixed = _rand_geoms(rng, 5)
    moving = _rand_geoms(rng, 7)
    p = e_step(*geometry_arrays(fixed), *geometry_arrays(moving), lambda_sq, cfg)
    assert p.shape == (7, 5)
    eta = (2.0 * np.pi * lambda_sq) ** 1.5 * (w / (1.0 - w)) * (7 / 5)
    for n, gf in enumerate(fixed):
        nums = []
        for gm in moving:
            d = gm.x - gf.x
            nums.append(np.exp(-(d @ d) / (2.0 * lambda_sq)) * kernel_geometry(gf, gm, cfg.kernel))
        denom = sum(nums) + eta
        for m in range(7):
            assert p[m, n] == pytest.approx(nums[m] / denom, rel=1e-12, abs=1e-15)


def test_e_step_column_sums():
    rng = np.random.default_rng(32)
    fixed = _rand_geoms(rng, 6)
    moving = _rand_geoms(rng, 9)
    for w in (0.0, 0.1, 0.5, 0.9):
        for variant in ("cpd", "sift_cpd"):
            p = e_step(
                *geometry_arrays(fixed),
                *geometry_arrays(moving),
                5.0,
                RegistrationConfig(variant=variant, w=w),
            )
            sums = p.sum(axis=0)
            assert np.all(sums <= 1.0 + 1e-12)
            assert np.all(p >= 0.0)
            if w == 0.0:
                np.testing.assert_allclose(sums, 1.0, atol=1e-12)


def _e_step_linear(x_f, s_f, t_f, x_m, s_m, t_m, lambda_sq, config):
    """The E-step in linear space, with a separate w = 0 branch: the oracle."""
    m, n = x_m.shape[0], x_f.shape[0]
    diff = x_m[:, None, :] - x_f[None, :, :]
    dist_sq = np.einsum("mnd,mnd->mn", diff, diff)
    if config.variant == "cpd":
        kern = np.ones((m, n))
    else:
        kern = kernel_matrix(x_f, s_f, t_f, x_m, s_m, t_m, config.kernel)
    if config.w == 0.0:
        shifted = dist_sq - dist_sq.min(axis=0, keepdims=True)
        num = np.exp(-shifted / (2.0 * lambda_sq)) * kern
        denom = num.sum(axis=0, keepdims=True)
    else:
        num = np.exp(-dist_sq / (2.0 * lambda_sq)) * kern
        eta = (2.0 * np.pi * lambda_sq) ** 1.5 * (config.w / (1.0 - config.w)) * (m / n)
        denom = num.sum(axis=0, keepdims=True) + eta
    with np.errstate(invalid="ignore"):
        return np.where(denom > 0.0, num / np.where(denom > 0.0, denom, 1.0), 0.0)


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_fixed=st.integers(1, 8),
    n_moving=st.integers(1, 8),
    w=st.sampled_from([0.0, 1e-4, 0.3, 0.9]),
    variant=st.sampled_from(["cpd", "sift_cpd"]),
)
def test_e_step_at_vanishing_variance_matches_linear_oracle(seed, n_fixed, n_moving, w, variant):
    # distinct points on a 1 mm grid: every distance is at least 1 mm, so at
    # lambda^2 = 1e-300 the linear-space eta underflows while log eta does not
    rng = np.random.default_rng(seed)
    cells = rng.choice(40**3, n_fixed + n_moving, replace=False)
    points = np.stack(np.unravel_index(cells, (40, 40, 40)), axis=1).astype(float)
    geoms = [
        Geometry(x=x, sigma=rng.uniform(1.5, 6.0), theta=matrix_from_rotvec(rng.normal(size=3)))
        for x in points
    ]
    cfg = RegistrationConfig(variant=variant, w=w)
    args = (*geometry_arrays(geoms[:n_fixed]), *geometry_arrays(geoms[n_fixed:]), 1e-300, cfg)
    p = e_step(*args)
    np.testing.assert_allclose(p, _e_step_linear(*args), rtol=0.0, atol=1e-12)
    sums = p.sum(axis=0)
    if w == 0.0:
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)
    else:
        assert np.all(sums <= 1e-12)


def test_e_step_rejects_bad_variance(phantom_features):
    cfg = RegistrationConfig()
    geometry = feature_geometry(phantom_features[:3])
    with pytest.raises(RejectedInputError):
        e_step(*geometry, *geometry, 0.0, cfg)
    with pytest.raises(RejectedInputError):
        e_step(*geometry, *geometry, -1.0, cfg)


def test_solve_rigid_identity_and_known_transform():
    rng = np.random.default_rng(33)
    pts = rng.uniform(0.0, 30.0, (12, 3))
    t, lam = solve_rigid(pts, pts, np.eye(12))
    np.testing.assert_allclose(t.rotation, np.eye(3), atol=1e-12)
    assert t.scale == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(t.translation, 0.0, atol=1e-10)
    assert lam == pytest.approx(0.0, abs=1e-12)
    truth = SimilarityTransform(
        rotation=matrix_from_rotvec([0.2, -0.4, 0.1]),
        scale=1.3,
        translation=np.array([4.0, -2.0, 7.0]),
    )
    t2, _ = solve_rigid(truth.apply(pts), pts, np.eye(12))
    assert _rot_err_deg(t2.rotation, truth.rotation) < 1e-9
    assert t2.scale == pytest.approx(truth.scale, rel=1e-12)
    np.testing.assert_allclose(t2.translation, truth.translation, atol=1e-9)


def _umeyama_pairs(fixed, moving, p):
    """Textbook weighted similarity fit over the flattened pair list."""
    pairs_f, pairs_m, wts = [], [], []
    for mi in range(p.shape[0]):
        for ni in range(p.shape[1]):
            pairs_f.append(fixed[ni])
            pairs_m.append(moving[mi])
            wts.append(p[mi, ni])
    f = np.asarray(pairs_f)
    m = np.asarray(pairs_m)
    wts = np.asarray(wts)
    total = wts.sum()
    mu_f = (wts[:, None] * f).sum(axis=0) / total
    mu_m = (wts[:, None] * m).sum(axis=0) / total
    fc = f - mu_f
    mc = m - mu_m
    cov = (wts[:, None, None] * np.einsum("ki,kj->kij", fc, mc)).sum(axis=0)
    u, s, vt = np.linalg.svd(cov)
    d = np.sign(np.linalg.det(u @ vt))
    r = u @ np.diag([1.0, 1.0, d]) @ vt
    var_m = float((wts * np.einsum("ki,ki->k", mc, mc)).sum())
    b = float(np.trace(np.diag([1.0, 1.0, d]) @ np.diag(s))) / var_m
    t = mu_f - b * (r @ mu_m)
    return r, b, t


def test_solve_rigid_matches_pairwise_umeyama():
    rng = np.random.default_rng(34)
    for _ in range(50):
        fixed = rng.uniform(0.0, 30.0, (6, 3))
        moving = rng.uniform(0.0, 30.0, (8, 3))
        p = rng.uniform(0.0, 1.0, (8, 6))
        t, _ = solve_rigid(fixed, moving, p)
        r, b, tr = _umeyama_pairs(fixed, moving, p)
        np.testing.assert_allclose(t.rotation, r, atol=1e-9)
        assert t.scale == pytest.approx(b, rel=1e-9)
        np.testing.assert_allclose(t.translation, tr, atol=1e-9)


def test_solve_rigid_never_returns_reflection():
    rng = np.random.default_rng(35)
    for _ in range(100):
        moving = rng.uniform(0.0, 30.0, (7, 3))
        fixed = moving * np.array([-1.0, 1.0, 1.0])  # mirrored counterpart
        p = rng.uniform(0.0, 1.0, (7, 7))
        t, _ = solve_rigid(fixed, moving, p)
        assert np.linalg.det(t.rotation) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=100)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_fixed=st.integers(1, 12),
    n_moving=st.integers(3, 12),
)
def test_icp_pair_fit_equals_one_hot_solve_rigid(seed, n_fixed, n_moving):
    rng = np.random.default_rng(seed)
    fixed = rng.uniform(0.0, 50.0, (n_fixed, 3))
    moving = rng.uniform(0.0, 50.0, (n_moving, 3))
    nearest = rng.integers(0, n_fixed, n_moving)
    # the dense one-hot assignment ICP used to build on every iteration
    p = np.zeros((n_moving, n_fixed))
    p[np.arange(n_moving), nearest] = 1.0
    ones = np.ones(n_moving)
    try:
        expected, lam_expected = solve_rigid(fixed, moving, p)
    except DegenerateGeometryError:
        with pytest.raises(DegenerateGeometryError):
            fit_similarity(fixed[nearest], moving, ones, ones, moving)
        return
    t, lam = fit_similarity(fixed[nearest], moving, ones, ones, moving)
    np.testing.assert_allclose(t.rotation, expected.rotation, rtol=0.0, atol=1e-12)
    assert t.scale == pytest.approx(expected.scale, rel=1e-12)
    np.testing.assert_allclose(t.translation, expected.translation, rtol=0.0, atol=1e-12)
    assert lam == pytest.approx(lam_expected, rel=1e-12, abs=1e-12)


def test_solve_rigid_degenerate_inputs():
    pts = np.random.default_rng(36).uniform(0.0, 10.0, (5, 3))
    with pytest.raises(DegenerateCorrespondenceError):
        solve_rigid(pts, pts, np.zeros((5, 5)))
    line = np.outer(np.arange(5.0), np.array([1.0, 0.0, 0.0]))
    with pytest.raises(DegenerateGeometryError):
        solve_rigid(line, line, np.eye(5))


def test_self_registration_recovers_identity(phantom_features):
    res = register(phantom_features, phantom_features)
    assert _rot_err_deg(res.transform.rotation, np.eye(3)) < 1e-9
    assert np.linalg.norm(res.transform.translation) < 1e-9
    assert res.transform.scale == pytest.approx(1.0, abs=1e-12)
    assert res.converged
    assert res.iterations <= 10
    assert res.runtime > 0.0


def test_icp_self_registration(phantom_features):
    res = register(phantom_features, phantom_features, RegistrationConfig(variant="icp"))
    assert _rot_err_deg(res.transform.rotation, np.eye(3)) < 1e-9
    assert np.linalg.norm(res.transform.translation) < 1e-9
    assert res.converged


def test_icp_reports_an_unsettled_assignment(planted_pair):
    # one iteration from the vote's transform: no second assignment confirms the first
    fixed, moving, _ = planted_pair
    res = register(fixed, moving, RegistrationConfig(variant="icp", max_iterations=1))
    assert res.iterations == 1
    assert _rot_err_deg(res.init.t_star.rotation, np.eye(3)) > 1.0
    assert not res.converged


def test_planted_transform_all_variants(phantom_features, planted_pair):
    fixed, moving, t_true = planted_pair
    for variant, w, rot_tol, trans_tol, scale_tol in (
        ("sift_cpd", 1e-4, 0.5, 1.0, 0.02),
        ("cpd", 1e-4, 1.0, 2.0, 0.02),
        ("sift_cpd_star", 0.1, 0.5, 1.0, 0.02),
        ("icp", 0.1, 2.5, 2.5, 0.06),
    ):
        res = register(fixed, moving, RegistrationConfig(variant=variant, w=w))
        assert _rot_err_deg(res.transform.rotation, t_true.rotation) < rot_tol, variant
        err = np.linalg.norm(res.transform.translation - t_true.translation)
        assert err < trans_tol, variant
        assert res.transform.scale == pytest.approx(1.0, abs=scale_tol), variant


def test_negated_moving_registers_identically(phantom, phantom_features, planted_pair):
    fixed, moving, t_true = planted_pair
    tgt = t_true.inverse()
    flipped = extract_features(negated(resample(phantom, tgt)), EXTRACTION)
    base = register(fixed, moving, RegistrationConfig(w=1e-4))
    res = register(fixed, flipped, RegistrationConfig(w=1e-4))
    assert _rot_err_deg(res.transform.rotation, t_true.rotation) < 0.5
    assert np.linalg.norm(res.transform.translation - t_true.translation) < 1.0
    assert len(res.init.inliers) >= 0.8 * len(base.init.inliers)


def test_lambda_history_shrinks(planted_pair):
    fixed, moving, _ = planted_pair
    res = register(fixed, moving, RegistrationConfig(w=1e-4))
    history = res.lambda_sq_history
    assert len(history) == res.iterations
    assert all(h >= 0.0 for h in history)
    assert history[-1] <= history[0]
    assert res.converged


def test_initialization_invariance(phantom_features, planted_pair):
    fixed, moving, _ = planted_pair
    extra = SimilarityTransform(
        rotation=matrix_from_rotvec([0.3, 0.1, -0.2]),
        scale=1.2,
        translation=np.array([5.0, -8.0, 3.0]),
    )
    relocated = [
        Feature(
            keypoint=Keypoint(
                x=extra.apply(f.keypoint.x),
                sigma=f.keypoint.sigma * extra.scale,
                sign=f.keypoint.sign,
                response=f.keypoint.response,
            ),
            frame=Frame(extra.rotation @ f.frame.matrix),
            descriptors=f.descriptors,
            border=f.keypoint.border,
        )
        for f in moving
    ]
    t1 = register(fixed, moving, RegistrationConfig(w=1e-4)).transform
    t2 = register(fixed, relocated, RegistrationConfig(w=1e-4)).transform
    probes = np.random.default_rng(37).uniform(0.0, 63.0, (20, 3))
    gap = np.linalg.norm(t1.apply(probes) - t2.apply(extra.apply(probes)), axis=1)
    assert gap.max() < 0.5


def test_registration_config_validation():
    with pytest.raises(RejectedInputError):
        RegistrationConfig(variant="banana")
    with pytest.raises(RejectedInputError):
        RegistrationConfig(w=-0.1)
    with pytest.raises(RejectedInputError):
        RegistrationConfig(w=1.0)
    with pytest.raises(RejectedInputError):
        RegistrationConfig(max_iterations=0)
    with pytest.raises(RejectedInputError):
        RegistrationConfig(lambda_sq_floor=0.0)
