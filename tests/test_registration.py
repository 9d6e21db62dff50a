"""EM refinement: correspondence probabilities, the weighted fit, variants."""
from __future__ import annotations

import dataclasses
import logging
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from conftest import (
    EXTRACTION,
    Geometry,
    geometry_arrays,
    geometry_set,
    geometry_sets,
    kernel_geometry,
    matrix_from_rotvec,
    negated,
    solve_rigid,
)
from volkey import descriptors, matching, registration
from volkey.descriptors import Feature, extract_features, stack_features
from volkey.errors import (
    DegenerateCorrespondenceError,
    DegenerateGeometryError,
    RejectedInputError,
)
from volkey.frames import Frame
from volkey.kernels import (
    KernelParams, kernel_matrix, kernel_rows, log_kernel_matrix, squared_distances,
)
from volkey.keypoints import Keypoint
from volkey.registration import (
    _ESTEP_BLOCK_PAIRS,
    BORDER_WEIGHT,
    RegistrationConfig,
    _check_estep,
    _init_lambda_sq,
    _kernel_ceiling,
    _kernel_sides,
    _posterior_sums,
    _tree_blocks,
    _unnormalized,
    e_step,
    register,
)
from volkey.transforms import SimilarityTransform, fit_similarity, rotvec_from_matrix
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
    assert _init_lambda_sq(fixed, moving) == pytest.approx(3.0, abs=1e-15)


def test_init_lambda_sq_matches_brute_force():
    rng = np.random.default_rng(30)
    fixed = rng.uniform(0.0, 40.0, (10, 3))
    moving = rng.uniform(0.0, 40.0, (10, 3))
    total = 0.0
    for f in fixed:
        for m in moving:
            total += float((f - m) @ (f - m))
    expected = total / (3.0 * 10 * 10)
    assert _init_lambda_sq(fixed, moving) == pytest.approx(expected, rel=1e-12)


def test_init_lambda_sq_rejects_empty():
    with pytest.raises(RejectedInputError):
        _init_lambda_sq(np.zeros((0, 3)), np.zeros((5, 3)))


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
# equidistant nearest moving features, which must split by their kernels
@example(seed=18, n_fixed=2, n_moving=2, w=0.0, variant="sift_cpd")
@example(seed=14, n_fixed=8, n_moving=8, w=0.0, variant="sift_cpd")
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
    stack = stack_features(phantom_features[:3])
    geometry = stack["x"], stack["sigma"], stack["frame"]
    with pytest.raises(RejectedInputError):
        e_step(*geometry, *geometry, 0.0, cfg)
    with pytest.raises(RejectedInputError):
        e_step(*geometry, *geometry, -1.0, cfg)
    # NaN, inf, 1e308, where 2 pi lambda^2 overflows, and the subnormal
    # 5e-324, where 1 / (2 lambda^2) does, would give NaN columns
    for lambda_sq in (np.nan, np.inf, 1e308, 5e-324):
        with pytest.raises(RejectedInputError):
            e_step(*geometry, *geometry, lambda_sq, cfg)


@pytest.mark.parametrize("variant", ["cpd", "sift_cpd"])
@pytest.mark.parametrize("w, expected", [(0.0, [[1.0], [0.0]]), (0.3, [[0.0], [0.0]])])
def test_e_step_at_the_smallest_normal_variance(variant, w, expected):
    # 100 and 120 mm away at lambda^2 = tiny: every location term overflows,
    # so the nearest feature takes a w = 0 column and the background a w > 0 one
    fixed = Geometry(x=np.zeros(3), sigma=2.0, theta=np.eye(3))
    near, far = (
        Geometry(x=np.array([d, 0.0, 0.0]), sigma=2.0, theta=np.eye(3)) for d in (100.0, 120.0)
    )
    cfg = RegistrationConfig(variant=variant, w=w)
    lambda_sq = np.finfo(float).tiny
    p = e_step(*geometry_arrays([fixed]), *geometry_arrays([near, far]), lambda_sq, cfg)
    np.testing.assert_array_equal(p, expected)


@pytest.mark.parametrize("variant", ["cpd", "sift_cpd"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("which", range(6))
def test_e_step_rejects_non_finite_geometry(phantom_features, variant, bad, which):
    # one non-finite location, scale or frame entry, fixed or moving, would
    # otherwise make its whole column NaN
    stack = stack_features(phantom_features[:3])
    args = [stack[k].copy() for k in ("x", "sigma", "frame") * 2]
    args[which].flat[1] = bad
    with pytest.raises(RejectedInputError):
        e_step(*args, 5.0, RegistrationConfig(variant=variant))


@settings(max_examples=150)
@given(
    fixed=geometry_sets,
    moving=geometry_sets,
    lambda_sq=st.one_of(st.floats(), st.sampled_from([5e-324, 2.3e-308, 1e300, 1e308, "1", None, True])),
    variant=st.sampled_from(["cpd", "sift_cpd"]),
)
# at the parent: ZeroDivisionError, a bare ValueError, IndexError, a
# UFuncTypeError and a RuntimeWarning
@example(fixed=geometry_set(1, 3, "empty"), moving=geometry_set(2), lambda_sq=4.0, variant="cpd")
@example(fixed=geometry_set(1), moving=geometry_set(2, 3, "empty"), lambda_sq=4.0, variant="cpd")
@example(fixed=geometry_set(1, 2, "shape", 0), moving=geometry_set(2), lambda_sq=4.0, variant="cpd")
@example(fixed=geometry_set(1), moving=geometry_set(2), lambda_sq="1", variant="sift_cpd")
@example(fixed=geometry_set(1, 3, "huge", 0), moving=geometry_set(2), lambda_sq=4.0, variant="cpd")
def test_e_step_contract(fixed, moving, lambda_sq, variant):
    # NaN, inf, 1e200, empty, wrong-shape and wrongly typed sets and
    # variances: columns of probabilities summing to at most 1, or
    # RejectedInputError
    (f, f_spoil), (m, m_spoil) = fixed, moving
    cfg = RegistrationConfig(variant=variant, w=0.1)
    # from the smallest normal float up to where 2 pi lambda^2 overflows
    lambda_ok = isinstance(lambda_sq, float) and lambda_sq >= np.finfo(float).tiny
    lambda_ok = lambda_ok and math.isfinite(2.0 * math.pi * lambda_sq)
    if f_spoil == m_spoil == "none" and lambda_ok:
        p = e_step(*f, *m, lambda_sq, cfg)
        assert p.shape == (len(m[1]), len(f[1]))
        assert np.isfinite(p).all() and (p >= 0.0).all()
        assert (p.sum(axis=0) <= 1.0 + 1e-12).all()
    else:
        with pytest.raises(RejectedInputError):
            e_step(*f, *m, lambda_sq, cfg)


def _random_geometry_arrays(rng, count, span=50.0):
    frames = np.linalg.qr(rng.normal(size=(count, 3, 3)))[0]
    return rng.uniform(0.0, span, (count, 3)), rng.uniform(1.5, 6.0, count), frames


@pytest.mark.parametrize("variant", ["cpd", "sift_cpd"])
@pytest.mark.parametrize("w", [0.0, 0.3])
def test_blocked_sums_equal_the_dense_sums(monkeypatch, variant, w):
    # 9 moving features and 63 pairs a block: 7 fixed columns a block, so 50
    # fixed features make 7 whole blocks and a ragged one of 1 column
    monkeypatch.setattr("volkey.registration._ESTEP_BLOCK_PAIRS", 63)
    rng = np.random.default_rng(38)
    fixed = _random_geometry_arrays(rng, 50)
    moving = _random_geometry_arrays(rng, 9)
    cfg = RegistrationConfig(variant=variant, w=w)
    p = e_step(*fixed, *moving, 40.0, cfg)
    # a block of columns under the whole set's background, scaled by its
    # column normalizers, is those columns of the dense P
    log_eta = _check_estep(fixed, moving, 40.0, cfg)
    fixed_k, moving_k = _kernel_sides(fixed, moving, cfg)
    block, inv, _ = _unnormalized(tuple(a[14:21] for a in fixed_k), moving_k, 40.0, log_eta, cfg)
    np.testing.assert_allclose(block * inv, p[:, 14:21], rtol=0.0, atol=1e-15)
    x_m = moving[0] + 3.0  # the fitted locations need not be the moved ones
    col, row, pm = _posterior_sums(fixed, moving, x_m, 40.0, cfg)
    for got, want in ((col, p.sum(axis=0)), (row, p.sum(axis=1)), (pm, p.T @ x_m)):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


U = 2.0**-53  # the float64 unit roundoff the culled E-step drops below


def _frames(rng, count, orthonormal):
    """Rotations, or rotations whose columns are scaled by 0.5 to 2, so the
    kernel ceiling kappa = -3 + sum of the largest axis-norm products is > 0."""
    q = np.linalg.qr(rng.normal(size=(count, 3, 3)))[0]
    return q if orthonormal else q * rng.uniform(0.5, 2.0, (count, 1, 3))


def _spy_unnormalized(monkeypatch):
    """Record the (fixed, moved) geometry of every _unnormalized call."""
    calls = []

    def spy(fixed, moved, *args):
        calls.append((fixed, moved))
        return _unnormalized(fixed, moved, *args)

    monkeypatch.setattr("volkey.registration._unnormalized", spy)
    return calls


def _assert_within_roundoff_bound(sums, p, x_m):
    """Culled sums against the dense P: a kept entry of P moves by at most
    about u relative, with its column normalizer, and a dropped one is at most
    u / M, plus 1e-12 for the sums' own rounding."""
    m, n = p.shape
    col, row, pm = sums
    bounds = (
        (col, p.sum(axis=0), 2.0 * U * p.sum(axis=0) + U),
        (row, p.sum(axis=1), 2.0 * U * p.sum(axis=1) + n * U / m),
        (pm, p.T @ x_m, 2.0 * U * (p.T @ np.abs(x_m)) + U * np.abs(x_m).max(axis=0)),
    )
    for got, want, bound in bounds:
        assert np.all(np.abs(got - want) <= bound + 1e-12)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_fixed=st.integers(20, 80),
    n_moving=st.integers(1, 30),
    moving_span=st.sampled_from([10.0, 50.0]),
    log10_lambda_sq=st.floats(-2.0, 4.0),
    w=st.sampled_from([0.0, 1e-4, 0.3]),
    variant=st.sampled_from(["cpd", "sift_cpd"]),
    orthonormal=st.booleans(),
)
# moving features in the lowest 10 mm corner: blocks far from it keep no row
@example(
    seed=3, n_fixed=80, n_moving=30, moving_span=10.0, log10_lambda_sq=-2.0, w=0.3,
    variant="sift_cpd", orthonormal=False,
)
def test_culled_sums_are_within_the_roundoff_bound(
    seed, n_fixed, n_moving, moving_span, log10_lambda_sq, w, variant, orthonormal
):
    rng = np.random.default_rng(seed)
    fixed, moving = (
        (rng.uniform(0.0, span, (count, 3)), rng.uniform(1.5, 6.0, count),
         _frames(rng, count, orthonormal))
        for count, span in ((n_fixed, 50.0), (n_moving, moving_span))
    )
    lambda_sq = 10.0**log10_lambda_sq
    cfg = RegistrationConfig(variant=variant, w=w)
    if variant != "cpd":
        dist_sq = squared_distances(moving[0], fixed[0])
        rows_f, rows_m = kernel_rows(*fixed[1:]), kernel_rows(*moving[1:], cfg.kernel)
        log_k = log_kernel_matrix(dist_sq, fixed[1], rows_f, moving[1], rows_m, cfg.kernel)
        assert log_k.max() <= _kernel_ceiling(fixed, moving, cfg) + 1e-12
    p = e_step(*fixed, *moving, lambda_sq, cfg)
    x_m = moving[0] + 3.0
    # 8 fixed columns a block, so every draw takes the culled path
    with mock.patch("volkey.registration._ESTEP_BLOCK_PAIRS", 8 * n_moving):
        sums = _posterior_sums(fixed, moving, x_m, lambda_sq, cfg)
    _assert_within_roundoff_bound(sums, p, x_m)


def test_culled_block_may_keep_no_moving_row(monkeypatch):
    # fixed features fill a 100 mm box, moving ones its lowest 10 mm corner:
    # at lambda^2 = 0.5 the far blocks see no moving row and are skipped
    calls = _spy_unnormalized(monkeypatch)
    monkeypatch.setattr("volkey.registration._ESTEP_BLOCK_PAIRS", 8 * 20)
    rng = np.random.default_rng(42)
    fixed = _random_geometry_arrays(rng, 200, span=100.0)
    moving = _random_geometry_arrays(rng, 20, span=10.0)
    cfg = RegistrationConfig(w=0.3)
    sums = _posterior_sums(fixed, moving, moving[0], 0.5, cfg)
    blocks = _tree_blocks(cKDTree(fixed[0]), 8)
    assert 0 < len(calls) < len(blocks)
    assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(200))
    _assert_within_roundoff_bound(sums, e_step(*fixed, *moving, 0.5, cfg), moving[0])


def test_one_block_sums_make_one_call_on_all_pairs(monkeypatch):
    calls = _spy_unnormalized(monkeypatch)
    rng = np.random.default_rng(43)
    fixed = _random_geometry_arrays(rng, 40)
    moving = _random_geometry_arrays(rng, 30)
    cfg = RegistrationConfig(w=0.3)
    _posterior_sums(fixed, moving, moving[0], 20.0, cfg)
    assert len(calls) == 1
    for got, want in zip(calls[0][0] + calls[0][1], sum(_kernel_sides(fixed, moving, cfg), ())):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("w", [0.0, 0.3])
def test_culled_sums_skip_the_far_pairs(monkeypatch, w):
    # 1000 x 1000 features in a 128 mm box at lambda^2 = 0.5 mm^2: r is about
    # 6.5 mm for w = 0.3, and infinite for w = 0, which has no background
    calls = _spy_unnormalized(monkeypatch)
    rng = np.random.default_rng(44)
    fixed = _random_geometry_arrays(rng, 1000, span=128.0)
    moving = _random_geometry_arrays(rng, 1000, span=128.0)
    _posterior_sums(fixed, moving, moving[0], 0.5, RegistrationConfig(w=w))
    pairs = sum(f[0].shape[0] * m[0].shape[0] for f, m in calls)
    if w == 0.0:
        assert pairs == 1000 * 1000
    else:
        assert pairs < 0.25 * 1000 * 1000


def test_background_beyond_roundoff_culls_every_pair(monkeypatch, planted_pair, caplog):
    # at lambda^2 = 1e13 mm^2 and w = 0.5 the background outweighs any pair
    # by more than 2^53, so r^2 <= 0 and no block keeps a moving row
    calls = _spy_unnormalized(monkeypatch)
    monkeypatch.setattr("volkey.registration._ESTEP_BLOCK_PAIRS", 64)
    rng = np.random.default_rng(45)
    fixed = _random_geometry_arrays(rng, 50)
    moving = _random_geometry_arrays(rng, 40)
    cfg = RegistrationConfig(w=0.5)
    col, row, pm = _posterior_sums(fixed, moving, moving[0], 1e13, cfg)
    assert not calls
    assert not col.any() and not row.any() and not pm.any()
    # register then stops on its degenerate-correspondence path at the init
    monkeypatch.setattr("volkey.registration._init_lambda_sq", lambda f, m: 1e13)
    fixed_features, moving_features, _ = planted_pair
    with caplog.at_level(logging.WARNING, logger="volkey.registration"):
        res = register(fixed_features, moving_features, cfg)
    assert not calls
    assert res.iterations == 0 and not res.converged
    np.testing.assert_array_equal(res.transform.rotation, res.init.t_star.rotation)
    np.testing.assert_array_equal(res.transform.translation, res.init.t_star.translation)
    assert len(caplog.records) == 1
    assert caplog.records[0].getMessage().startswith("EM stopped")


def test_em_sums_memory_is_bounded_per_block():
    # the whole 2000 x 2000 P and its kernel temporaries take over 400 MiB;
    # one 65-column block of them takes about 14 MiB
    rng = np.random.default_rng(39)
    fixed = _random_geometry_arrays(rng, 2000, span=128.0)
    moving = _random_geometry_arrays(rng, 2000, span=128.0)
    tracemalloc.start()
    try:
        col, row, pm = _posterior_sums(fixed, moving, moving[0], 100.0, RegistrationConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(col > 0.0) and np.all(row > 0.0)
    assert peak < 64 * 2**20


def test_em_sums_allocate_under_64_bytes_per_block_pair():
    # 1000 moving features: blocks of 131 fixed columns, 131,000 pairs each
    rng = np.random.default_rng(41)
    fixed = _random_geometry_arrays(rng, 1000, span=128.0)
    moving = _random_geometry_arrays(rng, 1000, span=128.0)
    block_pairs = (_ESTEP_BLOCK_PAIRS // 1000) * 1000
    tracemalloc.start()
    try:
        col, row, pm = _posterior_sums(fixed, moving, moving[0], 100.0, RegistrationConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(col > 0.0) and np.all(row > 0.0)
    assert peak <= 64 * block_pairs


def _per_block_log_kernel(dist_sq, s_f, t_f, s_m, t_m, params):
    """The log kernel as each block built it before the rows were shared:
    both sets' rows from the block's own scales and frames, and the flipped
    moving rows as their own (M, 12) array."""
    def rows(s, t, moving):
        log_s = np.log(s)
        if moving:
            scale = (-3.0 - log_s * log_s, 2.0 * log_s, -np.ones_like(log_s))
        else:
            scale = (np.ones_like(log_s), log_s, log_s * log_s)
        return np.concatenate([np.stack(scale, axis=1), t.transpose(0, 2, 1).reshape(-1, 9)], 1)

    rows_m, rows_f = rows(s_m, t_m, True), rows(s_f, t_f, False)
    scratch = None
    if params.use_orientation_states:
        flipped = rows_m * np.repeat([1.0, -1.0, 1.0, -1.0], 3)
        score = rows_m[:, :6] @ rows_f[:, :6].T
        scratch = rows_m[:, 6:] @ rows_f[:, 6:].T
        score += np.abs(scratch, out=scratch)
        other = flipped[:, :6] @ rows_f[:, :6].T
        np.matmul(flipped[:, 6:], rows_f[:, 6:].T, out=scratch)
        other += np.abs(scratch, out=scratch)
        np.maximum(score, other, out=score)
    else:
        score = rows_m @ rows_f.T
    bandwidth = np.multiply.outer(params.k * s_m, s_f, out=scratch)
    bandwidth += params.sigma_t_sq
    score -= np.divide(dist_sq, bandwidth, out=bandwidth)
    return score


def _per_block_unnormalized(fixed, moved, lambda_sq, log_eta, config):
    """_unnormalized on the block's (locations, scales, frames)."""
    (x_f, s_f, t_f), (x_m, s_m, t_m) = fixed, moved
    dist_sq = squared_distances(x_m, x_f)
    log_k = None
    if config.variant != "cpd":
        log_k = _per_block_log_kernel(dist_sq, s_f, t_f, s_m, t_m, config.kernel)
    d_min = dist_sq.min(axis=0)
    dist_sq -= d_min
    with np.errstate(over="ignore", divide="ignore"):
        dist_sq /= -2.0 * lambda_sq
        if config.w > 0.0:
            log_eta = log_eta + d_min / (2.0 * lambda_sq)
    log_num = dist_sq if log_k is None else np.add(log_k, dist_sq, out=log_k)
    top = log_num.max(axis=0)
    log_num -= np.maximum(top, log_eta)
    p = np.exp(log_num, out=log_num)
    col = p.sum(axis=0)
    inv = 1.0 / (col + np.exp(np.minimum(log_eta - top, 0.0)))
    col *= inv
    return p, inv, col


def _per_block_sums(fixed, moved, x_m, lambda_sq, config):
    """_posterior_sums with every block gathering the geometry and building
    its kernel rows itself: the formulation the shared rows must equal."""
    n, m = fixed[0].shape[0], x_m.shape[0]
    log_eta = _check_estep(fixed, moved, lambda_sq, config)
    if m * n <= _ESTEP_BLOCK_PAIRS:
        p, inv, col = _per_block_unnormalized(fixed, moved, lambda_sq, log_eta, config)
        return col, p @ inv, (p.T @ x_m) * inv[:, None]
    with np.errstate(over="ignore"):
        r_sq = 2.0 * lambda_sq * (
            _kernel_ceiling(fixed, moved, config) + np.log(m) - log_eta + 53.0 * np.log(2.0)
        )
    col, row, pm = np.zeros(n), np.zeros(m), np.zeros((n, 3))
    for cols in _tree_blocks(cKDTree(fixed[0]), min(64, max(1, _ESTEP_BLOCK_PAIRS // m))):
        x_b = fixed[0][cols]
        gap = moved[0] - np.clip(moved[0], x_b.min(axis=0), x_b.max(axis=0))
        rows = np.flatnonzero(np.einsum("ij,ij->i", gap, gap) < r_sq)
        if rows.size == 0:
            continue
        p, inv, col[cols] = _per_block_unnormalized(
            tuple(a[cols] for a in fixed), tuple(a[rows] for a in moved), lambda_sq, log_eta, config
        )
        row[rows] += p @ inv
        pm[cols] = (p.T @ x_m[rows]) * inv[:, None]
    return col, row, pm


@pytest.mark.parametrize(
    "variant, states, w",
    [
        ("cpd", True, 0.3), ("sift_cpd", True, 0.3), ("sift_cpd", False, 0.3),
        ("sift_cpd", True, 0.0),
    ],
)
@pytest.mark.parametrize("n_fixed, n_moving", [(500, 400), (40, 30)], ids=["culled", "one_block"])
def test_shared_kernel_rows_give_the_per_block_sums_bit_for_bit(
    variant, states, w, n_fixed, n_moving
):
    # rows built once per E-step and gathered per block are the rows each
    # block built, so every sum is bitwise the per-block formulation's
    rng = np.random.default_rng(46)
    fixed = _random_geometry_arrays(rng, n_fixed, span=128.0)
    x_m, s_m, _ = _random_geometry_arrays(rng, n_moving, span=128.0)
    moving = x_m, s_m, _frames(rng, n_moving, False)
    kernel = KernelParams(use_orientation_states=states)
    cfg = RegistrationConfig(variant=variant, w=w, kernel=kernel)
    fitted = x_m + 3.0
    for lambda_sq in (0.5, 20.0, 2000.0):
        got = _posterior_sums(fixed, moving, fitted, lambda_sq, cfg)
        want = _per_block_sums(fixed, moving, fitted, lambda_sq, cfg)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n_fixed, n_moving", [(500, 400), (40, 30)], ids=["culled", "one_block"])
def test_border_weights_scale_each_pair_of_p(n_fixed, n_moving):
    # weighted sums are those of the dense P with pair (m, n) scaled by
    # alpha_m alpha_n, within the culled path's bound; unit weights change no bit
    rng = np.random.default_rng(47)
    fixed = _random_geometry_arrays(rng, n_fixed, span=128.0)
    moving = _random_geometry_arrays(rng, n_moving, span=128.0)
    alphas = tuple(np.where(rng.random(n) < 0.3, BORDER_WEIGHT, 1.0) for n in (n_fixed, n_moving))
    ones = tuple(np.ones(n) for n in (n_fixed, n_moving))
    cfg = RegistrationConfig(w=0.3)
    x_m = moving[0] + 3.0
    for lambda_sq in (0.5, 20.0, 2000.0):
        p = e_step(*fixed, *moving, lambda_sq, cfg) * np.outer(alphas[1], alphas[0])
        _assert_within_roundoff_bound(
            _posterior_sums(fixed, moving, x_m, lambda_sq, cfg, alphas=alphas), p, x_m
        )
        got = _posterior_sums(fixed, moving, x_m, lambda_sq, cfg, alphas=ones)
        want = _posterior_sums(fixed, moving, x_m, lambda_sq, cfg)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()


def _without_border_flags(features):
    return [dataclasses.replace(f, border=False) for f in features]


def _same_result(a, b) -> bool:
    return (
        a.transform.rotation.tobytes() == b.transform.rotation.tobytes()
        and a.transform.scale == b.transform.scale
        and a.transform.translation.tobytes() == b.transform.translation.tobytes()
        and a.lambda_sq_history == b.lambda_sq_history
    )


@pytest.mark.parametrize("variant", ["sift_cpd", "sift_cpd_star"])
def test_border_weight_one_gives_the_unweighted_transform(planted_pair, variant):
    fixed, moving, _ = planted_pair
    assert any(f.border for f in fixed) and any(f.border for f in moving)
    cfg = RegistrationConfig(variant=variant, w=1e-4)
    flagless = register(_without_border_flags(fixed), _without_border_flags(moving), cfg)
    assert not _same_result(register(fixed, moving, cfg), flagless)
    with mock.patch.object(registration, "BORDER_WEIGHT", 1.0):
        assert _same_result(register(fixed, moving, cfg), flagless)


@pytest.mark.parametrize("variant", ["cpd", "icp"])
def test_border_flags_leave_cpd_and_icp_alone(planted_pair, variant):
    fixed, moving, _ = planted_pair
    cfg = RegistrationConfig(variant=variant, w=1e-4)
    flagless = register(_without_border_flags(fixed), _without_border_flags(moving), cfg)
    assert _same_result(register(fixed, moving, cfg), flagless)


def test_star_weighs_its_inliers_by_their_own_flags(planted_pair):
    fixed, moving, _ = planted_pair
    spy = mock.Mock(wraps=registration._posterior_sums)
    with mock.patch.object(registration, "_posterior_sums", spy):
        res = register(fixed, moving, RegistrationConfig(variant="sift_cpd_star", w=0.1))
        register(_without_border_flags(fixed), _without_border_flags(moving))
    alphas, flagless = spy.call_args_list[0].args[6], spy.call_args_list[-1].args[6]
    inliers = res.init.inliers
    for alpha, side, index in zip(alphas, (fixed, moving), (inliers.fixed_index, inliers.moving_index)):
        flags = [side[i].border for i in np.unique(index)]
        assert 0 < sum(flags) < len(flags)
        np.testing.assert_array_equal(alpha, np.where(flags, BORDER_WEIGHT, 1.0))
    assert flagless is None


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


def test_em_stops_at_the_lambda_sq_floor(phantom_features):
    # plain CPD of a set onto itself drives lambda^2 below the floor: EM stops
    # there, converged, where a lower floor lets one more iteration run
    cfg = RegistrationConfig(variant="cpd", w=1e-4)
    result = register(phantom_features, phantom_features, cfg)
    assert result.converged and result.iterations == len(result.lambda_sq_history) == 14
    assert result.lambda_sq_history[-1] <= cfg.lambda_sq_floor < result.lambda_sq_history[-2]
    lower = register(phantom_features, phantom_features, RegistrationConfig(
        variant="cpd", w=1e-4, lambda_sq_floor=np.finfo(float).tiny))
    assert lower.iterations == 15 and lower.lambda_sq_history[:14] == result.lambda_sq_history


def test_register_stacks_each_list_once(planted_pair):
    # matching and EM read one stack of each list, through either module's name
    fixed, moving, _ = planted_pair
    spy = mock.Mock(wraps=descriptors.stack_features)
    with mock.patch.object(registration, "stack_features", spy), \
            mock.patch.object(matching, "stack_features", spy):
        register(fixed, moving)
    (a,), (b,) = (c.args for c in spy.call_args_list)
    assert a is fixed and b is moving


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


def test_degenerate_stop_logs_only_its_own_warning(planted_pair, monkeypatch, caplog):
    fixed, moving, _ = planted_pair
    calls = []

    def fit_failing_third(*args):
        calls.append(args)
        if len(calls) == 3:
            raise DegenerateCorrespondenceError("no mass left")
        return fit_similarity(*args)

    monkeypatch.setattr("volkey.registration.fit_similarity", fit_failing_third)
    with caplog.at_level(logging.WARNING, logger="volkey.registration"):
        res = register(fixed, moving, RegistrationConfig(w=1e-4))
    assert res.iterations == 2
    assert not res.converged
    assert len(caplog.records) == 1
    assert caplog.records[0].getMessage().startswith("EM stopped")


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
    # types that would fail later, in range() or on attribute access
    for bad in (
        {"max_iterations": 2.5},
        {"max_iterations": True},
        {"kernel": None},
        {"hough": {}},
        {"w": None},
        {"variant": None},
        {"lambda_sq_floor": "1e-12"},
    ):
        with pytest.raises(RejectedInputError):
            RegistrationConfig(**bad)
    assert RegistrationConfig(max_iterations=np.int64(5), w=0).max_iterations == 5
    # below the smallest normal float, 1 / (2 lambda^2) overflows
    for floor in (0.0, 5e-324, np.finfo(float).tiny / 2.0):
        with pytest.raises(RejectedInputError):
            RegistrationConfig(lambda_sq_floor=floor)
    RegistrationConfig(lambda_sq_floor=np.finfo(float).tiny)
