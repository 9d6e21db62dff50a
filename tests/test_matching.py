"""Descriptor matching and transform clustering for initialization."""
from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    EXTRACTION,
    Geometry,
    apply_to_geometry,
    negated,
    pair_table,
)
from volkey import matching
from volkey.descriptors import NUM_BINS, Descriptor, Feature, extract_features
from volkey.errors import InitializationFailureError, RejectedInputError
from volkey.frames import STATE_SIGNS, Frame
from volkey.keypoints import Keypoint
from volkey.matching import (
    HoughParams,
    consistency_mask,
    hough_init,
    match_features,
)
from volkey.transforms import (
    SimilarityTransform,
    matrix_from_rotvec,
    rotvec_from_matrix,
)

T_TRUE = SimilarityTransform(
    rotation=matrix_from_rotvec(np.radians(18.0) * np.array([0.3, -0.5, 0.81]) / 1.0),
    scale=1.1,
    translation=np.array([6.0, -4.0, 9.0]),
)


def _rand_geom(rng, span=60.0):
    return Geometry(
        x=rng.uniform(0.0, span, 3),
        sigma=float(rng.uniform(1.5, 6.0)),
        theta=matrix_from_rotvec(rng.normal(size=3)),
    )


def _planted_pairs(rng, t_true, n_in=30, n_out=70, jitter=True):
    """(moving, fixed) geometry pairs agreeing on t_true, diluted with random pairings."""
    pairs = []
    for i in range(n_in):
        g_mov = _rand_geom(rng)
        g_fix = apply_to_geometry(t_true, g_mov)
        if jitter:
            g_mov = Geometry(
                x=g_mov.x + rng.normal(0.0, 0.2, 3),
                sigma=g_mov.sigma * float(np.exp(rng.normal(0.0, 0.02))),
                theta=matrix_from_rotvec(rng.normal(0.0, np.radians(1.0) / np.sqrt(3.0), 3))
                @ g_mov.theta,
            )
        pairs.append((g_mov, g_fix))
    for i in range(n_out):
        pairs.append((_rand_geom(rng), _rand_geom(rng)))
    return pairs


def _planted_matches(*args, **kwargs):
    return pair_table(_planted_pairs(*args, **kwargs))


def _rot_err_deg(r_est, r_true):
    return float(np.degrees(np.linalg.norm(rotvec_from_matrix(r_est @ r_true.T))))


def test_self_match_is_identity(phantom_features):
    matches = match_features(phantom_features, phantom_features)
    assert len(matches) == len(phantom_features)
    for n, m in enumerate(matches):
        assert m.fixed_index == n
        assert m.moving_index == n
        assert m.moving_state == 0
        assert m.descriptor_distance == 0.0


def test_contrast_flip_matches_on_parity_state(phantom, phantom_features):
    flipped = extract_features(negated(phantom), EXTRACTION)
    matches = match_features(phantom_features, flipped)
    for n, m in enumerate(matches):
        assert m.moving_index == n
        assert m.moving_state == 3
        assert m.descriptor_distance == 0.0


def test_match_selects_best_state():
    rng = np.random.default_rng(23)
    target = rng.permutation(NUM_BINS).astype(np.int16)
    far = ((target.astype(int) + 32) % NUM_BINS).astype(np.int16)

    def make(ranks_by_state):
        kp = Keypoint(x=np.zeros(3), sigma=2.0, sign=1, response=1.0)
        return Feature(
            keypoint=kp,
            frame=Frame(np.eye(3)),
            descriptors=[Descriptor(bins=None, ranked=r.copy()) for r in ranks_by_state],
            border=False,
        )

    fixed = [make([target, far, far, far])]
    moving = [make([far, far, target, far])]
    (m,) = match_features(fixed, moving)
    assert m.moving_index == 0
    assert m.moving_state == 2
    assert m.descriptor_distance == 0.0


def test_match_rejects_empty_inputs(phantom_features):
    with pytest.raises(RejectedInputError):
        match_features([], phantom_features)
    with pytest.raises(RejectedInputError):
        match_features(phantom_features, [])


def _votes(pairs):
    """Vote columns (rotation, scale, translation) of the match table of
    (moving, fixed) Geometry pairs."""
    table = pair_table(pairs)
    return table.rotation, table.scale, table.translation


def test_match_table_votes_simple_cases():
    g = Geometry(x=np.array([1.0, 2.0, 3.0]), sigma=2.0, theta=np.eye(3))
    (r,), (b,), (t,) = _votes([(g, g)])
    np.testing.assert_allclose(r, np.eye(3), atol=1e-12)
    assert b == pytest.approx(1.0)
    np.testing.assert_allclose(t, 0.0, atol=1e-12)
    doubled = Geometry(x=np.array([5.0, 5.0, 5.0]), sigma=4.0, theta=np.eye(3))
    _, (b2,), (t2,) = _votes([(g, doubled)])
    assert b2 == pytest.approx(2.0)
    np.testing.assert_allclose(t2, doubled.x - 2.0 * g.x, atol=1e-12)


def test_match_table_votes_round_trip():
    rng = np.random.default_rng(24)
    pairs = [(_rand_geom(rng), _rand_geom(rng)) for _ in range(50)]
    stacked = _votes(pairs)
    for k, (src, dst) in enumerate(pairs):
        single = [a[0] for a in _votes([(src, dst)])]
        for a, b in zip(stacked, single):
            np.testing.assert_array_equal(a[k], b)
        t = SimilarityTransform(*single)
        mapped = apply_to_geometry(t, src)
        np.testing.assert_allclose(mapped.x, dst.x, atol=1e-9)
        assert mapped.sigma == pytest.approx(dst.sigma, rel=1e-12)
        np.testing.assert_allclose(mapped.theta, dst.theta, atol=1e-12)


def test_hough_recovers_planted_transform():
    matches = _planted_matches(np.random.default_rng(21), T_TRUE)
    res = hough_init(matches)
    assert _rot_err_deg(res.t_star.rotation, T_TRUE.rotation) < 2.0
    assert np.linalg.norm(res.t_star.translation - T_TRUE.translation) < 2.0
    planted = {m.fixed_index for m in res.inliers if m.fixed_index < 30}
    admitted_outliers = {m.fixed_index for m in res.inliers if m.fixed_index >= 30}
    assert len(planted) >= 25
    assert not admitted_outliers
    assert len(res.inliers) >= 3


def test_hough_exact_consensus_is_sharp():
    matches = _planted_matches(np.random.default_rng(22), T_TRUE, n_in=12, n_out=0, jitter=False)
    res = hough_init(matches)
    assert _rot_err_deg(res.t_star.rotation, T_TRUE.rotation) < 1e-9
    np.testing.assert_allclose(res.t_star.translation, T_TRUE.translation, atol=1e-9)
    assert res.t_star.scale == pytest.approx(T_TRUE.scale, rel=1e-12)
    assert len(res.inliers) == 12


def test_hough_swapped_matches_give_inverse():
    forward = _planted_pairs(np.random.default_rng(25), T_TRUE, n_in=12, n_out=0, jitter=False)
    backward = pair_table([(g_fix, g_mov) for g_mov, g_fix in forward])
    inv = T_TRUE.inverse()
    res = hough_init(backward)
    assert _rot_err_deg(res.t_star.rotation, inv.rotation) < 1e-9
    np.testing.assert_allclose(res.t_star.translation, inv.translation, atol=1e-9)


def test_hough_threshold_monotonicity():
    matches = _planted_matches(np.random.default_rng(21), T_TRUE)
    counts = []
    for eps in (1e-5, 0.05, 0.25, 1.0):
        try:
            counts.append(len(hough_init(matches, HoughParams(eps_disp=eps)).inliers))
        except InitializationFailureError:
            counts.append(0)
    assert counts == sorted(counts)


def test_hough_is_deterministic():
    a = hough_init(_planted_matches(np.random.default_rng(21), T_TRUE))
    b = hough_init(_planted_matches(np.random.default_rng(21), T_TRUE))
    np.testing.assert_array_equal(a.t_star.rotation, b.t_star.rotation)
    np.testing.assert_array_equal(a.t_star.translation, b.t_star.translation)
    assert a.t_star.scale == b.t_star.scale
    assert [m.fixed_index for m in a.inliers] == [m.fixed_index for m in b.inliers]


def test_hough_failure_modes():
    rng = np.random.default_rng(26)
    with pytest.raises(InitializationFailureError):
        hough_init(_planted_matches(rng, T_TRUE, n_in=2, n_out=0))
    for seed in (30, 31, 32):
        scattered = _planted_matches(np.random.default_rng(seed), T_TRUE, n_in=0, n_out=12)
        with pytest.raises(InitializationFailureError):
            hough_init(scattered)


def _random_features(rng, count, pool):
    """Features whose state ranks come from a small pool, so distances tie often."""
    features = []
    for _ in range(count):
        kp = Keypoint(
            x=rng.uniform(0.0, 50.0, 3), sigma=float(rng.uniform(1.5, 6.0)), sign=1, response=1.0
        )
        frame = Frame(matrix_from_rotvec(rng.normal(size=3)))
        descriptors = [Descriptor(bins=None, ranked=pool[i]) for i in rng.integers(0, len(pool), 4)]
        features.append(Feature(keypoint=kp, frame=frame, descriptors=descriptors))
    return features


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_fixed=st.integers(1, 9),
    n_moving=st.integers(1, 9),
    pool_size=st.integers(1, 6),
    permutations=st.booleans(),
    block_bytes=st.sampled_from([1, 8 * 4 * 3, 1 << 24]),
)
def test_match_table_equals_brute_force(
    seed, n_fixed, n_moving, pool_size, permutations, block_bytes
):
    rng = np.random.default_rng(seed)
    if permutations:
        pool = [rng.permutation(NUM_BINS) for _ in range(pool_size)]
    else:
        pool = [rng.integers(0, NUM_BINS, NUM_BINS) for _ in range(pool_size)]
    fixed = _random_features(rng, n_fixed, pool)
    moving = _random_features(rng, n_moving, pool)
    with mock.patch.object(matching, "_BLOCK_BYTES", block_bytes):
        table = match_features(fixed, moving)
    assert len(table) == n_fixed
    for n, f in enumerate(fixed):
        # per fixed row: the strictly smallest distance, first in (moving, state) order
        a = f.descriptors[0].ranked.astype(int)
        best = None
        for mi, g in enumerate(moving):
            for k, d in enumerate(g.descriptors):
                d2 = int(((a - d.ranked.astype(int)) ** 2).sum())
                if best is None or d2 < best[0]:
                    best = (d2, mi, k)
        d2, mi, k = best
        row = table[n]
        assert (row.fixed_index, row.moving_index, row.moving_state) == (n, mi, k)
        assert row.descriptor_distance == math.sqrt(d2)
        g = moving[mi]
        np.testing.assert_array_equal(row.fixed_x, f.keypoint.x)
        assert row.fixed_sigma == f.keypoint.sigma
        np.testing.assert_array_equal(row.moving_x, g.keypoint.x)
        assert row.moving_sigma == g.keypoint.sigma
        # the vote carries the matched moving geometry onto the fixed one
        vote = SimilarityTransform(row.rotation, row.scale, row.translation)
        mapped = apply_to_geometry(
            vote,
            Geometry(x=g.keypoint.x, sigma=g.keypoint.sigma, theta=g.frame.matrix @ STATE_SIGNS[k]),
        )
        np.testing.assert_allclose(mapped.x, f.keypoint.x, atol=1e-9)
        assert mapped.sigma == pytest.approx(f.keypoint.sigma, rel=1e-12)
        np.testing.assert_allclose(mapped.theta, f.frame.matrix, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_fixed=st.integers(1, 40),
    n_moving=st.integers(1, 40),
    pool_size=st.integers(1, 8),
    block_bytes=st.sampled_from([1, 4 * 4 * 5, 1 << 24]),
)
def test_float32_match_equals_a_float64_argmin(seed, n_fixed, n_moving, pool_size, block_bytes):
    # permutations drawn from a small pool tie rows across moving features
    # and states; the constant rows reach the largest a.b and |b|^2, 64 * 63^2
    rng = np.random.default_rng(seed)
    pool = [rng.permutation(NUM_BINS) for _ in range(pool_size)]
    pool += [np.full(NUM_BINS, NUM_BINS - 1), np.zeros(NUM_BINS, dtype=int)]
    fixed = _random_features(rng, n_fixed, pool)
    moving = _random_features(rng, n_moving, pool)
    with mock.patch.object(matching, "_BLOCK_BYTES", block_bytes):
        table = match_features(fixed, moving)
    a = np.array([f.descriptors[0].ranked for f in fixed], dtype=np.float64)
    b = np.array([d.ranked for g in moving for d in g.descriptors], dtype=np.float64)
    dist_sq = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    best = dist_sq.argmin(axis=1)  # the first minimum: lowest moving index, then state
    np.testing.assert_array_equal(table.moving_index * 4 + table.moving_state, best)
    np.testing.assert_array_equal(table.descriptor_distance, np.sqrt(dist_sq.min(axis=1)))
    assert table.descriptor_distance.dtype == np.float64


@pytest.mark.parametrize("bad", [-1, NUM_BINS, 255])
@pytest.mark.parametrize("side", ["fixed", "moving"])
def test_match_rejects_ranks_outside_the_bins(bad, side):
    # float32 is exact only over ranks 0..63; other int16 values are refused
    rng = np.random.default_rng(46)
    pool = [rng.permutation(NUM_BINS) for _ in range(3)]
    features = {"fixed": _random_features(rng, 4, pool), "moving": _random_features(rng, 5, pool)}
    features[side][-1].descriptors[0].ranked[7] = bad
    with pytest.raises(RejectedInputError, match="ranks"):
        match_features(features["fixed"], features["moving"])


def _is_consistent(m, t, params):
    """Scalar oracle: the per-match predicate, on one match record."""
    cos = np.einsum("ai,ai->i", m.rotation, t.rotation)
    if np.any(cos <= params.eps_cos):
        return False
    if abs(math.log(m.scale) - math.log(t.scale)) >= params.eps_log_scale:
        return False
    residual = t.apply(m.moving_x) - m.fixed_x
    norm = (t.scale * m.moving_sigma) * m.fixed_sigma
    return bool(residual @ residual < params.eps_disp * norm)


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 40),
    noise=st.floats(0.0, 1.0),
    eps_cos=st.floats(-1.0, 0.99),
    eps_log_scale=st.floats(1e-3, 1.0),
    eps_disp=st.floats(1e-3, 2.0),
)
def test_consistency_mask_equals_scalar_predicate(
    seed, count, noise, eps_cos, eps_log_scale, eps_disp
):
    rng = np.random.default_rng(seed)
    t = SimilarityTransform(
        rotation=matrix_from_rotvec(rng.normal(size=3)),
        scale=float(np.exp(rng.normal(0.0, 0.2))),
        translation=rng.uniform(-10.0, 10.0, 3),
    )
    pairs = []
    for _ in range(count):
        # votes spread from exact agreement with t to unrelated, per row
        g_mov = _rand_geom(rng)
        g_fix = apply_to_geometry(t, g_mov)
        level = noise * rng.uniform()
        g_fix = Geometry(
            x=g_fix.x + rng.normal(0.0, 5.0 * level, 3),
            sigma=g_fix.sigma * float(np.exp(rng.normal(0.0, level))),
            theta=matrix_from_rotvec(rng.normal(0.0, level, 3)) @ g_fix.theta,
        )
        pairs.append((g_mov, g_fix))
    table = pair_table(pairs)
    params = HoughParams(eps_cos=eps_cos, eps_log_scale=eps_log_scale, eps_disp=eps_disp)
    log_scales = np.array([math.log(s) for s in table.scale])
    mask = consistency_mask(table, log_scales, t, params)
    assert mask.tolist() == [_is_consistent(m, t, params) for m in table]
