"""Descriptor matching and transform clustering for initialization."""
from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    EXTRACTION,
    Geometry,
    apply_to_geometry,
    matrix_from_rotvec,
    negated,
    pair_table,
)
from volkey import matching
from volkey.descriptors import NUM_BINS, Descriptor, Feature, extract_features
from volkey.errors import (
    DegenerateGeometryError,
    InitializationFailureError,
    RejectedInputError,
)
from volkey.frames import STATE_SIGNS, Frame
from volkey.keypoints import Keypoint
from volkey.matching import (
    MATCH_DTYPE,
    MAX_REFIT_ITERS,
    MAX_SEEDS,
    MAX_SHIFT_ITERS,
    HoughParams,
    hough_init,
    match_features,
)
from volkey.transforms import (
    SimilarityTransform,
    fit_similarity,
    project_to_rotation,
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


def test_seeds_stop_when_their_windows_repeat():
    # exact votes: each cell window is already its bandwidth window, so one
    # mean-shift step finds every window repeated
    matches = _planted_matches(np.random.default_rng(22), T_TRUE, n_in=12, n_out=20, jitter=False)
    with mock.patch.object(matching, "_in_bandwidth", wraps=matching._in_bandwidth) as step:
        hough_init(matches)
    assert step.call_count == 1


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
    block_bytes=st.sampled_from([1, 8 * 4 * 3, 1 << 24]),
)
def test_match_table_equals_brute_force(seed, n_fixed, n_moving, pool_size, block_bytes):
    rng = np.random.default_rng(seed)
    pool = [rng.permutation(NUM_BINS) for _ in range(pool_size)]
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
    # and states; 0..63 and its reverse reach the largest and smallest a.b
    rng = np.random.default_rng(seed)
    pool = [rng.permutation(NUM_BINS) for _ in range(pool_size)]
    pool += [np.arange(NUM_BINS), np.arange(NUM_BINS)[::-1]]
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


@pytest.mark.parametrize("bad", [-1, NUM_BINS, 255, "duplicate"])
@pytest.mark.parametrize("side", ["fixed", "moving"])
def test_match_rejects_ranks_outside_the_bins(bad, side):
    # the product is exact and its order that of the distance only over
    # permutations of 0..63; any other ranks are refused, a duplicate too
    rng = np.random.default_rng(46)
    pool = [rng.permutation(NUM_BINS) for _ in range(3)]
    features = {"fixed": _random_features(rng, 4, pool), "moving": _random_features(rng, 5, pool)}
    ranked = features[side][-1].descriptors[0].ranked
    ranked[7] = ranked[8] if bad == "duplicate" else bad
    last = len(features[side]) - 1
    with pytest.raises(
        RejectedInputError, match=f"^feature {last} ranks are not a permutation of 0..63$"
    ):
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


def _noisy_pairs(rng, t, count, noise):
    """(moving, fixed) pairs whose votes spread, row by row, from exact
    agreement with t (level 0) to unrelated (level near 1)."""
    pairs = []
    for _ in range(count):
        g_mov = _rand_geom(rng)
        g_fix = apply_to_geometry(t, g_mov)
        level = noise * rng.uniform()
        g_fix = Geometry(
            x=g_fix.x + rng.normal(0.0, 5.0 * level, 3),
            sigma=g_fix.sigma * float(np.exp(rng.normal(0.0, level))),
            theta=matrix_from_rotvec(rng.normal(0.0, level, 3)) @ g_fix.theta,
        )
        pairs.append((g_mov, g_fix))
    return pairs


def _rand_transform(rng):
    return SimilarityTransform(
        rotation=matrix_from_rotvec(rng.normal(size=3)),
        scale=float(np.exp(rng.normal(0.0, 0.2))),
        translation=rng.uniform(-10.0, 10.0, 3),
    )


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 40),
    candidates=st.integers(1, 6),
    noise=st.floats(0.0, 1.0),
    eps_cos=st.floats(-1.0, 0.99),
    eps_log_scale=st.floats(1e-3, 1.0),
    eps_disp=st.floats(1e-3, 2.0),
    block_bytes=st.sampled_from([1, 8 << 20]),
)
def test_consistency_mask_equals_scalar_predicate(
    seed, count, candidates, noise, eps_cos, eps_log_scale, eps_disp, block_bytes
):
    # C candidates at once, in one block or a row at a time: row c is the
    # scalar predicate of every vote under candidate c
    rng = np.random.default_rng(seed)
    ts = [_rand_transform(rng) for _ in range(candidates)]
    table = pair_table(_noisy_pairs(rng, ts[0], count, noise))
    params = HoughParams(eps_cos=eps_cos, eps_log_scale=eps_log_scale, eps_disp=eps_disp)
    log_scales = np.array([math.log(s) for s in table.scale])
    stacked = [(t.rotation, t.scale, t.translation) for t in ts]
    with mock.patch.object(matching, "_BLOCK_BYTES", block_bytes):
        masks = matching._consistent(table, log_scales, stacked, params)
    assert masks.shape == (candidates, count)
    for t, mask in zip(ts, masks):
        assert mask.tolist() == [_is_consistent(m, t, params) for m in table]


def _one_mode_window(rots, log_scales, trans, r_hat, ls_hat, t_hat, params):
    """One mode's mean-shift window over all votes, as the one-seed vote took it."""
    cos_ang = np.clip((np.einsum("kij,ij->k", rots, r_hat) - 1.0) / 2.0, -1.0, 1.0)
    return (
        (np.arccos(cos_ang) < params.rot_bin)
        & (np.abs(log_scales - ls_hat) < params.log_scale_bin)
        & (np.linalg.norm(trans - t_hat, axis=1) < params.trans_bin)
    )


@settings(max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 300),
    seeds=st.integers(1, 8),
    fill=st.floats(0.0, 1.0),
    noise=st.floats(0.0, 1.0),
    bins=st.tuples(st.floats(0.05, 1.0), st.floats(0.05, 1.0), st.floats(1.0, 40.0)),
    block_bytes=st.sampled_from([1, 8 << 20]),
)
def test_window_means_and_test_equal_one_seed_steps(
    seed, count, seeds, fill, noise, bins, block_bytes
):
    # each row of the stacked step is one seed's step: np.add.at and reduceat
    # after a leading 0.0 reproduce rots[w].mean(axis=0) (sequential sums) and
    # log_scales[w].mean() (pairwise), and each mode's window is its own test
    rng = np.random.default_rng(seed)
    table = pair_table(_noisy_pairs(rng, _rand_transform(rng), count, noise))
    rots, trans = np.ascontiguousarray(table.rotation), np.ascontiguousarray(table.translation)
    log_scales = np.array([math.log(s) for s in table.scale])
    windows = rng.random((seeds, count)) < fill
    windows[np.arange(seeds), rng.integers(count, size=seeds)] = True
    params = HoughParams(rot_bin=bins[0], log_scale_bin=bins[1], trans_bin=bins[2])
    with mock.patch.object(matching, "_BLOCK_BYTES", block_bytes):
        modes = matching._window_means(windows, rots, log_scales, trans)
        got = matching._in_bandwidth(rots, log_scales, trans, *modes, params)
    for k, w in enumerate(windows):
        r_hat, ls_hat, t_hat = (
            project_to_rotation(rots[w].mean(axis=0)), log_scales[w].mean(), trans[w].mean(axis=0)
        )
        np.testing.assert_array_equal(modes[0][k], r_hat)
        assert modes[1][k].hex() == ls_hat.hex()
        np.testing.assert_array_equal(modes[2][k], t_hat)
        expected = _one_mode_window(rots, log_scales, trans, r_hat, ls_hat, t_hat, params)
        np.testing.assert_array_equal(got[k], expected)


def _consistency_terms(matches, log_scales, t):
    """Per vote, one candidate's axis cosines, log-scale gap, squared residual
    and its scale norm, as the one-seed vote computed them."""
    cos = np.einsum("nai,ai->ni", np.ascontiguousarray(matches.rotation), t.rotation)
    moved = (t.rotation @ np.ascontiguousarray(matches.moving_x)[..., None])[..., 0]
    residual = t.scale * moved + t.translation - matches.fixed_x
    dist_sq = (residual[:, None, :] @ residual[:, :, None])[:, 0, 0]
    norm = (t.scale * matches.moving_sigma) * matches.fixed_sigma
    return cos, np.abs(log_scales - math.log(t.scale)), dist_sq, norm


def _consistency_oracle(matches, log_scales, t, params):
    """One candidate's consistency over all votes, as the one-seed vote took it."""
    cos, gap, dist_sq, norm = _consistency_terms(matches, log_scales, t)
    return (
        ~np.any(cos <= params.eps_cos, axis=1)
        & (gap < params.eps_log_scale)
        & (dist_sq < params.eps_disp * norm)
    )


def _endpoint_fit(matches, members):
    f, mv = matches.fixed_x[members], matches.moving_x[members]
    ones = np.ones(len(f))
    return fit_similarity(f, mv, ones, ones, mv)[0]


def _hough_oracle(matches, params):
    """The vote one seed and one candidate at a time: the scalar twin of
    hough_init, whose every window, mean and count it must equal bit for bit."""
    if len(matches) < 3:
        raise InitializationFailureError(f"need at least 3 matches, got {len(matches)}")
    rots = np.ascontiguousarray(matches.rotation)
    trans = matches.translation
    log_scales = np.array(list(map(math.log, matches.scale)))
    keys = np.column_stack(
        [
            np.floor(rotvec_from_matrix(rots) / params.rot_bin),
            np.floor(log_scales / params.log_scale_bin),
            np.floor(trans / params.trans_bin),
        ]
    ).astype(np.int64)
    _, cell_of, cell_size = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    candidates = []
    for cell in np.argsort(-cell_size, kind="stable")[:MAX_SEEDS]:
        window = np.flatnonzero(cell_of == cell)
        r_hat = project_to_rotation(rots[window].mean(axis=0))
        ls_hat = float(log_scales[window].mean())
        t_hat = trans[window].mean(axis=0)
        previous = None
        for _ in range(MAX_SHIFT_ITERS):
            inside = _one_mode_window(rots, log_scales, trans, r_hat, ls_hat, t_hat, params)
            window = np.flatnonzero(inside)
            if window.size == 0:
                break
            r_hat = project_to_rotation(rots[window].mean(axis=0))
            ls_hat = float(log_scales[window].mean())
            t_hat = trans[window].mean(axis=0)
            if previous is not None and np.array_equal(window, previous):
                break
            previous = window
        candidates.append(
            SimilarityTransform(rotation=r_hat, scale=math.exp(ls_hat), translation=t_hat)
        )
        if window.size >= 3:
            try:
                candidates.append(_endpoint_fit(matches, window))
            except (DegenerateGeometryError, RejectedInputError):
                pass
    masks = [_consistency_oracle(matches, log_scales, c, params) for c in candidates]
    counts = [int(mask.sum()) for mask in masks]
    if max(counts, default=0) < 3:
        raise InitializationFailureError("no transform cluster with >= 3 consistent votes")
    winner = int(np.argmax(counts))
    best, inliers = candidates[winner], masks[winner]
    for _ in range(MAX_REFIT_ITERS):
        if inliers.sum() < 3:
            break
        try:
            refit = _endpoint_fit(matches, inliers)
        except (DegenerateGeometryError, RejectedInputError):
            break
        new_inliers = _consistency_oracle(matches, log_scales, refit, params)
        if new_inliers.sum() < inliers.sum():
            break
        best = refit
        if np.array_equal(new_inliers, inliers):
            break
        inliers = new_inliers
    return best, matches[inliers]


def _outcome(vote, matches, params):
    """t_star's bits and the inlier rows, or that no cluster was found."""
    try:
        t, inliers = vote(matches, params)
    except InitializationFailureError:
        return "no cluster"
    bits = (t.rotation.tobytes(), float(t.scale).hex(), t.translation.tobytes())
    return bits, inliers.fixed_index.tolist()


def _hough(matches, params):
    result = hough_init(matches, params)
    return result.t_star, result.inliers


@settings(max_examples=80)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(3, 300),
    inlier_fraction=st.floats(0.0, 1.0),
    jitter=st.floats(0.0, 0.5),
    clusters=st.integers(1, 3),
    thresholds=st.fixed_dictionaries(
        {
            "eps_cos": st.floats(-0.5, 0.9),
            "eps_log_scale": st.floats(0.01, 1.0),
            "eps_disp": st.floats(0.05, 2.0),
            "rot_bin": st.floats(0.05, 1.0),
            "log_scale_bin": st.floats(0.05, 1.0),
            "trans_bin": st.floats(1.0, 40.0),
        }
    ),
    block_bytes=st.sampled_from([1, 8 << 20]),
)
def test_hough_equals_one_seed_oracle(
    seed, count, inlier_fraction, jitter, clusters, thresholds, block_bytes
):
    # planted clusters of agreeing votes among unrelated ones; past 64 cells
    # the seeds are capped at MAX_SEEDS, and ties between cells are common
    rng = np.random.default_rng(seed)
    n_in = round(inlier_fraction * count)
    pairs = []
    for c in range(clusters):
        share = n_in // clusters + (c < n_in % clusters)
        pairs += _planted_pairs(rng, _rand_transform(rng), n_in=share, n_out=0)
    pairs += [(_rand_geom(rng), _rand_geom(rng)) for _ in range(count - n_in)]
    pairs = [
        (Geometry(x=g.x + rng.normal(0.0, jitter, 3), sigma=g.sigma, theta=g.theta), f)
        for g, f in pairs
    ]
    order = rng.permutation(count)
    matches = pair_table([pairs[i] for i in order])
    params = HoughParams(**thresholds)
    with mock.patch.object(matching, "_BLOCK_BYTES", block_bytes):
        got = _outcome(_hough, matches, params)
    assert got == _outcome(_hough_oracle, matches, params)


def test_hough_equals_oracle_on_emptied_and_cycling_seeds():
    # Three clusters share scale and translation; B and C are turned 60
    # degrees from A about two axes.  Projecting A's window mean onto B's rotation and B's onto
    # A's makes their seeds alternate between the two windows up to
    # MAX_SHIFT_ITERS; projecting the mean of C, the largest cluster and one
    # cell, onto a rotation no vote is near empties its window at once, so C
    # offers no fit and A wins.  Neither happens on real votes.
    rng = np.random.default_rng(53)
    t_a = SimilarityTransform(T_TRUE.rotation, 1.0, T_TRUE.translation)

    def turned(rotvec):
        return SimilarityTransform(matrix_from_rotvec(rotvec) @ t_a.rotation, 1.0, t_a.translation)

    pairs = (
        _planted_pairs(rng, t_a, n_in=8, n_out=0)
        + _planted_pairs(rng, turned([np.pi / 3, 0.0, 0.0]), n_in=6, n_out=0)
        + _planted_pairs(rng, turned([0.0, 0.0, np.pi / 3]), n_in=10, n_out=4, jitter=False)
    )
    matches = pair_table(pairs)
    rots = np.ascontiguousarray(matches.rotation)
    mean_a, mean_b, mean_c = (rots[rows].mean(axis=0) for rows in np.split(np.arange(24), [8, 14]))
    far = turned([0.0, np.pi / 2, 0.0]).rotation
    assert np.linalg.norm(rotvec_from_matrix(far.T @ rots), axis=1).min() > HoughParams().rot_bin
    swaps = {
        mean_a.tobytes(): project_to_rotation(mean_b),
        mean_b.tobytes(): project_to_rotation(mean_a),
        mean_c.tobytes(): far,
    }
    hits, project = [], project_to_rotation

    def swapped(m):
        out = project(m)
        for i, one in enumerate(np.reshape(m, (-1, 3, 3))):
            if one.tobytes() in swaps:
                hits.append(one.tobytes())
                out.reshape(-1, 3, 3)[i] = swaps[one.tobytes()]
        return out

    with mock.patch.object(matching, "project_to_rotation", swapped):
        got = _outcome(_hough, matches, HoughParams())
    with mock.patch(f"{__name__}.project_to_rotation", swapped):
        assert got == _outcome(_hough_oracle, matches, HoughParams())
    # C's cell took its swap, the A-B cycle ran to the step cap, and A won
    assert mean_c.tobytes() in hits
    assert hits.count(mean_a.tobytes()) > MAX_SHIFT_ITERS
    assert set(got[1]) == set(range(8))


@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 12), noise=st.floats(0.0, 1.0))
def test_vote_tests_agree_at_thresholds_on_a_votes_own_values(seed, count, noise):
    # a threshold equal to a vote's own value puts that vote within rounding
    # of the boundary, where only the same operations in the same order agree
    rng = np.random.default_rng(seed)
    t = _rand_transform(rng)
    table = pair_table(_noisy_pairs(rng, t, count, noise))
    log_scales = np.array([math.log(s) for s in table.scale])
    rots = np.ascontiguousarray(table.rotation)
    trans = np.ascontiguousarray(table.translation)
    cos, gap, dist_sq, norm = _consistency_terms(table, log_scales, t)
    ratio = dist_sq / norm
    loose = {"eps_cos": -1.0, "eps_log_scale": 1e9, "eps_disp": 1e9}
    cases = [{"eps_cos": c} for c in cos.ravel() if -1.0 <= c < 1.0]
    cases += [{"eps_log_scale": g} for g in gap if g > 0.0]
    cases += [{"eps_disp": r} for r in ratio if r > 0.0]
    # 1.3113289052261936 is a scale whose np.log and math.log differ in the
    # last bit where numpy's log is vectorized
    odd = SimilarityTransform(t.rotation, 1.3113289052261936, t.translation)
    odd_gap = np.abs(log_scales - math.log(odd.scale))
    cases = [(t, {**loose, **case}) for case in cases]
    cases += [(odd, {**loose, "eps_log_scale": g}) for g in odd_gap if g > 0.0]
    for c, case in cases:
        params = HoughParams(**case)
        got = matching._consistent(table, log_scales, [(c.rotation, c.scale, c.translation)],
                                   params)
        np.testing.assert_array_equal(got[0], _consistency_oracle(table, log_scales, c, params))
    # the mean-shift window about one vote's mode
    r_hat, ls_hat, t_hat = project_to_rotation(rots[0]), log_scales[0], trans[0]
    cos_ang = np.clip((np.einsum("kij,ij->k", rots, r_hat) - 1.0) / 2.0, -1.0, 1.0)
    angle, gap, dist = (
        np.arccos(cos_ang), np.abs(log_scales - ls_hat), np.linalg.norm(trans - t_hat, axis=1)
    )
    loose = {"rot_bin": 10.0, "log_scale_bin": 1e9, "trans_bin": 1e9}
    cases = [{"rot_bin": a} for a in angle if a > 0.0]
    cases += [{"log_scale_bin": g} for g in gap if g > 0.0]
    cases += [{"trans_bin": d} for d in dist if d > 0.0]
    for case in cases:
        params = HoughParams(**{**loose, **case})
        got = matching._in_bandwidth(
            rots, log_scales, trans, r_hat[None], np.array([ls_hat]), t_hat[None], params
        )
        inside = (
            (angle < params.rot_bin) & (gap < params.log_scale_bin) & (dist < params.trans_bin)
        )
        np.testing.assert_array_equal(got[0], inside)


_VOTE_FIELDS = [
    "fixed_x", "moving_x", "translation", "rotation", "scale", "fixed_sigma", "moving_sigma"
]


@settings(max_examples=120)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(0, 12),
    field=st.sampled_from(_VOTE_FIELDS + ["descriptor_distance", None]),
    value=st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, -0.0, 1e150, 1e300]),
    shape=st.sampled_from(["table", "table", "plain", "list", "other_dtype", "2d", "scalar"]),
    trans_bin=st.sampled_from([10.0, 10.0, 1e-17, 1e-300]),
)
@example(seed=0, count=10, field="rotation", value=math.nan, shape="table", trans_bin=10.0)
@example(seed=0, count=10, field="rotation", value=math.inf, shape="table", trans_bin=10.0)
@example(seed=0, count=10, field="moving_x", value=math.nan, shape="plain", trans_bin=10.0)
@example(seed=0, count=10, field="scale", value=0.0, shape="table", trans_bin=10.0)
@example(seed=0, count=10, field="scale", value=-1.0, shape="table", trans_bin=10.0)
@example(seed=0, count=10, field="fixed_sigma", value=-0.0, shape="table", trans_bin=10.0)
# finite but huge: the endpoint fit's matmul overflowed, the cell key's cast went invalid
@example(seed=0, count=10, field="fixed_x", value=1e150, shape="table", trans_bin=10.0)
@example(seed=0, count=10, field="fixed_x", value=1e200, shape="table", trans_bin=10.0)
@example(seed=0, count=10, field="moving_x", value=1e300, shape="table", trans_bin=10.0)
@example(seed=0, count=10, field="translation", value=1e150, shape="table", trans_bin=10.0)
@example(seed=0, count=10, field="scale", value=1e200, shape="table", trans_bin=10.0)
@example(seed=0, count=10, field="moving_sigma", value=1e300, shape="table", trans_bin=10.0)
# ordinary translations 2^62 tiny bins from 0
@example(seed=0, count=10, field=None, value=0.0, shape="table", trans_bin=1e-300)
def test_hough_contract(seed, count, field, value, shape, trans_bin):
    # any table yields a result or a documented error, never a bare one; a
    # non-finite vote entry, a scale or sigma that is not positive, an entry
    # of 2^64 or more, or a translation 2^62 bins or more from 0 is rejected
    # outright (math.log raised ValueError, the SVD LinAlgError, the fit and
    # the key cast overflowed)
    rng = np.random.default_rng(seed)
    table = pair_table(_planted_pairs(rng, T_TRUE, n_in=count // 2, n_out=count - count // 2))
    if field is not None and count:
        column = table[field].reshape(count, -1)
        assert np.shares_memory(column, table)
        column[rng.integers(count), rng.integers(column.shape[1])] = value
    other_dtype = MATCH_DTYPE.descr[:-1] + [("translation", "<f4", (3,))]
    with np.errstate(over="ignore"):  # a huge translation overflows the float32 cast
        matches = {
            "table": table,
            "plain": table.view(np.ndarray).astype(MATCH_DTYPE),
            "list": table.tolist(),
            "other_dtype": table.view(np.ndarray).astype(other_dtype),
            "2d": table.reshape(1, -1),
            "scalar": value,
        }[shape]
    positive = field in ("scale", "fixed_sigma", "moving_sigma")
    bad = not abs(value) < 2.0**64 or (positive and not value > 0.0)
    invalid = count and (
        (field in _VOTE_FIELDS and bad) or np.abs(table.translation).max() >= 2.0**62 * trans_bin
    )
    try:
        res = hough_init(matches, HoughParams(trans_bin=trans_bin))
    except RejectedInputError:
        return
    except InitializationFailureError:
        assert shape in ("table", "plain") and not invalid
        return
    assert shape in ("table", "plain") and not invalid
    assert len(res.inliers) >= 3
    assert np.isfinite(res.t_star.rotation).all() and np.isfinite(res.t_star.translation).all()
