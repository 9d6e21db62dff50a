"""Rank-normalized gradient-projection descriptors and feature extraction."""
from __future__ import annotations

import numpy as np
import pytest

from conftest import EXTRACTION, negated, volume_center
from volkey.descriptors import (
    NUM_BINS,
    STATE_BIN_MASKS,
    ExtractionConfig,
    compute_descriptor,
    extract_features,
    extract_features_with_stats,
    rank_normalize_bins,
)
from volkey.errors import RejectedInputError
from volkey.frames import Frame
from volkey.keypoints import Keypoint
from volkey.matching import match_features
from volkey.synth import random_similarity
from volkey.volume import ScalarVolume, build_scale_space, resample


def _center_keypoint(sigma=2.0):
    return Keypoint(x=np.array([24.0, 24.0, 24.0]), sigma=sigma, sign=1, response=1.0)


def test_constant_volume_gives_zero_bins():
    vol = ScalarVolume((48, 48, 48), (1, 1, 1), (0, 0, 0), np.full((48, 48, 48), 5.0))
    ss = build_scale_space(vol, num_octaves=2)
    d = compute_descriptor(ss, _center_keypoint(), Frame(np.eye(3)))
    np.testing.assert_array_equal(d.bins, np.zeros(NUM_BINS))
    np.testing.assert_array_equal(d.ranked, np.arange(NUM_BINS))


def test_ramp_descriptor_closed_form():
    # slope-2 ramp along +x: every sample projects onto the (+,-,-)-type
    # diagonals equally; ties resolve to the lowest direction index, which
    # is 1 (+x bit set, -y, -z), so each octant holds one loaded bin
    ax = np.arange(48.0)
    data = 2.0 * np.broadcast_to(ax[:, None, None], (48, 48, 48)).copy()
    vol = ScalarVolume((48, 48, 48), (1, 1, 1), (0, 0, 0), data)
    ss = build_scale_space(vol, num_octaves=2)
    sigma = 2.0
    d = compute_descriptor(ss, _center_keypoint(sigma), Frame(np.eye(3)))
    bins = d.bins.reshape(8, 8)
    loaded = np.zeros((8, 8), dtype=bool)
    loaded[:, 1] = True
    assert np.all(bins[~loaded] == 0.0)
    # per-octant mass: |projection| 2 sigma/sqrt(3) times the octant's share
    # of the separable Gaussian lattice weights
    centers = (np.arange(8) - 3.5) * 0.5
    half = np.exp(-0.5 * centers[centers > 0.0] ** 2).sum()
    slope = 2.0
    expected = (slope * sigma / np.sqrt(3.0)) * half**3
    np.testing.assert_allclose(bins[:, 1], expected, rtol=1e-10)


def test_contrast_flip_is_bitwise_invariant(phantom, phantom_scale_space, phantom_features):
    ss_neg = build_scale_space(negated(phantom), num_octaves=3)
    for feat in phantom_features[:5]:
        kp = feat.keypoint
        flipped = Keypoint(x=kp.x, sigma=kp.sigma, sign=-kp.sign, response=-kp.response)
        a = compute_descriptor(phantom_scale_space, kp, feat.frame)
        b = compute_descriptor(ss_neg, flipped, feat.frame)
        np.testing.assert_array_equal(a.bins, b.bins)
        np.testing.assert_array_equal(a.ranked, b.ranked)


def test_rank_normalization_oracle():
    bins = np.zeros(NUM_BINS)
    bins[:3] = [3.0, 1.0, 2.0]
    ranked = rank_normalize_bins(bins)
    assert ranked[0] == 63
    assert ranked[1] == 61
    assert ranked[2] == 62
    np.testing.assert_array_equal(ranked[3:], np.arange(61))


def test_rank_ties_break_by_position():
    ranked = rank_normalize_bins(np.full(NUM_BINS, 2.5))
    np.testing.assert_array_equal(ranked, np.arange(NUM_BINS))


def test_rank_invariance_under_monotone_maps():
    rng = np.random.default_rng(5)
    bins = rng.permutation(NUM_BINS).astype(float) + 0.5
    base = rank_normalize_bins(bins)
    np.testing.assert_array_equal(rank_normalize_bins(bins**2), base)
    np.testing.assert_array_equal(rank_normalize_bins(10.0 * bins + 3.0), base)


def test_rank_idempotence_on_permutations():
    rng = np.random.default_rng(6)
    for _ in range(10):
        perm = rng.permutation(NUM_BINS).astype(float)
        np.testing.assert_array_equal(rank_normalize_bins(perm), perm.astype(np.int16))


def test_state_descriptors_permute_state_zero_bins(phantom_features):
    # the lattice maps onto itself under the state sign matrices, so the
    # state-k histogram is a relabeling of state 0 by XOR with a sign mask
    for feat in phantom_features[:5]:
        b0 = feat.descriptors[0].bins.reshape(8, 8)
        for k, mask in enumerate(STATE_BIN_MASKS):
            bk = feat.descriptors[k].bins.reshape(8, 8)
            octants, dirs = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
            relabeled = b0[octants ^ mask, dirs ^ mask]
            assert np.linalg.norm(bk - relabeled) <= 1e-12 * np.linalg.norm(b0)


def test_ranks_stable_under_similarity_transform(phantom, phantom_features):
    t = random_similarity(4000, center=volume_center(phantom))
    moving = extract_features(resample(phantom, t), EXTRACTION)
    t_true = t.inverse()
    matches = match_features(phantom_features, moving)
    verified = np.linalg.norm(t_true.apply(matches.moving_x) - matches.fixed_x, axis=1) < 1.0
    assert verified.sum() >= 5
    dists = matches.descriptor_distance[verified]
    # independent random rank vectors sit near sqrt(64 * 2 * var) ~ 208;
    # geometrically verified matches must be far inside that
    assert dists.max() < 100.0
    assert dists.mean() < 60.0


def _two_blob_volume():
    dims = (64, 64, 64)
    axes = [np.arange(n, dtype=float) for n in dims]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    data = np.zeros(dims)
    for c, w, a in (((20.0, 20.0, 20.0), 3.0, 1.0), ((44.0, 44.0, 44.0), 5.0, 0.8)):
        r2 = (gx - c[0]) ** 2 + (gy - c[1]) ** 2 + (gz - c[2]) ** 2
        data += a * np.exp(-0.5 * r2 / w**2)
    return ScalarVolume(dims, (1, 1, 1), (0, 0, 0), data)


def test_extraction_on_simple_scenes():
    empty = ScalarVolume((16, 16, 16), (1, 1, 1), (0, 0, 0), np.zeros((16, 16, 16)))
    assert extract_features(empty) == []
    feats, stats = extract_features_with_stats(_two_blob_volume(), ExtractionConfig(max_count=2))
    assert stats.num_keypoints == 2
    assert stats.num_features == len(feats) == 2
    locs = sorted(tuple(np.round(f.keypoint.x).astype(int)) for f in feats)
    assert locs == [(20, 20, 20), (44, 44, 44)]
    for f in feats:
        assert f.keypoint.sign == -1
        assert len(f.descriptors) == 4


def test_extraction_rejects_unknown_estimator():
    with pytest.raises(RejectedInputError):
        extract_features(_two_blob_volume(), ExtractionConfig(estimator="fancy"))


def test_negated_phantom_extracts_matching_features(phantom, phantom_features):
    flipped = extract_features(negated(phantom), EXTRACTION)
    assert len(flipped) == len(phantom_features)
    for a, b in zip(phantom_features, flipped):
        np.testing.assert_allclose(a.keypoint.x, b.keypoint.x, atol=1e-12)
        assert a.keypoint.sigma == pytest.approx(b.keypoint.sigma, abs=1e-12)
        assert a.keypoint.sign == -b.keypoint.sign
        ra = sorted(tuple(d.ranked) for d in a.descriptors)
        rb = sorted(tuple(d.ranked) for d in b.descriptors)
        assert ra == rb
