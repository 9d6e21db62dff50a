"""Rank-normalized gradient-projection descriptors and feature extraction."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import EXTRACTION, negated, volume_center
from volkey.descriptors import (
    NUM_BINS,
    STATE_BIN_MASKS,
    Descriptor,
    ExtractionConfig,
    Feature,
    compute_descriptor,
    compute_state_descriptors,
    extract_features,
    extract_features_with_stats,
    rank_normalize_bins,
    stack_features,
)
from volkey import descriptors
from volkey.errors import AmbiguousFrameError, NoOrientationError, RejectedInputError
from volkey.frames import Frame, enumerate_states, estimate_frame_structure_tensor
from volkey.io import write_features
from volkey.keypoints import Keypoint
from volkey.matching import match_features
from volkey.registration import register
from volkey.synth import make_phantom, random_similarity
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


@pytest.fixture(scope="module")
def small_scale_space():
    # 20 x 18 x 22 voxels at 1.5 mm, two octaves: sigma 1.6 .. 10.2
    data = np.random.default_rng(23).random((20, 18, 22))
    volume = ScalarVolume(data.shape, (1.5, 1.5, 1.5), (-6.0, 3.0, 10.5), data)
    return build_scale_space(volume, num_octaves=2)


@settings(max_examples=80)
@given(
    corner=st.tuples(*(st.floats(-1.0, 1.0) for _ in range(3))),
    log_sigma=st.floats(np.log(1.6), np.log(6.4)),
    sign=st.sampled_from([-1, 1]),
    seed=st.integers(0, 2**16),
    axis_aligned=st.booleans(),
)
# lattice points past two faces at once, and an axis-aligned frame with exact zeros
@example(corner=(-1.0, 1.0, 0.0), log_sigma=np.log(6.4), sign=1, seed=0, axis_aligned=True)
def test_state_descriptors_equal_per_state_descriptors(
    small_scale_space, corner, log_sigma, sign, seed, axis_aligned
):
    # keypoints anywhere from 12 mm beyond one face of the volume to 12 mm beyond
    # the other, so that part or all of the lattice clamps to the level faces
    octave = small_scale_space.octaves[0]
    half = octave.spacing * (np.array(octave.data.shape[1:]) - 1) / 2.0
    x = octave.origin + half + np.asarray(corner) * (half + 12.0)
    rng = np.random.default_rng(seed)
    if axis_aligned:
        q = np.eye(3)[rng.permutation(3)] * rng.choice([-1.0, 1.0], 3)
    else:
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    q[:, 2] *= np.linalg.det(q)
    kp = Keypoint(x=x, sigma=float(np.exp(log_sigma)), sign=sign, response=1.0)
    got = compute_state_descriptors(small_scale_space, kp, Frame(q))
    want = [compute_descriptor(small_scale_space, kp, s.frame) for s in enumerate_states(Frame(q))]
    assert len(got) == 4
    for g, w in zip(got, want):
        assert g.bins.tobytes() == w.bins.tobytes()
        assert g.ranked.tobytes() == w.ranked.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_descriptors_reject_non_finite_frames(small_scale_space, bad):
    kp = Keypoint(x=np.array([8.0, 16.0, 26.0]), sigma=2.0, sign=1, response=1.0)
    matrix = np.eye(3)
    matrix[1, 2] = bad
    with pytest.raises(RejectedInputError):
        compute_descriptor(small_scale_space, kp, Frame(matrix))
    with pytest.raises(RejectedInputError):
        compute_state_descriptors(small_scale_space, kp, Frame(matrix))


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


def test_extraction_counts_the_frames_it_drops(phantom, phantom_features, monkeypatch):
    # neither estimator drops a frame on this phantom, so a stand-in refuses
    # chosen keypoints and frames the others as the estimator does
    estimate = descriptors._ESTIMATORS["max_gradient"]
    refusals = {1: NoOrientationError, 2: AmbiguousFrameError, 4: NoOrientationError}
    seen = []

    def refusing(ss, kp, window_factor):
        seen.append(kp)
        if len(seen) - 1 in refusals:
            raise refusals[len(seen) - 1]("refused for the test")
        return estimate(ss, kp, window_factor=window_factor)

    monkeypatch.setitem(descriptors._ESTIMATORS, "max_gradient", refusing)
    features, stats = extract_features_with_stats(phantom, EXTRACTION)
    assert stats.num_keypoints == len(seen) == len(phantom_features)
    assert (stats.dropped_no_orientation, stats.dropped_ambiguous) == (2, 1)
    assert stats.num_features == len(features) == len(seen) - 3
    kept = [f for k, f in enumerate(phantom_features) if k not in refusals]
    got, want = stack_features(features), stack_features(kept)
    for name, array in want.items():
        np.testing.assert_array_equal(got[name], array, err_msg=name)
    for f, g in zip(features, kept):
        for d, e in zip(f.descriptors, g.descriptors):
            np.testing.assert_array_equal(d.bins, e.bins)


def test_structure_tensor_extraction_runs_end_to_end(
    phantom, phantom_scale_space, phantom_features
):
    # no frame is dropped here: the same keypoints as the max-gradient run,
    # each under the structure tensor's own frame, pass the record rule
    config = dataclasses.replace(EXTRACTION, estimator="structure_tensor")
    features, stats = extract_features_with_stats(phantom, config)
    assert (stats.num_keypoints, stats.num_features) == (len(phantom_features), len(features))
    stack, max_gradient = stack_features(features), stack_features(phantom_features)
    np.testing.assert_array_equal(stack["x"], max_gradient["x"])
    assert not np.allclose(stack["frame"], max_gradient["frame"])
    for f in features[:5]:
        frame = estimate_frame_structure_tensor(phantom_scale_space, f.keypoint, window_factor=1.5)
        np.testing.assert_array_equal(f.frame.matrix, frame.matrix)
        want = compute_state_descriptors(phantom_scale_space, f.keypoint, frame)
        for d, e in zip(f.descriptors, want):
            np.testing.assert_array_equal(d.bins, e.bins)


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


# octant bit 2 and direction bit 2 flipped in the bin index octant * 8 +
# direction: a mirror along theta3.  The state masks flip an even number of
# axes (STATE_BIN_MASKS), this one a single axis.
PARITY_RELABEL = np.arange(NUM_BINS) ^ (4 * 8 + 4)


@settings(max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), odd=st.booleans())
def test_parity_mirrors_octave_zero_features(seed, odd):
    # parity P reverses the grid on all three axes, at the same origin.  One
    # octave keeps every keypoint at octave 0, which is all P preserves: the
    # floor-halving subsample to octave 1 is not mirror-symmetric.  Over 300
    # seeded phantoms of these shapes the worst frame entry differed by
    # 5.5e-13 and the worst bin by 2.2e-13 of the largest; the bounds below
    # are 1e-10, over 100 times either.
    assert 4 not in STATE_BIN_MASKS
    dims = (25, 28, 31) if odd else (24, 28, 32)
    vol = make_phantom(seed=seed, num_blobs=12, dims=dims, width_range=(1.5, 4.0))
    mirror = ScalarVolume(vol.dims, vol.spacing, vol.origin, vol.data[::-1, ::-1, ::-1])
    config = ExtractionConfig(num_octaves=1, min_abs_response=1e-3)
    original, mirrored = extract_features(vol, config), extract_features(mirror, config)
    assert len(mirrored) == len(original)
    # mirrored location x' = (dims - 1) - x at unit spacing and zero origin
    far = np.asarray(dims) - 1.0
    for f in original:
        g = min(mirrored, key=lambda g: np.linalg.norm(far - g.keypoint.x - f.keypoint.x))
        np.testing.assert_allclose(far - g.keypoint.x, f.keypoint.x, rtol=0.0, atol=1e-12)
        assert g.keypoint.sigma == pytest.approx(f.keypoint.sigma, rel=1e-12, abs=0.0)
        assert g.keypoint.sign == f.keypoint.sign
        # the gradient negates, so do theta1 and theta2; theta3 is axial
        flip = np.diag([-1.0, -1.0, 1.0])
        np.testing.assert_allclose(g.frame.matrix, f.frame.matrix @ flip, rtol=0.0, atol=1e-10)
        bins, want = g.descriptors[0].bins, f.descriptors[0].bins[PARITY_RELABEL]
        np.testing.assert_allclose(bins, want, rtol=0.0, atol=1e-10 * want.max())


def _with_frame(matrix):
    return lambda f: Feature(f.keypoint, Frame(matrix), f.descriptors, f.border)


def _zero_ranks(f):
    return Feature(f.keypoint, f.frame, [Descriptor(None, np.zeros(NUM_BINS))] * 4, f.border)


def _rank_past_a_byte(f):
    states = [Descriptor(None, d.ranked.copy()) for d in f.descriptors]
    states[2].ranked[5] = 256
    return Feature(f.keypoint, f.frame, states, f.border)


def _three_descriptors(f):
    return Feature(f.keypoint, f.frame, f.descriptors[:3], f.border)


def _sign_zero(f):
    # Keypoint refuses sign 0 at construction, so set it after
    keypoint = dataclasses.replace(f.keypoint)
    keypoint.sign = 0
    return Feature(keypoint, f.frame, f.descriptors, f.border)


def _sign_one_and_a_half(f):
    # the int cast of a stack truncated this sign to 1
    keypoint = dataclasses.replace(f.keypoint)
    keypoint.sign = 1.5
    return Feature(keypoint, f.frame, f.descriptors, f.border)


def _ten_ranks(f):
    # Descriptor casts ranked at construction, so replace it after
    states = [Descriptor(None, d.ranked) for d in f.descriptors]
    states[1].ranked = states[1].ranked[:10]
    return Feature(f.keypoint, f.frame, states, f.border)


@pytest.mark.parametrize(
    "spoil, why",
    [
        pytest.param(_with_frame(np.full((3, 3), np.nan)), "frame is not a rotation", id="nan"),
        pytest.param(
            _with_frame(np.where(np.eye(3) > 0, np.inf, 0.0)), "frame is not a rotation", id="inf"
        ),
        pytest.param(_with_frame(2.0 * np.eye(3)), "frame is not a rotation", id="scaled"),
        pytest.param(_with_frame(-np.eye(3)), "frame is not a rotation", id="reflection"),
        pytest.param(_zero_ranks, "ranks are not a permutation of 0..63", id="zero-ranks"),
        pytest.param(
            _rank_past_a_byte, "ranks are not a permutation of 0..63", id="rank-past-a-byte"
        ),
        pytest.param(_three_descriptors, "has 3 descriptors, not 4", id="three-descriptors"),
        pytest.param(_sign_zero, "has sign 0", id="sign-zero"),
        pytest.param(_sign_one_and_a_half, "has sign 1.5", id="sign-one-and-a-half"),
        pytest.param(_ten_ranks, r"has ranks not of shape \(4, 64\)", id="ten-ranks"),
    ],
)
def test_stacks_refuse_a_frame_the_feature_file_refuses(tmp_path, phantom_features, spoil, why):
    # one rule builds every stack, so each entry refuses what the feature
    # file refuses, with the same words; a NaN frame ended in LinAlgError
    # (SVD did not converge) inside the match table, an inf frame in a
    # RuntimeWarning, and matching took a duplicate rank
    features = list(phantom_features[:5])
    features[2] = spoil(features[2])
    path = tmp_path / "spoilt.vkf"
    for call in (
        lambda: stack_features(features),
        lambda: match_features(phantom_features, features),
        lambda: match_features(features, phantom_features),
        lambda: register(features, phantom_features),
        lambda: register(phantom_features, features),
        lambda: write_features(path, features),
    ):
        with pytest.raises(RejectedInputError, match=f"^feature 2 {why}$"):
            call()
    assert not path.exists()


@pytest.mark.parametrize(
    "make",
    [
        lambda: Frame([1, 2]),
        lambda: Frame("abc"),
        lambda: Frame(None),
        lambda: Descriptor(None, [1, 2]),
        lambda: Descriptor(None, "a" * 64),
        lambda: Descriptor(None, [70000] * 64),
        lambda: Descriptor([1.0, 2.0], np.arange(64)),
        lambda: Descriptor(None, None),
    ],
)
def test_frame_and_descriptor_refuse_what_they_cannot_hold(make):
    # each raised a bare ValueError, TypeError or OverflowError
    with pytest.raises(RejectedInputError):
        make()
