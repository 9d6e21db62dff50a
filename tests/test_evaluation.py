"""Registration quality metrics against known ground truth."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import gaussian_blob
from volkey.errors import RejectedInputError
from volkey.evaluation import (
    evaluate,
    overlap_ssd,
    point_registration_error,
    probe_grid,
    state_histogram,
)
from volkey.matching import MATCH_DTYPE
from volkey.synth import random_similarity
from volkey.transforms import SimilarityTransform, rotation_z
from volkey.volume import ScalarVolume, resample


def _probes(rng, count=20):
    return rng.uniform(0.0, 60.0, (count, 3))


def test_identical_transforms_have_zero_error():
    t = random_similarity(3, center=(10.0, 10.0, 10.0))
    probes = _probes(np.random.default_rng(40))
    assert point_registration_error(t, t, probes) == 0.0


def test_pure_translation_offset_is_its_norm():
    a = SimilarityTransform()
    b = SimilarityTransform(translation=np.array([3.0, 4.0, 0.0]))
    probes = _probes(np.random.default_rng(41))
    assert point_registration_error(a, b, probes) == pytest.approx(5.0, abs=1e-12)


def test_error_matches_brute_force_mean():
    rng = np.random.default_rng(42)
    t1 = random_similarity(10, center=(5.0, 5.0, 5.0))
    t2 = random_similarity(11, center=(5.0, 5.0, 5.0))
    probes = _probes(rng)
    manual = np.mean([np.linalg.norm(t1.apply(p) - t2.apply(p)) for p in probes])
    assert point_registration_error(t1, t2, probes) == pytest.approx(manual, rel=1e-12)


def test_error_is_symmetric_and_needs_probes():
    t1 = random_similarity(12, center=(0.0, 0.0, 0.0))
    t2 = random_similarity(13, center=(0.0, 0.0, 0.0))
    probes = _probes(np.random.default_rng(43))
    assert point_registration_error(t1, t2, probes) == pytest.approx(
        point_registration_error(t2, t1, probes), rel=1e-12
    )
    with pytest.raises(RejectedInputError):
        point_registration_error(t1, t2, np.zeros((0, 3)))


@pytest.mark.parametrize("probes", [np.zeros((5, 2)), np.zeros(4), "abc", [[1.0, "x", 2.0]], None])
def test_probes_that_are_not_3d_points_are_rejected(probes):
    # a size that is not a multiple of 3, and a string, raised a bare ValueError
    t1 = random_similarity(12, center=(0.0, 0.0, 0.0))
    with pytest.raises(RejectedInputError, match="probe"):
        point_registration_error(t1, t1, probes)


def test_probe_grid_covers_the_volume():
    vol = ScalarVolume((32, 32, 32), (1, 1, 1), (0, 0, 0), np.zeros((32, 32, 32)))
    grid = probe_grid(vol)
    assert grid.shape == (125, 3)
    mins = grid.min(axis=0)
    maxs = grid.max(axis=0)
    np.testing.assert_allclose(mins, vol.world_min, atol=1e-12)
    np.testing.assert_allclose(maxs, vol.world_max, atol=1e-12)
    assert probe_grid(vol, count=3).shape == (27, 3)


@given(
    count=st.one_of(
        st.integers(max_value=0), st.floats(), st.booleans(), st.none(), st.text(max_size=2)
    )
)
def test_probe_grid_rejects_a_count_that_is_not_a_positive_integer(count):
    # -1 raised ValueError, 2.5 TypeError, and 0 gave an empty grid
    vol = ScalarVolume((4, 4, 4), (1, 1, 1), (0, 0, 0), np.zeros((4, 4, 4)))
    with pytest.raises(RejectedInputError, match="count"):
        probe_grid(vol, count)


@given(
    bad=st.sampled_from([np.nan, np.inf, -np.inf]),
    row=st.integers(0, 19),
    axis=st.integers(0, 2),
)
def test_non_finite_probes_are_rejected(bad, row, axis):
    # evaluate reported pre = nan for a NaN probe
    t1 = random_similarity(12, center=(0.0, 0.0, 0.0))
    t2 = random_similarity(13, center=(0.0, 0.0, 0.0))
    probes = _probes(np.random.default_rng(44))
    probes[row, axis] = bad
    with pytest.raises(RejectedInputError, match="finite"):
        point_registration_error(t1, t2, probes)
    with pytest.raises(RejectedInputError, match="finite"):
        evaluate(t1, t2, probes)


def test_state_histogram_counts_transitions():
    matches = np.zeros(6, dtype=MATCH_DTYPE).view(np.recarray)
    matches.moving_state = (0, 0, 3, 1, 0, 3)
    hist = state_histogram(matches)
    assert hist.shape == (4, 4)
    np.testing.assert_array_equal(hist[0], [3, 1, 0, 2])
    np.testing.assert_array_equal(hist[1:], 0)


def test_overlap_ssd_identity_and_mismatch():
    blob = gaussian_blob(widths=5.0)
    assert overlap_ssd(blob, blob, SimilarityTransform()) == pytest.approx(0.0, abs=1e-18)
    shifted = SimilarityTransform(translation=np.array([4.0, 0.0, 0.0]))
    assert overlap_ssd(blob, blob, shifted) > 1.0
    other_grid = ScalarVolume((16, 16, 16), (1, 1, 1), (0, 0, 0), np.zeros((16, 16, 16)))
    with pytest.raises(RejectedInputError):
        overlap_ssd(blob, other_grid, SimilarityTransform())


def _ssd_oracle(fixed, moving, t):
    """One-shot SSD: the in-field test on one full-grid coordinate array."""
    sp, org = np.asarray(moving.spacing), np.asarray(moving.origin)
    ax = [np.arange(n) * s + o for n, s, o in zip(fixed.dims, sp, org)]
    pts = np.stack(np.meshgrid(*ax, indexing="ij"), axis=-1)
    vox = (t.inverse().apply(pts.reshape(-1, 3)).reshape(pts.shape) - org) / sp
    inside = np.all((vox >= 0.0) & (vox <= np.asarray(moving.dims) - 1), axis=-1)
    return float(((fixed.data - resample(moving, t).data) ** 2)[inside].sum())


def _volume_pair(dims):
    rng = np.random.default_rng(41)
    return [ScalarVolume(dims, (1.0, 1.0, 1.5), (-3.0, 2.0, 1.0), rng.random(dims)) for _ in "ab"]


def test_overlap_ssd_equals_one_shot_oracle():
    fixed, moving = _volume_pair((12, 10, 9))
    center = (fixed.world_min + fixed.world_max) / 2.0
    for t in (
        SimilarityTransform(),
        SimilarityTransform(translation=np.array([2.0, -1.0, 1.5])),
        random_similarity(5, center=center),
        random_similarity(6, center=center),
    ):
        assert overlap_ssd(fixed, moving, t) == _ssd_oracle(fixed, moving, t)


def test_overlap_ssd_memory_stays_bounded():
    # only grid-sized outputs remain; a full-grid coordinate mask takes about
    # 104 B per voxel
    fixed, moving = _volume_pair((64, 48, 40))
    t = random_similarity(5, center=(fixed.world_min + fixed.world_max) / 2.0)
    tracemalloc.start()
    try:
        overlap_ssd(fixed, moving, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * fixed.data.size


def test_evaluate_reports_componentwise_errors():
    gt = SimilarityTransform()
    est = SimilarityTransform(
        rotation=rotation_z(np.radians(2.0)), translation=np.array([1.0, -2.0, 0.5])
    )
    probes = _probes(np.random.default_rng(44))
    report = evaluate(est, gt, probes)
    np.testing.assert_allclose(report.rotation_error_deg, [0.0, 0.0, 2.0], atol=1e-9)
    np.testing.assert_allclose(report.translation_error_mm, [1.0, 2.0, 0.5], atol=1e-12)
    assert report.pre > 0.0
    assert report.ssd is None


@pytest.mark.parametrize("side", ["fixed", "moving"])
def test_evaluate_refuses_one_volume_for_ssd(side):
    # a lone volume silently gave ssd None
    blob = gaussian_blob(widths=5.0)
    t = SimilarityTransform()
    with pytest.raises(RejectedInputError, match="^SSD needs both the fixed and the moving volume$"):
        evaluate(t, t, probe_grid(blob, count=3), **{side: blob})


def test_evaluate_attaches_optional_metrics():
    blob = gaussian_blob(widths=5.0)
    t = SimilarityTransform()
    probes = probe_grid(blob, count=3)
    report = evaluate(t, t, probes, fixed=blob, moving=blob)
    assert report.ssd == pytest.approx(0.0, abs=1e-18)


@given(
    states=st.lists(st.integers(-2, 6), max_size=6),
    form=st.sampled_from(["records", "structured", "floats", "list", "two-d"]),
)
# at the parent: a bare ValueError for states 7 and -1, AttributeError for a plain array
@example(states=[7], form="records")
@example(states=[-1], form="records")
@example(states=[0, 1], form="floats")
def test_state_histogram_contract(states, form):
    table = np.zeros(len(states), dtype=MATCH_DTYPE)
    table["moving_state"] = states
    matches = {
        "records": table.view(np.recarray),
        "structured": table,
        "floats": np.asarray(states, dtype=float),
        "list": list(table),
        "two-d": table.reshape(1, -1).view(np.recarray),
    }[form]
    if form in ("records", "structured") and all(0 <= s <= 3 for s in states):
        hist = state_histogram(matches)
        assert hist[0].tolist() == [states.count(k) for k in range(4)] and not hist[1:].any()
    else:
        with pytest.raises(RejectedInputError):
            state_histogram(matches)
