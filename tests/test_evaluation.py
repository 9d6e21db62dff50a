"""Registration quality metrics against known ground truth."""
from __future__ import annotations

import numpy as np
import pytest

from conftest import gaussian_blob, volume_center
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
from volkey.transforms import SimilarityTransform, matrix_from_rotvec, rotation_z
from volkey.volume import ScalarVolume


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


def test_probe_grid_covers_the_volume():
    vol = ScalarVolume((32, 32, 32), (1, 1, 1), (0, 0, 0), np.zeros((32, 32, 32)))
    grid = probe_grid(vol)
    assert grid.shape == (125, 3)
    mins = grid.min(axis=0)
    maxs = grid.max(axis=0)
    np.testing.assert_allclose(mins, vol.world_min, atol=1e-12)
    np.testing.assert_allclose(maxs, vol.world_max, atol=1e-12)
    assert probe_grid(vol, count=3).shape == (27, 3)


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


def test_evaluate_attaches_optional_metrics():
    blob = gaussian_blob(widths=5.0)
    t = SimilarityTransform()
    probes = probe_grid(blob, count=3)
    report = evaluate(t, t, probes, fixed=blob, moving=blob)
    assert report.ssd == pytest.approx(0.0, abs=1e-18)
