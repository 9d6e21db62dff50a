"""Registration quality metrics.

All comparisons treat transforms in the moving-onto-fixed convention.  The
point registration error (PRE) is the mean distance between probe points
mapped through the estimated and ground-truth transforms; rotation error is
reported per axis from the rotation vector of R_est R_gt^T.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import RejectedInputError, check_number, check_type
from .matching import MATCH_DTYPE
from .transforms import SimilarityTransform, rotvec_from_matrix
from .volume import ScalarVolume, resample


@dataclass(eq=False)
class EvaluationReport:
    pre: float
    rotation_error_deg: np.ndarray
    translation_error_mm: np.ndarray
    ssd: float | None = None


def probe_grid(volume: ScalarVolume, count: int = 5) -> np.ndarray:
    """count^3 world-space probe points spread over the volume extent."""
    check_number("count", count, int, lo=1)
    lo = volume.world_min
    hi = volume.world_max
    ax = [np.linspace(lo[a], hi[a], count) for a in range(3)]
    return np.stack(np.meshgrid(*ax, indexing="ij"), axis=-1).reshape(-1, 3)


def point_registration_error(
    t_est: SimilarityTransform, t_gt: SimilarityTransform, probes: np.ndarray
) -> float:
    """Mean probe displacement between the two transforms."""
    try:
        probes = np.asarray(probes, dtype=float)
    except (TypeError, ValueError):
        raise RejectedInputError("probe points must be numbers") from None
    if probes.size == 0 or probes.size % 3:
        raise RejectedInputError(f"need one or more 3-D probe points, got {probes.size} numbers")
    probes = probes.reshape(-1, 3)
    if not np.isfinite(probes).all():
        raise RejectedInputError("probe points must be finite")
    return float(np.linalg.norm(t_est.apply(probes) - t_gt.apply(probes), axis=1).mean())


def overlap_ssd(
    fixed: ScalarVolume, moving: ScalarVolume, t_est: SimilarityTransform
) -> float:
    """Sum of squared differences over the voxels the transform keeps in field.

    Both volumes must share one grid; the moving volume is resampled through
    the estimated transform onto it.
    """
    if fixed.dims != moving.dims or fixed.spacing != moving.spacing or fixed.origin != moving.origin:
        raise RejectedInputError("SSD needs both volumes on the same grid")
    # resampling ones fills 0 exactly outside the field and a positive
    # blend of unit weights inside it; the broadcast ones take no memory
    ones = np.broadcast_to(1.0, moving.dims)
    inside = resample(replace(moving, data=ones), t_est).data > 0.0
    warped = resample(moving, t_est)
    diff = (fixed.data - warped.data) ** 2
    return float(diff[inside].sum())


def state_histogram(matches: np.recarray) -> np.ndarray:
    """4x4 table of (fixed state row, moving state column) transition counts.

    Matching holds the fixed feature at state 0, so a single run fills row 0;
    a symmetric run (directions swapped) can be added into column 0 by the
    caller via the transpose convention.  matches must be a 1-D array of
    MATCH_DTYPE records with states 0..3.
    """
    table = isinstance(matches, np.ndarray) and matches.dtype == MATCH_DTYPE and matches.ndim == 1
    if not (table and ((matches["moving_state"] >= 0) & (matches["moving_state"] < 4)).all()):
        raise RejectedInputError("matches must be a 1-D array of MATCH_DTYPE records, states 0..3")
    hist = np.zeros((4, 4), dtype=int)
    hist[0] = np.bincount(matches["moving_state"], minlength=4)
    return hist


def evaluate(
    t_est: SimilarityTransform,
    t_gt: SimilarityTransform,
    probes: np.ndarray,
    fixed: ScalarVolume | None = None,
    moving: ScalarVolume | None = None,
) -> EvaluationReport:
    """Bundle of registration metrics against a known ground truth, with the
    overlap SSD when both volumes are given; one alone is refused."""
    check_type("t_est", t_est, SimilarityTransform)
    check_type("t_gt", t_gt, SimilarityTransform)
    if (fixed is None) != (moving is None):
        raise RejectedInputError("SSD needs both the fixed and the moving volume")
    pre = point_registration_error(t_est, t_gt, probes)
    rel = t_est.rotation @ t_gt.rotation.T
    rot_err = np.degrees(np.abs(rotvec_from_matrix(rel)))
    trans_err = np.abs(t_est.translation - t_gt.translation)
    ssd = None if fixed is None else overlap_ssd(fixed, moving, t_est)
    return EvaluationReport(pre, rot_err, trans_err, ssd)
