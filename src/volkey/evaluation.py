"""Registration quality metrics.

All comparisons treat transforms in the moving-onto-fixed convention.  The
point registration error (PRE) is the mean distance between probe points
mapped through the estimated and ground-truth transforms; rotation error is
reported per axis from the rotation vector of R_est R_gt^T.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RejectedInputError
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
    lo = volume.world_min
    hi = volume.world_max
    ax = [np.linspace(lo[a], hi[a], count) for a in range(3)]
    return np.stack(np.meshgrid(*ax, indexing="ij"), axis=-1).reshape(-1, 3)


def point_registration_error(
    t_est: SimilarityTransform, t_gt: SimilarityTransform, probes: np.ndarray
) -> float:
    """Mean probe displacement between the two transforms."""
    probes = np.asarray(probes, dtype=float).reshape(-1, 3)
    if probes.size == 0:
        raise RejectedInputError("need at least one probe point")
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
    warped = resample(moving, t_est)
    inv = t_est.inverse()
    pts = np.stack(
        np.meshgrid(
            *[np.arange(d) * s + o for d, s, o in zip(fixed.dims, fixed.spacing, fixed.origin)],
            indexing="ij",
        ),
        axis=-1,
    )
    src = inv.apply(pts.reshape(-1, 3)).reshape(pts.shape)
    vox = (src - np.asarray(moving.origin)) / np.asarray(moving.spacing)
    inside = np.all((vox >= 0.0) & (vox <= np.asarray(moving.dims) - 1), axis=-1)
    diff = (fixed.data - warped.data) ** 2
    return float(diff[inside].sum())


def state_histogram(matches: np.recarray) -> np.ndarray:
    """4x4 table of (fixed state row, moving state column) transition counts.

    Matching holds the fixed feature at state 0, so a single run fills row 0;
    a symmetric run (directions swapped) can be added into column 0 by the
    caller via the transpose convention.
    """
    hist = np.zeros((4, 4), dtype=int)
    hist[0] = np.bincount(matches.moving_state, minlength=4)
    return hist


def evaluate(
    t_est: SimilarityTransform,
    t_gt: SimilarityTransform,
    probes: np.ndarray,
    fixed: ScalarVolume | None = None,
    moving: ScalarVolume | None = None,
) -> EvaluationReport:
    """Bundle of registration metrics against a known ground truth."""
    pre = point_registration_error(t_est, t_gt, probes)
    rel = t_est.rotation @ t_gt.rotation.T
    rot_err = np.degrees(np.abs(rotvec_from_matrix(rel)))
    trans_err = np.abs(t_est.translation - t_gt.translation)
    ssd = None
    if fixed is not None and moving is not None:
        ssd = overlap_ssd(fixed, moving, t_est)
    return EvaluationReport(
        pre=pre,
        rotation_error_deg=rot_err,
        translation_error_mm=trans_err,
        ssd=ssd,
    )
