"""Probabilistic feature-set registration under a global similarity transform.

The EM loop alternates a soft correspondence E-step with a weighted
closed-form similarity solve.  Column n of the probability map P holds
p(moving m | fixed n): a Gaussian location term at temperature lambda^2,
multiplied by the geometry kernel, normalized against a uniform background
whose strength is set by the outlier fraction w.  The E-step adds the two in
log space and normalizes each column with one log-sum-exp.  The M-step is the
weighted Procrustes/Umeyama solve `transforms.fit_similarity`, which reads P
only through its sums P1, P^T 1 and P^T m and also re-estimates lambda^2, so
the temperature anneals as correspondences sharpen.

Variants: "cpd" drops the kernel (constant 1); "sift_cpd" keeps it;
"sift_cpd_star" runs on the voting inliers only; "icp" replaces the E-step
with hard nearest-neighbor assignments for a fixed iteration count, each fitted
as index pairs.
"""
from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .descriptors import Feature, feature_geometry
from .errors import (
    DegenerateCorrespondenceError,
    DegenerateGeometryError,
    RejectedInputError,
)
from .kernels import KernelParams, log_kernel_matrix
from .matching import HoughParams, HoughResult, hough_init, match_features
from .transforms import SimilarityTransform, fit_similarity

log = logging.getLogger(__name__)

VARIANTS = ("cpd", "sift_cpd", "sift_cpd_star", "icp")
REL_TOL = 1e-6


@dataclass
class RegistrationConfig:
    variant: str = "sift_cpd"
    w: float = 0.1
    max_iterations: int = 100
    lambda_sq_floor: float = 1e-12
    kernel: KernelParams = field(default_factory=KernelParams)
    hough: HoughParams = field(default_factory=HoughParams)

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise RejectedInputError(f"unknown variant {self.variant!r}")
        if not 0.0 <= self.w < 1.0:
            raise RejectedInputError(f"outlier fraction w must be in [0, 1), got {self.w}")
        if self.max_iterations < 1:
            raise RejectedInputError("max_iterations must be positive")
        if not self.lambda_sq_floor > 0.0:
            raise RejectedInputError("lambda_sq_floor must be positive")


@dataclass(eq=False)
class RegistrationResult:
    transform: SimilarityTransform
    iterations: int
    lambda_sq_history: list[float]
    converged: bool
    runtime: float
    init: HoughResult | None = None


def init_lambda_sq(fixed_points: np.ndarray, moving_points: np.ndarray) -> float:
    """Mean squared distance over all cross pairs, per dimension, in O(M + N)."""
    f = np.asarray(fixed_points, dtype=float).reshape(-1, 3)
    m = np.asarray(moving_points, dtype=float).reshape(-1, 3)
    if f.size == 0 or m.size == 0:
        raise RejectedInputError("point sets must be nonempty")
    # mean |m - f|^2 = var_f + var_m + |mu_m - mu_f|^2
    gap = m.mean(axis=0) - f.mean(axis=0)
    return float(f.var(axis=0).sum() + m.var(axis=0).sum() + gap @ gap) / 3.0


def e_step(
    x_f: np.ndarray,
    s_f: np.ndarray,
    t_f: np.ndarray,
    x_m: np.ndarray,
    s_m: np.ndarray,
    t_m: np.ndarray,
    lambda_sq: float,
    config: RegistrationConfig,
) -> np.ndarray:
    """Correspondence probabilities, shape (moving, fixed), columns sum <= 1.

    Inputs are stacked locations (n, 3), scales (n,) and frames (n, 3, 3);
    the moving geometry must already be mapped through the current transform.
    Each column is normalized in log space against the background log eta.
    """
    if not lambda_sq > 0.0:
        raise RejectedInputError(f"lambda_sq must be positive, got {lambda_sq}")
    m, n = x_m.shape[0], x_f.shape[0]
    diff = x_m[:, None, :] - x_f[None, :, :]
    dist_sq = np.einsum("mnd,mnd->mn", diff, diff)
    log_num = -dist_sq / (2.0 * lambda_sq)
    if config.variant != "cpd":
        log_num += log_kernel_matrix(dist_sq, s_f, t_f, s_m, t_m, config.kernel)
    with np.errstate(divide="ignore"):  # log 0 = -inf: no background for w = 0
        log_w = np.log(config.w / (1.0 - config.w))
    log_eta = 1.5 * np.log(2.0 * np.pi * lambda_sq) + log_w + np.log(m / n)
    # column log-sum-exp shifted by its largest term, background included
    shift = np.maximum(log_num.max(axis=0), log_eta)
    p = np.exp(log_num - shift)
    p /= p.sum(axis=0) + np.exp(log_eta - shift)
    return p


def register(
    fixed: list[Feature], moving: list[Feature], config: RegistrationConfig | None = None
) -> RegistrationResult:
    """Match, vote, then refine a moving-onto-fixed similarity transform."""
    cfg = config or RegistrationConfig()
    start = time.perf_counter()
    matches = match_features(fixed, moving)
    init = hough_init(matches, cfg.hough)
    t = init.t_star

    x_f, s_f, t_f = feature_geometry(fixed)
    x_m, s_m, t_m = feature_geometry(moving)
    if cfg.variant == "sift_cpd_star":
        keep = np.unique(init.inliers.fixed_index)
        x_f, s_f, t_f = x_f[keep], s_f[keep], t_f[keep]
        keep = np.unique(init.inliers.moving_index)
        x_m, s_m, t_m = x_m[keep], s_m[keep], t_m[keep]

    history: list[float] = []
    converged = False
    if cfg.variant == "icp":
        tree = cKDTree(x_f)
        ones = np.ones(x_m.shape[0])
        previous = None
        for _ in range(cfg.max_iterations):
            _, nearest = tree.query(t.apply(x_m))
            # converged once the last fit saw the assignment of the one before
            converged = previous is not None and np.array_equal(nearest, previous)
            previous = nearest
            t, lam = fit_similarity(x_f[nearest], x_m, ones, ones, x_m)
            history.append(lam)
    else:
        lam = init_lambda_sq(x_f, t.apply(x_m))
        lam_init = lam
        for _ in range(cfg.max_iterations):
            if lam <= cfg.lambda_sq_floor:
                converged = True
                break
            theta = np.einsum("ij,njk->nik", t.rotation, t_m)
            p = e_step(x_f, s_f, t_f, t.apply(x_m), t.scale * s_m, theta, lam, cfg)
            try:
                t, lam_new = fit_similarity(x_f, x_m, p.sum(axis=0), p.sum(axis=1), p.T @ x_m)
            except (DegenerateCorrespondenceError, DegenerateGeometryError) as exc:
                # also when the background has absorbed all mass: the
                # posterior then carries no geometry, so keep the last transform
                log.warning("EM stopped at lambda_sq %.3e: %s", lam, exc)
                break
            history.append(lam_new)
            if abs(lam_new - lam) < REL_TOL * lam_init:
                lam = lam_new
                converged = True
                break
            lam = lam_new
        if not converged:
            log.warning(
                "EM did not converge in %d iterations (lambda_sq %.3e)",
                cfg.max_iterations,
                lam,
            )
    runtime = time.perf_counter() - start
    return RegistrationResult(
        transform=t,
        iterations=len(history),
        lambda_sq_history=history,
        converged=converged,
        runtime=runtime,
        init=init,
    )
