"""Probabilistic feature-set registration under a global similarity transform.

The EM loop alternates a soft correspondence E-step with a weighted
closed-form similarity solve.  Column n of the probability map P holds
p(moving m | fixed n): a Gaussian location term at temperature lambda^2,
multiplied by the geometry kernel, normalized against a uniform background
whose strength is set by the outlier fraction w.  The M-step is a weighted
Procrustes/Umeyama solve that also re-estimates lambda^2, so the temperature
anneals as correspondences sharpen.

Variants: "cpd" drops the kernel (constant 1); "sift_cpd" keeps it;
"sift_cpd_star" runs on the voting inliers only; "icp" replaces the E-step
with hard nearest-neighbor assignments for a fixed iteration count.
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
from .kernels import KernelParams, kernel_matrix
from .matching import HoughParams, HoughResult, hough_init, match_features
from .transforms import SimilarityTransform

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
    probability: np.ndarray | None
    inliers: np.recarray
    converged: bool
    runtime: float
    init: HoughResult | None = None


def init_lambda_sq(fixed_points: np.ndarray, moving_points: np.ndarray) -> float:
    """Mean squared distance over all cross pairs, per dimension."""
    f = np.asarray(fixed_points, dtype=float).reshape(-1, 3)
    m = np.asarray(moving_points, dtype=float).reshape(-1, 3)
    if f.size == 0 or m.size == 0:
        raise RejectedInputError("point sets must be nonempty")
    diff = m[:, None, :] - f[None, :, :]
    return float(np.einsum("mnd,mnd->", diff, diff) / (3.0 * f.shape[0] * m.shape[0]))


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
    """
    if not lambda_sq > 0.0:
        raise RejectedInputError(f"lambda_sq must be positive, got {lambda_sq}")
    m, n = x_m.shape[0], x_f.shape[0]
    diff = x_m[:, None, :] - x_f[None, :, :]
    dist_sq = np.einsum("mnd,mnd->mn", diff, diff)
    if config.variant == "cpd":
        kern = np.ones((m, n))
    else:
        kern = kernel_matrix(x_f, s_f, t_f, x_m, s_m, t_m, config.kernel)
    if config.w == 0.0:
        # stabilized softmax; exact because the shift cancels in the ratio
        shifted = dist_sq - dist_sq.min(axis=0, keepdims=True)
        num = np.exp(-shifted / (2.0 * lambda_sq)) * kern
        denom = num.sum(axis=0, keepdims=True)
    else:
        num = np.exp(-dist_sq / (2.0 * lambda_sq)) * kern
        eta = (
            (2.0 * np.pi * lambda_sq) ** 1.5
            * (config.w / (1.0 - config.w))
            * (m / n)
        )
        denom = num.sum(axis=0, keepdims=True) + eta
    with np.errstate(invalid="ignore"):
        p = np.where(denom > 0.0, num / np.where(denom > 0.0, denom, 1.0), 0.0)
    return p


def solve_rigid(
    fixed_points: np.ndarray, moving_points: np.ndarray, p: np.ndarray
) -> tuple[SimilarityTransform, float]:
    """Weighted closed-form similarity fit of moving onto fixed.

    p is the (moving, fixed) correspondence weight matrix.  Returns the
    transform and the reweighted residual variance lambda^2.
    """
    f = np.asarray(fixed_points, dtype=float).reshape(-1, 3)
    m = np.asarray(moving_points, dtype=float).reshape(-1, 3)
    p = np.asarray(p, dtype=float)
    if p.shape != (m.shape[0], f.shape[0]):
        raise RejectedInputError(f"p shape {p.shape} does not match point counts")
    n_p = float(p.sum())
    if not n_p > 1e-12:
        raise DegenerateCorrespondenceError("correspondence weights sum to zero")
    col = p.sum(axis=0)  # over moving, one weight per fixed point
    row = p.sum(axis=1)  # over fixed, one weight per moving point
    mu_f = f.T @ col / n_p
    mu_m = m.T @ row / n_p
    f_hat = f - mu_f
    m_hat = m - mu_m
    a = f_hat.T @ (p.T @ m_hat)
    u, s, vt = np.linalg.svd(a)
    if s[0] <= 0.0 or s[1] <= 1e-12 * s[0]:
        raise DegenerateGeometryError("points are collinear or coincident")
    c = np.diag([1.0, 1.0, float(np.sign(np.linalg.det(u @ vt)))])
    r = u @ c @ vt
    denom = float(np.einsum("m,mi,mi->", row, m_hat, m_hat))
    if denom <= 0.0:
        raise DegenerateGeometryError("moving points carry no spread under the weights")
    trace_ar = float(np.trace(a.T @ r))
    b = trace_ar / denom
    if not b > 0.0:
        raise DegenerateGeometryError("similarity scale collapsed to zero")
    t = mu_f - b * (r @ mu_m)
    var_f = float(np.einsum("n,ni,ni->", col, f_hat, f_hat))
    lambda_sq = max((var_f - b * trace_ar) / (3.0 * n_p), 0.0)
    return SimilarityTransform(rotation=r, scale=b, translation=t), lambda_sq


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
    p = None
    converged = False
    if cfg.variant == "icp":
        tree = cKDTree(x_f)
        previous = None
        for _ in range(cfg.max_iterations):
            _, nearest = tree.query(t.apply(x_m))
            # converged once the last fit saw the assignment of the one before
            converged = previous is not None and np.array_equal(nearest, previous)
            previous = nearest
            p = np.zeros((x_m.shape[0], x_f.shape[0]))
            p[np.arange(x_m.shape[0]), nearest] = 1.0
            t, lam = solve_rigid(x_f, x_m, p)
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
            if p.sum() <= 1e-12:
                # the background term has absorbed all mass; the posterior
                # carries no geometry, so keep the last transform
                log.warning(
                    "EM stopped at lambda_sq %.3e: correspondence mass vanished", lam
                )
                break
            try:
                t, lam_new = solve_rigid(x_f, x_m, p)
            except (DegenerateCorrespondenceError, DegenerateGeometryError) as exc:
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
        probability=p,
        inliers=init.inliers,
        converged=converged,
        runtime=runtime,
        init=init,
    )
