"""Probabilistic feature-set registration under a global similarity transform.

The EM loop alternates a soft correspondence E-step with a weighted
closed-form similarity solve.  Column n of the probability map P holds
p(moving m | fixed n): a Gaussian location term at temperature lambda^2,
multiplied by the geometry kernel, normalized against a uniform background
whose strength is set by the outlier fraction w.  The E-step adds the two in
log space and normalizes each column with one log-sum-exp, taking the
location term relative to the column's nearest moving feature so that its
scale 1 / (2 lambda^2) cannot swamp the kernel.  The M-step is the
weighted Procrustes/Umeyama solve `transforms.fit_similarity`, which reads P
only through its sums P1, P^T 1 and P^T m and also re-estimates lambda^2, so
the temperature anneals as correspondences sharpen.

Since each column is normalized on its own, the loop never holds the whole
P: it adds blocks of fixed columns into the three sums, scaling by each
block's column normalizers instead of normalizing the block.  When all M x N
pairs fit in one block of `_ESTEP_BLOCK_PAIRS`, that block is the whole E-step.
Otherwise the blocks are runs of at most `_CULLED_BLOCK_COLUMNS` columns under
the nodes of a cKDTree over the fixed locations, and each block gets only the
moving rows nearer than r to its bounding box, gathered from rows of both
sets' kernel factors built once per E-step, where

    r^2 = 2 lambda^2 (kappa + log M - log eta - log u),   u = 2^-53,

log eta = 1.5 log(2 pi lambda^2) + log(w / (1 - w)) + log(M / N) is the
background, and kappa = -3 + sum_i max_m |theta_m,i| max_n |theta_n,i| bounds
every log kernel entry (0 for rotations and for "cpd").  A pair at least r
apart adds at most exp(kappa - r^2 / 2 lambda^2) = u eta / M to its column, so
the dropped terms of a column sum to at most u eta: each column normalizer
moves by at most u relative, and each dropped entry of P is at most u / M.
w = 0 has no background, so r is infinite and nothing is culled; r^2 <= 0
culls every pair, and the sums are exact zeros.  EM memory is one block's
temporaries plus its gathered moving rows, plus O(M + N).

Variants: "cpd" drops the kernel (constant 1); "sift_cpd" keeps it;
"sift_cpd_star" runs on the voting inliers only; "icp" replaces the E-step
with hard nearest-neighbor assignments for a fixed iteration count, each fitted
as index pairs.

The kernel variants trust border features less: a feature whose 3 sigma
reach crosses its volume's box is poorly located, so its weight alpha is
BORDER_WEIGHT, and 1 otherwise.  Each block scales every pair of the
normalized P by its two features' weights before adding it into the sums,
as in the weighted M-step of Myronenko and Song (TPAMI 2010).  Weights
never exceed 1, so the culling bound holds as it stands; without any border
flag the sums are not weighted at all.
"""
from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .descriptors import Feature, FeatureSet, stack_features
from .errors import (
    BELOW_ONE,
    FINITE,
    DegenerateCorrespondenceError,
    DegenerateGeometryError,
    RejectedInputError,
    check_field_types,
    check_number,
    check_type,
)
from .kernels import KernelParams, check_geometry, kernel_rows, log_kernel_matrix, squared_distances
from .matching import HoughParams, HoughResult, _match_stacks, hough_init
from .transforms import SimilarityTransform, fit_similarity

log = logging.getLogger(__name__)

VARIANTS = ("cpd", "sift_cpd", "sift_cpd_star", "icp")
REL_TOL = 1e-6
# (moving, fixed) pairs in one E-step block: about 5.5 MiB of temporaries
_ESTEP_BLOCK_PAIRS = 1 << 17
# fixed columns in one culled block: smaller blocks have tighter bounding
# boxes, larger ones fewer calls
_CULLED_BLOCK_COLUMNS = 64
# log u, u = 2^-53 the float64 unit roundoff
_LOG_ROUNDOFF = -53.0 * np.log(2.0)
# lambda^2 bounds: 1 / (2 lambda^2) and 2 pi lambda^2 stay finite
_TINY = float(np.finfo(float).tiny)
_LAMBDA_SQ_MAX = FINITE / (2.0 * np.pi)
# EM weight of a border feature in the kernel variants; 1 gives the unweighted sums
BORDER_WEIGHT = 0.5


@dataclass
class RegistrationConfig:
    variant: str = "sift_cpd"
    w: float = 0.1
    max_iterations: int = 100
    lambda_sq_floor: float = 1e-12
    kernel: KernelParams = field(default_factory=KernelParams)
    hough: HoughParams = field(default_factory=HoughParams)

    def __post_init__(self) -> None:
        check_field_types(self, max_iterations=(1, np.inf), lambda_sq_floor=(_TINY, np.inf))
        if self.variant not in VARIANTS:
            raise RejectedInputError(f"unknown variant {self.variant!r}")
        check_number("outlier fraction w", self.w, lo=0.0, hi=BELOW_ONE)


@dataclass(eq=False)
class RegistrationResult:
    transform: SimilarityTransform
    iterations: int
    lambda_sq_history: list[float]
    converged: bool
    runtime: float
    init: HoughResult | None = None


def _init_lambda_sq(fixed_points: np.ndarray, moving_points: np.ndarray) -> float:
    """Mean squared distance over all cross pairs, per dimension, in O(M + N)."""
    f = np.asarray(fixed_points, dtype=float).reshape(-1, 3)
    m = np.asarray(moving_points, dtype=float).reshape(-1, 3)
    if f.size == 0 or m.size == 0:
        raise RejectedInputError("point sets must be nonempty")
    # mean |m - f|^2 = var_f + var_m + |mu_m - mu_f|^2
    gap = m.mean(axis=0) - f.mean(axis=0)
    return float(f.var(axis=0).sum() + m.var(axis=0).sum() + gap @ gap) / 3.0


def _check_estep(fixed, moved, lambda_sq: float, config: RegistrationConfig) -> float:
    """Validate an E-step's inputs, two nonempty sets as check_geometry admits
    them with the kernel (without, for "cpd"), and lambda^2 in [_TINY,
    _LAMBDA_SQ_MAX]; return the log background
    log eta = 1.5 log(2 pi lambda^2) + log(w / (1 - w)) + log(M / N), with M
    the moving and N the fixed features."""
    check_number("lambda_sq", lambda_sq, lo=_TINY, hi=_LAMBDA_SQ_MAX)
    check_geometry(fixed, moved, None if config.variant == "cpd" else config.kernel)
    if not (len(fixed[1]) and len(moved[1])):
        raise RejectedInputError("the fixed and the moving set must be nonempty")
    log_volume = 1.5 * np.log(2.0 * np.pi * lambda_sq)
    with np.errstate(divide="ignore"):
        log_w = np.log(config.w / (1.0 - config.w))  # -inf: no background for w = 0
        return log_volume + log_w + np.log(moved[0].shape[0] / fixed[0].shape[0])


def _kernel_sides(fixed, moved, config):
    """What an E-step block reads of each set's (locations, scales, frames):
    the locations, then for a kernel variant the scales and the kernel_rows,
    built once for all blocks."""
    if config.variant == "cpd":
        return fixed[:1], moved[:1]
    return (
        (*fixed[:2], kernel_rows(*fixed[1:])),
        (*moved[:2], kernel_rows(*moved[1:], config.kernel)),
    )


def _unnormalized(fixed, moved, lambda_sq, log_eta, config):
    """A block's E-step before normalization: p = exp(log_num - shift) per
    column, inv = 1 / (column sum of p + background), and the column sums of
    the normalized block p * inv.  fixed and moved are the block's rows of
    _kernel_sides.

    log_eta is the whole sets' background.  Each column's location term is
    taken relative to its nearest moving feature, and that offset moves into
    the column's background, so at vanishing lambda^2 the nearest features
    keep their kernel ratios.
    """
    dist_sq = squared_distances(moved[0], fixed[0])
    log_k = None
    if config.variant != "cpd":
        log_k = log_kernel_matrix(dist_sq, *fixed[1:], *moved[1:], config.kernel)
    d_min = dist_sq.min(axis=0)
    dist_sq -= d_min
    with np.errstate(over="ignore", divide="ignore"):
        # far pairs may reach -inf, and a w > 0 background +inf
        dist_sq /= -2.0 * lambda_sq
        if config.w > 0.0:  # w = 0 keeps -inf, which must not meet +inf
            log_eta = log_eta + d_min / (2.0 * lambda_sq)
    log_num = dist_sq if log_k is None else np.add(log_k, dist_sq, out=log_k)
    # column log-sum-exp shifted by its largest term, background included;
    # a +inf background takes the whole column
    top = log_num.max(axis=0)
    log_num -= np.maximum(top, log_eta)
    p = np.exp(log_num, out=log_num)
    col = p.sum(axis=0)
    inv = 1.0 / (col + np.exp(np.minimum(log_eta - top, 0.0)))
    col *= inv
    return p, inv, col


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
    fixed, moved = (x_f, s_f, t_f), (x_m, s_m, t_m)
    log_eta = _check_estep(fixed, moved, lambda_sq, config)
    p, inv, _ = _unnormalized(*_kernel_sides(fixed, moved, config), lambda_sq, log_eta, config)
    p *= inv
    return p


def _kernel_ceiling(fixed, moved, config) -> float:
    """kappa, a ceiling on every log kernel entry: the log scale and location
    factors are at most 0, and each axis cosine is at most the product of the
    two axes' norms."""
    if config.variant == "cpd":
        return 0.0
    norm_f, norm_m = (np.linalg.norm(t, axis=1).max(axis=0) for t in (fixed[2], moved[2]))
    return -3.0 + float(norm_m @ norm_f)


def _tree_blocks(tree, size):
    """The fixed columns under each largest node of tree with at most size
    points, in tree order; a larger leaf is cut into runs of size."""
    nodes, blocks = [tree.tree], []
    while nodes:
        node = nodes.pop()
        if node.children <= size or node.lesser is None:
            idx = tree.indices[node.start_idx : node.end_idx]
            blocks += [idx[lo : lo + size] for lo in range(0, len(idx), size)]
        else:
            nodes += [node.greater, node.lesser]
    return blocks


def _weigh(p, inv, alpha_f, alpha_m):
    """A block's pair (m, n) scaled by alpha_m[m] alpha_f[n] after its column
    normalization: p's rows in place, and the normalizers inv.  Returns inv
    and the block's weighted column sums; weights of 1 change no bit."""
    p *= alpha_m[:, None]
    inv = inv * alpha_f
    return inv, p.sum(axis=0) * inv


def _posterior_sums(fixed, moved, x_m, lambda_sq, config, tree=None, alphas=None):
    """P^T 1, P 1 and P^T x_m of the E-step's P, one block of fixed columns
    at a time.

    fixed and moved are the (locations, scales, frames) of the fixed set and
    of the moving set under the current transform; x_m are the moving
    locations the M-step fits.  Each block's column normalizers scale its
    sums, so no block is normalized itself.  Past one block, tree is the
    cKDTree over the fixed locations whose nodes make the culled blocks
    (built here when not given); see the module docstring for r.  alphas,
    when given, are the fixed and the moving weights in (0, 1] that scale
    each pair of P.
    """
    n, m = fixed[0].shape[0], x_m.shape[0]
    log_eta = _check_estep(fixed, moved, lambda_sq, config)
    fixed_k, moved_k = _kernel_sides(fixed, moved, config)
    if m * n <= _ESTEP_BLOCK_PAIRS:
        p, inv, col = _unnormalized(fixed_k, moved_k, lambda_sq, log_eta, config)
        if alphas is not None:
            inv, col = _weigh(p, inv, *alphas)
        return col, p @ inv, (p.T @ x_m) * inv[:, None]
    # a pair at least r apart adds at most exp(kappa - r^2 / 2 lambda^2)
    # = u eta / M to its column; r = inf when w = 0, and r^2 <= 0 culls all
    with np.errstate(over="ignore"):
        r_sq = 2.0 * lambda_sq * (
            _kernel_ceiling(fixed, moved, config) + np.log(m) - log_eta - _LOG_ROUNDOFF
        )
    if tree is None:
        tree = cKDTree(fixed[0])
    col, row, pm = np.zeros(n), np.zeros(m), np.zeros((n, 3))
    for cols in _tree_blocks(tree, min(_CULLED_BLOCK_COLUMNS, max(1, _ESTEP_BLOCK_PAIRS // m))):
        x_b = fixed[0][cols]
        gap = moved[0] - np.clip(moved[0], x_b.min(axis=0), x_b.max(axis=0))
        rows = np.flatnonzero(np.einsum("ij,ij->i", gap, gap) < r_sq)
        if rows.size == 0:
            continue
        p, inv, col[cols] = _unnormalized(
            tuple(a[cols] for a in fixed_k), tuple(a[rows] for a in moved_k), lambda_sq, log_eta,
            config,
        )
        if alphas is not None:
            inv, col[cols] = _weigh(p, inv, alphas[0][cols], alphas[1][rows])
        row[rows] += p @ inv
        pm[cols] = (p.T @ x_m[rows]) * inv[:, None]
    return col, row, pm


def register(
    fixed: list[Feature] | FeatureSet,
    moving: list[Feature] | FeatureSet,
    config: RegistrationConfig | None = None,
) -> RegistrationResult:
    """Match, vote, then refine a moving-onto-fixed similarity transform."""
    cfg = RegistrationConfig() if config is None else config
    check_type("config", cfg, RegistrationConfig)
    start = time.perf_counter()
    stack_f, stack_m = stack_features(fixed), stack_features(moving)
    init = hough_init(_match_stacks(stack_f, stack_m), cfg.hough)
    t = init.t_star

    x_f, s_f, t_f = stack_f["x"], stack_f["sigma"], stack_f["frame"]
    x_m, s_m, t_m = stack_m["x"], stack_m["sigma"], stack_m["frame"]
    b_f, b_m = stack_f["border"], stack_m["border"]
    if cfg.variant == "sift_cpd_star":
        keep = np.unique(init.inliers.fixed_index)
        x_f, s_f, t_f, b_f = x_f[keep], s_f[keep], t_f[keep], b_f[keep]
        keep = np.unique(init.inliers.moving_index)
        x_m, s_m, t_m, b_m = x_m[keep], s_m[keep], t_m[keep], b_m[keep]
    alphas = None
    if cfg.variant in ("sift_cpd", "sift_cpd_star") and (b_f.any() or b_m.any()):
        alphas = tuple(np.where(b, BORDER_WEIGHT, 1.0) for b in (b_f, b_m))

    # the fixed set never moves: one tree for ICP's queries or EM's blocks
    tree = cKDTree(x_f)
    history: list[float] = []
    converged = False
    if cfg.variant == "icp":
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
        lam = _init_lambda_sq(x_f, t.apply(x_m))
        lam_init = lam
        for _ in range(cfg.max_iterations):
            if lam <= cfg.lambda_sq_floor:
                converged = True
                break
            theta = np.einsum("ij,njk->nik", t.rotation, t_m)
            moved = (t.apply(x_m), t.scale * s_m, theta)
            sums = _posterior_sums((x_f, s_f, t_f), moved, x_m, lam, cfg, tree, alphas)
            try:
                t, lam_new = fit_similarity(x_f, x_m, *sums)
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
        else:
            log.warning(
                "EM did not converge in %d iterations (lambda_sq %.3e)", cfg.max_iterations, lam
            )
    runtime = time.perf_counter() - start
    return RegistrationResult(t, len(history), history, converged, runtime, init)
