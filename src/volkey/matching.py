"""Descriptor matching and transform-space voting.

Each fixed feature is matched to the single moving feature and sign state
whose ranked descriptor is nearest in Euclidean distance (no ratio test; ties
resolve to the lowest moving index, then lowest state).  Every match implies
a similarity transform from the two feature geometries; the matches vote in
transform space and the dominant mode, refined by mean shift, initializes
registration.  Vote transforms map moving geometry onto fixed geometry.

Matches live in one record array of MATCH_DTYPE, one row per fixed feature.
"""
from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .descriptors import NUM_BINS, Feature, feature_geometry
from .errors import (
    DegenerateGeometryError,
    InitializationFailureError,
    RejectedInputError,
    check_field_types,
)
from .frames import STATE_SIGNS
from .transforms import (
    SimilarityTransform,
    fit_similarity,
    project_to_rotation,
    rotvec_from_matrix,
)

MATCH_DTYPE = np.dtype(
    [
        ("fixed_index", np.int64), ("moving_index", np.int64), ("moving_state", np.int64),
        ("descriptor_distance", float),
        # both geometries, the moving one under the matched state
        ("fixed_x", float, 3), ("fixed_sigma", float),
        ("moving_x", float, 3), ("moving_sigma", float),
        # the vote, moving onto fixed
        ("rotation", float, (3, 3)), ("scale", float), ("translation", float, 3),
    ]
)

# bytes of float32 distances per block of fixed rows: matching never holds
# the whole (N, 4M) table
_BLOCK_BYTES = 8 << 20

# vote search caps: seed cells, mean-shift steps per seed, inlier refits
MAX_SEEDS = 64
MAX_SHIFT_ITERS = 30
MAX_REFIT_ITERS = 10


def match_table(fixed, moving, fixed_index, moving_index, moving_state, distance) -> np.recarray:
    """Match records with their votes; fixed and moving are (x, sigma, theta)
    stacks, one row per match, the moving frames under the matched state.

    Each vote carries moving onto fixed: b = sigma_f / sigma_m,
    R = theta_f theta_m^T, t = x_f - b R x_m.
    """
    (x_m, s_m, t_m), (x_f, s_f, t_f) = moving, fixed
    b = np.divide(s_f, s_m)
    r = project_to_rotation(t_f @ np.swapaxes(t_m, -1, -2))
    t = x_f - b[..., None] * (r @ x_m[..., None])[..., 0]
    columns = [fixed_index, moving_index, moving_state, distance, x_f, s_f, x_m, s_m, r, b, t]
    return np.rec.fromarrays(columns, dtype=MATCH_DTYPE)


def match_features(fixed: list[Feature], moving: list[Feature]) -> np.recarray:
    """Nearest ranked descriptor over all moving features and states."""
    if not fixed or not moving:
        raise RejectedInputError("both feature lists must be nonempty")
    ranks_f = np.array([f.descriptors[0].ranked for f in fixed])
    # row m * nstates + state
    flat = np.array([d.ranked for f in moving for d in f.descriptors])
    if min(ranks_f.min(), flat.min()) < 0 or max(ranks_f.max(), flat.max()) >= NUM_BINS:
        raise RejectedInputError(f"descriptor ranks must lie in 0..{NUM_BINS - 1}")
    ranks_f, flat = ranks_f.astype(np.float32), flat.astype(np.float32)
    nstates = len(flat) // len(moving)
    # over ranks in 0..63, a.b and |b|^2 are at most 64 * 63^2 < 2^24, so every
    # product, partial sum and |b|^2 - 2 a.b is an integer float32 holds
    # exactly; that difference orders the rows of b as |a - b|^2 does, so the
    # first minimum is the lowest (moving, state), as over exact integers
    sq_m = (flat * flat).sum(axis=1)
    step = max(1, _BLOCK_BYTES // (flat.itemsize * len(flat)))
    blocks = np.split(ranks_f, np.arange(step, len(fixed), step))
    best = np.concatenate([(sq_m - 2.0 * (a @ flat.T)).argmin(axis=1) for a in blocks])
    mi, state = np.divmod(best, nstates)
    x_m, s_m, theta_m = feature_geometry(moving)
    moving_geometry = (x_m[mi], s_m[mi], theta_m[mi] @ np.stack(STATE_SIGNS)[state])
    distance = np.sqrt(((ranks_f - flat[best]) ** 2).sum(axis=1, dtype=float))
    return match_table(
        feature_geometry(fixed), moving_geometry, np.arange(len(fixed)), mi, state, distance
    )


@dataclass
class HoughParams:
    """Consistency thresholds and accumulator quantization."""

    eps_cos: float = 0.7
    eps_log_scale: float = math.log(1.5)
    eps_disp: float = 0.25
    rot_bin: float = math.pi / 8.0
    log_scale_bin: float = math.log(1.5)
    trans_bin: float = 10.0

    def __post_init__(self) -> None:
        check_field_types(self)
        if not -1.0 <= self.eps_cos < 1.0:
            raise RejectedInputError(f"eps_cos must be in [-1, 1), got {self.eps_cos}")
        for name in ("eps_log_scale", "eps_disp", "rot_bin", "log_scale_bin", "trans_bin"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise RejectedInputError(f"{name} must be positive and finite")


@dataclass(eq=False)
class HoughResult:
    t_star: SimilarityTransform
    inliers: np.recarray


def consistency_mask(
    matches: np.recarray, log_scales: np.ndarray, t: SimilarityTransform, params: HoughParams
) -> np.ndarray:
    """Votes consistent with t: per-axis rotation cosines, log-scale gap
    (log_scales holds math.log of the vote scales), and scale-normalized
    residual; the batched matrix products round like those of a single match.
    """
    cos = np.einsum("nai,ai->ni", np.ascontiguousarray(matches.rotation), t.rotation)
    moved = (t.rotation @ np.ascontiguousarray(matches.moving_x)[..., None])[..., 0]
    residual = t.scale * moved + t.translation - matches.fixed_x
    dist_sq = (residual[:, None, :] @ residual[:, :, None])[:, 0, 0]
    norm = (t.scale * matches.moving_sigma) * matches.fixed_sigma
    return (
        ~np.any(cos <= params.eps_cos, axis=1)
        & (np.abs(log_scales - math.log(t.scale)) < params.eps_log_scale)
        & (dist_sq < params.eps_disp * norm)
    )


def _endpoint_fit(matches: np.recarray, members: np.ndarray) -> SimilarityTransform:
    """Least-squares similarity carrying the members' moving locations onto
    their fixed ones, each pair weighted 1."""
    f, mv = matches.fixed_x[members], matches.moving_x[members]
    ones = np.ones(len(f))
    return fit_similarity(f, mv, ones, ones, mv)[0]


def hough_init(matches: np.recarray, params: HoughParams | None = None) -> HoughResult:
    """Dominant similarity transform among the match votes.

    Votes are hashed on quantized (rotation-vector, log-scale, translation)
    coordinates; the strongest cells seed mean-shift refinement with one-bin
    bandwidth per component (chordal mean for rotation), and candidates are
    ranked by their consistent-vote count.  Raises when fewer than 3 matches
    exist or no candidate gathers 3 consistent votes.
    """
    params = params or HoughParams()
    if len(matches) < 3:
        raise InitializationFailureError(f"need at least 3 matches, got {len(matches)}")
    rots = np.ascontiguousarray(matches.rotation)
    trans = matches.translation
    # math.log, not np.log: the SIMD log differs in the last bit for some
    # scales, and the cell means below depend on every bit
    log_scales = np.array(list(map(math.log, matches.scale)))
    keys = np.column_stack(
        [
            np.floor(rotvec_from_matrix(rots) / params.rot_bin),
            np.floor(log_scales / params.log_scale_bin),
            np.floor(trans / params.trans_bin),
        ]
    ).astype(np.int64)
    _, cell_of, cell_size = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    candidates: list[SimilarityTransform] = []
    # cells come in key order, so a stable sort on size gives (-size, key)
    for cell in np.argsort(-cell_size, kind="stable")[:MAX_SEEDS]:
        window = np.flatnonzero(cell_of == cell)
        r_hat = project_to_rotation(rots[window].mean(axis=0))
        ls_hat = float(log_scales[window].mean())
        t_hat = trans[window].mean(axis=0)
        previous = None
        for _ in range(MAX_SHIFT_ITERS):
            cos_ang = np.clip(
                (np.einsum("kij,ij->k", rots, r_hat) - 1.0) / 2.0, -1.0, 1.0
            )
            inside = (
                (np.arccos(cos_ang) < params.rot_bin)
                & (np.abs(log_scales - ls_hat) < params.log_scale_bin)
                & (np.linalg.norm(trans - t_hat, axis=1) < params.trans_bin)
            )
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
        # The vote mean inherits each vote's single-frame noise; a
        # least-squares fit of the window members' matched endpoints is much
        # sharper, so offer it as a second candidate for the same cluster.
        if window.size >= 3:
            with suppress(DegenerateGeometryError, RejectedInputError):
                candidates.append(_endpoint_fit(matches, window))

    masks = [consistency_mask(matches, log_scales, c, params) for c in candidates]
    counts = [int(mask.sum()) for mask in masks]
    if max(counts, default=0) < 3:
        raise InitializationFailureError(
            f"no transform cluster with >= 3 consistent votes (best {max(counts, default=0)})"
        )
    winner = int(np.argmax(counts))
    best, inliers = candidates[winner], masks[winner]
    # Re-fit to the inlier pairs and recount until membership stabilizes; the
    # mean-shift mode is a vote average while the least-squares fit of the
    # matched endpoints is sharper, which recovers inliers the residual test
    # rejects under the coarser mode.
    for _ in range(MAX_REFIT_ITERS):
        if inliers.sum() < 3:
            break
        try:
            refit = _endpoint_fit(matches, inliers)
        except (DegenerateGeometryError, RejectedInputError):
            break
        new_inliers = consistency_mask(matches, log_scales, refit, params)
        if new_inliers.sum() < inliers.sum():
            break
        best = refit
        if np.array_equal(new_inliers, inliers):
            break
        inliers = new_inliers
    return HoughResult(t_star=best, inliers=matches[inliers])
