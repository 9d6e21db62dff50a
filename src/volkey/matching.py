"""Descriptor matching and transform-space voting.

Each fixed feature is matched to the single moving feature and sign state
whose ranked descriptor is nearest in Euclidean distance (no ratio test; ties
resolve to the lowest moving index, then lowest state).  Every match implies
a similarity transform from the two feature geometries; the matches vote in
transform space and the dominant mode, refined by mean shift, initializes
registration.  Vote transforms map moving geometry onto fixed geometry.
Matches live in one record array of MATCH_DTYPE, one row per fixed feature.

Distances come from one float32 product per block.  Every ranked descriptor
is a permutation of 0..63 (stack_features refuses any other), so every |b|^2
is the same 85344 and a.b orders b as -|a - b|^2 does; every product and
partial sum is an integer below 2^17, exact in float32 in any order, so argmax
is the first nearest (moving, state).  The vote steps all
S <= MAX_SEEDS seeds and counts all C <= 2 S candidates pair by pair, bit for
bit as a one-seed loop, in _BLOCK_BYTES blocks: O(N) memory besides a block.
"""
from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import astuple, dataclass

import numpy as np

from .descriptors import NUM_BINS, Feature, FeatureSet, stack_features
from .errors import (
    BELOW_ONE,
    FINITE,
    POSITIVE,
    DegenerateGeometryError,
    InitializationFailureError,
    RejectedInputError,
    check_field_types,
    check_type,
)
from .frames import STATE_SIGNS
from .transforms import (
    SimilarityTransform,
    fit_similarity,
    is_rotation,
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

# bytes of a block of float32 products or vote test pairs (at most 226 B a pair, tracemalloc)
_BLOCK_BYTES = 8 << 20
_PAIR_BYTES = 8 * 40

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


def match_features(
    fixed: list[Feature] | FeatureSet, moving: list[Feature] | FeatureSet
) -> np.recarray:
    """Nearest ranked descriptor over all moving features and states."""
    return _match_stacks(stack_features(fixed), stack_features(moving))


def _match_stacks(fixed: dict, moving: dict) -> np.recarray:
    """match_features on the two lists' stack_features stacks."""
    if not (len(fixed["x"]) and len(moving["x"])):
        raise RejectedInputError("both feature lists must be nonempty")
    ranks_f, n = fixed["ranks"][:, 0], len(fixed["x"])
    flat = moving["ranks"].reshape(-1, NUM_BINS)  # row m * nstates + state
    a, b = ranks_f.astype(np.float32), flat.astype(np.float32)  # exact, see above
    best = _blocked(lambda rows: (a[rows] @ b.T).argmax(axis=1), n, 4 * len(flat))
    mi, state = np.divmod(best, len(STATE_SIGNS))
    x_m, s_m, theta_m = moving["x"], moving["sigma"], moving["frame"]
    moving_geometry = (x_m[mi], s_m[mi], theta_m[mi] @ np.stack(STATE_SIGNS)[state])
    distance = np.sqrt(((ranks_f - flat[best]) ** 2).sum(axis=1, dtype=float))
    fixed_geometry = fixed["x"], fixed["sigma"], fixed["frame"]
    return match_table(fixed_geometry, moving_geometry, np.arange(n), mi, state, distance)


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
        positive = ("eps_log_scale", "eps_disp", "rot_bin", "log_scale_bin", "trans_bin")
        bounds = dict.fromkeys(positive, (POSITIVE, FINITE))
        check_field_types(self, eps_cos=(-1.0, BELOW_ONE), **bounds)


@dataclass(eq=False)
class HoughResult:
    t_star: SimilarityTransform
    inliers: np.recarray


def _blocked(test, rows: int, row_bytes: int) -> np.ndarray:
    """test(block) stacked over slices of range(rows) within _BLOCK_BYTES (one row at least)."""
    step = max(1, _BLOCK_BYTES // row_bytes)
    return np.concatenate([test(slice(k, k + step)) for k in range(0, rows, step)])


def _consistent(matches, log_scales, candidates, params: HoughParams) -> np.ndarray:
    """(C, N) votes consistent with candidates (r, b, t) in rotation, log-scale, then residual."""
    r, b, t = (np.array(c) for c in zip(*candidates))
    rots_t = np.ascontiguousarray(matches.rotation.transpose(1, 2, 0))
    def test(rows):
        q = r[rows, :, :, None] * rots_t  # summed over a in order, as einsum does
        log_b = np.array([math.log(x) for x in b[rows]])
        ok = np.all((q[:, 0] + q[:, 1]) + q[:, 2] > params.eps_cos, axis=1)
        ok &= np.abs(log_scales - log_b[:, None]) < params.eps_log_scale
        c, n = np.nonzero(ok)
        k = c + rows.start
        res = b[k, None] * (r[k] @ matches.moving_x[n, :, None])[..., 0] + t[k] - matches.fixed_x[n]
        norm = (b[k] * matches.moving_sigma[n]) * matches.fixed_sigma[n]
        ok[c, n] = (res[:, None, :] @ res[..., None])[:, 0, 0] < params.eps_disp * norm
        return ok
    return _blocked(test, len(r), _PAIR_BYTES * len(matches))


def _in_bandwidth(rots, log_scales, trans, r_hat, ls_hat, t_hat, params) -> np.ndarray:
    """(S, N) votes within a bin of modes in rotation angle and log-scale, then translation."""
    def test(rows):
        cos_ang = np.clip((np.einsum("kij,sij->sk", rots, r_hat[rows]) - 1.0) / 2.0, -1.0, 1.0)
        ok = np.arccos(cos_ang) < params.rot_bin
        ok &= np.abs(log_scales - ls_hat[rows, None]) < params.log_scale_bin
        s, k = np.nonzero(ok)
        sq = (trans[k] - t_hat[rows][s]) ** 2  # summed in order, as np.linalg.norm does
        ok[s, k] = np.sqrt((sq[:, 0] + sq[:, 1]) + sq[:, 2]) < params.trans_bin
        return ok
    return _blocked(test, len(r_hat), _PAIR_BYTES * len(rots))


def _window_means(windows, rots, log_scales, trans):
    """Bitwise rots[w].mean(axis=0), log_scales[w].mean(), trans[w].mean(axis=0) per window
    w: add.at adds in order, as reducing axis 0 does; reduceat after 0.0 sums pairwise."""
    def means(rows):
        seed, vote = np.nonzero(windows[rows])
        start = np.flatnonzero(np.diff(seed, prepend=-1))  # every window is nonempty
        sums = np.zeros((len(start), 12))
        np.add.at(sums, seed, np.c_[rots[vote].reshape(-1, 9), trans[vote]])
        ls = np.add.reduceat(np.insert(log_scales[vote], start, 0.0), start + np.arange(len(start)))
        return np.c_[sums, ls] / np.diff(start, append=len(seed))[:, None]
    mean = _blocked(means, len(windows), _PAIR_BYTES * len(rots))
    return project_to_rotation(mean[:, :9].reshape(-1, 3, 3)), mean[:, 12], mean[:, 9:12]


def hough_init(matches: np.recarray, params: HoughParams | None = None) -> HoughResult:
    """Dominant similarity transform among the match votes.

    Votes are hashed on quantized (rotation-vector, log-scale, translation)
    coordinates; the strongest cells seed mean-shift refinement with one-bin
    bandwidth per component (chordal mean for rotation), and candidates are
    ranked by their consistent-vote count.  Raises RejectedInputError unless
    matches are MATCH_DTYPE records of proper rotations, positive scales and
    sigmas, geometry below 2^64 (sums of its squares stay finite) and cells
    below 2^62 bins (int64 keys), and InitializationFailureError if no
    candidate (or fewer than 3 matches) gathers 3 consistent votes."""
    params = HoughParams() if params is None else check_type("params", params, HoughParams)
    if not (isinstance(matches, np.ndarray) and matches.dtype == MATCH_DTYPE and matches.ndim == 1):
        raise RejectedInputError("matches must be a 1-D array of MATCH_DTYPE records")
    m = matches.view(np.recarray)
    g = np.c_[m.fixed_x, m.moving_x, m.translation, m.scale, m.fixed_sigma, m.moving_sigma]
    rotations = is_rotation(m.rotation, 1e-6).all()
    if not ((np.abs(g) < 2.0**64).all() and (g[:, 9:] > 0).all() and rotations):
        raise RejectedInputError("votes need geometry below 2^64, positive scales and rotations")
    rots, trans = np.ascontiguousarray(m.rotation), np.ascontiguousarray(m.translation)
    # math.log: the SIMD np.log differs in the last bit for some scales, and means use every bit
    log_scales = np.array(list(map(math.log, m.scale)))
    cells = np.c_[rotvec_from_matrix(rots), log_scales, trans]
    bins = np.repeat([params.rot_bin, params.log_scale_bin, params.trans_bin], [3, 1, 3])
    if not (np.abs(cells) / 2.0**62 < bins).all():
        raise RejectedInputError("votes lie 2^62 bins or more from 0: the bins are too small")
    if len(m) < 3:
        raise InitializationFailureError(f"need at least 3 matches, got {len(m)}")
    keys = np.floor(cells / bins)
    _, cell_of, size = np.unique(keys.astype(int), axis=0, return_inverse=True, return_counts=True)
    # cells come in key order, so a stable sort on size gives (-size, key)
    windows = cell_of == np.argsort(-size, kind="stable")[:MAX_SEEDS, None]
    live, emptied = np.ones(len(windows), bool), np.zeros(len(windows), bool)
    for _ in range(MAX_SHIFT_ITERS):
        s = np.flatnonzero(live)
        modes = _window_means(windows[s], rots, log_scales, trans)
        new = _in_bandwidth(rots, log_scales, trans, *modes, params)
        # stop when a window repeats (a cell's repeats next) or empties (last means kept, no fit)
        emptied[s] = ~new.any(axis=1)
        live[s] = ~emptied[s] & (new != windows[s]).any(axis=1)
        windows[s[~emptied[s]]] = new[~emptied[s]]
        if not live.any():
            break
    r_hat, ls_hat, t_hat = _window_means(windows, rots, log_scales, trans)

    def fit(members):  # least-squares fit of the members' endpoints, each weighted 1
        f, mv, ones = m.fixed_x[members], m.moving_x[members], np.ones(members.sum())
        return fit_similarity(f, mv, ones, ones, mv)[0]
    # a window of 3 or more also offers its members' endpoint fit, much sharper than its mode
    candidates = []
    for k, members in enumerate(windows.sum(axis=1)):
        candidates.append((r_hat[k], math.exp(ls_hat[k]), t_hat[k]))
        with suppress(DegenerateGeometryError, RejectedInputError):
            candidates += [astuple(fit(windows[k]))] if members >= 3 and not emptied[k] else []
    masks = _consistent(m, log_scales, candidates, params)
    counts = masks.sum(axis=1)
    if counts.max() < 3:
        raise InitializationFailureError(
            f"no transform cluster with >= 3 consistent votes (best {counts.max()})")
    best, inliers = SimilarityTransform(*candidates[counts.argmax()]), masks[counts.argmax()]
    # re-fit to the inliers (3 or more) and recount until membership stabilizes
    with suppress(DegenerateGeometryError, RejectedInputError):
        for _ in range(MAX_REFIT_ITERS):
            refit = fit(inliers)
            new_inliers = _consistent(m, log_scales, [astuple(refit)], params)[0]
            if new_inliers.sum() < inliers.sum():
                break
            best, stable, inliers = refit, np.array_equal(new_inliers, inliers), new_inliers
            if stable:
                break
    return HoughResult(t_star=best, inliers=m[inliers])
