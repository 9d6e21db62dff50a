"""Geometric compatibility kernels between feature pairs, for all pairs at once.

Three unit-height factors, multiplied into one geometry kernel:

- scale:       exp(-(log sn - log sm)^2)
- orientation: exp(-3 + sum_i cos(theta_i_n, theta_i_m)), optionally the max
               over the four sign states of the moving frame
- location:    exp(-|xn - xm|^2 / (k sn sm + sigma_t^2))

The location bandwidth grows with the feature scales (factor k) on top of a
constant floor sigma_t^2, so distant coarse features still see each other.

`log_kernel_matrix` is the log of the product for every (moving, fixed) pair
of stacked geometries, which the E-step adds to its log location term;
`kernel_matrix` is its exp.  These are the only implementations: a pair's
kernel is the 1x1 case, and the scalar factor formulas live in the tests as
oracles.  `squared_distances` is the one pairwise distance routine, shared
with the E-step.

The scale and orientation terms are BLAS products of per-feature rows,
`kernel_rows`, which a caller builds once per set and gathers per block.  With
lm = log sm and lf = log sn, the log scale factor plus the orientation's -3,
c = -3 - (lm - lf)^2, has rank 3: [-3 - lm^2, 2 lm, -1] . [1, lf, lf^2].
The axis cosines are d_i = theta_i_m . theta_i_n.  The four states are the
diagonal sign patterns of even parity, and they pair up: the better of
(+++) and (+--) scores d1 + |d2 + d3|, the better of (-+-) and (--+)
scores -d1 + |d2 - d3|.  So the state max plus c is max(A + |U|, B + |V|)
with A, B = c +- d1 and U, V = d2 +- d3, four (., 6) @ (6, N) products;
without states, c + d1 + d2 + d3 is one product over the scale rows and all
nine frame entries.  Memory is three (M, N) arrays, nothing per state or
per axis, besides the rows: 12 numbers a feature, 24 a moving one under states.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FINITE, POSITIVE, RejectedInputError, check_field_types


@dataclass
class KernelParams:
    k: float = 12.0
    sigma_t_sq: float = 200.0
    use_orientation_states: bool = True

    def __post_init__(self) -> None:
        check_field_types(self, k=(POSITIVE, FINITE), sigma_t_sq=(0.0, FINITE))


def squared_distances(x_m: np.ndarray, x_f: np.ndarray) -> np.ndarray:
    """(moving, fixed) squared distances of stacked locations (n, 3), summed
    one axis at a time, with no (M, N, 3) temporary.

    Each axis's differences are the product [x_m, -1] @ [1, x_f]: its two
    terms are exact, so the one rounding of their sum gives x_m - x_f exactly,
    at BLAS speed.
    """
    rows = np.stack([x_m.T, np.full(x_m.T.shape, -1.0)], axis=-1)  # (3, M, 2)
    cols = np.stack([np.ones(x_f.T.shape), x_f.T], axis=1)  # (3, 2, N)
    dist_sq = rows[0] @ cols[0]
    dist_sq *= dist_sq
    axis = np.empty_like(dist_sq)
    for i in (1, 2):
        np.matmul(rows[i], cols[i], out=axis)
        axis *= axis
        dist_sq += axis
    return dist_sq


def check_geometry(fixed: tuple, moving: tuple, params: KernelParams | None = None) -> None:
    """Reject feature sets (x, s, theta) unless each holds real-number arrays
    x (n, 3), s (n,) and theta (n, 3, 3) with locations below 2^64 in
    magnitude, scales in (0, 2^64) and frame entries in [-2, 2]: squared
    distances and the scale and frame products then stay finite, and no
    kernel exceeds exp(33).  Given params, the location bandwidth k s_m s_f +
    sigma_t^2, formed in log_kernel_matrix's order, must lie in [2^-768,
    FINITE] at the scale extremes, and so at every pair: squared distances
    then divide to at most 2^900, which no finite log term carries past FINITE."""
    for x, s, theta in (fixed, moving):
        n = len(s) if getattr(s, "ndim", 0) == 1 else -1
        real = all(isinstance(a, np.ndarray) and a.dtype.kind in "iuf" for a in (x, s, theta))
        if not (real and x.shape == (n, 3) and theta.shape == (n, 3, 3)):
            raise RejectedInputError("geometry must be real arrays shaped (n, 3), (n,), (n, 3, 3)")
        bounded = (np.abs(x) < 2.0**64).all() and (np.abs(theta) <= 2.0).all()
        if not (bounded and ((s > 0.0) & (s < 2.0**64)).all()):
            raise RejectedInputError(
                "locations must lie below 2^64, scales in (0, 2^64) and frame entries in [-2, 2]"
            )
    if params is not None and len(fixed[1]) and len(moving[1]):
        low = params.k * float(moving[1].min()) * float(fixed[1].min()) + params.sigma_t_sq
        high = params.k * float(moving[1].max()) * float(fixed[1].max()) + params.sigma_t_sq
        if not 2.0**-768 <= low <= high <= FINITE:
            raise RejectedInputError(
                f"location bandwidth must lie in [2^-768, FINITE], got [{low!r}, {high!r}]"
            )


def kernel_rows(s: np.ndarray, t: np.ndarray, params: KernelParams | None = None) -> np.ndarray:
    """Per-feature rows whose products give the scale term and the axis
    cosines: a fixed feature's [1, lf, lf^2, theta_1, theta_2, theta_3]
    (n, 12); given params, a moving feature's [-3 - lm^2, 2 lm, -1] and its
    axes, followed under orientation states by the same 12 with theta_1 and
    theta_3 negated, which give B and V (n, 24).  A row depends on its
    feature alone, so rows built once serve every block of that set."""
    log_s = np.log(s)
    if params is None:
        scale = (np.ones_like(log_s), log_s, log_s * log_s)
    else:
        scale = (-3.0 - log_s * log_s, 2.0 * log_s, -np.ones_like(log_s))
    rows = np.concatenate([np.stack(scale, axis=1), t.transpose(0, 2, 1).reshape(-1, 9)], axis=1)
    if params is not None and params.use_orientation_states:
        rows = np.concatenate([rows, rows * np.repeat([1.0, -1.0, 1.0, -1.0], 3)], axis=1)
    return rows


def log_kernel_matrix(
    dist_sq: np.ndarray,
    s_f: np.ndarray,
    rows_f: np.ndarray,
    s_m: np.ndarray,
    rows_m: np.ndarray,
    params: KernelParams,
) -> np.ndarray:
    """Log of kernel_matrix, given the (moving, fixed) squared distances
    dist_sq, the scales and the kernel_rows of both sets, moving under params."""
    scratch = None
    if params.use_orientation_states:
        score = rows_m[:, :6] @ rows_f[:, :6].T
        scratch = rows_m[:, 6:12] @ rows_f[:, 6:].T
        score += np.abs(scratch, out=scratch)
        other = rows_m[:, 12:18] @ rows_f[:, :6].T
        np.matmul(rows_m[:, 18:], rows_f[:, 6:].T, out=scratch)
        other += np.abs(scratch, out=scratch)
        np.maximum(score, other, out=score)
    else:
        score = rows_m @ rows_f.T
    bandwidth = np.multiply.outer(params.k * s_m, s_f, out=scratch)
    bandwidth += params.sigma_t_sq
    score -= np.divide(dist_sq, bandwidth, out=bandwidth)
    return score


def kernel_matrix(
    x_f: np.ndarray,
    s_f: np.ndarray,
    t_f: np.ndarray,
    x_m: np.ndarray,
    s_m: np.ndarray,
    t_m: np.ndarray,
    params: KernelParams,
) -> np.ndarray:
    """All-pairs geometry kernel, shaped (moving, fixed), of stacked locations
    (n, 3), scales (n,) and frames (n, 3, 3), as check_geometry admits them
    with params."""
    check_geometry((x_f, s_f, t_f), (x_m, s_m, t_m), params)
    rows_f, rows_m = kernel_rows(s_f, t_f), kernel_rows(s_m, t_m, params)
    log_k = log_kernel_matrix(squared_distances(x_m, x_f), s_f, rows_f, s_m, rows_m, params)
    return np.exp(log_k, out=log_k)
