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
oracles.

The axis cosines d_i = theta_i_m . theta_i_n of all pairs are three
(M, 3) @ (3, N) products.  The four states are the diagonal sign patterns of
even parity, so their best score is closed-form: sum_i |d_i|, less
2 min_i |d_i| when an odd number of the d_i is negative.  Memory is a few
(M, N) arrays, nothing per state or per axis pair.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RejectedInputError


@dataclass
class KernelParams:
    k: float = 12.0
    sigma_t_sq: float = 200.0
    use_orientation_states: bool = True

    def __post_init__(self) -> None:
        if not self.k > 0.0:
            raise RejectedInputError("kernel k must be positive")
        if not self.sigma_t_sq >= 0.0:
            raise RejectedInputError("kernel sigma_t_sq must be nonnegative")


def log_kernel_matrix(
    dist_sq: np.ndarray,
    s_f: np.ndarray,
    t_f: np.ndarray,
    s_m: np.ndarray,
    t_m: np.ndarray,
    params: KernelParams,
) -> np.ndarray:
    """Log of kernel_matrix, given the (moving, fixed) squared distances dist_sq."""
    for s in (s_f, s_m):
        if not np.all((s > 0.0) & (s < np.inf)):
            raise RejectedInputError("scales must be positive and finite")
    log_d = np.log(s_m)[:, None] - np.log(s_f)[None, :]
    d1, d2, d3 = (t_m[:, :, i] @ t_f[:, :, i].T for i in range(3))
    if params.use_orientation_states:
        # a state flips an even number of signs: all |d_i| count, unless an
        # odd number of d_i is negative and the smallest must count against
        # (a signed zero is then the smallest and costs nothing)
        odd = np.signbit(d1) ^ np.signbit(d2) ^ np.signbit(d3)
        d1, d2, d3 = np.abs(d1), np.abs(d2), np.abs(d3)
        score = d1 + d2 + d3
        score -= 2.0 * np.where(odd, np.minimum(np.minimum(d1, d2), d3), 0.0)
    else:
        score = d1 + d2 + d3
    bandwidth = params.k * s_m[:, None] * s_f[None, :] + params.sigma_t_sq
    return score - 3.0 - log_d * log_d - dist_sq / bandwidth


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
    (n, 3), scales (n,) and frames (n, 3, 3)."""
    diff = x_m[:, None, :] - x_f[None, :, :]
    dist_sq = np.einsum("mnd,mnd->mn", diff, diff)
    return np.exp(log_kernel_matrix(dist_sq, s_f, t_f, s_m, t_m, params))
