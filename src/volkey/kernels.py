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
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RejectedInputError
from .frames import STATE_SIGNS

# diagonal sign patterns of the four states, for vectorized trace scoring
_STATE_DIAGS = np.stack([np.diag(m) for m in STATE_SIGNS])  # (4, 3)


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
    if np.any(s_f <= 0.0) or np.any(s_m <= 0.0):
        raise RejectedInputError("scales must be positive")
    log_d = np.log(s_m)[:, None] - np.log(s_f)[None, :]
    diag = np.einsum("mai,nai->mni", t_m, t_f)
    if params.use_orientation_states:
        score = np.max(np.einsum("ki,mni->mnk", _STATE_DIAGS, diag), axis=-1)
    else:
        score = diag.sum(axis=-1)
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
