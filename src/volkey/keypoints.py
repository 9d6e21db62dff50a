"""Scale-space extrema of the normalized Laplacian, with a binary contrast sign.

A keypoint is a strict local maximum of |sigma^2 lap I| over its 80-neighbor
(3x3x3x3) space-and-scale neighborhood, refined by one Newton step on the 4D
quadratic fit (Brown & Lowe 2002).  The sign of the Laplacian at the extremum
is kept as a binary feature attribute: it flips under intensity negation while
the locations, scales and responses stay fixed.

Refinement is array code over all of an octave's candidates at once: finite
differences from one table of 4D unit steps, one stacked solve, and the
offset, response and border tests as masks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import RejectedInputError
from .volume import DOG_TO_LOG, INTERVALS, ScaleSpace

MAX_OFFSET = 0.6


@dataclass(eq=False)
class Keypoint:
    """One detected blob-like structure."""

    x: np.ndarray
    sigma: float
    sign: int
    response: float
    border: bool = False

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float).reshape(3)
        self.sigma = float(self.sigma)
        self.sign = int(self.sign)
        self.response = float(self.response)


# the fit's axes (x, y, z, scale) as unit steps of a (scale, x, y, z) stack index
_STEPS = np.array([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]])
# mixed second differences (p, q), summed as (+p+q) - (+p-q) - (-p+q) + (-p-q)
_PAIRS = ((0, 1), (0, 2), (1, 2), (3, 0), (3, 1), (3, 2))


def _newton_steps(stack: np.ndarray, at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients (n, 4) and Newton offsets (n, 4) of the 4D quadratic fit at
    the (scale, x, y, z) indices at (n, 4) of the difference stack.

    Offset order is (x, y, z, scale); spatial steps are one voxel, scale steps
    one pyramid interval.  A singular Hessian gives a zero offset.
    """
    def d(step=0):
        return stack[tuple((at + step).T)]

    c = d()
    g = np.empty((len(at), 4))
    h = np.empty((len(at), 4, 4))
    for a, e in enumerate(_STEPS):
        plus, minus = d(e), d(-e)
        g[:, a] = (plus - minus) / 2.0
        h[:, a, a] = plus - 2 * c + minus
    for p, q in _PAIRS:
        ep, eq = _STEPS[p], _STEPS[q]
        h[:, p, q] = h[:, q, p] = (d(ep + eq) - d(ep - eq) - d(eq - ep) + d(-ep - eq)) / 4.0
    # a zero LU pivot is what makes the solve fail; slogdet reports it as sign 0
    solvable = np.linalg.slogdet(h)[0] != 0.0
    offset = np.zeros((len(at), 4))
    offset[solvable] = -np.linalg.solve(h[solvable], g[solvable, :, None])[..., 0]
    return g, offset


def detect_keypoints(
    ss: ScaleSpace,
    min_abs_response: float = 0.0,
    max_count: int | None = None,
) -> list[Keypoint]:
    """Find strict |response| extrema, refine, and sort by salience.

    Ordering is descending |response|, ties broken by lexicographic location
    then sigma; the list is truncated to max_count when given.
    """
    if min_abs_response < 0.0:
        raise RejectedInputError("min_abs_response must be nonnegative")
    footprint = np.ones((3, 3, 3, 3), dtype=bool)
    footprint[1, 1, 1, 1] = False
    world, sigma, response = [], [], []
    for octave in ss.octaves:
        stack = np.stack(octave.dog)
        mag = np.abs(stack)
        neighbor_max = ndimage.maximum_filter(
            mag, footprint=footprint, mode="constant", cval=np.inf
        )
        at = np.argwhere(mag > neighbor_max)
        g, offset = _newton_steps(stack, at)
        # (1, 4) @ (4, 1) products round like the dot product of two vectors
        value = stack[tuple(at.T)] + 0.5 * (g[:, None, :] @ offset[:, :, None])[:, 0, 0]
        r = value * DOG_TO_LOG
        keep = ~(np.abs(offset).max(axis=1) > MAX_OFFSET) & (r != 0.0)
        keep &= ~(np.abs(r) < min_abs_response)
        at, offset = at[keep], offset[keep]
        world.append(octave.origin + (at[:, 1:] + offset[:, :3]) * octave.spacing)
        # math.pow, not np.power: the vectorized power differs in the last bit
        steps = [math.pow(2.0, o) for o in offset[:, 3] / INTERVALS]
        sigma.append(np.asarray(octave.dog_sigmas)[at[:, 0]] * np.array(steps))
        response.append(r[keep])
    world, sigma, response = (np.concatenate(a) for a in (world, sigma, response))
    vol_min = np.asarray(ss.source_origin, dtype=float)
    vol_max = vol_min + (np.asarray(ss.source_dims) - 1) * np.asarray(ss.source_spacing)
    reach = 3.0 * sigma[:, None]
    border = np.any(world - reach < vol_min, axis=1) | np.any(world + reach > vol_max, axis=1)
    order = np.lexsort((sigma, *world.T[::-1], -np.abs(response)))[:max_count]
    return [
        Keypoint(world[i], sigma[i], 1 if response[i] > 0 else -1, response[i], bool(border[i]))
        for i in order
    ]
