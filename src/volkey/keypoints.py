"""Scale-space extrema of the normalized Laplacian, with a binary contrast sign.

A keypoint is a strict local maximum of |sigma^2 lap I| over its 80-neighbor
(3x3x3x3) space-and-scale neighborhood, refined by one Newton step on the 4D
quadratic fit (Brown & Lowe 2002).  The sign of the Laplacian at the extremum
is kept as a binary feature attribute: it flips under intensity negation while
the locations, scales and responses stay fixed.

Detection never stores an octave's DoG stack.  It scans the scales with a
ring of three |DoG| layers, each the difference of two stored levels formed
as the scan reaches it, so its memory is three level-sized arrays plus
masks.  In each layer it keeps the nonzero interior entries that neither
neighbour along any of the four axes exceeds, by eight slice comparisons,
and confirms strictness by gathering the 80 neighbours of those candidates
only, in fixed-size blocks.  Refinement is array code over all of an
octave's candidates at once: the signed DoG read as the difference of two
levels at the gathered indices, finite differences from one table of 4D
unit steps, one stacked solve, and the offset, response and border tests as
masks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FINITE, POSITIVE, RejectedInputError, check_number
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
        # scalar checks only, float first: extraction builds a Keypoint per
        # candidate, and FeatureSet one per feature indexed
        try:
            self.x = np.asarray(self.x, dtype=float).reshape(3)
        except (TypeError, ValueError):
            raise RejectedInputError(f"x must be three numbers, got {self.x!r}") from None
        a, b, c = self.x.tolist()
        if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
            raise RejectedInputError(f"x must be finite, got {[a, b, c]}")
        # bounds passed positionally: keyword arguments cost more per call
        self.sigma = float(check_number("sigma", self.sigma, float, POSITIVE, FINITE))
        if check_number("sign", self.sign, float, -1, 1) not in (1, -1):
            raise RejectedInputError(f"sign must be 1 or -1, got {self.sign!r}")
        self.sign = int(self.sign)
        self.response = float(check_number("response", self.response))


# the fit's axes (x, y, z, scale) as unit steps of a (scale, x, y, z) stack index
_STEPS = np.array([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]])
# mixed second differences (p, q), summed as (+p+q) - (+p-q) - (-p+q) + (-p-q)
_PAIRS = ((0, 1), (0, 2), (1, 2), (3, 0), (3, 1), (3, 2))
# the 80 offsets of a (scale, x, y, z) index's 3x3x3x3 neighbourhood
_NEIGHBORS = np.array([o for o in np.ndindex(3, 3, 3, 3) if o != (1, 1, 1, 1)]) - 1
# candidates whose neighbours one gather holds: (4096, 80) flat indices and values, 5 MB
_GATHER_BLOCK = 4096


def _dog_at(levels: np.ndarray, at: np.ndarray) -> np.ndarray:
    """DoG levels[s + 1] - levels[s] at the (scale s, x, y, z) indices at
    (n, 4); bitwise the entry of the stacked levels[1:] - levels[:-1]."""
    s, x, y, z = at.T
    return levels[s + 1, x, y, z] - levels[s, x, y, z]


def _newton_steps(levels: np.ndarray, at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients (n, 4) and Newton offsets (n, 4) of the 4D quadratic fit to
    the DoG of levels at its (scale, x, y, z) indices at (n, 4).

    Offset order is (x, y, z, scale); spatial steps are one voxel, scale steps
    one pyramid interval.  A singular Hessian gives a zero offset.
    """
    def d(step=0):
        return _dog_at(levels, at + step)

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


def _ring_maxima(levels: np.ndarray) -> np.ndarray:
    """(scale, x, y, z) indices (n, 4) of the interior entries of
    |DoG| = |levels[1:] - levels[:-1]| strictly above all 80 neighbours, in
    scale-major argwhere order.

    |DoG| is held as a ring of three layers, one formed as the scan reaches
    it.  In each layer the candidates are the positive interior entries at
    least as large as their two neighbours along each axis, a superset of
    the strict maxima; a strict maximum is above neighbours >= 0, so zero
    plateaus, such as a zero background, hold none.  Candidates below a
    diagonal neighbour and ties are then dropped by gathering the 80
    neighbours of the candidates only, a fixed-size block at a time.
    """
    layer_shape = levels.shape[1:]
    ring = np.empty((3, *layer_shape))
    flat = ring.reshape(-1)
    strides = np.array([layer_shape[1] * layer_shape[2], layer_shape[2], 1])
    core = (slice(1, -1),) * 3

    def form(j):
        np.subtract(levels[j + 1], levels[j], out=ring[j % 3])
        np.abs(ring[j % 3], out=ring[j % 3])

    form(0)
    form(1)
    found = []
    for s in range(1, len(levels) - 2):
        form(s + 1)
        slots = np.array([s - 1, s, s + 1]) % 3
        mag = ring[s % 3]
        inner = mag[core]
        candidate = inner > 0.0
        for j in slots[[0, 2]]:
            candidate &= inner >= ring[j][core]
        for axis, size in enumerate(layer_shape):
            for lo in (0, 2):
                beside = core[:axis] + (slice(lo, lo + size - 2),) + core[axis + 1 :]
                candidate &= inner >= mag[beside]
        at = np.argwhere(candidate) + 1
        del candidate  # before the next layer's masks
        # each neighbour's flat ring index, less its candidate's within the layer
        around = slots[_NEIGHBORS[:, 0] + 1] * mag.size + _NEIGHBORS[:, 1:] @ strides
        within = at @ strides
        strict = np.empty(len(at), dtype=bool)
        for lo in range(0, len(at), _GATHER_BLOCK):
            block = within[lo : lo + _GATHER_BLOCK]
            values = np.take(flat, block[:, None] + around)
            strict[lo : lo + _GATHER_BLOCK] = (values < mag.flat[block][:, None]).all(axis=1)
        at = at[strict]
        found.append(np.column_stack([np.full(len(at), s), at]))
    return np.concatenate(found)


def detect_keypoints(
    ss: ScaleSpace,
    min_abs_response: float = 0.0,
    max_count: int | None = None,
) -> list[Keypoint]:
    """Find strict |response| extrema, refine, and sort by salience.

    Ordering is descending |response|, ties broken by lexicographic location
    then sigma; the list is truncated to max_count when given.
    """
    check_number("min_abs_response", min_abs_response, lo=0.0, hi=FINITE)
    check_number("max_count", max_count, int, lo=1, optional=True)
    world, sigma, response = [], [], []
    for octave in ss.octaves:
        at = _ring_maxima(octave.data)
        g, offset = _newton_steps(octave.data, at)
        # (1, 4) @ (4, 1) products round like the dot product of two vectors
        value = _dog_at(octave.data, at) + 0.5 * (g[:, None, :] @ offset[:, :, None])[:, 0, 0]
        r = value * DOG_TO_LOG
        keep = ~(np.abs(offset).max(axis=1) > MAX_OFFSET) & (r != 0.0)
        keep &= ~(np.abs(r) < min_abs_response)
        at, offset = at[keep], offset[keep]
        world.append(octave.origin + (at[:, 1:] + offset[:, :3]) * octave.spacing)
        # math.pow, not np.power: the vectorized power differs in the last bit
        steps = [math.pow(2.0, o) for o in offset[:, 3] / INTERVALS]
        s = np.asarray(octave.sigmas)
        sigma.append(np.sqrt(s[:-1] * s[1:])[at[:, 0]] * np.array(steps))
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
