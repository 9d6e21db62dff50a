"""Volumetric scalar images and their Gaussian scale space.

Conventions used throughout:

- a volume stores its samples in an array indexed ``data[x, y, z]``; the
  serialized order (x fastest) is handled by the io module
- world coordinates are millimetres: ``world = origin + index * spacing``,
  voxel centers sit on the integer lattice; scale-space sampling
  (`_sample_gradients`) takes world points in mm, never level voxels
- scale sigma is a world-unit Gaussian standard deviation; the input volume
  is treated as blur-free, so pyramid level k of octave o holds the input
  smoothed by ``base_sigma * 2**(o + k/3)``
- each octave has 6 levels: indices 0..3 span [sigma, 2 sigma] in exactly
  3 logarithmic increments, indices 4..5 are auxiliaries so that difference
  pairs bracket every scale in the core range
- the scale-normalized Laplacian is approximated by adjacent-level
  differences scaled by ``sqrt(k)/(k - 1)`` with ``k = 2**(1/3)``, attributed
  to the geometric mean of the two level sigmas
- the scale space stores only its levels, each blurred from the one before
  by three 1D passes written into the level stack through one level-sized
  scratch array; detection forms |DoG| one layer at a time, and gradients
  are differenced at the trilinear sample corners, from one flat gather of
  level values per axis
- grids are resampled by scipy's order-1 `ndimage.affine_transform`, which
  computes each output voxel's source coordinate on the fly: `to_isotropic`
  clamps to the edge values, `resample` writes 0 outside [0, n-1] on any axis
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import RejectedInputError, check_number, check_type
from .transforms import SimilarityTransform

INTERVALS = 3
LEVELS_PER_OCTAVE = 6
MIN_DIM = 8
# sqrt(k)/(k-1) for k = 2**(1/3): converts a DoG sample into the
# scale-normalized Laplacian at the geometric-mean sigma
DOG_TO_LOG = 2.0 ** (1.0 / 6.0) / (2.0 ** (1.0 / 3.0) - 1.0)


@dataclass(eq=False)
class ScalarVolume:
    """Dense scalar field on a regular grid."""

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    origin: tuple[float, float, float]
    data: np.ndarray

    def __post_init__(self) -> None:
        try:
            self.dims = tuple(int(d) for d in self.dims)
            self.spacing = tuple(float(s) for s in self.spacing)
            self.origin = tuple(float(o) for o in self.origin)
            self.data = np.asarray(self.data, dtype=np.float64)
        except (TypeError, ValueError):
            raise RejectedInputError("dims, spacing, origin and data must be numbers") from None
        if len(self.dims) != 3 or any(d < 1 for d in self.dims):
            raise RejectedInputError(f"dims must be three positive ints, got {self.dims}")
        if len(self.spacing) != 3 or any(not (s > 0.0 and np.isfinite(s)) for s in self.spacing):
            raise RejectedInputError(f"spacing must be three positive numbers, got {self.spacing}")
        if len(self.origin) != 3 or any(not np.isfinite(o) for o in self.origin):
            raise RejectedInputError(f"origin must be three finite numbers, got {self.origin}")
        if self.data.shape != self.dims:
            raise RejectedInputError(
                f"data shape {self.data.shape} does not match dims {self.dims}"
            )
        if not np.all(np.isfinite(self.data)):
            raise RejectedInputError("volume intensities must all be finite")

    @property
    def world_min(self) -> np.ndarray:
        return np.asarray(self.origin, dtype=float)

    @property
    def world_max(self) -> np.ndarray:
        return self.world_min + (np.asarray(self.dims) - 1) * np.asarray(self.spacing)


def gaussian_kernel1d(sigma: float) -> np.ndarray:
    """Normalized 1D Gaussian taps truncated at radius ceil(3 sigma)."""
    radius = int(math.ceil(3.0 * sigma))
    x = np.arange(-radius, radius + 1, dtype=float)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def _blur_into(data: np.ndarray, sigma_vox: float, out: np.ndarray, scratch: np.ndarray) -> None:
    """Separable clamp-to-edge Gaussian blur of data written into out, with
    one array of out's shape as scratch: pass 0 into out, pass 1 into
    scratch, pass 2 back into out.  data must not overlap either."""
    k = gaussian_kernel1d(sigma_vox)
    ndimage.correlate1d(data, k, axis=0, output=out, mode="nearest")
    ndimage.correlate1d(out, k, axis=1, output=scratch, mode="nearest")
    ndimage.correlate1d(scratch, k, axis=2, output=out, mode="nearest")


@dataclass(eq=False)
class Octave:
    """One resolution tier of the pyramid: levels (6, X, Y, Z)."""

    data: np.ndarray
    sigmas: list[float]
    spacing: float
    origin: np.ndarray


@dataclass(eq=False)
class ScaleSpace:
    """Gaussian pyramid: the levels of each octave and nothing derived from them."""

    octaves: list[Octave]
    source_dims: tuple[int, int, int]
    source_spacing: tuple[float, float, float]
    source_origin: tuple[float, float, float]

    @property
    def sigma_min(self) -> float:
        return self.octaves[0].sigmas[0]

    @property
    def sigma_max(self) -> float:
        return self.octaves[-1].sigmas[-1]


def to_isotropic(volume: ScalarVolume) -> ScalarVolume:
    """Resample onto the smallest spacing when the grid is anisotropic."""
    check_type("volume", volume, ScalarVolume)
    sp = np.asarray(volume.spacing, dtype=float)
    if sp.max() == sp.min():
        return volume
    s = float(sp.min())
    new_dims = tuple(int(math.floor((d - 1) * spc / s)) + 1 for d, spc in zip(volume.dims, sp))
    # a 1-D matrix is the diagonal; "nearest" clamps to the edge values
    data = ndimage.affine_transform(volume.data, s / sp, output_shape=new_dims, order=1, mode="nearest")
    return ScalarVolume(dims=new_dims, spacing=(s, s, s), origin=volume.origin, data=data)


def build_scale_space(
    volume: ScalarVolume,
    base_sigma: float = 1.6,
    num_octaves: int | None = None,
) -> ScaleSpace:
    """Build the Gaussian pyramid for a volume.

    Each octave carries 6 levels at sigma * 2**(i/3); the next octave starts
    from level 3 (sigma doubled) subsampled by 2 per axis (floor halving).
    Anisotropic inputs are first resampled to isotropic min spacing.  The
    base level's blur must reach no farther than the volume does: 3
    base_sigma is at most the largest extent (dims - 1) * spacing, so no
    blur kernel has more than about four taps per voxel of the longest axis.
    It is also at least 2^-400 in mm and in voxels and at most 2^400 mm, so
    every tap's (x / sigma)^2 and squared level sigma stays finite and nonzero.
    """
    check_type("volume", volume, ScalarVolume)
    if min(volume.dims) < MIN_DIM:
        raise RejectedInputError(
            f"volume dims {volume.dims} too small; need >= {MIN_DIM} voxels per axis"
        )
    extent = max((d - 1) * s for d, s in zip(volume.dims, volume.spacing))
    lo = 2.0**-400 * max(1.0, min(volume.spacing))
    check_number("base_sigma", base_sigma, lo=lo, hi=min(extent / 3.0, 2.0**400))
    iso = to_isotropic(volume)
    # the coarsest octave keeps MIN_DIM voxels per axis; by default one octave less
    max_octaves = int(math.floor(math.log2(min(iso.dims) / MIN_DIM))) + 1
    num_octaves = max(1, max_octaves - 1) if num_octaves is None else num_octaves
    check_number("num_octaves", num_octaves, int, lo=1, hi=max_octaves)

    spacing = float(iso.spacing[0])
    origin = np.asarray(iso.origin, dtype=float)
    octaves: list[Octave] = []
    # the resampled input lives until octave 0's first level is blurred, and
    # each octave's scratch until its last level is
    current, iso = iso.data, None
    for o in range(num_octaves):
        oct_base = base_sigma * (2.0**o)
        sigmas = [oct_base * 2.0 ** (i / INTERVALS) for i in range(LEVELS_PER_OCTAVE)]
        levels = np.empty((LEVELS_PER_OCTAVE, *current.shape))
        scratch = np.empty(current.shape)
        # past octave 0, `current` was subsampled from the previous octave's
        # level 3 and already carries blur oct_base
        if o == 0:
            _blur_into(current, sigmas[0] / spacing, levels[0], scratch)
        else:
            levels[0] = current
        current = None
        for i in range(1, LEVELS_PER_OCTAVE):
            inc = math.sqrt(sigmas[i] ** 2 - sigmas[i - 1] ** 2) / spacing
            _blur_into(levels[i - 1], inc, levels[i], scratch)
        del scratch
        octaves.append(Octave(data=levels, sigmas=sigmas, spacing=spacing, origin=origin.copy()))
        if o + 1 < num_octaves:
            half = [d // 2 for d in levels[INTERVALS].shape]
            current = levels[INTERVALS][: 2 * half[0] : 2, : 2 * half[1] : 2, : 2 * half[2] : 2]
            spacing *= 2.0
    return ScaleSpace(
        octaves=octaves,
        source_dims=volume.dims,
        source_spacing=volume.spacing,
        source_origin=volume.origin,
    )


def _nearest_level(ss: ScaleSpace, sigma: float) -> tuple[int, int]:
    """Level with sigma closest in log scale; ties prefer the finer level.
    sigma must lie in the pyramid's range, widened by 1e-9 relative."""
    check_number("sigma", sigma, lo=ss.sigma_min * (1.0 - 1e-9), hi=ss.sigma_max * (1.0 + 1e-9))
    ls = math.log(sigma)
    best = None
    for o, octave in enumerate(ss.octaves):
        for i, s in enumerate(octave.sigmas):
            key = (abs(ls - math.log(s)), s, o)
            if best is None or key < best[0]:
                best = (key, o, i)
    return best[1], best[2]


def _sample_gradients(ss: ScaleSpace, points: np.ndarray, sigma: float) -> np.ndarray:
    """Gradients (per mm) at world points (..., 3) in mm, on the level nearest
    sigma; points outside the level take the clamped edge values.  The one
    scale-space sampler: frames and descriptors both read through it.

    Each component is np.gradient's difference (central inside, one-sided on
    the faces) blended trilinearly over the 8 voxel corners around a point.
    Along axis a the two corners' differences need the indices i0 - 1 .. i0 + 2
    (clamped), so one flat gather of (4, 2, 2, K) values per axis serves all
    8 corners: 4 along a times the 2 corners of each other axis.  Corners are
    weighted as ((d wx) wy) wz and summed in a fixed order; the result is
    C-contiguous, as the callers' reductions over points expect.
    """
    pts = np.asarray(points, dtype=float)
    if not np.isfinite(pts).all():
        raise RejectedInputError("sample points must be finite")
    o, i = _nearest_level(ss, sigma)
    octave = ss.octaves[o]
    level, h = octave.data[i], octave.spacing
    flat = level.reshape(-1)
    n = np.asarray(level.shape)[:, None]
    strides = (level.shape[1] * level.shape[2], level.shape[2], 1)
    # voxel coordinates (3, K); i0 stays in [0, n - 2], so the upper corner is i0 + 1
    v = np.subtract(pts.reshape(-1, 3).T, octave.origin[:, None], order="C")
    v /= h
    np.clip(v, 0.0, n - 1, out=v)
    i0 = np.maximum(np.minimum(np.floor(v).astype(np.intp), n - 2), 0)
    # per axis (2, K): the lower and the upper corner's weight
    weights = np.empty((3, 2, v.shape[1]))
    np.subtract(v, i0, out=weights[:, 1])
    np.subtract(1.0, weights[:, 1], out=weights[:, 0])
    base = i0[0] * strides[0] + i0[1] * strides[1] + i0[2] * strides[2]
    out = np.empty((v.shape[1], 3))
    for a in range(3):
        b, c = (x for x in range(3) if x != a)
        idx = np.add.outer(np.arange(-1, 3), i0[a])  # (4, K)
        np.maximum(idx[0], 0, out=idx[0])
        np.minimum(idx[3], level.shape[a] - 1, out=idx[3])
        start = base + (idx - i0[a]) * strides[a]
        across = np.add.outer(np.arange(2) * strides[b], np.arange(2) * strides[c])[:, :, None]
        # corners (a, b, c) of the differences (hi - lo) / ((hi - lo index) h)
        d = np.take(flat, start[2:, None, None] + across)
        d -= np.take(flat, start[:2, None, None] + across)
        d /= ((idx[2:] - idx[:2]) * h)[:, None, None]
        # the blend's factors are applied in x, y, z order whatever the axis
        d = np.moveaxis(d, (0, 1, 2), (a, b, c))
        d *= weights[0][:, None, None]
        d *= weights[1][None, :, None]
        d *= weights[2][None, None, :]
        out[:, a] = (
            d[0, 0, 0] + d[1, 0, 0] + d[0, 1, 0] + d[0, 0, 1]
            + d[1, 1, 0] + d[1, 0, 1] + d[0, 1, 1] + d[1, 1, 1]
        )
    return out.reshape(pts.shape)


def resample(volume: ScalarVolume, t: SimilarityTransform) -> ScalarVolume:
    """Map a volume through a similarity transform onto its own grid.

    Output voxel at world position v holds the trilinear sample of the input
    at t^-1(v); points mapping outside the input get 0.
    """
    check_type("volume", volume, ScalarVolume)
    inv = check_type("t", t, SimilarityTransform).inverse()
    sp = np.asarray(volume.spacing)
    org = np.asarray(volume.origin)
    # output voxel j sits at org + j sp and samples voxel (inv(org + j sp) - org) / sp;
    # "constant" writes 0 outside [0, n-1] on any axis and interpolates nothing past it
    matrix = inv.scale * inv.rotation * sp[None, :] / sp[:, None]
    offset = (inv.apply(org) - org) / sp
    data = ndimage.affine_transform(volume.data, matrix, offset, order=1, mode="constant", cval=0.0)
    return ScalarVolume(dims=volume.dims, spacing=volume.spacing, origin=volume.origin, data=data)
