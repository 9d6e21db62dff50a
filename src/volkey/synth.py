"""Synthetic phantoms and random similarity transforms for evaluation.

A phantom is a sum of anisotropic Gaussian blobs with seeded random centers,
per-axis widths in [2, 8] mm, random orientations and amplitudes in [0.5, 1].
Transform sampling draws per-axis rotation angles with magnitude uniform in
[10, 30] degrees and random sign (composed Rx @ Ry @ Rz), unit scale, and
per-axis translations uniform in [-10, 10] mm; rotations can be taken about a
given center point so content stays in the field of view.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import RejectedInputError, check_number
from .transforms import SimilarityTransform, rotation_x, rotation_y, rotation_z
from .volume import ScalarVolume

# bounds (mm) on spacings, widths, translations and centers: squares and
# sums of squares of such lengths, and their ratios, stay finite
_MIN_MM, _MAX_MM = 2.0**-64, 2.0**64


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation from a Shoemake quaternion."""
    u1, u2, u3 = rng.random(3)
    q = np.array(
        [
            math.sqrt(1.0 - u1) * math.sin(2.0 * math.pi * u2),
            math.sqrt(1.0 - u1) * math.cos(2.0 * math.pi * u2),
            math.sqrt(u1) * math.sin(2.0 * math.pi * u3),
            math.sqrt(u1) * math.cos(2.0 * math.pi * u3),
        ]
    )
    x, y, z, w = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def _quadratic_form(offsets: list[np.ndarray], prec: np.ndarray) -> np.ndarray:
    """d^T prec d on the grid spanned by three 1-D offset arrays (one per
    axis), bit for bit what np.einsum("...i,ij,...j->...", d, prec, d) gives
    on the stacked meshgrid d.

    Each axis's offsets broadcast along that axis, and the nine terms
    (d_i prec_ij) d_j are summed in row-major order from 0.0, einsum's own
    association and order.  The diagonal terms stay 1-D and the cross terms
    2-D, so only the last seven additions touch the whole grid.
    """
    d = [np.reshape(o, [-1 if b == a else 1 for b in range(3)]) for a, o in enumerate(offsets)]
    q = 0.0
    for i in range(3):
        for j in range(3):
            q = q + (d[i] * prec[i, j]) * d[j]
    return q


def make_phantom(
    seed: int,
    num_blobs: int = 40,
    dims: tuple[int, int, int] = (64, 64, 64),
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0),
    width_range: tuple[float, float] = (2.0, 8.0),
) -> ScalarVolume:
    """Sum of seeded anisotropic Gaussian blobs on a regular grid.

    Centers are uniform over the central 80% of the extent per axis so blob
    mass stays inside the field of view.  Raises RejectedInputError unless
    seed is a nonnegative integer, num_blobs a positive one, dims three
    positive integers, and the spacings and the width range (lo <= hi) lie
    in [2^-64, 2^64] mm, where no blob's exponent overflows.

    Each blob is evaluated over a box of 4 max widths around its center, its
    quadratic form summed from per-axis offsets (_quadratic_form), so the
    peak memory is the volume plus three float64 arrays the size of the
    largest box: the quadratic form, its scaled copy and the exponential.
    """
    check_number("seed", seed, int, lo=0)
    check_number("num_blobs", num_blobs, int, lo=1)
    try:
        dims = tuple(int(d) for d in dims)
        spacing = tuple(float(s) for s in spacing)
        w_lo, w_hi = (float(w) for w in width_range)
    except (TypeError, ValueError):
        raise RejectedInputError("dims, spacing and width_range must be numbers") from None
    if len(dims) != 3 or min(dims) < 1:
        raise RejectedInputError(f"dims must be three positive integers, got {dims}")
    if len(spacing) != 3 or not all(_MIN_MM <= s <= _MAX_MM for s in spacing):
        raise RejectedInputError(f"spacing must be three lengths in [2^-64, 2^64], got {spacing}")
    if not _MIN_MM <= w_lo <= w_hi <= _MAX_MM:
        raise RejectedInputError(f"width_range needs lo <= hi in [2^-64, 2^64], got {width_range}")
    rng = np.random.default_rng(seed)
    extent = (np.asarray(dims) - 1) * np.asarray(spacing)
    data = np.zeros(dims)
    axes = [np.arange(d) * s for d, s in zip(dims, spacing)]
    for _ in range(num_blobs):
        center = (0.1 + 0.8 * rng.random(3)) * extent
        widths = w_lo + (w_hi - w_lo) * rng.random(3)
        rot = _random_rotation(rng)
        amp = 0.5 + 0.5 * rng.random()
        # inverse covariance of the oriented blob
        prec = rot @ np.diag(1.0 / widths**2) @ rot.T
        # evaluate over a bounding box of 4 max widths around the center; the
        # center lies in [0.1, 0.9] (d - 1) s, so lo <= floor(c / s) <= d - 1 < hi
        reach = 4.0 * widths.max()
        lo = [max(0, int(math.floor((center[a] - reach) / spacing[a]))) for a in range(3)]
        hi = [min(dims[a], int(math.ceil((center[a] + reach) / spacing[a])) + 1) for a in range(3)]
        offsets = [axes[a][lo[a] : hi[a]] - center[a] for a in range(3)]
        q = _quadratic_form(offsets, prec)
        data[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]] += amp * np.exp(-0.5 * q)
    return ScalarVolume(dims=dims, spacing=spacing, origin=(0.0, 0.0, 0.0), data=data)


def random_similarity(
    seed: int,
    rot_range_deg: tuple[float, float] = (10.0, 30.0),
    trans_range_mm: tuple[float, float] = (0.0, 10.0),
    center: tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> SimilarityTransform:
    """Seeded random similarity transform with unit scale.

    Per-axis rotation magnitudes are uniform in rot_range_deg with random
    sign, composed as Rx @ Ry @ Rz about `center`; per-axis translations have
    magnitude uniform in trans_range_mm with random sign.  Raises
    RejectedInputError unless seed is a nonnegative integer, the rotation
    range is finite with 0 <= lo <= hi, and the translation range
    (0 <= lo <= hi) and the center's entries are below 2^64 mm in magnitude.
    """
    check_number("seed", seed, int, lo=0)
    try:
        lo, hi = (float(a) for a in rot_range_deg)
        tlo, thi = (float(a) for a in trans_range_mm)
        c = np.asarray(center, dtype=float).reshape(3)
    except (TypeError, ValueError):
        raise RejectedInputError("ranges must be two numbers and center three") from None
    if not 0.0 <= lo <= hi < math.inf:
        raise RejectedInputError(f"bad rotation range {rot_range_deg}")
    if not 0.0 <= tlo <= thi < _MAX_MM:
        raise RejectedInputError(f"bad translation range {trans_range_mm}")
    if not (np.abs(c) < _MAX_MM).all():
        raise RejectedInputError(f"center must be three numbers below 2^64 mm, got {center}")
    rng = np.random.default_rng(seed)
    angles = np.radians(lo + (hi - lo) * rng.random(3)) * rng.choice([-1.0, 1.0], size=3)
    shift = (tlo + (thi - tlo) * rng.random(3)) * rng.choice([-1.0, 1.0], size=3)
    r = rotation_x(angles[0]) @ rotation_y(angles[1]) @ rotation_z(angles[2])
    translation = c - r @ c + shift
    return SimilarityTransform(rotation=r, scale=1.0, translation=translation)
