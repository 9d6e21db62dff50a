"""Sign-aware gradient orientation descriptors and the extraction pipeline.

The descriptor samples the image on an 8x8x8 lattice over the keypoint's
normalized local coordinates (centers -1.75 .. 1.75 in steps of 0.5, in units
of sigma along the frame axes).  Each sample adds its Gaussian-weighted
|gradient projection| to one of 64 bins: 8 spatial octants times 8 diagonal
direction bins.  The winning direction maximizes the projection of the local
gradient onto s * phi over the eight diagonals phi, where s is the keypoint's
contrast sign, so negating the image and flipping s leaves every bin
unchanged.  Bin magnitudes are rank-order normalized before matching.

The four states' lattices are one point set: a state flips frame axes, which
mirrors the symmetric lattice along them.  Extraction samples it once per
keypoint and bins each state's rows in that state's own order.  Matching,
registration and the feature writer read a feature list as one stack of
arrays, `stack_features`, named as the feature file's record fields.  A
feature file reads as a `FeatureSet`, which is that stack already.  Both
stacks are built by `_stack`, which holds the file's one record rule.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    FINITE, POSITIVE, AmbiguousFrameError, NoOrientationError, RejectedInputError,
    check_field_types, check_type,
)
from .frames import (
    MAX_WINDOW_FACTOR,
    STATE_SIGNS,
    Frame,
    enumerate_states,
    estimate_frame_max_gradient,
    estimate_frame_structure_tensor,
)
from .keypoints import Keypoint, detect_keypoints
from .transforms import is_rotation
from .volume import ScalarVolume, ScaleSpace, build_scale_space, _sample_gradients

NUM_BINS = 64

# index bit 0 -> +x, bit 1 -> +y, bit 2 -> +z; index 0 is (-,-,-)
_SIGNS = np.array(
    [[(i >> a & 1) * 2.0 - 1.0 for a in range(3)] for i in range(8)]
)
DIRECTIONS = _SIGNS / math.sqrt(3.0)

# descriptor lattice: 8 cells per axis over [-2, 2], sample at cell centers
_AXIS = (np.arange(8) - 3.5) * 0.5
_LATTICE = np.stack(np.meshgrid(_AXIS, _AXIS, _AXIS, indexing="ij"), axis=-1).reshape(-1, 3)
_OCTANT = (
    (_LATTICE[:, 0] > 0).astype(int)
    + 2 * (_LATTICE[:, 1] > 0).astype(int)
    + 4 * (_LATTICE[:, 2] > 0).astype(int)
)
_WEIGHT = np.exp(-0.5 * (_LATTICE**2).sum(axis=1))

# state k relabels octant and direction indices by XOR with these masks
STATE_BIN_MASKS = (0, 6, 5, 3)
# state k's lattice rows among the base frame's: its flipped axes run backwards
_STATE_ROWS = [
    np.arange(512).reshape(8, 8, 8)[::sx, ::sy, ::sz].reshape(-1)
    for sx, sy, sz in np.diagonal(STATE_SIGNS, axis1=1, axis2=2).astype(int)
]


@dataclass(eq=False)
class Descriptor:
    """64 bin magnitudes plus their rank-order normalization."""

    bins: np.ndarray | None
    ranked: np.ndarray

    def __post_init__(self) -> None:
        try:
            if self.bins is not None:
                self.bins = np.asarray(self.bins, dtype=float).reshape(NUM_BINS)
            self.ranked = np.asarray(self.ranked, dtype=np.int16).reshape(NUM_BINS)
        except (TypeError, ValueError, OverflowError):
            raise RejectedInputError(f"bins and ranked must be {NUM_BINS} numbers each") from None


def rank_normalize_bins(bins: np.ndarray) -> np.ndarray:
    """Replace each bin by its rank; ties resolve by bin index (stable)."""
    bins = np.asarray(bins, dtype=float).reshape(NUM_BINS)
    order = np.lexsort((np.arange(NUM_BINS), bins))
    ranked = np.empty(NUM_BINS, dtype=np.int16)
    ranked[order] = np.arange(NUM_BINS, dtype=np.int16)
    return ranked


def _lattice_points(kp: Keypoint, frame: Frame) -> np.ndarray:
    return kp.x + kp.sigma * (_LATTICE @ frame.matrix.T)


def _binned(kp: Keypoint, frame: Frame, grads: np.ndarray) -> Descriptor:
    """Descriptor from the gradients (512, 3) at the frame's lattice points."""
    local = kp.sigma * (grads @ frame.matrix)
    proj = (local @ DIRECTIONS.T) * kp.sign
    winner = np.argmax(proj, axis=1)
    value = np.abs(proj[np.arange(proj.shape[0]), winner])
    bins = np.bincount(_OCTANT * 8 + winner, _WEIGHT * value, NUM_BINS)
    return Descriptor(bins=bins, ranked=rank_normalize_bins(bins))


def compute_descriptor(ss: ScaleSpace, kp: Keypoint, frame: Frame) -> Descriptor:
    """Descriptor of one keypoint under one orientation frame."""
    return _binned(kp, frame, _sample_gradients(ss, _lattice_points(kp, frame), kp.sigma))


def compute_state_descriptors(ss: ScaleSpace, kp: Keypoint, base: Frame) -> list[Descriptor]:
    """The descriptors of the four states of base, state 0 first, from one
    sample of base's lattice.

    State k flips some frame axes, which mirrors the lattice along them: its
    points are base's, exactly, in the order of the index grid (8, 8, 8)
    read backwards along each flipped axis.  Each state bins its own gradient
    rows in its own order, so the result equals compute_descriptor's for
    every state, bit for bit.
    """
    grads = _sample_gradients(ss, _lattice_points(kp, base), kp.sigma)
    return [_binned(kp, s.frame, grads[_STATE_ROWS[s.index]]) for s in enumerate_states(base)]


@dataclass(eq=False)
class Feature:
    """Keypoint with its base frame and the descriptors of all four states."""

    keypoint: Keypoint
    frame: Frame
    descriptors: list[Descriptor]
    border: bool = False


class FeatureSet(Sequence):
    """Features held as one stack, laid out and checked by _stack, whose every
    array is made read-only.

    Nothing is built per feature until asked: item i is a Feature view of row
    i, its descriptors carrying ranks only (bins None) and its keypoint's
    response the sign, as a feature file stores them.  A slice is a list.
    """

    def __init__(self, stack: dict[str, np.ndarray]) -> None:
        for array in stack.values():
            array.flags.writeable = False
        self.stack = stack

    def __len__(self) -> int:
        return len(self.stack["x"])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]  # IndexError past either end
        s = self.stack
        sign, border = int(s["sign"][i]), bool(s["border"][i])
        kp = Keypoint(x=s["x"][i], sigma=float(s["sigma"][i]), sign=sign, response=float(sign),
                      border=border)
        descriptors = [Descriptor(bins=None, ranked=r) for r in s["ranks"][i]]
        return Feature(kp, Frame(s["frame"][i]), descriptors, border)


def _stack(x, sigma, frame, sign, border, ranks, error) -> dict[str, np.ndarray]:
    """The feature stack of the given fields: C-contiguous copies x (n, 3),
    sigma, frame (n, 3, 3), sign, border and ranks (n, 4, 64) int16, whose
    sort is ten times faster than u8's.  Raises error(i, why) at the first
    feature the record rule refuses: a frame that is not a rotation within
    1e-6, a sign other than +-1, a non-finite x or a sigma not positive and
    finite, or a state's ranks that are not a permutation of 0..63.  Signs
    and ranks are checked as given, before their integer casts, so a cast
    neither truncates a sign of 1.5 nor wraps or truncates a rank."""
    sign, ranks = np.asarray(sign), np.asarray(ranks)
    if np.can_cast(ranks.dtype, np.int16):
        ranks = np.array(ranks, dtype=np.int16, order="C")
    ranks = ranks.reshape(-1, 4, NUM_BINS)
    x = np.array(x, dtype=float, order="C").reshape(-1, 3)
    sigma = np.array(sigma, dtype=float, order="C")
    frame = np.array(frame, dtype=float, order="C").reshape(-1, 3, 3)
    located = (0.0 < sigma) & (sigma < math.inf) & np.isfinite(x).all(axis=1)
    permuted = np.all(np.sort(ranks, axis=2) == np.arange(NUM_BINS), axis=(1, 2))
    bad = np.stack([~is_rotation(frame, tol=1e-6), (sign != 1) & (sign != -1), ~located, ~permuted])
    if bad.any():
        i = int(np.flatnonzero(bad.any(axis=0))[0])
        why = (
            "frame is not a rotation",
            f"has sign {sign[i]}",
            f"has x {x[i]}, sigma {sigma[i]}",
            "ranks are not a permutation of 0..63",
        )[int(np.argmax(bad[:, i]))]
        raise error(i, why)
    return {
        "x": x, "sigma": sigma, "frame": frame,
        "sign": np.array(sign, dtype=int, order="C"),
        "border": np.array(border, dtype=bool, order="C"),
        "ranks": ranks.astype(np.int16, copy=False),
    }


def stack_features(features: list[Feature] | FeatureSet) -> dict[str, np.ndarray]:
    """The stack of a feature list, as _stack lays it out and checks it;
    RejectedInputError names the first feature without 4 descriptors or that
    the record rule refuses.  A FeatureSet's stack is returned itself, not
    copied: read_features checked it."""
    if isinstance(features, FeatureSet):
        return features.stack
    try:
        counts = [len(f.descriptors) for f in features]
    except (TypeError, AttributeError):
        raise RejectedInputError("features must be a list of Feature records") from None
    for i, count in enumerate(counts):
        if count != 4:
            raise RejectedInputError(f"feature {i} has {count} descriptors, not 4")
    keypoints = [f.keypoint for f in features]

    def error(i, why):
        return RejectedInputError(f"feature {i} {why}")

    return _stack(
        _rows("x", [k.x for k in keypoints], (3,), error),
        _rows("sigma", [k.sigma for k in keypoints], (), error),
        _rows("frame", [f.frame.matrix for f in features], (3, 3), error),
        _rows("sign", [k.sign for k in keypoints], (), error),
        [bool(f.border) for f in features],
        _rows("ranks", [[d.ranked for d in f.descriptors] for f in features], (4, NUM_BINS), error),
        error,
    )


def _rows(name, values, shape, error) -> np.ndarray:
    """values stacked as given, one row of the given shape per feature;
    error(i, why) at the first feature whose row has another shape."""
    try:
        rows = np.array(values)
    except ValueError:  # rows of different shapes
        rows = None
    if values and (rows is None or rows.shape != (len(values), *shape)):
        i = next(i for i, v in enumerate(values) if _shape(v) != shape)
        raise error(i, f"has {name} not of shape {shape}")
    return rows


def _shape(value):
    try:
        return np.shape(value)
    except ValueError:  # a ragged nest
        return None


_ESTIMATORS = {
    "max_gradient": estimate_frame_max_gradient,
    "structure_tensor": estimate_frame_structure_tensor,
}


@dataclass
class ExtractionConfig:
    base_sigma: float = 1.6
    num_octaves: int | None = None
    min_abs_response: float = 0.0
    max_count: int = 6000
    estimator: str = "max_gradient"
    window_factor: float = 1.5

    def __post_init__(self) -> None:
        # floats are stored as floats: an int standing for one must not change config_digest
        check_field_types(
            self, base_sigma=(POSITIVE, FINITE), window_factor=(POSITIVE, MAX_WINDOW_FACTOR),
            min_abs_response=(0.0, FINITE), max_count=(1, math.inf), num_octaves=(1, math.inf),
        )
        if self.estimator not in _ESTIMATORS:
            raise RejectedInputError(f"unknown estimator {self.estimator!r}")


@dataclass
class ExtractionStats:
    num_keypoints: int = 0
    dropped_no_orientation: int = 0
    dropped_ambiguous: int = 0

    @property
    def num_features(self) -> int:
        return self.num_keypoints - self.dropped_no_orientation - self.dropped_ambiguous


def extract_features_with_stats(
    volume: ScalarVolume, config: ExtractionConfig | None = None
) -> tuple[list[Feature], ExtractionStats]:
    """Full pipeline: scale space, keypoints, frames, state descriptors."""
    cfg = ExtractionConfig() if config is None else check_type("config", config, ExtractionConfig)
    estimator = _ESTIMATORS[cfg.estimator]
    ss = build_scale_space(volume, base_sigma=cfg.base_sigma, num_octaves=cfg.num_octaves)
    keypoints = detect_keypoints(ss, min_abs_response=cfg.min_abs_response, max_count=cfg.max_count)
    stats = ExtractionStats(num_keypoints=len(keypoints))
    features: list[Feature] = []
    for kp in keypoints:
        try:
            base = estimator(ss, kp, window_factor=cfg.window_factor)
        except NoOrientationError:
            stats.dropped_no_orientation += 1
            continue
        except AmbiguousFrameError:
            stats.dropped_ambiguous += 1
            continue
        features.append(Feature(kp, base, compute_state_descriptors(ss, kp, base), kp.border))
    return features, stats


def extract_features(volume: ScalarVolume, config: ExtractionConfig | None = None) -> list[Feature]:
    features, _ = extract_features_with_stats(volume, config)
    return features
