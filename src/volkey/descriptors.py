"""Sign-aware gradient orientation descriptors and the extraction pipeline.

The descriptor samples the image on an 8x8x8 lattice over the keypoint's
normalized local coordinates (centers -1.75 .. 1.75 in steps of 0.5, in units
of sigma along the frame axes).  Each sample adds its Gaussian-weighted
|gradient projection| to one of 64 bins: 8 spatial octants times 8 diagonal
direction bins.  The winning direction maximizes the projection of the local
gradient onto s * phi over the eight diagonals phi, where s is the keypoint's
contrast sign, so negating the image and flipping s leaves every bin
unchanged.  Bin magnitudes are rank-order normalized before matching.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousFrameError, NoOrientationError, RejectedInputError
from .frames import (
    Frame,
    enumerate_states,
    estimate_frame_max_gradient,
    estimate_frame_structure_tensor,
)
from .keypoints import Keypoint, detect_keypoints
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


@dataclass(eq=False)
class Descriptor:
    """64 bin magnitudes plus their rank-order normalization."""

    bins: np.ndarray | None
    ranked: np.ndarray

    def __post_init__(self) -> None:
        if self.bins is not None:
            self.bins = np.asarray(self.bins, dtype=float).reshape(NUM_BINS)
        self.ranked = np.asarray(self.ranked, dtype=np.int16).reshape(NUM_BINS)


def rank_normalize_bins(bins: np.ndarray) -> np.ndarray:
    """Replace each bin by its rank; ties resolve by bin index (stable)."""
    bins = np.asarray(bins, dtype=float).reshape(NUM_BINS)
    order = np.lexsort((np.arange(NUM_BINS), bins))
    ranked = np.empty(NUM_BINS, dtype=np.int16)
    ranked[order] = np.arange(NUM_BINS, dtype=np.int16)
    return ranked


def compute_descriptor(ss: ScaleSpace, kp: Keypoint, frame: Frame) -> Descriptor:
    """Descriptor of one keypoint under one orientation frame."""
    points = kp.x + kp.sigma * (_LATTICE @ frame.matrix.T)
    grads = _sample_gradients(ss, points, kp.sigma)
    local = kp.sigma * (grads @ frame.matrix)
    proj = (local @ DIRECTIONS.T) * kp.sign
    winner = np.argmax(proj, axis=1)
    value = np.abs(proj[np.arange(proj.shape[0]), winner])
    bins = np.zeros(NUM_BINS)
    np.add.at(bins, _OCTANT * 8 + winner, _WEIGHT * value)
    return Descriptor(bins=bins, ranked=rank_normalize_bins(bins))


@dataclass(eq=False)
class Feature:
    """Keypoint with its base frame and the descriptors of all four states."""

    keypoint: Keypoint
    frame: Frame
    descriptors: list[Descriptor]
    border: bool = False


def feature_geometry(features: list[Feature]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked locations (n, 3), scales (n,) and base frames (n, 3, 3)."""
    x = np.array([f.keypoint.x for f in features], dtype=float).reshape(-1, 3)
    sigma = np.array([f.keypoint.sigma for f in features], dtype=float)
    frames = np.array([f.frame.matrix for f in features], dtype=float).reshape(-1, 3, 3)
    return x, sigma, frames


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
        for name in ("base_sigma", "window_factor"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise RejectedInputError(f"{name} must be positive and finite")
        if not 0.0 <= self.min_abs_response < math.inf:
            raise RejectedInputError("min_abs_response must be nonnegative and finite")
        if self.max_count < 1 or (self.num_octaves is not None and self.num_octaves < 1):
            raise RejectedInputError("max_count and num_octaves must be positive")
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
    cfg = config or ExtractionConfig()
    estimator = _ESTIMATORS[cfg.estimator]
    ss = build_scale_space(volume, base_sigma=cfg.base_sigma, num_octaves=cfg.num_octaves)
    keypoints = detect_keypoints(
        ss, min_abs_response=cfg.min_abs_response, max_count=cfg.max_count
    )
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
        descriptors = [
            compute_descriptor(ss, kp, state.frame) for state in enumerate_states(base)
        ]
        features.append(
            Feature(keypoint=kp, frame=base, descriptors=descriptors, border=kp.border)
        )
    return features, stats


def extract_features(
    volume: ScalarVolume, config: ExtractionConfig | None = None
) -> list[Feature]:
    features, _ = extract_features_with_stats(volume, config)
    return features
