"""Orientation frames for keypoints and their four reflection states.

Two estimators are provided.  The max-gradient estimator picks axes that
maximize the window-weighted mean |gradient projection|: theta1 over the
320 face directions of a twice-subdivided icosahedron, refined, and theta2
over a 0.25 degree grid on the circle normal to theta1, scored in one
O(K + 720) sweep over the K window samples; axis signs come from the
windowed mean gradient, so negating the image flips both primary axes for
asymmetric structures.  The structure-tensor estimator uses
the eigenvectors of the windowed second-moment matrix with a deterministic
sign convention; it is exactly invariant to intensity negation.

A frame plus the two reflections of its primary axes gives four states
(third axis kept right-handed): state 0 is the frame itself, states 1 and 2
flip one primary axis each, state 3 flips both (a parity flip of the frame).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.spatial import ConvexHull

from .errors import (
    POSITIVE, AmbiguousFrameError, NoOrientationError, RejectedInputError, check_number, check_type,
)
from .keypoints import Keypoint
from .volume import ScaleSpace, _nearest_level, _sample_gradients

SUPPORT_RADIUS = 3.0  # in units of keypoint sigma
# at this window factor the weights over the support ball are within 5e-6 of 1
MAX_WINDOW_FACTOR = 1000.0
GRADIENT_FLOOR = 1e-12
_EIG_RATIO_TOL = 1e-6
_CIRCLE_STEPS = 720  # 0.25 degree over half a turn

# state k multiplies frame axes (columns) by these diagonal signs
STATE_SIGNS = (
    np.diag([1.0, 1.0, 1.0]),
    np.diag([1.0, -1.0, -1.0]),
    np.diag([-1.0, 1.0, -1.0]),
    np.diag([-1.0, -1.0, 1.0]),
)


@dataclass(eq=False)
class Frame:
    """Right-handed orthonormal axes stored as matrix columns."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        try:
            self.matrix = np.asarray(self.matrix, dtype=float).reshape(3, 3)
        except (TypeError, ValueError):
            raise RejectedInputError(f"frame must be 3 x 3 numbers, got {self.matrix!r}") from None


@dataclass(eq=False)
class OrientationState:
    index: int
    frame: Frame


def enumerate_states(base: Frame) -> list[OrientationState]:
    """The four sign states of a frame, state 0 first."""
    check_type("base", base, Frame)
    return [OrientationState(k, Frame(base.matrix @ STATE_SIGNS[k])) for k in range(4)]


@lru_cache(maxsize=1)
def icosphere_faces() -> np.ndarray:
    """Unit face-center directions of a twice-subdivided icosahedron (320, 3)."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = []
    for a in (-1.0, 1.0):
        for b in (-phi, phi):
            verts.extend([(0.0, a, b), (a, b, 0.0), (b, 0.0, a)])
    verts = np.asarray(verts)
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    tris = [verts[s] for s in ConvexHull(verts).simplices]
    for _ in range(2):
        finer = []
        for t in tris:
            a, b, c = t
            ab, bc, ca = (a + b) / 2, (b + c) / 2, (c + a) / 2
            finer.extend(
                [
                    np.stack([a, ab, ca]),
                    np.stack([ab, b, bc]),
                    np.stack([ca, bc, c]),
                    np.stack([ab, bc, ca]),
                ]
            )
        tris = [t / np.linalg.norm(t, axis=1, keepdims=True) for t in finer]
    centers = np.array([t.mean(axis=0) for t in tris])
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    return centers


def _window(ss: ScaleSpace, kp: Keypoint, window_factor: float):
    """Gradient samples and Gaussian weights over the keypoint's support ball,
    or NoOrientationError where every gradient vanishes.

    The ball's points sit on the nearest level's voxel lattice around kp.x,
    in world mm like every scale-space sample.  window_factor, the window's
    width in units of kp.sigma, must lie in (0, MAX_WINDOW_FACTOR].
    """
    check_number("window_factor", window_factor, lo=POSITIVE, hi=MAX_WINDOW_FACTOR)
    o, _ = _nearest_level(ss, kp.sigma)
    spacing = ss.octaves[o].spacing
    r_vox = SUPPORT_RADIUS * kp.sigma / spacing
    r = int(math.ceil(r_vox))
    ax = np.arange(-r, r + 1, dtype=float)
    ox, oy, oz = np.meshgrid(ax, ax, ax, indexing="ij")
    offsets = np.stack([ox, oy, oz], axis=-1).reshape(-1, 3)
    keep = (offsets**2).sum(axis=1) <= r_vox**2
    offsets = offsets[keep]
    grads = _sample_gradients(ss, kp.x + offsets * spacing, kp.sigma)
    dist_sq = (offsets**2).sum(axis=1) * spacing**2
    weights = np.exp(-dist_sq / (2.0 * (window_factor * kp.sigma) ** 2))
    if np.linalg.norm(grads, axis=1).max(initial=0.0) <= GRADIENT_FLOOR:
        raise NoOrientationError("gradient field vanishes over the support window")
    return grads, weights


def _projection_score(grads, weights, dirs) -> np.ndarray:
    """Window-weighted sum of |g . d| for each direction (rows of dirs)."""
    return weights @ np.abs(grads @ np.asarray(dirs).T)


def _circle_scores(a: np.ndarray, b: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Window-weighted sum of |a cos t + b sin t| at the grid angles
    t = i pi / _CIRCLE_STEPS, by one sweep in O(K + _CIRCLE_STEPS).

    The sum is A(t) cos t + B(t) sin t, where A and B sum w a and w b with
    each sample's sign at t.  With a made nonnegative (negating a sample
    leaves its term's magnitude alone) a sample's sign is + from t = 0 up to
    its one zero crossing in [0, pi], arctan2(b, a) + pi/2, and - after it;
    so A and B are their totals minus twice the cumulative sums of the
    samples that have flipped, bucketed by the first grid step past the
    crossing.
    """
    b = np.where(a < 0.0, -b, b)
    a = np.abs(a)
    crossing = np.arctan2(b, a) + math.pi / 2.0
    step = np.ceil(crossing * (_CIRCLE_STEPS / math.pi)).astype(np.intp)
    step = np.minimum(step, _CIRCLE_STEPS)
    sums = []
    for wc in (weights * a, weights * b):
        flipped = np.cumsum(np.bincount(step, wc, _CIRCLE_STEPS + 1))[:_CIRCLE_STEPS]
        sums.append(wc.sum() - 2.0 * flipped)
    alphas = np.arange(_CIRCLE_STEPS) * (math.pi / _CIRCLE_STEPS)
    return sums[0] * np.cos(alphas) + sums[1] * np.sin(alphas)


def _orthonormal_partner(v: np.ndarray) -> np.ndarray:
    """A deterministic unit vector orthogonal to v."""
    k = int(np.argmin(np.abs(v)))
    e = np.zeros(3)
    e[k] = 1.0
    u = e - (e @ v) * v
    return u / np.linalg.norm(u)


def estimate_frame_max_gradient(
    ss: ScaleSpace, kp: Keypoint, window_factor: float = 1.5
) -> Frame:
    """Frame whose axes maximize the weighted mean |gradient projection|.

    theta1 is the refined winner over the icosphere directions with its sign
    taken from the windowed mean gradient; theta2 re-maximizes the same
    objective on the circle normal to theta1; theta3 closes the right-handed
    frame.  Axes are swapped if the second objective value beats the first.
    """
    grads, weights = _window(ss, kp, window_factor)
    mean_grad = (weights[:, None] * grads).sum(axis=0)

    faces = icosphere_faces()
    proj = grads @ faces.T
    # the face each sample's gradient points into, taken before proj becomes |proj|
    face_of = proj.argmax(axis=1)
    d0 = faces[int(np.argmax(weights @ np.abs(proj, out=proj)))]
    if mean_grad @ d0 < 0.0:
        d0 = -d0
    # samples whose gradient points into the face nearest d0
    f_star = int(np.argmax(faces @ d0))
    members = face_of == f_star
    theta1 = (weights[members, None] * grads[members]).sum(axis=0)
    n1 = np.linalg.norm(theta1)
    theta1 = theta1 / n1 if n1 > GRADIENT_FLOOR else d0

    e1 = _orthonormal_partner(theta1)
    e2 = np.cross(theta1, e1)
    ring = _circle_scores(grads @ e1, grads @ e2, weights)
    i = int(np.argmax(ring))
    prev, here, nxt = ring[(i - 1) % _CIRCLE_STEPS], ring[i], ring[(i + 1) % _CIRCLE_STEPS]
    denom = prev - 2.0 * here + nxt
    delta = 0.0 if denom == 0.0 else np.clip(0.5 * (prev - nxt) / denom, -0.5, 0.5)
    alpha = (i + delta) * (math.pi / _CIRCLE_STEPS)
    theta2 = math.cos(alpha) * e1 + math.sin(alpha) * e2
    if mean_grad @ theta2 < 0.0:
        theta2 = -theta2

    j1 = float(_projection_score(grads, weights, theta1[None])[0])
    j2 = float(_projection_score(grads, weights, theta2[None])[0])
    if j2 > j1:
        theta1, theta2 = theta2, theta1
    theta2 = theta2 - (theta2 @ theta1) * theta1
    theta2 /= np.linalg.norm(theta2)
    theta3 = np.cross(theta1, theta2)
    return Frame(np.stack([theta1, theta2, theta3], axis=1))


def _frame_from_tensor(tensor: np.ndarray) -> Frame:
    """Eigen-frame of a 3x3 second-moment matrix with canonical signs.

    Eigenvectors are ordered by descending eigenvalue; each of the first two
    is flipped so its largest-magnitude component is positive, and the third
    axis is recomputed as their cross product.
    """
    tensor = np.asarray(tensor, dtype=float)
    evals, evecs = np.linalg.eigh(tensor)
    evals = np.clip(evals[::-1], 0.0, None)
    evecs = evecs[:, ::-1]
    l1, l2, l3 = (float(v) for v in evals)
    if l1 <= GRADIENT_FLOOR:
        raise NoOrientationError("second-moment matrix is numerically zero")
    if l2 / l1 >= 1.0 - _EIG_RATIO_TOL:
        raise AmbiguousFrameError("leading eigenvalues nearly equal")
    if l2 <= GRADIENT_FLOOR or l3 / l2 >= 1.0 - _EIG_RATIO_TOL:
        if l2 <= GRADIENT_FLOOR:
            raise AmbiguousFrameError("secondary eigenvalues vanish; plane undetermined")
        raise AmbiguousFrameError("trailing eigenvalues nearly equal")
    axes = []
    for k in range(2):
        v = evecs[:, k]
        if v[int(np.argmax(np.abs(v)))] < 0.0:
            v = -v
        axes.append(v)
    axes.append(np.cross(axes[0], axes[1]))
    return Frame(np.stack(axes, axis=1))


def estimate_frame_structure_tensor(
    ss: ScaleSpace, kp: Keypoint, window_factor: float = 1.5
) -> Frame:
    """Frame from the eigenvectors of the windowed structure tensor."""
    grads, weights = _window(ss, kp, window_factor)
    tensor = (weights[:, None] * grads).T @ grads
    return _frame_from_tensor(tensor)
