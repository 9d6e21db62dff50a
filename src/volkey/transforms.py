"""Global similarity transforms on R^3 and small rotation utilities.

A similarity transform acts on points as ``x -> b * R @ x + t`` with b > 0 and
R a proper rotation.  Feature geometry (location, scale, orientation frame)
maps as ``x' = b R x + t``, ``sigma' = b sigma``, ``Theta' = R Theta``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateCorrespondenceError, DegenerateGeometryError, RejectedInputError

SO3_TOL = 1e-9


def rotation_x(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rotation_y(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rotation_z(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def matrix_from_rotvec(v: np.ndarray) -> np.ndarray:
    """Rodrigues formula; v is axis * angle in radians."""
    v = np.asarray(v, dtype=float)
    angle = float(np.linalg.norm(v))
    if angle < 1e-14:
        return np.eye(3)
    k = v / angle
    kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return np.eye(3) + np.sin(angle) * kx + (1.0 - np.cos(angle)) * (kx @ kx)


def rotvec_from_matrix(r: np.ndarray) -> np.ndarray:
    """Inverse of matrix_from_rotvec, stable near 0 and pi; r is (..., 3, 3)."""
    r = np.asarray(r, dtype=float)
    stack = r.reshape(-1, 3, 3)
    cos = np.clip((np.trace(stack, axis1=1, axis2=2) - 1.0) / 2.0, -1.0, 1.0)
    angle = np.arccos(cos)
    skew = stack[:, [2, 0, 1], [1, 2, 0]] - stack[:, [1, 2, 0], [2, 0, 1]]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = skew / (2.0 * np.sin(angle))[:, None] * angle[:, None]
    # R ~ I + [v]_x for small angles
    small = angle < 1e-7
    out[small] = skew[small] / 2.0
    # past pi/2 the skew part fades and arccos loses digits: the symmetric
    # part (R + R^T)/2 - cos I is (1 - cos) a a^T, whose largest column gives
    # the axis up to sign, and atan2 of the sine |skew|/2 and cos the angle
    obtuse = angle > np.pi / 2.0
    s, c, sk = stack[obtuse], cos[obtuse], skew[obtuse]
    aat = (s + np.swapaxes(s, 1, 2)) / 2.0 - c[:, None, None] * np.eye(3)
    j = np.argmax(np.diagonal(aat, axis1=1, axis2=2), axis=1)
    axis = aat[np.arange(len(j)), :, j]
    axis /= np.linalg.norm(axis, axis=1)[:, None]
    # the skew part is 2 sin(angle) a: orient the axis along it
    axis[np.einsum("ni,ni->n", axis, sk) < 0] *= -1.0
    out[obtuse] = axis * np.arctan2(np.linalg.norm(sk, axis=1) / 2.0, c)[:, None]
    return out.reshape(r.shape[:-2] + (3,))


def project_to_rotation(m: np.ndarray) -> np.ndarray:
    """Nearest proper rotation in the Frobenius sense (orthogonal Procrustes); m is (..., 3, 3)."""
    u, _, vt = np.linalg.svd(np.asarray(m, dtype=float))
    c = np.broadcast_to(np.eye(3), u.shape).copy()
    c[..., 2, 2] = np.sign(np.linalg.det(u @ vt))
    return u @ c @ vt


def is_rotation(r: np.ndarray, tol: float = SO3_TOL) -> bool:
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3) or not np.all(np.isfinite(r)):
        return False
    if np.max(np.abs(r.T @ r - np.eye(3))) > tol:
        return False
    return bool(abs(np.linalg.det(r) - 1.0) <= tol)


def fit_similarity(
    f: np.ndarray, m: np.ndarray, col: np.ndarray, row: np.ndarray, pm: np.ndarray
) -> tuple[SimilarityTransform, float]:
    """Weighted closed-form similarity fit of moving points m onto fixed points f.

    Weights P (moving, fixed) enter only through col = P^T 1 (one per fixed
    point), row = P 1 (one per moving point) and pm = P^T m; paired points are
    P = I.  Returns the transform and the residual variance lambda^2.
    """
    n_p = float(col.sum())
    if not n_p > 1e-12:
        raise DegenerateCorrespondenceError("correspondence weights sum to zero")
    mu_f, mu_m = f.T @ col / n_p, m.T @ row / n_p
    f_hat, m_hat = f - mu_f, m - mu_m
    # P^T m_hat = P^T m - (P^T 1) mu_m^T
    a = f_hat.T @ (pm - col[:, None] * mu_m)
    u, s, vt = np.linalg.svd(a)
    if s[0] <= 0.0 or s[1] <= 1e-12 * s[0]:
        raise DegenerateGeometryError("points are collinear or coincident")
    c = np.diag([1.0, 1.0, float(np.sign(np.linalg.det(u @ vt)))])
    r = u @ c @ vt
    denom = float(np.einsum("m,mi,mi->", row, m_hat, m_hat))
    if denom <= 0.0:
        raise DegenerateGeometryError("moving points carry no spread under the weights")
    trace_ar = float(np.trace(a.T @ r))
    b = trace_ar / denom
    if not b > 0.0:
        raise DegenerateGeometryError("similarity scale collapsed to zero")
    t = mu_f - b * (r @ mu_m)
    var_f = float(np.einsum("n,ni,ni->", col, f_hat, f_hat))
    lambda_sq = max((var_f - b * trace_ar) / (3.0 * n_p), 0.0)
    return SimilarityTransform(rotation=r, scale=b, translation=t), lambda_sq


@dataclass(frozen=True, eq=False)
class SimilarityTransform:
    """x -> scale * rotation @ x + translation."""

    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    scale: float = 1.0
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self) -> None:
        r = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        t = np.asarray(self.translation, dtype=float).reshape(3)
        b = float(self.scale)
        if not is_rotation(r, tol=1e-6):
            raise RejectedInputError("rotation is not a proper rotation matrix")
        if not (b > 0.0 and np.isfinite(b)):
            raise RejectedInputError(f"scale must be positive, got {b}")
        if not np.all(np.isfinite(t)):
            raise RejectedInputError("translation must be finite")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "scale", b)
        object.__setattr__(self, "translation", t)

    def apply(self, points: np.ndarray) -> np.ndarray:
        p = np.asarray(points, dtype=float)
        return self.scale * (p @ self.rotation.T) + self.translation

    def inverse(self) -> "SimilarityTransform":
        rt = self.rotation.T
        return SimilarityTransform(
            rotation=rt,
            scale=1.0 / self.scale,
            translation=-(rt @ self.translation) / self.scale,
        )

    def compose(self, other: "SimilarityTransform") -> "SimilarityTransform":
        """Transform equal to applying `other` first, then self."""
        return SimilarityTransform(
            rotation=self.rotation @ other.rotation,
            scale=self.scale * other.scale,
            translation=self.scale * (self.rotation @ other.translation) + self.translation,
        )

    def as_dict(self) -> dict:
        return {
            "rotation": self.rotation.tolist(),
            "scale": self.scale,
            "translation": self.translation.tolist(),
        }

    @staticmethod
    def from_dict(d: dict) -> "SimilarityTransform":
        return SimilarityTransform(
            rotation=np.asarray(d["rotation"], dtype=float),
            scale=float(d["scale"]),
            translation=np.asarray(d["translation"], dtype=float),
        )
