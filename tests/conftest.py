"""Shared fixtures and phantom builders for the test suite.

The 40-blob phantom, its scale space and its extracted features are session
fixtures: extraction is the expensive step and every consumer treats the
results as read-only.  ``gaussian_blob`` builds single-blob volumes for
closed-form oracles; ``geometry_arrays`` and ``pair_table`` turn hand-built
Geometry records into the stacked arrays and match tables the library takes.

The scalar oracles live here too: one feature's `Geometry` and its image
under a similarity, the per-pair kernel factors that `kernels.kernel_matrix`
vectorizes, `orientation_scores`, the per-state form of its closed-form state
score, `solve_rigid`, the dense-weight-matrix form of
`transforms.fit_similarity`, `dog`, an octave's whole DoG stack, and
`matrix_from_rotvec`, the Rodrigues formula that the tests draw rotations from.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from volkey.descriptors import ExtractionConfig, extract_features
from volkey.frames import STATE_SIGNS
from volkey.kernels import KernelParams
from volkey.matching import match_table
from volkey.synth import _quadratic_form, make_phantom, random_similarity
from volkey.transforms import SimilarityTransform, fit_similarity
from volkey.volume import Octave, ScalarVolume, build_scale_space, resample

# Settings shared by the unit tests and the acceptance suite: 40 blobs on a
# 64^3 grid at 1 mm spacing, three octaves, a small response floor to drop
# noise extrema, and a 250-keypoint budget.
PHANTOM_SEED = 7
EXTRACTION = ExtractionConfig(num_octaves=3, min_abs_response=1e-3, max_count=250)

# Property tests draw the same examples on every run (no example database,
# seed from the test itself); shared hosts time too unevenly for deadlines.
settings.register_profile("volkey", derandomize=True, deadline=None, database=None)
settings.load_profile("volkey")

# One pass/fail line per acceptance criterion, printed after the run.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def volume_center(volume: ScalarVolume) -> tuple[float, float, float]:
    """World-space midpoint of the volume extent."""
    c = (np.asarray(volume.dims) - 1) * np.asarray(volume.spacing) / 2.0
    return tuple(float(v) for v in c)


def gaussian_blob(
    dims=(64, 64, 64),
    spacing=(1.0, 1.0, 1.0),
    center=None,
    widths=(4.0, 4.0, 4.0),
    amplitude=1.0,
    rotation=None,
) -> ScalarVolume:
    """Single (optionally anisotropic, rotated) Gaussian blob volume, its
    quadratic form summed per axis as `make_phantom` sums each blob's."""
    dims = tuple(int(d) for d in dims)
    sp = np.asarray(spacing, dtype=float)
    if center is None:
        center = (np.asarray(dims) - 1) * sp / 2.0
    center = np.asarray(center, dtype=float)
    widths = np.asarray(widths, dtype=float) * np.ones(3)
    rot = np.eye(3) if rotation is None else np.asarray(rotation, dtype=float)
    offsets = [np.arange(d) * s - c for d, s, c in zip(dims, sp, center)]
    prec = rot @ np.diag(1.0 / widths**2) @ rot.T
    q = _quadratic_form(offsets, prec)
    return ScalarVolume(
        dims=dims, spacing=tuple(sp), origin=(0.0, 0.0, 0.0), data=amplitude * np.exp(-0.5 * q)
    )


def matrix_from_rotvec(v: np.ndarray) -> np.ndarray:
    """Rodrigues formula; v is axis * angle in radians."""
    v = np.asarray(v, dtype=float)
    angle = float(np.linalg.norm(v))
    if angle < 1e-14:
        return np.eye(3)
    k = v / angle
    kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return np.eye(3) + np.sin(angle) * kx + (1.0 - np.cos(angle)) * (kx @ kx)


@dataclass(frozen=True, eq=False)
class Geometry:
    """Location, scale and orientation frame of one feature (frame axes as columns)."""

    x: np.ndarray
    sigma: float
    theta: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float).reshape(3))
        object.__setattr__(self, "theta", np.asarray(self.theta, dtype=float).reshape(3, 3))
        object.__setattr__(self, "sigma", float(self.sigma))


def apply_to_geometry(t: SimilarityTransform, g: Geometry) -> Geometry:
    """x' = b R x + t, sigma' = b sigma, Theta' = R Theta."""
    return Geometry(x=t.apply(g.x), sigma=t.scale * g.sigma, theta=t.rotation @ g.theta)


def kernel_scale(sigma_n: float, sigma_m: float) -> float:
    d = np.log(sigma_n) - np.log(sigma_m)
    return float(np.exp(-d * d))


def kernel_orientation(theta_n, theta_m, use_states: bool = False) -> float:
    """exp(-3 + trace(theta_n^T theta_m)); optionally max over moving states."""
    tn, tm = np.asarray(theta_n, dtype=float), np.asarray(theta_m, dtype=float)
    if use_states:
        return max(kernel_orientation(tn, tm @ s) for s in STATE_SIGNS)
    return float(np.exp(-3.0 + np.trace(tn.T @ tm)))


# diagonal sign patterns of the four states, one row per state
_STATE_DIAGS = np.stack([np.diag(m) for m in STATE_SIGNS])  # (4, 3)


def orientation_scores(t_f, t_m, use_states: bool = True) -> np.ndarray:
    """(moving, fixed) trace scores sum_i theta_i_m . theta_i_n of stacked
    frames (n, 3, 3); with states, the max of the four states' signed sums."""
    diag = np.einsum("mai,nai->mni", t_m, t_f)
    if use_states:
        return np.max(np.einsum("ki,mni->mnk", _STATE_DIAGS, diag), axis=-1)
    return diag.sum(axis=-1)


def kernel_location(x_n, x_m, sigma_n: float, sigma_m: float, params: KernelParams) -> float:
    d = np.asarray(x_n, dtype=float) - np.asarray(x_m, dtype=float)
    return float(np.exp(-(d @ d) / (params.k * sigma_n * sigma_m + params.sigma_t_sq)))


def kernel_geometry(g_n: Geometry, g_m: Geometry, params: KernelParams) -> float:
    """Product of the scale, orientation and location factors for one pair."""
    return (
        kernel_scale(g_n.sigma, g_m.sigma)
        * kernel_orientation(g_n.theta, g_m.theta, use_states=params.use_orientation_states)
        * kernel_location(g_n.x, g_m.x, g_n.sigma, g_m.sigma, params)
    )


def solve_rigid(fixed_points, moving_points, p):
    """Weighted similarity fit under the dense (moving, fixed) weight matrix p:
    fit_similarity with the sums P^T 1, P 1 and P^T m formed from p."""
    f = np.asarray(fixed_points, dtype=float).reshape(-1, 3)
    m = np.asarray(moving_points, dtype=float).reshape(-1, 3)
    p = np.asarray(p, dtype=float)
    return fit_similarity(f, m, p.sum(axis=0), p.sum(axis=1), p.T @ m)


def geometry_arrays(geoms):
    """Stacked locations (n, 3), scales (n,) and frames (n, 3, 3) of Geometry records."""
    return (
        np.array([g.x for g in geoms]).reshape(-1, 3),
        np.array([g.sigma for g in geoms]),
        np.array([g.theta for g in geoms]).reshape(-1, 3, 3),
    )


# how geometry_set spoils one array of a feature set: one entry NaN, inf or
# 1e200, no rows at all, a wrong shape, strings, or a list for the array
SPOILS = ("none", "nan", "inf", "huge", "empty", "shape", "text", "list")


def geometry_set(seed, n=3, spoil="none", which=0):
    """A stacked set (x (n, 3), s (n,), frames (n, 3, 3)) of orthonormal
    frames, with array `which` spoiled as named; returns (set, spoil)."""
    rng = np.random.default_rng(seed)
    frames = np.linalg.qr(rng.normal(size=(n, 3, 3)))[0]
    arrays = [rng.uniform(-50.0, 50.0, (n, 3)), rng.uniform(0.5, 8.0, n), frames]
    a = arrays[which]
    if spoil in ("nan", "inf", "huge"):
        a.flat[-1] = {"nan": np.nan, "inf": np.inf, "huge": 1e200}[spoil]
    elif spoil == "empty":
        arrays = [b[:0] for b in arrays]
    elif spoil == "shape":
        arrays[which] = np.append(a, 1.0) if which == 1 else a[:, :2]
    elif spoil == "text":
        arrays[which] = a.astype(str)
    elif spoil == "list":
        arrays[which] = a.tolist()
    return tuple(arrays), spoil


geometry_sets = st.builds(
    geometry_set, st.integers(0, 2**32 - 1), st.integers(1, 4), st.sampled_from(SPOILS), st.integers(0, 2)
)


def pair_table(pairs):
    """Match table of (moving, fixed) Geometry pairs; row i pairs index i with i at state 0."""
    n = len(pairs)
    return match_table(
        geometry_arrays([f for _, f in pairs]),
        geometry_arrays([m for m, _ in pairs]),
        np.arange(n),
        np.arange(n),
        np.zeros(n, dtype=int),
        np.zeros(n),
    )


def negated(volume: ScalarVolume) -> ScalarVolume:
    return ScalarVolume(
        dims=volume.dims, spacing=volume.spacing, origin=volume.origin, data=-volume.data
    )


def dog(octave: Octave) -> np.ndarray:
    """An octave's stacked DoG (5, X, Y, Z), the adjacent-level differences
    that detection forms one layer at a time and never stacks."""
    return octave.data[1:] - octave.data[:-1]


@pytest.fixture(scope="session")
def phantom() -> ScalarVolume:
    return make_phantom(seed=PHANTOM_SEED, num_blobs=40, dims=(64, 64, 64), spacing=(1.0, 1.0, 1.0))


@pytest.fixture(scope="session")
def phantom_scale_space(phantom):
    return build_scale_space(phantom, num_octaves=3)


@pytest.fixture(scope="session")
def phantom_features(phantom):
    return extract_features(phantom, EXTRACTION)


@pytest.fixture(scope="session")
def planted_pair(phantom, phantom_features):
    """(fixed features, moving features, ground truth moving-onto-fixed)."""
    tgt = random_similarity(4000, center=volume_center(phantom))
    moving = extract_features(resample(phantom, tgt), EXTRACTION)
    return phantom_features, moving, tgt.inverse()
