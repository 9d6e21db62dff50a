"""The benchmark's workloads: inputs made from a seed, and one op on them.

One op registers one moving input onto the workload's fixed input; op k's
ground truth is ``random_similarity(seed + k, center=...)``.  Every op runs
either the plain pipeline calls (the measured path) or, in the traced run,
the same public stage functions one by one inside spans.  `probe` then makes
the traced run's extra, separately timed calls whose results are compared
with what the pipeline computed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from volkey.descriptors import (
    STATE_BIN_MASKS,
    Descriptor,
    ExtractionConfig,
    ExtractionStats,
    Feature,
    compute_descriptor,
    extract_features,
    extract_features_with_stats,
)
from volkey.errors import AmbiguousFrameError, NoOrientationError
from volkey.evaluation import EvaluationReport, evaluate, probe_grid
from volkey.frames import STATE_SIGNS, Frame, enumerate_states, estimate_frame_max_gradient
from volkey.io import read_features, write_features
from volkey.kernels import kernel_matrix
from volkey.keypoints import Keypoint, detect_keypoints
from volkey.matching import HoughResult, hough_init, match_features
from volkey.registration import RegistrationConfig, RegistrationResult, register
from volkey.synth import make_phantom, random_similarity
from volkey.transforms import SimilarityTransform
from volkey.volume import ScalarVolume, build_scale_space, resample

# Criterion 1's sift_cpd limits on the worst axis; an op beyond them failed.
ROT_LIMIT_DEG = 0.5
TRANS_LIMIT_MM = 1.0

# float64 temporaries of shape (M, N) or (M, N, k) that one sift_cpd E-step
# allocates, counted per moving-fixed pair: diff 3 and dist_sq 1 in the
# E-step; diff 3, dist_sq 1, log_d 1, k_scale 1, k_loc 1, diag 3, state
# scores 4, score 1, k_orient 1 and the product 1 in kernel_matrix; num 1 and
# p 1 back in the E-step.
ESTEP_BYTES_PER_PAIR = 8 * (3 + 1 + 3 + 1 + 1 + 1 + 1 + 3 + 4 + 1 + 1 + 1 + 1 + 1)

# row k maps state 0's bins to state k's: octant and direction are both
# relabeled by XOR with the state mask, i.e. the bin index by XOR with 9 * mask
STATE_BIN_PERMS = np.arange(64)[None, :] ^ (9 * np.asarray(STATE_BIN_MASKS))[:, None]


@dataclass
class Outcome:
    """What one op produced, kept for the correctness gate and the counters."""

    fixed: list[Feature]
    moving: list[Feature]
    stats: ExtractionStats | None
    result: RegistrationResult
    report: EvaluationReport
    bytes_read: int = 0

    @property
    def rot_err_deg(self) -> float:
        return float(np.max(self.report.rotation_error_deg))

    @property
    def trans_err_mm(self) -> float:
        return float(np.max(self.report.translation_error_mm))

    @property
    def within_limits(self) -> bool:
        return self.rot_err_deg <= ROT_LIMIT_DEG and self.trans_err_mm <= TRANS_LIMIT_MM


def negated(volume: ScalarVolume) -> ScalarVolume:
    return ScalarVolume(
        dims=volume.dims, spacing=volume.spacing, origin=volume.origin, data=-volume.data
    )


def staged_extract(volume: ScalarVolume, cfg: ExtractionConfig, tr):
    """extract_features_with_stats, one public stage call per span.

    Mirrors the pipeline's order and drop handling; the traced run checks the
    result against the pipeline call, so this copy cannot drift unnoticed.
    """
    if cfg.estimator != "max_gradient":
        raise ValueError(f"staged extraction covers max_gradient only, not {cfg.estimator!r}")
    with tr.span("descriptors.extract_features_with_stats"):
        with tr.span("volume.build_scale_space"):
            ss = build_scale_space(volume, base_sigma=cfg.base_sigma, num_octaves=cfg.num_octaves)
        with tr.span("keypoints.detect_keypoints"):
            keypoints = detect_keypoints(
                ss, min_abs_response=cfg.min_abs_response, max_count=cfg.max_count
            )
        stats = ExtractionStats(num_keypoints=len(keypoints))
        features: list[Feature] = []
        for kp in keypoints:
            try:
                with tr.span("frames.estimate_frame_max_gradient"):
                    base = estimate_frame_max_gradient(ss, kp, window_factor=cfg.window_factor)
            except NoOrientationError:
                stats.dropped_no_orientation += 1
                continue
            except AmbiguousFrameError:
                stats.dropped_ambiguous += 1
                continue
            descriptors = []
            for state in enumerate_states(base):
                with tr.span("descriptors.compute_descriptor"):
                    descriptors.append(compute_descriptor(ss, kp, state.frame))
            features.append(
                Feature(keypoint=kp, frame=base, descriptors=descriptors, border=kp.border)
            )
    return features, stats


def feature_arrays(features: list[Feature]) -> dict[str, np.ndarray]:
    """Every stored field of a feature list as arrays, for bitwise comparison."""
    def bins(f: Feature) -> np.ndarray:
        if f.descriptors[0].bins is None:
            return np.full((4, 64), np.nan)
        return np.stack([d.bins for d in f.descriptors])

    return {
        "x": np.array([f.keypoint.x for f in features]).reshape(-1, 3),
        "sigma": np.array([f.keypoint.sigma for f in features]),
        "sign": np.array([f.keypoint.sign for f in features]),
        "response": np.array([f.keypoint.response for f in features]),
        "border": np.array([f.border for f in features]),
        "frame": np.array([f.frame.matrix for f in features]).reshape(-1, 3, 3),
        "bins": np.array([bins(f) for f in features]).reshape(-1, 4, 64),
        "ranked": np.array([[d.ranked for d in f.descriptors] for f in features]).reshape(-1, 4, 64),
    }


def same_features(a: list[Feature], b: list[Feature]) -> bool:
    fa, fb = feature_arrays(a), feature_arrays(b)
    return all(np.array_equal(fa[k], fb[k], equal_nan=k == "bins") for k in fa)


def same_transform(a: SimilarityTransform, b: SimilarityTransform) -> bool:
    return (
        np.array_equal(a.rotation, b.rotation)
        and a.scale == b.scale
        and np.array_equal(a.translation, b.translation)
    )


def _match_keys(matches) -> list[tuple[int, int, int]]:
    return [(m.fixed_index, m.moving_index, m.moving_state) for m in matches]


def same_init(a: HoughResult, b: HoughResult) -> bool:
    return same_transform(a.t_star, b.t_star) and _match_keys(a.inliers) == _match_keys(b.inliers)


def _geometry(features: list[Feature], t: SimilarityTransform | None = None):
    x = np.array([f.keypoint.x for f in features])
    s = np.array([f.keypoint.sigma for f in features])
    theta = np.array([f.frame.matrix for f in features])
    if t is None:
        return x, s, theta
    return t.apply(x), t.scale * s, np.einsum("ij,njk->nik", t.rotation, theta)


def probe(outcome: Outcome, cfg: RegistrationConfig, tr) -> HoughResult:
    """The traced run's separately timed stage calls on one op's inputs.

    match_features and hough_init repeat what register did first, so the EM
    time is register minus the two; kernel_matrix runs once on the op's final
    moving-by-fixed geometry.
    """
    with tr.span("matching.match_features"):
        matches = match_features(outcome.fixed, outcome.moving)
    with tr.span("matching.hough_init"):
        init = hough_init(matches, cfg.hough)
    x_f, s_f, t_f = _geometry(outcome.fixed)
    x_m, s_m, t_m = _geometry(outcome.moving, outcome.result.transform)
    with tr.span("kernels.kernel_matrix"):
        kernel_matrix(x_f, s_f, t_f, x_m, s_m, t_m, cfg.kernel)
    return init


class VolumeWorkload:
    """Phantom → resample → extract → register, as in the quick start."""

    PHANTOM_SEED = 7
    NUM_BLOBS = 40
    extraction = ExtractionConfig(num_octaves=3, min_abs_response=1e-3, max_count=250)
    registration = RegistrationConfig(variant="sift_cpd", w=1e-4)

    def __init__(self, name: str, dims, spacing):
        self.name, self.dims, self.spacing = name, dims, spacing

    def setup(self, seed: int, workdir: Path):
        volume = make_phantom(self.PHANTOM_SEED, self.NUM_BLOBS, self.dims, self.spacing)
        fixed = extract_features(volume, self.extraction)
        center = tuple(float(c) for c in (volume.world_min + volume.world_max) / 2.0)
        return {"seed": seed, "volume": volume, "fixed": fixed, "center": center,
                "probes": probe_grid(volume)}

    def prepare(self, state, k: int) -> SimilarityTransform:
        return random_similarity(state["seed"] + k, center=state["center"])

    def op(self, state, k: int, tgt: SimilarityTransform, tr, staged: bool) -> Outcome:
        with tr.span("volume.resample"):
            moving = resample(state["volume"], tgt)
        # odd ops flip contrast, which routes matching through the parity state
        if k % 2:
            moving = negated(moving)
        if staged:
            features, stats = staged_extract(moving, self.extraction, tr)
        else:
            features, stats = extract_features_with_stats(moving, self.extraction)
        with tr.span("registration.register"):
            result = register(state["fixed"], features, self.registration)
        with tr.span("evaluation.evaluate"):
            report = evaluate(result.transform, tgt.inverse(), state["probes"])
        return Outcome(state["fixed"], features, stats, result, report)


class DenseWorkload:
    """Generated feature files → read → register: no volumes at all."""

    COUNT = 1000
    BOX_MM = 128.0
    SIGMA_RANGE = (1.6, 12.8)
    PLANTED = 0.7
    JITTER_MM = 0.2
    RANK_SWAPS = 3
    registration = RegistrationConfig(variant="sift_cpd", w=0.3)

    name = "register_dense"

    def _random(self, rng: np.random.Generator, n: int) -> dict[str, np.ndarray]:
        lo, hi = (math.log(s) for s in self.SIGMA_RANGE)
        q, r = np.linalg.qr(rng.normal(size=(n, 3, 3)))
        q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
        q[np.linalg.det(q) < 0.0, :, 2] *= -1.0
        return {
            "x": rng.uniform(0.0, self.BOX_MM, (n, 3)),
            "sigma": np.exp(rng.uniform(lo, hi, n)),
            "frame": q,
            "sign": rng.choice(np.array([-1, 1]), n),
            "ranks": np.argsort(rng.random((n, 64)), axis=1),
        }

    @staticmethod
    def _features(g: dict[str, np.ndarray]) -> list[Feature]:
        out = []
        for x, sigma, frame, sign, ranks in zip(g["x"], g["sigma"], g["frame"], g["sign"], g["ranks"]):
            kp = Keypoint(x=x, sigma=sigma, sign=int(sign), response=float(sign))
            descriptors = [Descriptor(bins=None, ranked=ranks[p]) for p in STATE_BIN_PERMS]
            out.append(Feature(keypoint=kp, frame=Frame(frame), descriptors=descriptors))
        return out

    def setup(self, seed: int, workdir: Path):
        fixed = self._random(np.random.default_rng(seed), self.COUNT)
        path = workdir / "fixed.feat"
        write_features(path, self._features(fixed))
        axis = np.linspace(0.0, self.BOX_MM, 5)
        probes = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
        center = (self.BOX_MM / 2.0,) * 3
        return {"seed": seed, "fixed": fixed, "fixed_path": path, "workdir": workdir,
                "center": center, "probes": probes}

    def prepare(self, state, k: int):
        """Write op k's moving file: planted copies through the op's transform plus outliers."""
        seed = state["seed"]
        tgt = random_similarity(seed + k, center=state["center"])
        rng = np.random.default_rng([seed, k])
        fixed = state["fixed"]
        n = round(self.PLANTED * self.COUNT)
        idx = rng.choice(self.COUNT, n, replace=False)
        states = rng.integers(0, 4, n)
        state_signs = np.stack(STATE_SIGNS)[states]
        # the planted feature shows the fixed one's state-s descriptor as its state 0
        ranks = np.take_along_axis(fixed["ranks"][idx], STATE_BIN_PERMS[states], axis=1)
        rows = np.arange(n)
        for _ in range(self.RANK_SWAPS):
            r = rng.integers(0, 63, n)
            a = np.argmax(ranks == r[:, None], axis=1)
            b = np.argmax(ranks == r[:, None] + 1, axis=1)
            ranks[rows, a], ranks[rows, b] = r + 1, r
        planted = {
            "x": tgt.apply(fixed["x"][idx]) + rng.normal(0.0, self.JITTER_MM, (n, 3)),
            "sigma": tgt.scale * fixed["sigma"][idx],
            "frame": np.einsum("ij,njk,nkl->nil", tgt.rotation, fixed["frame"][idx], state_signs),
            "sign": fixed["sign"][idx],
            "ranks": ranks,
        }
        outliers = self._random(rng, self.COUNT - n)
        order = rng.permutation(self.COUNT)
        moving = {key: np.concatenate([planted[key], outliers[key]])[order] for key in planted}
        path = state["workdir"] / "moving.feat"
        write_features(path, self._features(moving))
        return tgt, path

    def op(self, state, k: int, inp, tr, staged: bool) -> Outcome:
        tgt, path = inp
        with tr.span("io.read_features"):
            fixed, _ = read_features(state["fixed_path"])
        with tr.span("io.read_features"):
            moving, _ = read_features(path)
        with tr.span("registration.register"):
            result = register(fixed, moving, self.registration)
        with tr.span("evaluation.evaluate"):
            report = evaluate(result.transform, tgt.inverse(), state["probes"])
        nbytes = state["fixed_path"].stat().st_size + path.stat().st_size
        return Outcome(fixed, moving, None, result, report, bytes_read=nbytes)


# why each workload exists is recorded in BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w
    for w in (
        VolumeWorkload("phantom64", (64, 64, 64), (1.0, 1.0, 1.0)),
        VolumeWorkload("aniso128", (128, 128, 64), (1.0, 1.0, 2.0)),
        DenseWorkload(),
    )
}
