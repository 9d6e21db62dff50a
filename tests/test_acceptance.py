"""Acceptance gate: one test per headline criterion.

Each test appends a single PASS/FAIL line to the terminal summary via
conftest.ACCEPTANCE_LINES before asserting, so a full run always ends with
one line per criterion.  The registration suite (20 seeded transforms of a
40-blob phantom, three variants, plus intensity-negated reruns) is computed
once in a module fixture and shared.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np
import pytest

from conftest import (
    ACCEPTANCE_LINES,
    EXTRACTION,
    PHANTOM_SEED,
    Geometry,
    apply_to_geometry,
    geometry_arrays,
    kernel_geometry,
    negated,
    pair_table,
    volume_center,
)
from volkey.config import default_config, kernel_params
from volkey.descriptors import compute_descriptor, extract_features
from volkey.errors import RejectedInputError
from volkey.evaluation import point_registration_error, probe_grid, state_histogram
from volkey.frames import enumerate_states
from volkey.kernels import kernel_matrix
from volkey.keypoints import Keypoint
from volkey.matching import hough_init, match_features
from volkey.registration import RegistrationConfig, e_step, register
from volkey.synth import make_phantom, random_similarity
from volkey.transforms import (
    SimilarityTransform,
    fit_similarity,
    is_rotation,
    matrix_from_rotvec,
    rotvec_from_matrix,
)
from volkey.volume import build_scale_space, resample

NUM_TRANSFORMS = 20
TRANSFORM_SEED_BASE = 4000
#: (result key, variant, outlier fraction): the two kernel-weighted runs share
#: the plain baseline's near-noiseless w; the starred variant keeps the default
VARIANT_SETTINGS = (
    ("cpd", "cpd", 1e-4),
    ("sift_cpd", "sift_cpd", 1e-4),
    ("sift_cpd_star", "sift_cpd_star", 0.1),
)


@dataclass
class VariantRecord:
    rot_axes: list = field(default_factory=list)  # per-axis |rotation error| deg
    trans_axes: list = field(default_factory=list)  # per-axis |translation error| mm
    pre: list = field(default_factory=list)
    runtime: list = field(default_factory=list)
    inliers: list = field(default_factory=list)

    def worst_rot(self):
        return float(np.max(self.rot_axes))

    def worst_trans(self):
        return float(np.max(self.trans_axes))


def _errors(t_est, t_true):
    rot = np.degrees(np.abs(rotvec_from_matrix(t_est.rotation @ t_true.rotation.T)))
    trans = np.abs(t_est.translation - t_true.translation)
    return rot, trans


def _verified_probes(matches, t_true, fallback_volume):
    verified = np.linalg.norm(t_true.apply(matches.moving_x) - matches.fixed_x, axis=1) < 1.0
    if verified.any():
        return matches.fixed_x[verified]
    return probe_grid(fallback_volume)


@pytest.fixture(scope="module")
def suite(phantom, phantom_features):
    """Registration results for all transforms, variants, and contrast flips."""
    start = time.perf_counter()
    center = volume_center(phantom)
    records = {key: VariantRecord() for key, _, _ in VARIANT_SETTINGS}
    neg_records = {key: VariantRecord() for key, _, _ in VARIANT_SETTINGS}
    for k in range(NUM_TRANSFORMS):
        tgt = random_similarity(TRANSFORM_SEED_BASE + k, center=center)
        t_true = tgt.inverse()
        moving_vol = resample(phantom, tgt)
        for flipped, bucket in ((False, records), (True, neg_records)):
            vol = negated(moving_vol) if flipped else moving_vol
            moving = extract_features(vol, EXTRACTION)
            probes = _verified_probes(match_features(phantom_features, moving), t_true, phantom)
            for key, variant, w in VARIANT_SETTINGS:
                res = register(phantom_features, moving, RegistrationConfig(variant=variant, w=w))
                rot, trans = _errors(res.transform, t_true)
                rec = bucket[key]
                rec.rot_axes.append(rot)
                rec.trans_axes.append(trans)
                rec.pre.append(point_registration_error(res.transform, t_true, probes))
                rec.runtime.append(res.runtime)
                rec.inliers.append(len(res.init.inliers))
    return {
        "records": records,
        "neg_records": neg_records,
        "wall": time.perf_counter() - start,
    }


def _report(num, passed, detail):
    line = f"CRITERION {num:2d}: {'PASS' if passed else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    assert passed, line


def test_criterion_1_transform_recovery(suite):
    rec = suite["records"]
    limits = {"sift_cpd": (0.5, 1.0), "sift_cpd_star": (0.5, 1.0), "cpd": (1.0, 2.0)}
    ok = suite["wall"] < 300.0
    parts = []
    for key, (rot_lim, trans_lim) in limits.items():
        wr, wt = rec[key].worst_rot(), rec[key].worst_trans()
        ok = ok and wr < rot_lim and wt < trans_lim
        parts.append(f"{key} {wr:.3f}deg/{wt:.2f}mm (<{rot_lim}/{trans_lim})")
    _report(1, ok, f"20 transforms: {'; '.join(parts)}; suite {suite['wall']:.0f}s < 300s")


def test_criterion_2_variant_ordering(suite):
    rec = suite["records"]
    means = {key: float(np.mean(rec[key].pre)) for key in rec}
    t_star = sum(rec["sift_cpd_star"].runtime)
    t_cpd = sum(rec["cpd"].runtime)
    ok = (
        means["sift_cpd_star"] <= means["sift_cpd"] <= means["cpd"] and t_star < t_cpd
    )
    _report(
        2,
        ok,
        f"mean PRE star {means['sift_cpd_star']:.4f} <= sift {means['sift_cpd']:.4f}"
        f" <= cpd {means['cpd']:.4f} mm; EM runtime star {t_star:.2f}s < cpd {t_cpd:.2f}s",
    )


def test_criterion_3_contrast_flip_end_to_end(suite, phantom, phantom_scale_space, phantom_features):
    rec, neg = suite["records"], suite["neg_records"]
    limits = {"sift_cpd": (0.5, 1.0), "sift_cpd_star": (0.5, 1.0), "cpd": (1.0, 2.0)}
    ok = True
    for key, (rot_lim, trans_lim) in limits.items():
        ok = ok and neg[key].worst_rot() < rot_lim and neg[key].worst_trans() < trans_lim
    inlier_ratio = min(
        sum(neg[key].inliers) / sum(rec[key].inliers) for key in rec
    )
    ok = ok and inlier_ratio >= 0.8

    # bin-exact contrast identity on 100 features pooled from random phantoms
    checked = 0
    exact = True
    seed = PHANTOM_SEED
    while checked < 100:
        vol = phantom if seed == PHANTOM_SEED else make_phantom(seed)
        ss = phantom_scale_space if seed == PHANTOM_SEED else build_scale_space(vol, num_octaves=3)
        ss_neg = build_scale_space(negated(vol), num_octaves=3)
        feats = phantom_features if seed == PHANTOM_SEED else extract_features(vol, EXTRACTION)
        for feat in feats:
            kp = feat.keypoint
            anti = Keypoint(x=kp.x, sigma=kp.sigma, sign=-kp.sign, response=-kp.response)
            a = compute_descriptor(ss, kp, feat.frame)
            b = compute_descriptor(ss_neg, anti, feat.frame)
            exact = exact and np.array_equal(a.bins, b.bins)
            checked += 1
            if checked == 100:
                break
        seed += 1
    ok = ok and exact
    worst = max(max(neg[k].worst_rot() for k in neg), 0.0)
    _report(
        3,
        ok,
        f"negated reruns worst rot {worst:.3f}deg, inlier ratio {inlier_ratio:.3f} >= 0.8,"
        f" descriptor identity bin-exact on {checked} features: {exact}",
    )


def test_criterion_4_occlusion(phantom, phantom_features):
    dims = np.asarray(phantom.dims)
    extent = (dims - 1) * np.asarray(phantom.spacing)
    volume = float(np.prod(dims * np.asarray(phantom.spacing)))
    radius = (0.25 * volume * 3.0 / (4.0 * np.pi)) ** (1.0 / 3.0)
    center_world = volume_center(phantom)
    ok = True
    worst = {"sift_cpd": 0.0, "cpd": 0.0}
    for k in range(3):
        tgt = random_similarity(TRANSFORM_SEED_BASE + k, center=center_world)
        t_true = tgt.inverse()
        moving_vol = resample(phantom, tgt)
        rng = np.random.default_rng(50 + k)
        sphere_center = rng.random(3) * extent
        axes = [np.arange(d) * s for d, s in zip(phantom.dims, phantom.spacing)]
        gx, gy, gz = np.meshgrid(*axes, indexing="ij")
        mask = (
            (gx - sphere_center[0]) ** 2
            + (gy - sphere_center[1]) ** 2
            + (gz - sphere_center[2]) ** 2
        ) < radius**2
        moving_vol.data[mask] = 0.0
        moving = extract_features(moving_vol, EXTRACTION)
        for variant in ("sift_cpd", "cpd"):
            res = register(
                phantom_features, moving, RegistrationConfig(variant=variant, w=1e-4)
            )
            rot, trans = _errors(res.transform, t_true)
            worst[variant] = max(worst[variant], float(rot.max()))
            ok = ok and rot.max() < 1.0 and trans.max() < 2.0
    _report(
        4,
        ok,
        f"3 spheres (25% volume, radius {radius:.1f}mm): worst rot sift"
        f" {worst['sift_cpd']:.3f}deg, cpd {worst['cpd']:.3f}deg (< 1deg/2mm)",
    )


def _pairwise_umeyama(fixed, moving, p):
    """Flatten the weight matrix to explicit pairs and fit the textbook way."""
    m_idx, n_idx = np.meshgrid(np.arange(p.shape[0]), np.arange(p.shape[1]), indexing="ij")
    f = fixed[n_idx.ravel()]
    m = moving[m_idx.ravel()]
    w = p.ravel()
    total = w.sum()
    mu_f = (w[:, None] * f).sum(axis=0) / total
    mu_m = (w[:, None] * m).sum(axis=0) / total
    fc, mc = f - mu_f, m - mu_m
    cov = np.einsum("k,ki,kj->ij", w, fc, mc)
    u, s, vt = np.linalg.svd(cov)
    d = float(np.sign(np.linalg.det(u @ vt)))
    r = u @ np.diag([1.0, 1.0, d]) @ vt
    var_m = float(np.einsum("k,ki,ki->", w, mc, mc))
    b = float(s[0] + s[1] + d * s[2]) / var_m
    t = mu_f - b * (r @ mu_m)
    return r, b, t


def test_criterion_5_weighted_fit_oracle():
    rng = np.random.default_rng(60)
    worst = 0.0
    ok = True
    for _ in range(1000):
        nf = int(rng.integers(4, 10))
        nm = int(rng.integers(4, 10))
        fixed = rng.uniform(0.0, 40.0, (nf, 3))
        moving = rng.uniform(0.0, 40.0, (nm, 3))
        p = rng.uniform(0.0, 1.0, (nm, nf))
        t, _ = fit_similarity(fixed, moving, p.sum(axis=0), p.sum(axis=1), p.T @ moving)
        r, b, tr = _pairwise_umeyama(fixed, moving, p)
        gap = max(
            float(np.abs(t.rotation - r).max()),
            abs(t.scale - b),
            float(np.abs(t.translation - tr).max()),
        )
        worst = max(worst, gap)
        ok = ok and gap < 1e-9
    dets = []
    for _ in range(100):
        moving = rng.uniform(0.0, 30.0, (8, 3))
        fixed = moving * np.array([-1.0, 1.0, 1.0])
        p = rng.uniform(0.0, 1.0, (8, 8))
        t, _ = fit_similarity(fixed, moving, p.sum(axis=0), p.sum(axis=1), p.T @ moving)
        dets.append(float(np.linalg.det(t.rotation)))
    refl_ok = all(abs(d - 1.0) < 1e-9 for d in dets)
    ok = ok and refl_ok
    _report(
        5,
        ok,
        f"1000 weighted fits vs pairwise oracle, worst gap {worst:.2e} < 1e-9;"
        f" 100 mirrored instances all det(R)=+1: {refl_ok}",
    )


def test_criterion_6_correspondence_oracle():
    rng = np.random.default_rng(61)
    ok = True
    worst = 0.0
    for trial in range(100):
        w = 0.0 if trial % 4 == 0 else float(rng.uniform(0.01, 0.9))
        lam = float(rng.uniform(1.0, 100.0))
        cfg = RegistrationConfig(variant="sift_cpd", w=w)
        fixed = [
            Geometry(
                x=rng.uniform(0.0, 50.0, 3),
                sigma=float(rng.uniform(1.0, 8.0)),
                theta=matrix_from_rotvec(rng.normal(size=3)),
            )
            for _ in range(5)
        ]
        moving = [
            Geometry(
                x=rng.uniform(0.0, 50.0, 3),
                sigma=float(rng.uniform(1.0, 8.0)),
                theta=matrix_from_rotvec(rng.normal(size=3)),
            )
            for _ in range(7)
        ]
        p = e_step(*geometry_arrays(fixed), *geometry_arrays(moving), lam, cfg)
        sums = p.sum(axis=0)
        ok = ok and bool(np.all(sums <= 1.0 + 1e-12))
        if w == 0.0:
            ok = ok and bool(np.allclose(sums, 1.0, atol=1e-12))
            continue
        eta = (2.0 * np.pi * lam) ** 1.5 * (w / (1.0 - w)) * (7 / 5)
        for n, gf in enumerate(fixed):
            nums = [
                np.exp(-((gm.x - gf.x) @ (gm.x - gf.x)) / (2.0 * lam))
                * kernel_geometry(gf, gm, cfg.kernel)
                for gm in moving
            ]
            denom = sum(nums) + eta
            for m in range(7):
                gap = abs(p[m, n] - nums[m] / denom)
                worst = max(worst, gap)
                ok = ok and gap < 1e-12
    _report(6, ok, f"100 scalar re-evaluations, worst gap {worst:.2e} < 1e-12; column sums bounded")


def test_criterion_7_kernel_unit_values():
    params = kernel_params(default_config())
    plain = replace(params, use_orientation_states=False)

    def pair(x_m=(0.0, 0.0, 0.0), s_f=1.0, s_m=1.0, t_m=np.eye(3), kernel=params):
        """The library's all-pairs kernel of a fixed geometry at the origin and one moving."""
        fixed = (np.zeros((1, 3)), np.array([s_f]), np.eye(3)[None])
        moving = (np.array([x_m]), np.array([s_m]), t_m[None])
        return float(kernel_matrix(*fixed, *moving, kernel)[0, 0])

    gap = np.sqrt(params.k * 2.0 * 3.0 + params.sigma_t_sq)
    checks = [
        abs(pair(s_f=2.0) - np.exp(-np.log(2.0) ** 2)) < 1e-12,
        abs(pair(t_m=-np.eye(3), kernel=plain) - np.exp(-6.0)) < 1e-15,
        params.k == 12.0,
        params.sigma_t_sq == 200.0,
        # over the coincident pair, which carries the same scale factor
        abs(pair((gap, 0.0, 0.0), 2.0, 3.0) / pair(s_f=2.0, s_m=3.0) - np.exp(-1.0)) < 1e-12,
    ]
    ok = all(checks)
    _report(
        7,
        ok,
        "K_sigma(2s,s)=exp(-ln2^2), K_theta(anti)=exp(-6), K_x(len scale)=1/e,"
        f" defaults k={params.k:g} sigma_t_sq={params.sigma_t_sq:g} from config",
    )


def test_criterion_8_vote_robustness():
    rng = np.random.default_rng(62)
    t_true = SimilarityTransform(
        rotation=matrix_from_rotvec(np.radians(22.0) * np.array([0.2, 0.7, -0.4]) / 0.8306623),
        scale=1.0,
        translation=np.array([-7.0, 3.0, 8.0]),
    )

    def geom():
        return Geometry(
            x=rng.uniform(0.0, 60.0, 3),
            sigma=float(rng.uniform(1.5, 6.0)),
            theta=matrix_from_rotvec(rng.normal(size=3)),
        )

    pairs = []
    for i in range(30):
        g_mov = geom()
        g_fix = apply_to_geometry(t_true, g_mov)
        g_mov = Geometry(
            x=g_mov.x + rng.normal(0.0, 0.2, 3),
            sigma=g_mov.sigma * float(np.exp(rng.normal(0.0, 0.02))),
            theta=matrix_from_rotvec(rng.normal(0.0, np.radians(0.6), 3)) @ g_mov.theta,
        )
        pairs.append((g_mov, g_fix))
    for i in range(70):
        g_mov, g_fix = geom(), geom()
        pairs.append((g_mov, g_fix))
    res = hough_init(pair_table(pairs))  # default thresholds (0.7, log 1.5, 0.25)
    rot_err = float(np.degrees(np.linalg.norm(rotvec_from_matrix(res.t_star.rotation @ t_true.rotation.T))))
    trans_err = float(np.linalg.norm(res.t_star.translation - t_true.translation))
    planted = sum(1 for m in res.inliers if m.fixed_index < 30)
    ok = rot_err < 2.0 and trans_err < 2.0 and planted >= 25
    _report(
        8,
        ok,
        f"30 planted among 70 outliers: {rot_err:.3f}deg/{trans_err:.3f}mm,"
        f" {planted}/30 planted inliers recovered",
    )


def test_criterion_9_state_transitions(phantom, phantom_features):
    self_res = register(phantom_features, phantom_features)
    hist_self = state_histogram(self_res.init.inliers)
    total = hist_self.sum()
    identity_share = hist_self[0, 0] / total if total else 0.0

    flipped = extract_features(negated(phantom), EXTRACTION)
    inliers = hough_init(match_features(phantom_features, flipped)).inliers
    hist_flip = state_histogram(inliers)
    off_identity = hist_flip[0, 1:4]
    parity_plurality = bool(
        hist_flip[0, 3] > 0 and hist_flip[0, 3] == off_identity.max()
    )
    ok = identity_share >= 0.9 and parity_plurality
    _report(
        9,
        ok,
        f"self-registration identity transitions {identity_share:.0%} >= 90%;"
        f" negated-run off-identity votes {off_identity.tolist()} peak on parity state",
    )


def test_criterion_10_frame_invariants(phantom, phantom_features):
    frames = [f.frame for f in phantom_features]
    for k in range(3):
        tgt = random_similarity(TRANSFORM_SEED_BASE + k, center=volume_center(phantom))
        frames.extend(
            f.frame for f in extract_features(resample(phantom, tgt), EXTRACTION)
        )
    rotation_ok = all(is_rotation(f.matrix, tol=1e-9) for f in frames)
    det_ok = all(
        abs(np.linalg.det(s.frame.matrix) - 1.0) < 1e-9
        for f in frames
        for s in enumerate_states(f)
    )
    ok = rotation_ok and det_ok
    _report(
        10,
        ok,
        f"{len(frames)} frames pass SO(3) at 1e-9: {rotation_ok};"
        f" all 4 states det +1: {det_ok}",
    )
