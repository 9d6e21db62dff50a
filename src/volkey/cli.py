"""Command-line interface.

Commands: extract, match, register, evaluate, phantom, synth-transform,
states.  Every command prints deterministic ``key=value`` lines on stdout
(seeded runs are byte-identical across invocations); timings and progress go
to stderr as log records.  ``--config`` points at a JSON file overriding the
built-in defaults, and explicit flags override both.
"""
from __future__ import annotations

import argparse
import json
import logging
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import io as vio
from .config import (
    extraction_config,
    hough_params,
    load_config,
    registration_config,
)
from .descriptors import extract_features_with_stats
from .errors import ParseError, VolkeyError
from .evaluation import evaluate, probe_grid, state_histogram
from .matching import hough_init, match_features
from .registration import register
from .synth import make_phantom, random_similarity
from .transforms import SimilarityTransform
from .volume import ScalarVolume, resample

log = logging.getLogger("volkey")

CLI_VARIANTS = {
    "icp20": ("icp", 20),
    "icp100": ("icp", 100),
    "cpd": ("cpd", None),
    "sift-cpd": ("sift_cpd", None),
    "sift-cpd-star": ("sift_cpd_star", None),
}


def _emit(key: str, value) -> None:
    if isinstance(value, float):
        value = repr(value)
    elif isinstance(value, (list, tuple, np.ndarray)):
        value = " ".join(repr(float(v)) for v in np.asarray(value).ravel())
    print(f"{key}={value}")


def _read_volume(path: str, fmt: str) -> ScalarVolume:
    if fmt == "auto":
        fmt = "nifti1" if path.endswith((".nii", ".nii.gz")) else "raw_meta"
    if fmt == "nifti1":
        return vio.read_nifti(path)
    return vio.read_volume(path)


def _load_transform(path: str) -> SimilarityTransform:
    try:
        with open(path) as fh:
            return SimilarityTransform.from_dict(json.load(fh))
    except VolkeyError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise ParseError(f"{path}: not a transform JSON ({exc!r})") from exc


def _read_probes(path: str) -> np.ndarray:
    """x y z per line; further columns and a dumped inlier table's header are skipped."""
    rows = []
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("fixed_x"):
                continue
            try:
                row = [float(v) for v in line.split()[:3]]
            except ValueError:
                row = []
            if len(row) != 3 or not all(map(math.isfinite, row)):
                raise ParseError(f"{path}: line {number} is not three numbers: {line!r}")
            rows.append(row)
    return np.asarray(rows)


def _save_transform(path: str, t: SimilarityTransform) -> None:
    with open(path, "w") as fh:
        json.dump(t.as_dict(), fh, indent=1, sort_keys=True)
        fh.write("\n")


def _override(cfg_section: dict, args: argparse.Namespace, names: dict[str, str]) -> None:
    for flag, key in names.items():
        value = getattr(args, flag, None)
        if value is not None:
            cfg_section[key] = value


def cmd_phantom(args) -> int:
    volume = make_phantom(
        seed=args.seed,
        num_blobs=args.num_blobs,
        dims=tuple(args.dims),
        spacing=tuple(args.spacing),
    )
    vio.write_volume(args.out, volume, dtype="f32")
    _emit("out", args.out)
    _emit("dims", f"{volume.dims[0]} {volume.dims[1]} {volume.dims[2]}")
    _emit("num_blobs", args.num_blobs)
    _emit("seed", args.seed)
    return 0


def cmd_synth_transform(args) -> int:
    center = (0.0, 0.0, 0.0)
    if args.center is not None:
        center = tuple(args.center)
    elif args.center_of is not None:
        vol = _read_volume(args.center_of, args.format)
        center = tuple((vol.world_min + vol.world_max) / 2.0)
    t = random_similarity(
        seed=args.seed,
        rot_range_deg=(args.rot_min, args.rot_max),
        trans_range_mm=(args.trans_min, args.trans_max),
        center=center,
    )
    _save_transform(args.out, t)
    _emit("out", args.out)
    _emit("seed", args.seed)
    _emit("center", center)
    if args.out_inverse:
        _save_transform(args.out_inverse, t.inverse())
        _emit("out_inverse", args.out_inverse)
    if args.apply_to:
        if not args.out_volume:
            print("error: --apply-to needs --out-volume", file=sys.stderr)
            return 2
        vol = _read_volume(args.apply_to, args.format)
        moved = resample(vol, t)
        if args.negate:
            moved = ScalarVolume(moved.dims, moved.spacing, moved.origin, -moved.data)
        vio.write_volume(args.out_volume, moved, dtype="f32")
        _emit("out_volume", args.out_volume)
    return 0


def cmd_extract(args) -> int:
    cfg = load_config(args.config)
    # every extraction key has a flag of the same name
    _override(cfg["extraction"], args, {key: key for key in cfg["extraction"]})
    ecfg = extraction_config(cfg)
    volume = _read_volume(args.volume, args.format)
    start = time.perf_counter()
    features, stats = extract_features_with_stats(volume, ecfg)
    log.info("extracted %d features in %.2fs", len(features), time.perf_counter() - start)
    vio.write_features(
        args.out, features, volume_id=Path(args.volume).name, config=ecfg
    )
    _emit("out", args.out)
    _emit("num_keypoints", stats.num_keypoints)
    _emit("num_features", len(features))
    _emit("dropped_no_orientation", stats.dropped_no_orientation)
    _emit("dropped_ambiguous_frame", stats.dropped_ambiguous)
    _emit("estimator", ecfg.estimator)
    return 0


def cmd_match(args) -> int:
    fixed, _ = vio.read_features(args.fixed)
    moving, _ = vio.read_features(args.moving)
    matches = match_features(fixed, moving)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("fixed_index\tmoving_index\tstate\tdistance\n")
            for m in matches:
                fh.write(
                    f"{m.fixed_index}\t{m.moving_index}\t{m.moving_state}\t"
                    f"{float(m.descriptor_distance)!r}\n"
                )
        _emit("out", args.out)
    _emit("num_fixed", len(fixed))
    _emit("num_moving", len(moving))
    _emit("num_matches", len(matches))
    return 0


def _configured_registration(args):
    cfg = load_config(args.config)
    _override(cfg["registration"], args, {"w": "w", "max_iterations": "max_iterations"})
    _override(cfg["kernel"], args, {"kernel_k": "k", "kernel_sigma_t_sq": "sigma_t_sq"})
    if args.variant is not None:
        variant, iters = CLI_VARIANTS[args.variant]
        cfg["registration"]["variant"] = variant
        if iters is not None:
            cfg["registration"]["max_iterations"] = iters
    return registration_config(cfg)


def cmd_register(args) -> int:
    rcfg = _configured_registration(args)
    fixed, _ = vio.read_features(args.fixed)
    moving, _ = vio.read_features(args.moving)
    result = register(fixed, moving, rcfg)
    log.info("registration took %.2fs", result.runtime)
    _save_transform(args.out, result.transform)
    _emit("out", args.out)
    _emit("variant", args.variant or rcfg.variant)
    _emit("iterations", result.iterations)
    _emit("converged", str(result.converged).lower())
    _emit("inlier_count", len(result.init.inliers))
    _emit("scale", result.transform.scale)
    if args.dump_inliers:
        with open(args.dump_inliers, "w") as fh:
            fh.write("fixed_x\tfixed_y\tfixed_z\tmoving_x\tmoving_y\tmoving_z\tstate\n")
            for m in result.init.inliers:
                fx = "\t".join(repr(float(v)) for v in m.fixed_x)
                mx = "\t".join(repr(float(v)) for v in m.moving_x)
                fh.write(f"{fx}\t{mx}\t{m.moving_state}\n")
        _emit("dump_inliers", args.dump_inliers)
    if args.dump_lambda:
        with open(args.dump_lambda, "w") as fh:
            for v in result.lambda_sq_history:
                fh.write(f"{v!r}\n")
        _emit("dump_lambda", args.dump_lambda)
    return 0


def cmd_evaluate(args) -> int:
    t_est = _load_transform(args.est)
    t_gt = _load_transform(args.gt)
    if args.probes:
        probes = _read_probes(args.probes)
    elif args.volume:
        probes = probe_grid(_read_volume(args.volume, args.format))
    else:
        print("error: need --probes or --volume for probe points", file=sys.stderr)
        return 2
    fixed_vol = _read_volume(args.fixed_volume, args.format) if args.fixed_volume else None
    moving_vol = _read_volume(args.moving_volume, args.format) if args.moving_volume else None
    report = evaluate(t_est, t_gt, probes, fixed=fixed_vol, moving=moving_vol)
    _emit("pre_mm", report.pre)
    _emit("rotation_error_deg", report.rotation_error_deg)
    _emit("translation_error_mm", report.translation_error_mm)
    if report.ssd is not None:
        _emit("ssd", report.ssd)
    _emit("num_probes", len(probes))
    return 0


def cmd_states(args) -> int:
    cfg = load_config(args.config)
    fixed, _ = vio.read_features(args.fixed)
    moving, _ = vio.read_features(args.moving)
    matches = match_features(fixed, moving)
    inliers = hough_init(matches, hough_params(cfg)).inliers
    hist = state_histogram(inliers)
    if args.symmetric:
        back = hough_init(match_features(moving, fixed), hough_params(cfg)).inliers
        hist = hist + state_histogram(back).T
    for k in range(4):
        _emit(f"state_hist_row{k}", " ".join(str(int(v)) for v in hist[k]))
    _emit("num_inliers", int(hist.sum()))
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument(
        "--format",
        default="auto",
        choices=["auto", "raw_meta", "nifti1"],
        help="volume file format (default: by extension)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volkey",
        description="3D keypoint extraction and feature-based volume registration",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="generate a random blob phantom volume")
    _add_common(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--num-blobs", type=int, default=40)
    p.add_argument("--dims", type=int, nargs=3, default=[64, 64, 64])
    p.add_argument("--spacing", type=float, nargs=3, default=[1.0, 1.0, 1.0])
    p.add_argument("--out", required=True, help="output raw_meta header path")
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("synth-transform", help="sample a random similarity transform")
    _add_common(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rot-min", type=float, default=10.0)
    p.add_argument("--rot-max", type=float, default=30.0)
    p.add_argument("--trans-min", type=float, default=0.0)
    p.add_argument("--trans-max", type=float, default=10.0)
    p.add_argument("--center", type=float, nargs=3, default=None)
    p.add_argument("--center-of", default=None, help="take rotation center from this volume")
    p.add_argument("--out", required=True, help="output transform JSON")
    p.add_argument("--out-inverse", default=None, help="also write the inverse transform")
    p.add_argument("--apply-to", default=None, help="volume to resample through the transform")
    p.add_argument("--out-volume", default=None, help="output for --apply-to")
    p.add_argument("--negate", action="store_true", help="negate intensities of --apply-to output")
    p.set_defaults(func=cmd_synth_transform)

    p = sub.add_parser("extract", help="extract features from a volume")
    _add_common(p)
    p.add_argument("--volume", required=True)
    p.add_argument("--out", required=True, help="output feature file")
    p.add_argument("--estimator", choices=["max_gradient", "structure_tensor"], default=None)
    p.add_argument("--base-sigma", type=float, default=None)
    p.add_argument("--num-octaves", type=int, default=None)
    p.add_argument("--min-abs-response", type=float, default=None)
    p.add_argument("--max-count", type=int, default=None)
    p.add_argument("--window-factor", type=float, default=None)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("match", help="match two feature files")
    _add_common(p)
    p.add_argument("--fixed", required=True)
    p.add_argument("--moving", required=True)
    p.add_argument("--out", default=None, help="optional TSV of matches")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("register", help="register moving features onto fixed")
    _add_common(p)
    p.add_argument("--fixed", required=True)
    p.add_argument("--moving", required=True)
    p.add_argument("--variant", choices=sorted(CLI_VARIANTS), default=None)
    p.add_argument("--w", type=float, default=None, help="outlier fraction")
    p.add_argument("--max-iterations", type=int, default=None)
    p.add_argument("--kernel-k", type=float, default=None)
    p.add_argument("--kernel-sigma-t-sq", type=float, default=None)
    p.add_argument("--out", required=True, help="output transform JSON")
    p.add_argument("--dump-inliers", default=None, help="TSV of inlier locations and states")
    p.add_argument("--dump-lambda", default=None, help="text file of lambda^2 history")
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("evaluate", help="compare an estimated transform to ground truth")
    _add_common(p)
    p.add_argument("--est", required=True, help="estimated transform JSON")
    p.add_argument("--gt", required=True, help="ground-truth transform JSON (moving onto fixed)")
    p.add_argument("--probes", default=None, help="text file of probe points (x y z per line)")
    p.add_argument("--volume", default=None, help="volume for the default 5x5x5 probe grid")
    p.add_argument("--fixed-volume", default=None, help="fixed volume for SSD")
    p.add_argument("--moving-volume", default=None, help="moving volume for SSD")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("states", help="sign-state transition histogram of voting inliers")
    _add_common(p)
    p.add_argument("--fixed", required=True)
    p.add_argument("--moving", required=True)
    p.add_argument("--symmetric", action="store_true", help="also run the swapped direction")
    p.set_defaults(func=cmd_states)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    # rejected inputs and unreadable files end like usage errors; bugs still raise
    try:
        return args.func(args)
    except (VolkeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
