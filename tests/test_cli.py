"""End-to-end command line workflows driven in process."""
from __future__ import annotations

import gzip
import json
import re
import struct

import numpy as np
import pytest

from volkey.cli import main
from volkey.descriptors import ExtractionConfig, extract_features
from volkey.evaluation import evaluate, probe_grid
from volkey.io import read_volume, write_features
from volkey.synth import make_phantom, random_similarity
from volkey.transforms import SimilarityTransform


def _run(capsys, *args):
    code = main([str(a) for a in args])
    out = capsys.readouterr().out
    values = {}
    for line in out.splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return code, values


FROZEN_EXTRACT = ("--num-octaves", 3, "--min-abs-response", 1e-3, "--max-count", 250)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Phantom, transformed copy, and extracted features shared by the tests."""
    tmp = tmp_path_factory.mktemp("cli")
    assert main(["phantom", "--seed", "7", "--out", str(tmp / "fixed.txt")]) == 0
    assert (
        main(
            [
                "synth-transform",
                "--seed",
                "4000",
                "--center-of",
                str(tmp / "fixed.txt"),
                "--out",
                str(tmp / "t.json"),
                "--out-inverse",
                str(tmp / "t_inv.json"),
                "--apply-to",
                str(tmp / "fixed.txt"),
                "--out-volume",
                str(tmp / "moving.txt"),
            ]
        )
        == 0
    )
    for name in ("fixed", "moving"):
        code = main(
            [
                "extract",
                "--volume",
                str(tmp / f"{name}.txt"),
                "--out",
                str(tmp / f"{name}.vkf"),
                *[str(a) for a in FROZEN_EXTRACT],
            ]
        )
        assert code == 0
    return tmp


def test_phantom_writes_volume(tmp_path, capsys):
    code, values = _run(
        capsys, "phantom", "--seed", 3, "--num-blobs", 5, "--out", tmp_path / "p.txt"
    )
    assert code == 0
    assert (tmp_path / "p.txt").exists()
    assert (tmp_path / "p.raw").exists()


def test_extract_reports_counts(workspace, capsys):
    code, values = _run(
        capsys,
        "extract",
        "--volume",
        workspace / "fixed.txt",
        "--out",
        workspace / "again.vkf",
        *FROZEN_EXTRACT,
    )
    assert code == 0
    assert int(values["num_keypoints"]) >= 30
    assert int(values["num_features"]) >= 30
    assert values["estimator"] == "max_gradient"


def _nifti_f32(volume) -> bytes:
    """Single-file NIfTI-1 image of a volume, float32 data after a 352-byte header."""
    hdr = bytearray(352)
    struct.pack_into("<i", hdr, 0, 348)
    struct.pack_into("<8h", hdr, 40, 3, *volume.dims, 1, 1, 1, 1)
    struct.pack_into("<h", hdr, 70, 16)
    struct.pack_into("<8f", hdr, 76, 0.0, *volume.spacing, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<f", hdr, 108, 352.0)
    hdr[344:348] = b"n+1\x00"
    return bytes(hdr) + volume.data.astype("<f4").ravel(order="F").tobytes()


def test_extract_reads_nifti_by_name_or_bytes(tmp_path, capsys):
    # the same image, plain and gzipped, named .nii or .nii.gz or unrelated names
    image = _nifti_f32(make_phantom(seed=3, num_blobs=8, dims=(32, 32, 32)))
    packed = gzip.compress(image)
    files = {"a.nii": image, "a.nii.gz": packed, "scan": image, "scan.img": packed}
    runs = []
    for name, raw in files.items():
        (tmp_path / name).write_bytes(raw)
        out = tmp_path / f"{name}.vkf"
        with pytest.warns(UserWarning, match="orientation"):
            code, values = _run(
                capsys, "extract", "--volume", tmp_path / name, "--out", out, "--num-octaves", 2
            )
        assert code == 0
        del values["out"]
        records = out.read_bytes().split(b"END\n", 1)[1]
        runs.append((values, records))
    assert int(runs[0][0]["num_features"]) >= 1
    assert all(run == runs[0] for run in runs)


def test_extract_is_reproducible(workspace, capsys):
    a = workspace / "rep_a.vkf"
    b = workspace / "rep_b.vkf"
    for out in (a, b):
        code, _ = _run(
            capsys, "extract", "--volume", workspace / "fixed.txt", "--out", out, *FROZEN_EXTRACT
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_match_writes_table(workspace, capsys):
    out = workspace / "matches.tsv"
    code, values = _run(
        capsys,
        "match",
        "--fixed",
        workspace / "fixed.vkf",
        "--moving",
        workspace / "moving.vkf",
        "--out",
        out,
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split("\t")
    assert header[:3] == ["fixed_index", "moving_index", "state"]
    assert len(lines) - 1 == int(values["num_matches"])
    states = {int(row.split("\t")[2]) for row in lines[1:]}
    assert states <= {0, 1, 2, 3}


def test_register_and_evaluate_round_trip(workspace, capsys):
    est = workspace / "est.json"
    code, values = _run(
        capsys,
        "register",
        "--fixed",
        workspace / "fixed.vkf",
        "--moving",
        workspace / "moving.vkf",
        "--variant",
        "sift-cpd",
        "--w",
        1e-4,
        "--out",
        est,
        "--dump-inliers",
        workspace / "inliers.tsv",
        "--dump-lambda",
        workspace / "lambda.txt",
    )
    assert code == 0
    assert values["converged"] == "true"
    assert int(values["inlier_count"]) >= 3
    assert abs(float(values["scale"]) - 1.0) < 0.02

    payload = json.loads(est.read_text())
    assert set(payload) >= {"rotation", "scale", "translation"}
    inlier_lines = (workspace / "inliers.tsv").read_text().strip().splitlines()
    assert len(inlier_lines) - 1 == int(values["inlier_count"])
    lam = [float(v) for v in (workspace / "lambda.txt").read_text().split()]
    assert len(lam) == int(values["iterations"])

    code, scores = _run(
        capsys,
        "evaluate",
        "--est",
        est,
        "--gt",
        workspace / "t_inv.json",
        "--volume",
        workspace / "fixed.txt",
    )
    assert code == 0
    rot = [float(v) for v in scores["rotation_error_deg"].split()]
    trans = [float(v) for v in scores["translation_error_mm"].split()]
    assert max(rot) < 0.5
    assert max(trans) < 1.0
    assert float(scores["pre_mm"]) < 1.0
    assert int(scores["num_probes"]) == 125


def test_all_registration_variants_run(workspace, capsys):
    for variant in ("icp20", "icp100", "cpd", "sift-cpd", "sift-cpd-star"):
        code, values = _run(
            capsys,
            "register",
            "--fixed",
            workspace / "fixed.vkf",
            "--moving",
            workspace / "moving.vkf",
            "--variant",
            variant,
            "--w",
            1e-4,
            "--out",
            workspace / f"est_{variant}.json",
        )
        assert code == 0, variant
        assert abs(float(values["scale"]) - 1.0) < 0.06, variant
        if variant == "icp20":
            assert int(values["iterations"]) <= 20


def test_max_iterations_caps_the_em_variants(workspace, capsys):
    feats = ("--fixed", workspace / "fixed.vkf", "--moving", workspace / "moving.vkf")
    for variant in ("cpd", "sift-cpd", "sift-cpd-star"):
        code, values = _run(
            capsys, "register", *feats, "--variant", variant, "--max-iterations", 2,
            "--out", workspace / f"capped_{variant}.json",
        )
        assert code == 0, variant
        assert values["variant"] == variant
        assert int(values["iterations"]) <= 2, variant


def test_register_is_reproducible(workspace, capsys):
    outs = []
    for name in ("r1.json", "r2.json"):
        code, _ = _run(
            capsys,
            "register",
            "--fixed",
            workspace / "fixed.vkf",
            "--moving",
            workspace / "moving.vkf",
            "--out",
            workspace / name,
        )
        assert code == 0
        outs.append((workspace / name).read_bytes())
    assert outs[0] == outs[1]


def test_states_histogram_of_self_match(workspace, capsys):
    code, values = _run(
        capsys,
        "states",
        "--fixed",
        workspace / "fixed.vkf",
        "--moving",
        workspace / "fixed.vkf",
    )
    assert code == 0
    row0 = [int(v) for v in values["state_hist_row0"].split()]
    assert sum(row0) == int(values["num_inliers"])
    assert row0[0] == int(values["num_inliers"])  # self pairs stay in state 0


def test_symmetric_states_add_the_swapped_run_transposed(workspace, capsys):
    fixed, moving = workspace / "fixed.vkf", workspace / "moving.vkf"

    def states(*args):
        code, values = _run(capsys, "states", *args)
        assert code == 0
        rows = [[int(v) for v in values[f"state_hist_row{k}"].split()] for k in range(4)]
        return np.array(rows), int(values["num_inliers"])

    forward, n_forward = states("--fixed", fixed, "--moving", moving)
    swapped, n_swapped = states("--fixed", moving, "--moving", fixed)
    both, n_both = states("--fixed", fixed, "--moving", moving, "--symmetric")
    assert n_forward >= 3 and n_swapped >= 3
    np.testing.assert_array_equal(both, forward + swapped.T)
    assert n_both == n_forward + n_swapped == both.sum()


def test_synth_transform_center_and_negate(workspace, tmp_path, capsys):
    common = ("synth-transform", "--seed", 11, "--center", 1.5, -2, 3,
              "--apply-to", workspace / "fixed.txt")
    code, values = _run(
        capsys, *common, "--out", tmp_path / "t.json", "--out-volume", tmp_path / "plain.txt"
    )
    assert code == 0 and values["center"] == "1.5 -2.0 3.0"
    want = random_similarity(11, center=(1.5, -2.0, 3.0)).as_dict()
    assert json.loads((tmp_path / "t.json").read_text()) == json.loads(json.dumps(want))
    code, _ = _run(
        capsys, *common, "--out", tmp_path / "t2.json", "--out-volume", tmp_path / "negated.txt",
        "--negate",
    )
    assert code == 0
    plain, flipped = read_volume(tmp_path / "plain.txt"), read_volume(tmp_path / "negated.txt")
    assert np.abs(plain.data).max() > 0.0
    np.testing.assert_array_equal(flipped.data, -plain.data)


def test_evaluate_with_both_volumes_prints_the_ssd(workspace, capsys):
    fixed, moving, gt = workspace / "fixed.txt", workspace / "moving.txt", workspace / "t_inv.json"
    code, values = _run(
        capsys, "evaluate", "--est", gt, "--gt", gt, "--volume", fixed,
        "--fixed-volume", fixed, "--moving-volume", moving,
    )
    assert code == 0
    t = SimilarityTransform.from_dict(json.loads(gt.read_text()))
    fixed_vol = read_volume(fixed)
    want = evaluate(t, t, probe_grid(fixed_vol), fixed=fixed_vol, moving=read_volume(moving))
    assert values["ssd"] == repr(want.ssd) and want.ssd > 0.0


def test_extract_with_the_structure_tensor(workspace, tmp_path, capsys):
    out = tmp_path / "st.vkf"
    code, values = _run(
        capsys, "extract", "--volume", workspace / "fixed.txt", "--out", out, *FROZEN_EXTRACT,
        "--estimator", "structure_tensor",
    )
    assert code == 0 and values["estimator"] == "structure_tensor"
    config = ExtractionConfig(
        num_octaves=3, min_abs_response=1e-3, max_count=250, estimator="structure_tensor"
    )
    features = extract_features(read_volume(workspace / "fixed.txt"), config)
    assert int(values["num_features"]) == len(features) >= 30
    want = tmp_path / "want.vkf"
    write_features(want, features, volume_id="fixed.txt", config=config)
    assert out.read_bytes() == want.read_bytes()


def test_config_file_and_flag_precedence(workspace, tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"extraction": {"max_count": 5, "min_abs_response": 1e-3}}))
    code, values = _run(
        capsys,
        "extract",
        "--config",
        conf,
        "--volume",
        workspace / "fixed.txt",
        "--out",
        tmp_path / "five.vkf",
    )
    assert code == 0
    assert int(values["num_features"]) == 5
    code, values = _run(
        capsys,
        "extract",
        "--config",
        conf,
        "--volume",
        workspace / "fixed.txt",
        "--out",
        tmp_path / "three.vkf",
        "--max-count",
        3,
    )
    assert code == 0
    assert int(values["num_features"]) == 3


def test_probe_file_evaluation(workspace, tmp_path, capsys):
    probes = tmp_path / "probes.txt"
    probes.write_text("fixed_x fixed_y fixed_z\n10 20 30\n40.5 32 8\n")
    code, values = _run(
        capsys,
        "evaluate",
        "--est",
        workspace / "t_inv.json",
        "--gt",
        workspace / "t_inv.json",
        "--probes",
        probes,
    )
    assert code == 0
    assert float(values["pre_mm"]) == 0.0
    assert int(values["num_probes"]) == 2


def test_cli_error_exits(workspace, tmp_path, capsys):
    # usage errors are found before any output: nothing on stdout, no file
    gt = workspace / "t_inv.json"
    fixed = workspace / "fixed.txt"
    feats = ("--fixed", workspace / "fixed.vkf", "--moving", workspace / "moving.vkf")
    out = tmp_path / "out"
    out.mkdir()
    # an invalid file value fails at load, even where a flag would override it
    bad_w = tmp_path / "bad_w.json"
    bad_w.write_text(json.dumps({"registration": {"w": 1.5}}))
    cases = [
        ("need --probes or --volume", "evaluate", "--est", gt, "--gt", gt),
        (
            "--apply-to needs --out-volume",
            "synth-transform", "--seed", 1, "--out", out / "t.json",
            "--out-inverse", out / "t_inv.json", "--apply-to", fixed,
        ),
        (
            "--max-iterations conflicts with --variant icp20",
            "register", *feats, "--variant", "icp20", "--max-iterations", 5,
            "--out", out / "e.json", "--dump-lambda", out / "lambda.txt",
        ),
        (
            "--max-iterations conflicts with --variant icp100",
            "register", *feats, "--variant", "icp100", "--max-iterations", 100,
            "--out", out / "e.json",
        ),
        (
            "SSD needs both the fixed and the moving volume",
            "evaluate", "--est", gt, "--gt", gt, "--volume", fixed, "--fixed-volume", fixed,
        ),
        (
            "SSD needs both the fixed and the moving volume",
            "evaluate", "--est", gt, "--gt", gt, "--volume", fixed, "--moving-volume", fixed,
        ),
        (
            f"{bad_w}: section 'registration': outlier fraction w",
            "register", "--config", bad_w, *feats, "--w", 0.2, "--out", out / "e.json",
        ),
        # the synthetic inputs' library checks make these usage errors, not tracebacks
        ("seed must be a nonnegative integer", "phantom", "--seed", -1, "--out", out / "p.txt"),
        (
            "seed must be a nonnegative integer",
            "synth-transform", "--seed", -1, "--out", out / "t.json",
        ),
        (
            "spacing must be three lengths",
            "phantom", "--seed", 1, "--spacing", "nan", 1, 1, "--out", out / "p.txt",
        ),
        # (window_factor sigma)^2 overflowed in the frame window; a 1e300 base
        # sigma failed in np.arange and 1e9 asked for a 44.7 GiB blur kernel
        *(
            (f"{name} must be a number in", "extract", "--volume", fixed,
             "--out", out / "f.vkf", flag, value)
            for name, flag, value in (
                ("window_factor", "--window-factor", 1e300),
                ("base_sigma", "--base-sigma", 1e300),
                ("base_sigma", "--base-sigma", 1e9),
            )
        ),
    ]
    for message, *args in cases:
        code, err = _error_exit(capsys, *args)
        assert code == 2, args
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert message in err, err
        assert list(out.iterdir()) == []


def _error_exit(capsys, *args):
    """Exit status and stderr of a failing command."""
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err


def test_rejected_inputs_end_in_one_error_line(workspace, tmp_path, capsys):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text('{"rotation": [[1, 0, 0]')
    no_scale = tmp_path / "no_scale.json"
    no_scale.write_text(json.dumps({"rotation": np.eye(3).tolist(), "translation": [0, 0, 0]}))
    scaled = tmp_path / "scaled.json"
    scaled.write_text(json.dumps({"rotation": (2.0 * np.eye(3)).tolist(), "scale": 1.0,
                                  "translation": [0, 0, 0]}))
    probes = tmp_path / "probes.txt"
    probes.write_text("1 2 3\n4 five 6\n")
    short = tmp_path / "short.txt"
    short.write_text("1 2\n")
    gt = workspace / "t_inv.json"
    feats = ("--fixed", workspace / "fixed.vkf", "--moving", workspace / "moving.vkf")
    volume = ("--volume", workspace / "fixed.txt")
    cases = [
        ("No such", "register", "--config", "/nonexistent.json", *feats, "--out", tmp_path / "e"),
        ("not a transform JSON", "evaluate", "--est", bad_json, "--gt", gt, *volume),
        ("'scale'", "evaluate", "--est", no_scale, "--gt", gt, *volume),
        # the transform's own refusal passes through the loader unwrapped
        ("^error: rotation is not a proper rotation matrix$", "evaluate", "--est", scaled,
         "--gt", gt, *volume),
        ("line 2 .*'4 five 6'", "evaluate", "--est", gt, "--gt", gt, "--probes", probes),
        ("line 1 ", "evaluate", "--est", gt, "--gt", gt, "--probes", short),
        ("No such file", "extract", "--volume", tmp_path / "no.txt", "--out", tmp_path / "f"),
        ("base_sigma", "extract", *volume, "--out", tmp_path / "f", "--base-sigma", 1e-200),
    ]
    for message, *args in cases:
        code, err = _error_exit(capsys, *args)
        assert code == 2, args
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert re.search(message, err), err


def test_other_exceptions_still_propagate(monkeypatch, workspace, tmp_path):
    def broken(*args, **kwargs):
        raise ZeroDivisionError("a bug, not an input")

    monkeypatch.setattr("volkey.cli.register", broken)
    feats = ["--fixed", str(workspace / "fixed.vkf"), "--moving", str(workspace / "moving.vkf")]
    with pytest.raises(ZeroDivisionError):
        main(["register", *feats, "--out", str(tmp_path / "e.json")])


def test_commands_reject_flags_they_do_not_read(workspace, tmp_path, capsys):
    fixed = workspace / "fixed.txt"
    feats = ("--fixed", workspace / "fixed.vkf", "--moving", workspace / "moving.vkf")
    gt = workspace / "t_inv.json"
    commands = {
        "phantom": ("phantom", "--seed", 1, "--out", tmp_path / "p.txt"),
        "synth-transform": ("synth-transform", "--seed", 1, "--out", tmp_path / "t.json"),
        "extract": ("extract", "--volume", fixed, "--out", tmp_path / "f.vkf"),
        "match": ("match", *feats),
        "register": ("register", *feats, "--out", tmp_path / "e.json"),
        "evaluate": ("evaluate", "--est", gt, "--gt", gt, "--volume", fixed),
        "states": ("states", *feats),
    }
    dropped = [
        ("--config", workspace / "t.json", ("phantom", "synth-transform", "match", "evaluate")),
        ("--format", "auto", tuple(commands)),
    ]
    for flag, value, names in dropped:
        for name in names:
            with pytest.raises(SystemExit) as exit_info:
                main([str(a) for a in (*commands[name], flag, value)])
            assert exit_info.value.code == 2, (name, flag)
            captured = capsys.readouterr()
            assert captured.out == "" and f"unrecognized arguments: {flag}" in captured.err
    assert list(tmp_path.iterdir()) == []
