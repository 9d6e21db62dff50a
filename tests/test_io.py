"""File formats: raw volumes with text headers, NIfTI-1, feature sets."""
from __future__ import annotations

import gzip
import struct
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from volkey.config import load_config
from volkey import io as vio
from volkey import descriptors, frames, keypoints
from volkey.descriptors import Descriptor, ExtractionConfig, Feature, FeatureSet, stack_features
from volkey.errors import ParseError, RejectedInputError
from volkey.frames import Frame
from volkey.io import config_digest, read_features, read_volume, write_features, write_volume
from volkey.keypoints import Keypoint
from volkey.registration import register
from volkey.volume import ScalarVolume

from conftest import matrix_from_rotvec


def _write_raw_pair(tmp_path, header_lines, blob_bytes, name="vol"):
    header = tmp_path / f"{name}.txt"
    header.write_text("\n".join(header_lines) + "\n")
    (tmp_path / f"{name}.raw").write_bytes(blob_bytes)
    return header


def test_read_volume_hand_written_bytes(tmp_path):
    # column-major blob: flat index x + 2 y + 4 z for dims (2, 2, 2)
    blob = np.arange(8, dtype="<f4").tobytes()
    header = _write_raw_pair(
        tmp_path,
        [
            "# tiny test volume",
            "dims = 2 2 2",
            "spacing = 1.0 0.5 2.0",
            "origin = -1.0 0.0 3.5",
            "dtype = f32",
            "data = vol.raw",
        ],
        blob,
    )
    vol = read_volume(header)
    assert vol.dims == (2, 2, 2)
    assert vol.spacing == (1.0, 0.5, 2.0)
    assert vol.origin == (-1.0, 0.0, 3.5)
    for x in range(2):
        for y in range(2):
            for z in range(2):
                assert vol.data[x, y, z] == float(x + 2 * y + 4 * z)


def test_volume_round_trips_as_float32(tmp_path):
    rng = np.random.default_rng(50)
    f32_exact = rng.random((6, 5, 4)).astype(np.float32).astype(np.float64)
    vol = ScalarVolume((6, 5, 4), (1.0, 1.0, 2.0), (0.0, -3.0, 1.0), f32_exact)
    path = tmp_path / "f.txt"
    write_volume(path, vol)
    assert "dtype = f32\n" in path.read_text()
    back = read_volume(path)
    np.testing.assert_array_equal(back.data, f32_exact)
    assert back.spacing == vol.spacing and back.origin == vol.origin


@pytest.mark.parametrize("dtype, low, high", [("u8", 0, 255), ("i16", -32768, 32767)])
def test_read_volume_integer_samples(tmp_path, dtype, low, high):
    ints = np.random.default_rng(58).integers(low, high + 1, (4, 3, 2))
    ints.flat[:2] = low, high
    lines = ["dims = 4 3 2", "spacing = 1 1 1", "origin = 0 0 0", f"dtype = {dtype}"]
    blob = ints.astype(vio._DTYPES[dtype]).ravel(order="F").tobytes()
    np.testing.assert_array_equal(read_volume(_write_raw_pair(tmp_path, lines, blob)).data, ints)


def test_write_volume_refuses_what_float32_cannot_hold(tmp_path):
    data = np.zeros((2, 2, 2))
    data[1, 0, 1] = -1e39
    path = tmp_path / "big.txt"
    with pytest.raises(RejectedInputError, match="float32"):
        write_volume(path, ScalarVolume((2, 2, 2), (1, 1, 1), (0, 0, 0), data))
    assert list(tmp_path.iterdir()) == []


def test_read_volume_parse_errors_carry_offsets(tmp_path):
    blob = np.zeros(8, dtype="<f4").tobytes()
    missing = _write_raw_pair(
        tmp_path, ["spacing = 1 1 1", "origin = 0 0 0", "dtype = f32", "data = a.raw"], blob, "a"
    )
    with pytest.raises(ParseError):
        read_volume(missing)
    garbled = _write_raw_pair(
        tmp_path,
        ["dims = 2 2 2", "spacing = fast 1 1", "origin = 0 0 0", "dtype = f32", "data = b.raw"],
        blob,
        "b",
    )
    with pytest.raises(ParseError) as err:
        read_volume(garbled)
    assert "byte offset" in str(err.value)
    short = _write_raw_pair(
        tmp_path,
        ["dims = 4 4 4", "spacing = 1 1 1", "origin = 0 0 0", "dtype = f32", "data = c.raw"],
        blob,
        "c",
    )
    with pytest.raises(ParseError):
        read_volume(short)


_HEADER = ["dims = 2 2 2", "spacing = 1 1 1", "origin = 0 0 0", "dtype = f32", "data = v.raw"]


@pytest.mark.parametrize(
    "line, value",
    [
        pytest.param(0, "dims = -2 -2 2", id="two-negative-dims"),
        pytest.param(0, "dims = 0 2 2", id="zero-dim"),
        pytest.param(1, "spacing = nan 1 1", id="nan-spacing"),
        pytest.param(1, "spacing = 1 inf 1", id="infinite-spacing"),
        pytest.param(1, "spacing = 1 1 -1", id="negative-spacing"),
        pytest.param(2, "origin = 0 -inf 0", id="infinite-origin"),
        pytest.param(3, "dtype = f64", id="f64-dtype"),
    ],
)
def test_read_volume_rejects_header_values_at_their_offset(tmp_path, line, value):
    lines = list(_HEADER)
    lines[line] = value
    header = _write_raw_pair(tmp_path, lines, np.zeros(8, dtype="<f4").tobytes(), "v")
    offset = sum(len(text) + 1 for text in lines[:line])
    with pytest.raises(ParseError, match=f"byte offset {offset}$"):
        read_volume(header)


def test_read_volume_rejects_non_finite_intensity_at_its_offset(tmp_path):
    blob = np.zeros(8, dtype="<f4")
    blob[5] = np.nan
    header = _write_raw_pair(tmp_path, _HEADER, blob.tobytes(), "v")
    with pytest.raises(ParseError, match="non-finite intensity at byte offset 20"):
        read_volume(header)


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    edits=st.lists(
        st.tuples(st.booleans(), st.integers(0, 10**6), st.integers(0, 255)),
        min_size=1,
        max_size=8,
    ),
    cut=st.one_of(st.none(), st.integers(0, 10**6)),
)
def test_raw_meta_byte_corruption_raises_only_parse_error(tmp_path, edits, cut):
    data = np.arange(60.0).reshape(3, 4, 5)
    volume = ScalarVolume((3, 4, 5), (1.0, 0.5, 2.0), (-1.0, 0.0, 3.0), data)
    header = tmp_path / "v.txt"
    write_volume(header, volume)
    files = {True: header, False: header.with_suffix(".raw")}
    raws = {key: bytearray(path.read_bytes()) for key, path in files.items()}
    for in_header, position, value in edits:
        raw = raws[in_header]
        raw[position % len(raw)] = value
    if cut is not None:
        raws[False] = raws[False][: cut % (len(raws[False]) + 1)]
    for key, path in files.items():
        path.write_bytes(bytes(raws[key]))
    try:
        read_volume(header)
    except ParseError:
        pass


def _nifti_bytes(
    dims=(4, 3, 2), datatype=4, value=3, slope=2.0, inter=1.0, magic=b"n+1\x00", endian="<"
):
    hdr = bytearray(348)
    struct.pack_into(endian + "i", hdr, 0, 348)
    struct.pack_into(endian + "8h", hdr, 40, 3, dims[0], dims[1], dims[2], 1, 1, 1, 1)
    struct.pack_into(endian + "h", hdr, 70, datatype)
    struct.pack_into(endian + "8f", hdr, 76, 0.0, 2.0, 1.5, 0.0, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into(endian + "f", hdr, 108, 352.0)
    struct.pack_into(endian + "2f", hdr, 112, slope, inter)
    hdr[344:348] = magic
    count = dims[0] * dims[1] * dims[2]
    data = np.full(count, value, dtype=endian + "i2").tobytes()
    return bytes(hdr) + b"\x00" * 4 + data


def test_read_nifti_minimal_image(tmp_path):
    path = tmp_path / "img.nii"
    path.write_bytes(_nifti_bytes())
    with pytest.warns(UserWarning, match="orientation"):
        vol = read_volume(path)
    assert vol.dims == (4, 3, 2)
    assert vol.spacing == (2.0, 1.5, 1.0)  # zero pixdim falls back to unit
    assert vol.origin == (0.0, 0.0, 0.0)
    np.testing.assert_array_equal(vol.data, 7.0)  # 3 * slope 2 + inter 1


def test_read_nifti_rejects_bad_files(tmp_path):
    truncated = tmp_path / "short.nii"
    truncated.write_bytes(b"\x00" * 100)
    with pytest.raises(ParseError, match="truncated header .* at byte offset 100$"):
        read_volume(truncated)

    bad_magic = tmp_path / "magic.nii"
    bad_magic.write_bytes(_nifti_bytes(magic=b"abc\x00"))
    with pytest.raises(ParseError, match="magic"):
        read_volume(bad_magic)

    two_file = tmp_path / "pair.nii"
    two_file.write_bytes(_nifti_bytes(magic=b"ni1\x00"))
    with pytest.raises(ParseError, match="two-file"):
        read_volume(two_file)

    missing_data = tmp_path / "cut.nii"
    missing_data.write_bytes(_nifti_bytes()[:-10])
    at = f"truncated data .* at byte offset {len(_nifti_bytes()) - 10}$"
    with pytest.warns(UserWarning), pytest.raises(ParseError, match=at):
        read_volume(missing_data)

    weird_type = tmp_path / "dt.nii"
    weird_type.write_bytes(_nifti_bytes(datatype=64))
    with pytest.raises(ParseError, match="datatype"):
        read_volume(weird_type)


@pytest.mark.parametrize("vox_offset", [float("nan"), float("inf"), float("-inf"), -4.0])
def test_read_nifti_rejects_bad_vox_offset(tmp_path, vox_offset):
    raw = bytearray(_nifti_bytes())
    struct.pack_into("<f", raw, 108, vox_offset)
    path = tmp_path / "offset.nii"
    path.write_bytes(bytes(raw))
    with pytest.raises(ParseError, match="vox_offset .* byte offset 108"):
        read_volume(path)


@pytest.mark.parametrize(
    "fmt, at, value, offset",
    [
        pytest.param("<h", 40, 2, 40, id="2d-image"),
        # a 4D header, dims (4, 3, 2, 2): dim[4] is read at byte offset 48
        pytest.param("<5h", 40, (4, 4, 3, 2, 2), 48, id="trailing-dim"),
        pytest.param("<3h", 42, (-4, -3, 2), 42, id="two-negative-dims"),
        pytest.param("<h", 44, 0, 44, id="zero-dim"),
        pytest.param("<f", 84, float("nan"), 84, id="nan-pixdim"),
        pytest.param("<f", 88, float("inf"), 88, id="infinite-pixdim"),
        pytest.param("<f", 112, float("inf"), 112, id="infinite-slope"),
        pytest.param("<f", 116, float("nan"), 116, id="nan-intercept"),
        pytest.param("<h", 70, 64, 70, id="f64-datatype"),
        pytest.param("<4s", 344, b"ni1\x00", 344, id="two-file-magic"),
    ],
)
def test_read_nifti_rejects_header_values_at_their_offset(tmp_path, fmt, at, value, offset):
    raw = bytearray(_nifti_bytes())
    struct.pack_into(fmt, raw, at, *np.atleast_1d(value).tolist())
    path = tmp_path / "bad.nii"
    path.write_bytes(bytes(raw))
    with pytest.raises(ParseError, match=f" at byte offset {offset}$"):
        read_volume(path)


def _f32_nifti_bytes() -> bytearray:
    """A 4x3x2 float32 image: the header of _nifti_bytes and 24 float32 samples."""
    return bytearray(_nifti_bytes(datatype=16)[:352] + np.arange(24, dtype="<f4").tobytes())


def test_read_nifti_rejects_non_finite_intensity_at_its_offset(tmp_path):
    raw = _f32_nifti_bytes()
    struct.pack_into("<f", raw, 352 + 4 * 3, float("-inf"))
    path = tmp_path / "inf.nii"
    path.write_bytes(bytes(raw))
    with pytest.warns(UserWarning), pytest.raises(ParseError, match="byte offset 364"):
        read_volume(path)


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    edits=st.lists(
        st.tuples(st.integers(0, 10**6), st.integers(0, 255)), min_size=1, max_size=8
    ),
    cut=st.one_of(st.none(), st.integers(0, 10**6)),
)
def test_nifti_byte_corruption_raises_only_parse_error(tmp_path, edits, cut):
    raw = _f32_nifti_bytes()
    for position, value in edits:
        # half the edits land in the 348-byte header
        raw[position % (348 if position % 2 else len(raw))] = value
    if cut is not None:
        raw = raw[: cut % (len(raw) + 1)]
    path = tmp_path / "img.nii"
    path.write_bytes(bytes(raw))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        try:
            read_volume(path)
        except ParseError:
            pass


def test_read_nifti_gzip(tmp_path):
    plain = tmp_path / "img.nii"
    plain.write_bytes(_nifti_bytes())
    packed = tmp_path / "img.nii.gz"
    packed.write_bytes(gzip.compress(_nifti_bytes()))
    with pytest.warns(UserWarning):
        a, b = read_volume(plain), read_volume(packed)
    np.testing.assert_array_equal(a.data, b.data)
    assert (a.dims, a.spacing) == (b.dims, b.spacing)
    cut = tmp_path / "cut.nii.gz"
    cut.write_bytes(gzip.compress(_nifti_bytes())[:-12])
    with pytest.raises(ParseError, match="gzip"):
        read_volume(cut)


def test_read_volume_knows_nifti_by_its_bytes(tmp_path):
    # the name decides first; any other name is read as NIfTI-1 when the bytes
    # start with the gzip magic or with sizeof_hdr 348 in either byte order
    images = {
        "img.nii": _nifti_bytes(),
        "img.dat": _nifti_bytes(),
        "img": gzip.compress(_nifti_bytes()),
        "img.be": _nifti_bytes(endian=">"),
    }
    volumes = []
    for name, raw in images.items():
        (tmp_path / name).write_bytes(raw)
        with pytest.warns(UserWarning, match="orientation"):
            volumes.append(read_volume(tmp_path / name))
    for vol in volumes:
        assert (vol.dims, vol.spacing, vol.origin) == ((4, 3, 2), (2.0, 1.5, 1.0), (0.0, 0.0, 0.0))
        np.testing.assert_array_equal(vol.data, 7.0)


@pytest.mark.parametrize(
    "start, why",
    [
        pytest.param(b"\x1f\x8b", "corrupt gzip stream", id="gzip-magic"),
        pytest.param(struct.pack("<i", 348), "truncated header", id="sizeof-hdr-le"),
        pytest.param(struct.pack(">i", 348), "truncated header", id="sizeof-hdr-be"),
    ],
)
def test_raw_meta_header_that_reads_as_nifti_raises_parse_error(tmp_path, start, why):
    header = _write_raw_pair(tmp_path, _HEADER, np.zeros(8, dtype="<f4").tobytes(), "v")
    header.write_bytes(start + header.read_bytes()[len(start) :])
    with pytest.raises(ParseError, match=why):
        read_volume(header)


def _random_feature(rng):
    kp = Keypoint(
        x=rng.uniform(0.0, 60.0, 3),
        sigma=float(rng.uniform(0.5, 9.0)),
        sign=int(rng.choice([-1, 1])),
        response=0.0,
        border=bool(rng.random() < 0.2),
    )
    frame = Frame(matrix_from_rotvec(rng.normal(size=3)))
    descs = [
        Descriptor(bins=None, ranked=rng.permutation(64).astype(np.int16)) for _ in range(4)
    ]
    return Feature(keypoint=kp, frame=frame, descriptors=descs, border=kp.border)


def test_feature_file_round_trip(tmp_path):
    rng = np.random.default_rng(51)
    features = [_random_feature(rng) for _ in range(1000)]
    path = tmp_path / "feats.vkf"
    cfg = ExtractionConfig(max_count=123)
    write_features(path, features, volume_id="case-7", config=cfg)
    loaded, meta = read_features(path)
    assert meta["volume_id"] == "case-7"
    assert meta["estimator"] == "max_gradient"
    assert meta["config_digest"] == config_digest(cfg)
    assert int(meta["count"]) == 1000
    assert len(loaded) == 1000
    assert all(d.bins is None for f in loaded for d in f.descriptors)
    # the record body is the stack, field by field, and reads back as it, bitwise
    stack = stack_features(features)
    raw = path.read_bytes()
    records = np.zeros(1000, dtype=vio._RECORD)
    for name in vio._RECORD.names:
        records[name] = stack[name]
    assert raw[raw.find(b"END\n") + 4 :] == records.tobytes()
    back = stack_features(loaded)
    assert back.keys() == stack.keys()
    for name, array in stack.items():
        assert back[name].dtype == array.dtype and back[name].tobytes() == array.tobytes()


def test_feature_file_rewrite_is_byte_identical(tmp_path):
    rng = np.random.default_rng(52)
    features = [_random_feature(rng)]
    first = tmp_path / "one.vkf"
    write_features(first, features, volume_id="x")
    loaded, _ = read_features(first)
    second = tmp_path / "two.vkf"
    write_features(second, loaded, volume_id="x")
    assert first.read_bytes() == second.read_bytes()


def _per_record_features(path):
    """The features of a feature file as built record by record: one
    Keypoint, Frame, four Descriptors and a Feature each, the reader's oracle."""
    raw = path.read_bytes()
    records = np.frombuffer(raw[raw.find(b"\nEND\n") + 5 :], dtype=vio._RECORD)
    x, sigma, frame = records["x"].copy(), records["sigma"].copy(), records["frame"].copy()
    sign, ranks = records["sign"].astype(int), records["ranks"].astype(np.int16)
    border = (records["border"] != 0).tolist()
    return [
        Feature(
            keypoint=Keypoint(x=x[i], sigma=s, sign=g, response=float(g), border=b),
            frame=Frame(frame[i]),
            descriptors=[Descriptor(bins=None, ranked=r) for r in ranks[i]],
            border=b,
        )
        for i, (s, g, b) in enumerate(zip(sigma.tolist(), sign.tolist(), border))
    ]


def _fields(f: Feature) -> list:
    kp = f.keypoint
    scalars = [kp.sigma, kp.sign, kp.response, kp.border, f.border]
    arrays = [kp.x, f.frame.matrix, *(d.ranked for d in f.descriptors)]
    return (
        [(type(v), v) for v in scalars]
        + [(a.dtype, a.shape, a.tobytes()) for a in arrays]
        + [(len(f.descriptors), [d.bins for d in f.descriptors])]
    )


def test_feature_set_items_are_the_per_record_features(tmp_path):
    rng = np.random.default_rng(53)
    path = tmp_path / "feats.vkf"
    write_features(path, [_random_feature(rng) for _ in range(1000)])
    loaded, _ = read_features(path)
    want = _per_record_features(path)
    assert isinstance(loaded, FeatureSet) and len(loaded) == len(want) == 1000
    for i in range(1000):
        assert _fields(loaded[i]) == _fields(want[i])
    assert [_fields(f) for f in loaded[-3:]] == [_fields(f) for f in want[-3:]]
    assert _fields(loaded[-1]) == _fields(want[999])
    for i in (1000, -1001):
        with pytest.raises(IndexError):
            loaded[i]


def test_stack_of_a_feature_set_is_its_stack(tmp_path):
    path = tmp_path / "feats.vkf"
    write_features(path, [_random_feature(np.random.default_rng(54)) for _ in range(5)])
    loaded, _ = read_features(path)
    assert stack_features(loaded) is loaded.stack


def test_read_stack_is_read_only(tmp_path):
    # the stack is shared with every stage that reads it: a write raises
    path = tmp_path / "feats.vkf"
    write_features(path, [_random_feature(np.random.default_rng(55)) for _ in range(5)])
    loaded, _ = read_features(path)
    for name, array in loaded.stack.items():
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[1]
    with pytest.raises(ValueError, match="read-only"):
        loaded[0].keypoint.x[0] = 1.0


def test_read_and_register_build_no_feature_objects(tmp_path, planted_pair, monkeypatch):
    fixed, moving, _ = planted_pair
    for name, features in (("fixed", fixed), ("moving", moving)):
        write_features(tmp_path / f"{name}.vkf", features)
    built = []

    def counted(init):
        def counting_init(self, *args, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)
        return counting_init

    for cls in (keypoints.Keypoint, frames.Frame, descriptors.Descriptor, descriptors.Feature):
        monkeypatch.setattr(cls, "__init__", counted(cls.__init__))
    loaded_fixed, _ = read_features(tmp_path / "fixed.vkf")
    loaded_moving, _ = read_features(tmp_path / "moving.vkf")
    assert register(loaded_fixed, loaded_moving).converged
    assert built == []
    # the count sees what indexing builds
    loaded_fixed[0]
    assert sorted(built) == ["Descriptor"] * 4 + ["Feature", "Frame", "Keypoint"]


@pytest.mark.parametrize(
    "volume_id, stored",
    [("WEEKEND", "WEEKEND"), ("a\nb", "a\\nb"), ("café.nii", "caf\\xe9.nii")],
)
def test_feature_file_volume_id_stays_one_line(tmp_path, volume_id, stored):
    # an id ending in END, or holding a line break or a non-ascii letter, is
    # written as one escaped ascii line that the reader reads back
    path = tmp_path / "id.vkf"
    write_features(path, [_random_feature(np.random.default_rng(59))], volume_id=volume_id)
    loaded, meta = read_features(path)
    assert meta["volume_id"] == stored and len(loaded) == 1


def _frame_not_rotation(feature):
    feature.frame = Frame(2.0 * np.eye(3))


def _zero_ranks(feature):
    for d in feature.descriptors:
        d.ranked[:] = 0


def _rank_past_a_byte(feature):
    feature.descriptors[2].ranked[5] = 256


def _three_descriptors(feature):
    del feature.descriptors[3]


@pytest.mark.parametrize(
    "spoil, why",
    [
        pytest.param(_frame_not_rotation, "frame is not a rotation", id="frame-not-rotation"),
        pytest.param(_zero_ranks, "ranks are not a permutation of 0..63", id="zero-ranks"),
        pytest.param(
            _rank_past_a_byte, "ranks are not a permutation of 0..63", id="rank-past-a-byte"
        ),
        pytest.param(_three_descriptors, "has 3 descriptors, not 4", id="three-descriptors"),
    ],
)
def test_write_features_refuses_what_read_features_refuses(tmp_path, spoil, why):
    # the writer runs the reader's record check, so it never writes a file
    # the reader refuses; the error names the feature
    rng = np.random.default_rng(57)
    features = [_random_feature(rng) for _ in range(4)]
    spoil(features[2])
    path = tmp_path / "spoilt.vkf"
    with pytest.raises(RejectedInputError, match=f"^feature 2 {why}$"):
        write_features(path, features)
    assert not path.exists()


def test_empty_feature_file(tmp_path):
    path = tmp_path / "none.vkf"
    write_features(path, [])
    loaded, meta = read_features(path)
    assert len(loaded) == 0
    assert int(meta["count"]) == 0


def test_feature_file_version_refusal(tmp_path):
    path = tmp_path / "new.vkf"
    write_features(path, [])
    raw = path.read_bytes().replace(b"VOLKEYFEAT 1", b"VOLKEYFEAT 2", 1)
    newer = tmp_path / "newer.vkf"
    newer.write_bytes(raw)
    with pytest.raises(ParseError, match="version"):
        read_features(newer)


def test_feature_file_corruption_errors(tmp_path):
    rng = np.random.default_rng(53)
    path = tmp_path / "good.vkf"
    write_features(path, [_random_feature(rng)])
    raw = bytearray(path.read_bytes())
    start = raw.find(b"END\n") + 4

    clipped = tmp_path / "clipped.vkf"
    clipped.write_bytes(bytes(raw[:-5]))
    with pytest.raises(ParseError, match="byte offset"):
        read_features(clipped)

    zero_sigma = bytearray(raw)
    struct.pack_into("<d", zero_sigma, start + 24, 0.0)
    bad_sigma = tmp_path / "sigma.vkf"
    bad_sigma.write_bytes(bytes(zero_sigma))
    with pytest.raises(ParseError, match="byte offset"):
        read_features(bad_sigma)

    bad_sign = bytearray(raw)
    struct.pack_into("<b", bad_sign, start + 104, 5)
    sign_path = tmp_path / "sign.vkf"
    sign_path.write_bytes(bytes(bad_sign))
    with pytest.raises(ParseError):
        read_features(sign_path)

    skewed = bytearray(raw)
    struct.pack_into("<9d", skewed, start + 32, *([0.1] * 9))
    frame_path = tmp_path / "frame.vkf"
    frame_path.write_bytes(bytes(skewed))
    with pytest.raises(ParseError):
        read_features(frame_path)

    # the message names the first bad record of several
    three = tmp_path / "three.vkf"
    write_features(three, [_random_feature(rng) for _ in range(3)])
    raw3 = bytearray(three.read_bytes())
    for i in (1, 2):
        struct.pack_into("<9d", raw3, start + i * 362 + 32, *([1e200] * 9))
    three.write_bytes(bytes(raw3))
    with pytest.raises(ParseError, match=f"record 1 frame is not a rotation .byte offset {start + 362}.$"):
        read_features(three)

    no_end = tmp_path / "noend.vkf"
    no_end.write_bytes(bytes(raw).replace(b"END\n", b"EGG\n", 1))
    with pytest.raises(ParseError, match="END"):
        read_features(no_end)


def _header(old, new):
    def corrupt(raw):
        assert raw.count(old) == 1
        return raw.replace(old, new)

    return corrupt


def _pack_record(fmt, offset, *values):
    def corrupt(raw):
        start = raw.find(b"END\n") + 4
        out = bytearray(raw)
        struct.pack_into(fmt, out, start + offset, *values)
        return bytes(out)

    return corrupt


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(_pack_record("<d", 8, float("nan")), id="nan-location"),
        pytest.param(_pack_record("<d", 24, float("inf")), id="inf-sigma"),
        pytest.param(_pack_record("<d", 24, float("nan")), id="nan-sigma"),
        pytest.param(_header(b"count = 1\n", b"count = 1.5\n"), id="count-float"),
        pytest.param(_header(b"count = 1\n", b"count = one\n"), id="count-word"),
        pytest.param(_header(b"count = 1\n", b"count = -1\n"), id="count-negative"),
        pytest.param(_header(b"VOLKEYFEAT 1", b"VOLKEYFEAT 0"), id="version-0"),
        pytest.param(_header(b"VOLKEYFEAT 1", b"VOLKEYFEAT -3"), id="version-neg"),
        pytest.param(_pack_record("<64B", 106 + 64, *([7] * 64)), id="constant-ranks"),
        pytest.param(_pack_record("<2B", 106, 0, 0), id="repeated-rank"),
    ],
)
def test_feature_file_boundary_rejects(tmp_path, corrupt):
    path = tmp_path / "good.vkf"
    write_features(path, [_random_feature(np.random.default_rng(54))])
    bad = tmp_path / "bad.vkf"
    bad.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(ParseError, match="byte offset"):
        read_features(bad)


@pytest.mark.parametrize(
    "new",
    [
        pytest.param(b"count = abc\n", id="count-word"),
        pytest.param(b"count = 1\nnote = x\ncount =\n", id="last-count-empty"),
        pytest.param(b"", id="count-missing"),
    ],
)
def test_feature_file_count_errors_name_their_line(tmp_path, new):
    path = tmp_path / "good.vkf"
    write_features(path, [_random_feature(np.random.default_rng(54))], volume_id="v")
    raw = _header(b"count = 1\n", new)(path.read_bytes())
    bad = tmp_path / "bad.vkf"
    bad.write_bytes(raw)
    # the last count line read, or the END line when there is none
    offset = raw.rfind(b"\ncount =") + 1 if new else raw.find(b"END\n")
    assert offset > 0
    with pytest.raises(ParseError, match=f"not a count .byte offset {offset}.$"):
        read_features(bad)


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    edits=st.lists(
        st.tuples(st.integers(0, 10**6), st.integers(0, 255)), min_size=1, max_size=8
    ),
    cut=st.one_of(st.none(), st.integers(0, 10**6)),
)
def test_feature_file_byte_corruption_raises_only_parse_error(tmp_path, edits, cut):
    path = tmp_path / "good.vkf"
    rng = np.random.default_rng(56)
    write_features(path, [_random_feature(rng) for _ in range(3)], volume_id="v")
    raw = bytearray(path.read_bytes())
    for position, value in edits:
        raw[position % len(raw)] = value
    if cut is not None:
        raw = raw[: cut % len(raw)]
    path.write_bytes(bytes(raw))
    try:
        read_features(path)
    except ParseError:
        pass


def test_config_digest_is_stable_and_sensitive(tmp_path):
    a = ExtractionConfig()
    b = ExtractionConfig()
    c = ExtractionConfig(max_count=99)
    assert config_digest(a) == config_digest(b)
    assert config_digest(a) != config_digest(c)
    # integers standing for floats (as a config file may write them) are the
    # same configuration
    ints = ExtractionConfig(base_sigma=2, min_abs_response=0, window_factor=3)
    floats = ExtractionConfig(base_sigma=2.0, min_abs_response=0.0, window_factor=3.0)
    assert config_digest(ints) == config_digest(floats)
    config_file = tmp_path / "config.json"
    config_file.write_text('{"extraction": {"base_sigma": 2, "window_factor": 3}}')
    loaded = load_config(config_file)["extraction"]
    assert config_digest(loaded) == config_digest(floats)
    # and the float forms, the defaults among them, keep their digests
    assert config_digest(ExtractionConfig(base_sigma=2)) == "7b73663c603a5b4e"
    assert config_digest(a) == "824b6aa8a4a9ddc4"
    digest = config_digest(a)
    assert len(digest) == 16
    assert all(ch in "0123456789abcdef" for ch in digest)
