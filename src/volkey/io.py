"""File formats: raw volumes with a text header, NIfTI-1 input, feature sets.

raw_meta volumes are a text header (``key = value`` lines) next to a raw
little-endian binary blob in x-fastest order.  Header keys: dims, spacing,
origin, dtype (u8 | i16 | f32) and data (relative path of the blob, default
header name with a .raw suffix).

Feature files are a text preamble (magic line ``VOLKEYFEAT <version>``, then
``key = value`` lines, then ``END``) followed by fixed-size little-endian
records: location (3 f64), sigma (f64), frame (9 f64 row-major), sign (i8),
border flag (u8) and the four ranked descriptors (4 x 64 u8).
"""
from __future__ import annotations

import gzip
import hashlib
import math
import struct
import zlib
import warnings
from pathlib import Path

import numpy as np

from .descriptors import Descriptor, ExtractionConfig, Feature, feature_geometry
from .errors import ParseError, RejectedInputError
from .frames import Frame
from .keypoints import Keypoint
from .volume import ScalarVolume

_DTYPES = {"u8": np.uint8, "i16": np.dtype("<i2"), "f32": np.dtype("<f4")}

FEATURE_MAGIC = "VOLKEYFEAT"
FEATURE_VERSION = 1
# one packed little-endian record per feature, 362 bytes
_RECORD = np.dtype(
    [
        ("x", "<f8", 3), ("sigma", "<f8"), ("frame", "<f8", (3, 3)),
        ("sign", "i1"), ("border", "u1"), ("ranks", "u1", (4, 64)),
    ]
)


def _check_finite(path: Path, flat: np.ndarray, start: int) -> None:
    """ParseError at the byte offset of the first non-finite sample."""
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        offset = start + int(bad[0]) * flat.itemsize
        raise ParseError(f"{path}: non-finite intensity at byte offset {offset}")


def _parse_header(path: Path) -> tuple[dict, dict]:
    """Key-value lines with the byte offset of each line start."""
    values: dict[str, str] = {}
    offsets: dict[str, int] = {}
    offset = 0
    raw = path.read_bytes()
    for line in raw.split(b"\n"):
        text = line.decode("ascii", errors="replace").strip()
        if text and not text.startswith("#"):
            if "=" not in text:
                raise ParseError(f"{path}: malformed header line at byte offset {offset}")
            key, _, value = text.partition("=")
            values[key.strip()] = value.strip()
            offsets[key.strip()] = offset
        offset += len(line) + 1
    return values, offsets


def read_volume(path: str | Path) -> ScalarVolume:
    """Read a raw_meta volume (header file plus binary blob)."""
    path = Path(path)
    values, offsets = _parse_header(path)
    for key in ("dims", "spacing", "origin", "dtype"):
        if key not in values:
            raise ParseError(f"{path}: missing header key {key!r} (byte offset 0)")

    def bad(key: str, why: str) -> ParseError:
        return ParseError(f"{path}: {why} at byte offset {offsets[key]}")

    def parse_triplet(key: str, cast, ok, what: str):
        try:
            value = tuple(cast(v) for v in values[key].split())
        except ValueError as exc:
            raise bad(key, f"non-numeric {key} field {values[key]!r}") from exc
        if len(value) != 3 or not all(map(ok, value)):
            raise bad(key, f"{key} needs three {what}, got {values[key]!r}")
        return value

    dims = parse_triplet("dims", int, lambda d: d >= 1, "positive integers")
    spacing = parse_triplet("spacing", float, lambda s: 0.0 < s < math.inf, "finite sizes > 0")
    origin = parse_triplet("origin", float, math.isfinite, "finite numbers")
    dtype_name = values["dtype"]
    if dtype_name not in _DTYPES:
        raise bad("dtype", f"unsupported dtype {dtype_name!r} (want u8, i16 or f32)")
    blob = path.with_suffix(".raw") if "data" not in values else path.parent / values["data"]
    if not blob.is_file():
        raise ParseError(f"{path}: data file {blob} not found")
    raw = blob.read_bytes()
    dtype = np.dtype(_DTYPES[dtype_name])
    expected = dims[0] * dims[1] * dims[2] * dtype.itemsize
    if len(raw) != expected:
        raise ParseError(
            f"{blob}: size mismatch at byte offset {min(len(raw), expected)}: "
            f"expected {expected} bytes for dims {dims}, found {len(raw)}"
        )
    flat = np.frombuffer(raw, dtype=dtype)
    _check_finite(blob, flat, 0)
    data = flat.reshape(dims, order="F").astype(np.float64)
    return ScalarVolume(dims=dims, spacing=spacing, origin=origin, data=data)


def write_volume(path: str | Path, volume: ScalarVolume, dtype: str = "f32") -> None:
    """Write a raw_meta volume; intensities are cast (with rounding for ints)."""
    if dtype not in _DTYPES:
        raise RejectedInputError(f"unsupported dtype {dtype!r}")
    path = Path(path)
    blob = path.with_suffix(".raw")
    np_dtype = np.dtype(_DTYPES[dtype])
    data = volume.data
    if np_dtype.kind in "ui":
        info = np.iinfo(np_dtype)
        data = np.clip(np.rint(data), info.min, info.max)
    cast = np.asarray(data, dtype=np_dtype)
    lines = [
        f"dims = {volume.dims[0]} {volume.dims[1]} {volume.dims[2]}",
        f"spacing = {volume.spacing[0]!r} {volume.spacing[1]!r} {volume.spacing[2]!r}",
        f"origin = {volume.origin[0]!r} {volume.origin[1]!r} {volume.origin[2]!r}",
        f"dtype = {dtype}",
        f"data = {blob.name}",
    ]
    path.write_text("\n".join(lines) + "\n")
    blob.write_bytes(cast.ravel(order="F").tobytes())


_NIFTI_DTYPES = {2: np.uint8, 4: np.dtype("i2"), 16: np.dtype("f4")}


def read_nifti(path: str | Path) -> ScalarVolume:
    """Minimal single-file NIfTI-1 reader, gzip-compressed (.nii.gz) or not.

    Honors dims, pixdim, datatype (u8/i16/f32), scl_slope/scl_inter and
    vox_offset; every other header field (orientation included) is ignored
    with a warning and the origin is set to zero.
    """
    path = Path(path)
    raw = path.read_bytes()
    if raw[:2] == b"\x1f\x8b":
        try:
            raw = gzip.decompress(raw)
        except (OSError, EOFError, zlib.error) as exc:
            raise ParseError(f"{path}: corrupt gzip stream ({exc}) at byte offset 0") from exc
    if len(raw) < 348:
        raise ParseError(f"{path}: truncated header at byte offset {len(raw)} (need 348)")
    sizeof_hdr = struct.unpack_from("<i", raw, 0)[0]
    endian = "<"
    if sizeof_hdr != 348:
        if struct.unpack_from(">i", raw, 0)[0] == 348:
            endian = ">"
        else:
            raise ParseError(f"{path}: bad sizeof_hdr {sizeof_hdr} at byte offset 0")
    magic = raw[344:348]
    if magic not in (b"n+1\x00", b"ni1\x00"):
        raise ParseError(f"{path}: bad magic {magic!r} at byte offset 344")
    dim = struct.unpack_from(endian + "8h", raw, 40)
    ndim = dim[0]
    if ndim < 3:
        raise ParseError(f"{path}: need a 3D image, header says {ndim}D (byte offset 40)")
    extra = [d for d in dim[4 : 1 + ndim] if d > 1]
    if extra:
        raise ParseError(
            f"{path}: need a 3D image, trailing dims {extra} exceed 1 (byte offset 48)"
        )
    dims = (int(dim[1]), int(dim[2]), int(dim[3]))
    for i, d in enumerate(dims):
        if d < 1:
            raise ParseError(f"{path}: dim[{i + 1}] = {d} at byte offset {42 + 2 * i}")
    datatype = struct.unpack_from(endian + "h", raw, 70)[0]
    if datatype not in _NIFTI_DTYPES:
        raise ParseError(
            f"{path}: unsupported datatype code {datatype} at byte offset 70 "
            "(supported: 2 = u8, 4 = i16, 16 = f32)"
        )
    pixdim = struct.unpack_from(endian + "8f", raw, 76)
    for i, p in enumerate(pixdim[1:4]):
        if not math.isfinite(p):
            raise ParseError(f"{path}: pixdim[{i + 1}] = {p} at byte offset {80 + 4 * i}")
    spacing = tuple(abs(float(p)) if p != 0.0 else 1.0 for p in pixdim[1:4])
    vox_offset = struct.unpack_from(endian + "f", raw, 108)[0]
    if not 0.0 <= vox_offset < math.inf:
        raise ParseError(f"{path}: bad vox_offset {vox_offset} at byte offset 108")
    vox_offset = int(vox_offset)
    scl_slope, scl_inter = struct.unpack_from(endian + "2f", raw, 112)
    for name, value, at in (("scl_slope", scl_slope, 112), ("scl_inter", scl_inter, 116)):
        if not math.isfinite(value):
            raise ParseError(f"{path}: {name} = {value} at byte offset {at}")
    if magic == b"ni1\x00":
        raise ParseError(f"{path}: two-file images are not supported (byte offset 344)")
    warnings.warn(
        f"{path.name}: orientation and remaining header fields ignored; origin set to 0",
        stacklevel=2,
    )
    dtype = np.dtype(_NIFTI_DTYPES[datatype]).newbyteorder(endian)
    count = dims[0] * dims[1] * dims[2]
    need = vox_offset + count * dtype.itemsize
    if len(raw) < need:
        raise ParseError(f"{path}: truncated data at byte offset {len(raw)} (need {need})")
    flat = np.frombuffer(raw, dtype=dtype, count=count, offset=vox_offset)
    _check_finite(path, flat, vox_offset)
    data = flat.reshape(dims, order="F").astype(np.float64)
    slope = float(scl_slope) if scl_slope != 0.0 else 1.0
    if slope != 1.0 or scl_inter != 0.0:
        data = data * slope + float(scl_inter)
    return ScalarVolume(dims=dims, spacing=spacing, origin=(0.0, 0.0, 0.0), data=data)


def config_digest(config: ExtractionConfig) -> str:
    text = repr(sorted(vars(config).items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def write_features(
    path: str | Path,
    features: list[Feature],
    volume_id: str = "",
    config: ExtractionConfig | None = None,
    estimator: str | None = None,
) -> None:
    """Serialize features (geometry plus ranked descriptors) to one file."""
    path = Path(path)
    cfg = config or ExtractionConfig()
    est = estimator if estimator is not None else cfg.estimator
    header = (
        f"{FEATURE_MAGIC} {FEATURE_VERSION}\n"
        f"volume_id = {volume_id}\n"
        f"config_digest = {config_digest(cfg)}\n"
        f"estimator = {est}\n"
        f"count = {len(features)}\n"
        "END\n"
    )
    ranks = np.array(
        [[d.ranked for d in f.descriptors] for f in features], dtype=np.int64
    ).reshape(-1, 4, 64)
    if np.any((ranks < 0) | (ranks > 255)):
        raise RejectedInputError("descriptor ranks must lie in 0..255")
    records = np.zeros(len(features), dtype=_RECORD)
    records["x"], records["sigma"], records["frame"] = feature_geometry(features)
    records["sign"] = [f.keypoint.sign for f in features]
    records["border"] = [bool(f.border) for f in features]
    records["ranks"] = ranks
    path.write_bytes(header.encode("ascii") + records.tobytes())


def read_features(path: str | Path) -> tuple[list[Feature], dict]:
    """Read a feature file; returns the features and the header metadata.

    Loaded descriptors carry ranks only (bins are not stored).
    """
    path = Path(path)
    raw = path.read_bytes()
    end = raw.find(b"END\n")
    if end < 0:
        raise ParseError(f"{path}: missing END marker in header (byte offset 0)")
    header_lines = raw[:end].decode("ascii", errors="replace").splitlines()
    if not header_lines or not header_lines[0].startswith(FEATURE_MAGIC):
        raise ParseError(f"{path}: bad magic at byte offset 0")
    try:
        version = int(header_lines[0].split()[1])
    except (IndexError, ValueError) as exc:
        raise ParseError(f"{path}: malformed magic line at byte offset 0") from exc
    if not 1 <= version <= FEATURE_VERSION:
        raise ParseError(f"{path}: unsupported file version {version} (byte offset 0)")
    meta: dict[str, str] = {}
    for line in header_lines[1:]:
        if "=" in line:
            k, _, v = line.partition("=")
            meta[k.strip()] = v.strip()
    if not meta.get("count", "").isdecimal():
        raise ParseError(f"{path}: header count missing or not a count (byte offset 0)")
    count = int(meta["count"])
    body = raw[end + 4 :]
    expected = count * _RECORD.itemsize
    if len(body) != expected:
        raise ParseError(
            f"{path}: record block size mismatch at byte offset "
            f"{end + 4 + min(len(body), expected)}: expected {expected} bytes, found {len(body)}"
        )
    records = np.frombuffer(body, dtype=_RECORD)
    x, sigma, frames = records["x"].copy(), records["sigma"].copy(), records["frame"].copy()
    sign, ranks = records["sign"].astype(int), records["ranks"].astype(np.int16)
    # the checks of is_rotation, record by record; non-finite frames fail,
    # and so do huge ones whose products overflow
    finite = np.isfinite(frames).all(axis=(1, 2))
    frames_ok = np.where(finite[:, None, None], frames, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = np.swapaxes(frames_ok, 1, 2) @ frames_ok
        det = np.linalg.det(frames_ok)
    gram_ok = np.abs(gram - np.eye(3)).max(axis=(1, 2)) <= 1e-6
    rotation = finite & gram_ok & (np.abs(det - 1.0) <= 1e-6)
    located = (0.0 < sigma) & (sigma < math.inf) & np.isfinite(x).all(axis=1)
    # each state's descriptor is a rank order of its 64 bins
    permuted = np.all(np.sort(ranks, axis=2) == np.arange(64), axis=(1, 2))
    bad = np.stack([~rotation, (sign != 1) & (sign != -1), ~located, ~permuted])
    if bad.any():
        i = int(np.flatnonzero(bad.any(axis=0))[0])
        why = (
            "frame is not a rotation",
            f"has sign {sign[i]}",
            f"has x {x[i]}, sigma {sigma[i]}",
            "ranks are not a permutation of 0..63",
        )[int(np.argmax(bad[:, i]))]
        offset = end + 4 + i * _RECORD.itemsize
        raise ParseError(f"{path}: record {i} {why} (byte offset {offset})")
    border = (records["border"] != 0).tolist()
    features = [
        Feature(
            keypoint=Keypoint(x=x[i], sigma=s, sign=g, response=float(g), border=b),
            frame=Frame(frames[i]),
            descriptors=[Descriptor(bins=None, ranked=r) for r in ranks[i]],
            border=b,
        )
        for i, (s, g, b) in enumerate(zip(sigma.tolist(), sign.tolist(), border))
    ]
    return features, meta
