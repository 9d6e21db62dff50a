"""File formats: raw volumes with a text header, NIfTI-1 input, feature sets.

raw_meta volumes are a text header (``key = value`` lines) next to a raw
little-endian binary blob in x-fastest order.  Header keys: dims, spacing,
origin, dtype (u8 | i16 | f32) and data (relative path of the blob, default
header name with a .raw suffix).

Feature files are a text preamble (magic line ``VOLKEYFEAT <version>``, then
``key = value`` lines, then ``END``) followed by fixed-size little-endian
records: location (3 f64), sigma (f64), frame (9 f64 row-major), sign (i8),
border flag (u8) and the four ranked descriptors (4 x 64 u8): one row of
`descriptors.stack_features`.  This module only maps bytes to records and
back; the stack's one record rule makes the writer refuse what the reader
refuses.
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

from .descriptors import ExtractionConfig, Feature, FeatureSet, _stack, stack_features
from .errors import ParseError, RejectedInputError, check_type
from .volume import ScalarVolume

_DTYPES = {"u8": np.uint8, "i16": np.dtype("<i2"), "f32": np.dtype("<f4")}
# the first bytes of a gzip stream, and of a NIfTI-1 header in either byte order
_GZIP_MAGIC = b"\x1f\x8b"
_SIZEOF_HDR = (struct.pack("<i", 348), struct.pack(">i", 348))

FEATURE_MAGIC = "VOLKEYFEAT"
FEATURE_VERSION = 1
# one packed little-endian record per feature, 362 bytes
_RECORD = np.dtype(
    [
        ("x", "<f8", 3), ("sigma", "<f8"), ("frame", "<f8", (3, 3)),
        ("sign", "i1"), ("border", "u1"), ("ranks", "u1", (4, 64)),
    ]
)


def _samples(path: Path, raw: bytes, dtype: np.dtype, dims: tuple, start: int = 0) -> np.ndarray:
    """The dims array of dtype samples at byte offset start of raw, x fastest,
    as float64; ParseError at the byte offset of the first non-finite one."""
    flat = np.frombuffer(raw, dtype=dtype, count=math.prod(dims), offset=start)
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        offset = start + int(bad[0]) * flat.itemsize
        raise ParseError(f"{path}: non-finite intensity at byte offset {offset}")
    return flat.reshape(dims, order="F").astype(np.float64)


def _parse_header(path: Path, raw: bytes, offset: int = 0) -> tuple[dict, dict]:
    """The ``key = value`` lines of raw, which starts at byte offset of path,
    and the byte offset of each key's last line; blank and # lines are skipped."""
    values: dict[str, str] = {}
    offsets: dict[str, int] = {}
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
    """Read a volume, NIfTI-1 or raw_meta, as its file says: NIfTI-1 when the
    name ends in .nii or .nii.gz, or the bytes start with the gzip magic or
    with sizeof_hdr 348 in either byte order; raw_meta otherwise."""
    path = Path(path)
    raw = path.read_bytes()
    if path.name.endswith((".nii", ".nii.gz")) or raw[:2] == _GZIP_MAGIC or raw[:4] in _SIZEOF_HDR:
        return _read_nifti(path, raw)
    values, offsets = _parse_header(path, raw)
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
    expected = math.prod(dims) * dtype.itemsize
    if len(raw) != expected:
        raise ParseError(
            f"{blob}: size mismatch at byte offset {min(len(raw), expected)}: "
            f"expected {expected} bytes for dims {dims}, found {len(raw)}"
        )
    return ScalarVolume(dims, spacing, origin, _samples(blob, raw, dtype, dims))


def write_volume(path: str | Path, volume: ScalarVolume) -> None:
    """Write a raw_meta volume with float32 samples, or raise RejectedInputError
    for a volume whose samples float32 cannot hold, which read_volume refuses."""
    path = Path(path)
    blob = path.with_suffix(".raw")
    with np.errstate(over="ignore"):
        samples = volume.data.astype("<f4").ravel(order="F")
    if not np.isfinite(samples).all():
        raise RejectedInputError("volume intensities overflow float32")
    lines = [
        f"dims = {volume.dims[0]} {volume.dims[1]} {volume.dims[2]}",
        f"spacing = {volume.spacing[0]!r} {volume.spacing[1]!r} {volume.spacing[2]!r}",
        f"origin = {volume.origin[0]!r} {volume.origin[1]!r} {volume.origin[2]!r}",
        "dtype = f32",
        f"data = {blob.name}",
    ]
    path.write_text("\n".join(lines) + "\n")
    blob.write_bytes(samples.tobytes())


_NIFTI_DTYPES = {2: np.uint8, 4: np.dtype("i2"), 16: np.dtype("f4")}


def _read_nifti(path: Path, raw: bytes) -> ScalarVolume:
    """Single-file NIfTI-1 image from the file's bytes raw, gzip-compressed or not.

    Honors dims, pixdim, datatype (u8/i16/f32), scl_slope/scl_inter and
    vox_offset; every other header field (orientation included) is ignored
    with a warning and the origin is set to zero.
    """
    if raw[:2] == _GZIP_MAGIC:
        try:
            raw = gzip.decompress(raw)
        except (OSError, EOFError, zlib.error) as exc:
            raise ParseError(f"{path}: corrupt gzip stream ({exc}) at byte offset 0") from exc
    if len(raw) < 348:
        raise ParseError(f"{path}: truncated header (need 348 bytes) at byte offset {len(raw)}")
    if raw[:4] not in _SIZEOF_HDR:
        sizeof_hdr = struct.unpack_from("<i", raw, 0)[0]
        raise ParseError(f"{path}: bad sizeof_hdr {sizeof_hdr} at byte offset 0")
    endian = "<" if raw[:4] == _SIZEOF_HDR[0] else ">"
    magic = raw[344:348]
    if magic not in (b"n+1\x00", b"ni1\x00"):
        raise ParseError(f"{path}: bad magic {magic!r} at byte offset 344")
    ndim, *dim = struct.unpack_from(endian + "8h", raw, 40)
    if ndim < 3:
        raise ParseError(f"{path}: need a 3D image, header says {ndim}D at byte offset 40")
    extra = [d for d in dim[3:ndim] if d > 1]
    if extra:
        raise ParseError(
            f"{path}: need a 3D image, trailing dims {extra} exceed 1 at byte offset 48"
        )
    dims = (int(dim[0]), int(dim[1]), int(dim[2]))
    for i, d in enumerate(dims):
        if d < 1:
            raise ParseError(f"{path}: dim[{i + 1}] = {d} at byte offset {42 + 2 * i}")
    datatype = struct.unpack_from(endian + "h", raw, 70)[0]
    if datatype not in _NIFTI_DTYPES:
        raise ParseError(
            f"{path}: unsupported datatype code {datatype} "
            "(supported: 2 = u8, 4 = i16, 16 = f32) at byte offset 70"
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
        raise ParseError(f"{path}: two-file images are not supported at byte offset 344")
    warnings.warn(
        f"{path.name}: orientation and remaining header fields ignored; origin set to 0",
        stacklevel=3,
    )
    dtype = np.dtype(_NIFTI_DTYPES[datatype]).newbyteorder(endian)
    need = vox_offset + math.prod(dims) * dtype.itemsize
    if len(raw) < need:
        raise ParseError(f"{path}: truncated data (need {need} bytes) at byte offset {len(raw)}")
    data = _samples(path, raw, dtype, dims, vox_offset)
    slope = float(scl_slope) if scl_slope != 0.0 else 1.0
    if slope != 1.0 or scl_inter != 0.0:
        data = data * slope + float(scl_inter)
    return ScalarVolume(dims=dims, spacing=spacing, origin=(0.0, 0.0, 0.0), data=data)


def config_digest(config: ExtractionConfig) -> str:
    text = repr(sorted(vars(config).items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def write_features(
    path: str | Path,
    features: list[Feature] | FeatureSet,
    volume_id: str = "",
    config: ExtractionConfig | None = None,
) -> None:
    """Serialize features (geometry plus ranked descriptors) to one file, or
    raise RejectedInputError naming the first one read_features would refuse.
    volume_id is stored with Python's string escapes, as one ascii line."""
    path = Path(path)
    cfg = ExtractionConfig() if config is None else check_type("config", config, ExtractionConfig)
    stack = stack_features(features)
    header = (
        f"{FEATURE_MAGIC} {FEATURE_VERSION}\n"
        f"volume_id = {str(volume_id).encode('unicode_escape').decode('ascii')}\n"
        f"config_digest = {config_digest(cfg)}\n"
        f"estimator = {cfg.estimator}\n"
        f"count = {len(features)}\n"
        "END\n"
    )
    records = np.zeros(len(features), dtype=_RECORD)
    for name in _RECORD.names:
        records[name] = stack[name]
    path.write_bytes(header.encode("ascii") + records.tobytes())


def read_features(path: str | Path) -> tuple[FeatureSet, dict]:
    """Read a feature file; returns the features and the header metadata.

    The features are one read-only stack, a FeatureSet, with no object built
    per record; its descriptors carry ranks only (bins are not stored).
    """
    path = Path(path)
    raw = path.read_bytes()
    # END is a whole line: the preamble before it ends in a line break
    end = raw.find(b"\nEND\n") + 1
    if end == 0:
        raise ParseError(f"{path}: missing END marker in header (byte offset 0)")
    # ascii decoding keeps one character per byte, so the magic line's length is a byte count
    magic = raw[: raw.index(b"\n")].decode("ascii", errors="replace")
    if not magic.startswith(FEATURE_MAGIC):
        raise ParseError(f"{path}: bad magic at byte offset 0")
    try:
        version = int(magic.split()[1])
    except (IndexError, ValueError) as exc:
        raise ParseError(f"{path}: malformed magic line at byte offset 0") from exc
    if not 1 <= version <= FEATURE_VERSION:
        raise ParseError(f"{path}: unsupported file version {version} (byte offset 0)")
    meta, offsets = _parse_header(path, raw[len(magic) + 1 : end], len(magic) + 1)
    if not meta.get("count", "").isdecimal():
        count_at = offsets.get("count", end)
        raise ParseError(f"{path}: header count missing or not a count (byte offset {count_at})")
    count = int(meta["count"])
    body = raw[end + 4 :]
    expected = count * _RECORD.itemsize
    if len(body) != expected:
        raise ParseError(
            f"{path}: record block size mismatch at byte offset "
            f"{end + 4 + min(len(body), expected)}: expected {expected} bytes, found {len(body)}"
        )
    records = np.frombuffer(body, dtype=_RECORD)
    stack = _stack(
        **{name: records[name] for name in _RECORD.names},
        error=lambda i, why: ParseError(
            f"{path}: record {i} {why} (byte offset {end + 4 + i * _RECORD.itemsize})"
        ),
    )
    return FeatureSet(stack), meta
