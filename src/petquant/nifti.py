"""Bit-exact volume file I/O.

Two formats are supported:

* a single-file NIfTI-1 subset: 348-byte little-endian header, magic
  ``n+1``, scalar datatypes uint8 / int16 / float32, ``scl_slope`` /
  ``scl_inter`` honored (slope 0 treated as 1), data located by
  ``vox_offset`` and stored x-fastest;
* a JSON sidecar ``{dims, spacing_mm, unit, data}`` pointing at a raw
  little-endian float32 file, convenient for tests; ``data`` is a relative
  path without ``..``.

Writing is atomic (``serialize.write_bytes_atomic``). Volumes are written
as float32, masks as uint8 0/1; reading promotes to the internal float64.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from .errors import VolumeDataError, VolumeFormatError
from .mask import BinaryMask
from .serialize import write_bytes_atomic
from .volume import IntensityUnit, Volume3D

HEADER_SIZE = 348
VOX_OFFSET = 352  # header + 4-byte extender
_MAGIC = b"n+1\x00"

# NIfTI-1 datatype code -> numpy dtype (little-endian)
_DTYPES = {2: np.dtype("<u1"), 4: np.dtype("<i2"), 16: np.dtype("<f4")}
_BITPIX = {2: 8, 4: 16, 16: 32}

_HEADER_DTYPE = np.dtype(
    [
        ("sizeof_hdr", "<i4"),
        ("data_type", "S10"),
        ("db_name", "S18"),
        ("extents", "<i4"),
        ("session_error", "<i2"),
        ("regular", "S1"),
        ("dim_info", "u1"),
        ("dim", "<i2", (8,)),
        ("intent_p1", "<f4"),
        ("intent_p2", "<f4"),
        ("intent_p3", "<f4"),
        ("intent_code", "<i2"),
        ("datatype", "<i2"),
        ("bitpix", "<i2"),
        ("slice_start", "<i2"),
        ("pixdim", "<f4", (8,)),
        ("vox_offset", "<f4"),
        ("scl_slope", "<f4"),
        ("scl_inter", "<f4"),
        ("slice_end", "<i2"),
        ("slice_code", "u1"),
        ("xyzt_units", "u1"),
        ("cal_max", "<f4"),
        ("cal_min", "<f4"),
        ("slice_duration", "<f4"),
        ("toffset", "<f4"),
        ("glmax", "<i4"),
        ("glmin", "<i4"),
        ("descrip", "S80"),
        ("aux_file", "S24"),
        ("qform_code", "<i2"),
        ("sform_code", "<i2"),
        ("quatern_b", "<f4"),
        ("quatern_c", "<f4"),
        ("quatern_d", "<f4"),
        ("qoffset_x", "<f4"),
        ("qoffset_y", "<f4"),
        ("qoffset_z", "<f4"),
        ("srow_x", "<f4", (4,)),
        ("srow_y", "<f4", (4,)),
        ("srow_z", "<f4", (4,)),
        ("intent_name", "S16"),
        ("magic", "S4"),
    ]
)
assert _HEADER_DTYPE.itemsize == HEADER_SIZE


def _parse_header(raw: bytes, path: Path) -> tuple[tuple[int, int, int], tuple[float, float, float], int, float, float, int]:
    if len(raw) < HEADER_SIZE:
        raise VolumeFormatError(f"{path}: truncated header ({len(raw)} < {HEADER_SIZE} bytes)")
    hdr = np.frombuffer(raw[:HEADER_SIZE], dtype=_HEADER_DTYPE)[0]
    size = int(hdr["sizeof_hdr"])
    if size != HEADER_SIZE:
        swapped = struct.unpack(">i", raw[:4])[0]
        if swapped == HEADER_SIZE:
            raise VolumeFormatError(f"{path}: big-endian file not supported (field sizeof_hdr)")
        raise VolumeFormatError(f"{path}: bad field sizeof_hdr = {size}, expected {HEADER_SIZE}")
    if bytes(hdr["magic"]) != _MAGIC.rstrip(b"\x00"):  # numpy strips trailing NULs
        raise VolumeFormatError(f"{path}: bad field magic = {bytes(hdr['magic'])!r}, expected {_MAGIC!r}")
    ndim = int(hdr["dim"][0])
    if ndim != 3:
        raise VolumeFormatError(f"{path}: bad field dim[0] = {ndim}, only 3D volumes supported")
    dims = tuple(int(d) for d in hdr["dim"][1:4])
    if any(d < 1 for d in dims):
        raise VolumeFormatError(f"{path}: bad field dim = {dims}, dimensions must be >= 1")
    datatype = int(hdr["datatype"])
    if datatype not in _DTYPES:
        raise VolumeFormatError(
            f"{path}: bad field datatype = {datatype}, supported codes are {sorted(_DTYPES)}"
        )
    bitpix = int(hdr["bitpix"])
    if bitpix != _BITPIX[datatype]:
        raise VolumeFormatError(
            f"{path}: bad field bitpix = {bitpix}, datatype {datatype} requires {_BITPIX[datatype]}"
        )
    spacing = tuple(float(s) for s in hdr["pixdim"][1:4])
    if any(not np.isfinite(s) or s <= 0.0 for s in spacing):
        raise VolumeFormatError(f"{path}: bad field pixdim = {spacing}, spacing must be positive")
    vox_offset = float(hdr["vox_offset"])
    if not np.isfinite(vox_offset) or vox_offset != int(vox_offset) or int(vox_offset) < VOX_OFFSET:
        raise VolumeFormatError(f"{path}: bad field vox_offset = {vox_offset}")
    slope = float(hdr["scl_slope"])
    if not np.isfinite(slope):
        raise VolumeFormatError(f"{path}: bad field scl_slope = {slope}")
    if slope == 0.0:
        slope = 1.0
    inter = float(hdr["scl_inter"])
    if not np.isfinite(inter):
        raise VolumeFormatError(f"{path}: bad field scl_inter = {inter}")
    return dims, spacing, datatype, slope, inter, int(vox_offset)


def _read_payload(path: Path) -> tuple[np.ndarray, tuple[float, float, float], int, float, float]:
    """Raw x-fastest payload as an (nx, ny, nz) view, plus spacing/scaling."""
    with open(path, "rb") as fh:
        raw = fh.read(HEADER_SIZE)
        dims, spacing, datatype, slope, inter, offset = _parse_header(raw, path)
        fh.seek(offset)
        dtype = _DTYPES[datatype]
        count = dims[0] * dims[1] * dims[2]
        payload = fh.read(count * dtype.itemsize)
    if len(payload) != count * dtype.itemsize:
        raise VolumeDataError(
            f"{path}: data section has {len(payload)} bytes, expected {count * dtype.itemsize}"
        )
    flat = np.frombuffer(payload, dtype=dtype)
    return flat.reshape(dims, order="F"), spacing, datatype, slope, inter


def _read_nifti(path: Path, unit: IntensityUnit) -> Volume3D:
    grid, spacing, _, slope, inter = _read_payload(path)
    values = grid.astype(np.float64, order="C")  # one pass: widen + transpose
    if slope != 1.0 or inter != 0.0:
        values *= slope
        values += inter
    values.flags.writeable = False
    return Volume3D(values, spacing, unit)


def _nifti_header(shape: tuple[int, ...], spacing: tuple[float, float, float], datatype: int) -> bytes:
    hdr = np.zeros((), dtype=_HEADER_DTYPE)
    hdr["sizeof_hdr"] = HEADER_SIZE
    hdr["regular"] = b"r"
    dim = np.ones(8, dtype=np.int16)
    dim[0] = 3
    dim[1:4] = shape
    hdr["dim"] = dim
    hdr["datatype"] = datatype
    hdr["bitpix"] = _BITPIX[datatype]
    pixdim = np.zeros(8, dtype=np.float32)
    pixdim[0] = 1.0
    pixdim[1:4] = spacing
    hdr["pixdim"] = pixdim
    hdr["vox_offset"] = float(VOX_OFFSET)
    hdr["scl_slope"] = 1.0
    hdr["scl_inter"] = 0.0
    hdr["xyzt_units"] = 2  # mm
    hdr["magic"] = _MAGIC
    return hdr.tobytes() + b"\x00\x00\x00\x00"  # 4-byte extender: no extensions


def _nifti_bytes(values: np.ndarray, spacing: tuple[float, float, float], datatype: int) -> bytes:
    return _nifti_header(values.shape, spacing, datatype) + values.tobytes(order="F")


def _triple(value, types: tuple) -> bool:
    """A JSON list of 3 values whose exact types are in `types` (a bool is no int)."""
    return isinstance(value, list) and len(value) == 3 and all(type(v) in types for v in value)


def _read_sidecar(path: Path) -> Volume3D:
    try:
        meta = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise VolumeFormatError(f"{path}: invalid JSON sidecar: {exc}") from exc
    for key in ("dims", "spacing_mm", "unit", "data"):
        if not isinstance(meta, dict) or key not in meta:
            raise VolumeFormatError(f"{path}: sidecar missing field {key!r}")
    dims, spacing, data = meta["dims"], meta["spacing_mm"], meta["data"]
    if not _triple(dims, (int,)) or min(dims) < 1:
        raise VolumeFormatError(f"{path}: bad field dims = {dims!r}, needs 3 integers >= 1")
    if not _triple(spacing, (int, float)):
        raise VolumeFormatError(f"{path}: bad field spacing_mm = {spacing!r}, needs 3 numbers")
    # the payload must lie below the sidecar's directory
    if not isinstance(data, str) or Path(data).is_absolute() or ".." in Path(data).parts:
        raise VolumeFormatError(f"{path}: bad field data = {data!r}, needs a relative path")
    raw_path = path.parent / data
    flat = np.fromfile(raw_path, dtype="<f4")
    count = dims[0] * dims[1] * dims[2]
    if flat.size != count:
        raise VolumeDataError(f"{raw_path}: has {flat.size} voxels, sidecar declares {count}")
    values = flat.astype(np.float64).reshape(dims, order="F")
    return Volume3D(values, tuple(spacing), IntensityUnit.from_string(meta["unit"]))


def read_volume(path: str | os.PathLike, unit: IntensityUnit | None = None) -> Volume3D:
    """Read a volume; format chosen by extension (.nii or .json sidecar).

    For NIfTI input the intensity unit defaults to ARBITRARY unless given;
    sidecars carry their own unit (an explicit ``unit`` overrides it).
    """
    p = Path(path)
    if p.suffix == ".json":
        vol = _read_sidecar(p)
        return vol if unit is None else vol.with_unit(unit)
    if p.suffix == ".nii":
        return _read_nifti(p, unit if unit is not None else IntensityUnit.ARBITRARY)
    raise VolumeFormatError(f"{p}: unsupported volume extension {p.suffix!r} (use .nii or .json)")


def write_volume(vol: Volume3D, path: str | os.PathLike) -> None:
    """Write a volume as float32. Roundtrip is bit-exact for float32 data."""
    p = Path(path)
    if not np.isfinite(vol.values).all():
        idx = tuple(int(i) for i in np.argwhere(~np.isfinite(vol.values))[0])
        raise VolumeDataError(f"refusing to write non-finite voxel at index {idx}")
    if p.suffix == ".json":
        raw_name = p.with_suffix(".raw").name
        meta = {
            "dims": list(vol.dims),
            "spacing_mm": list(vol.spacing),
            "unit": vol.unit.value,
            "data": raw_name,
        }
        data32 = vol.values.astype("<f4", order="F")
        write_bytes_atomic(p.parent / raw_name, data32.tobytes(order="F"))
        write_bytes_atomic(p, json.dumps(meta, indent=2).encode() + b"\n")
        return
    if p.suffix == ".nii":
        data32 = vol.values.astype("<f4", order="F")
        write_bytes_atomic(
            p, _nifti_header(data32.shape, vol.spacing, datatype=16), data32.tobytes(order="F")
        )
        return
    raise VolumeFormatError(f"{p}: unsupported volume extension {p.suffix!r} (use .nii or .json)")


def read_mask(path: str | os.PathLike) -> BinaryMask:
    """Read an 8-bit (or float) label volume; nonzero voxels are foreground."""
    p = Path(path)
    if p.suffix == ".nii":
        grid, spacing, datatype, slope, inter = _read_payload(p)
        # fast path for unscaled integer labels; float data goes through the
        # full volume validation
        if datatype in (2, 4) and slope == 1.0 and inter == 0.0:
            bits = np.ascontiguousarray(grid != 0)
            bits.flags.writeable = False
            return BinaryMask(bits, spacing)
    vol = read_volume(path)
    return BinaryMask(vol.values != 0.0, vol.spacing)


def write_mask(mask: BinaryMask, path: str | os.PathLike) -> None:
    """Write a mask as a uint8 0/1 NIfTI volume (or float32 sidecar)."""
    p = Path(path)
    if p.suffix == ".nii":
        data8 = mask.bits.astype("<u1", order="F")
        write_bytes_atomic(
            p, _nifti_header(data8.shape, mask.spacing, datatype=2), data8.tobytes(order="F")
        )
        return
    write_volume(Volume3D(mask.bits.astype(np.float64), mask.spacing), p)
