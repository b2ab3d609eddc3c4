"""Bit-exact volume file I/O.

Two formats are supported:

* a single-file NIfTI-1 subset: 348-byte little-endian header, magic
  ``n+1``, scalar datatypes uint8 / int16 / float32, ``scl_slope`` /
  ``scl_inter`` honored (slope 0 treated as 1), data located by
  ``vox_offset`` and stored x-fastest; 3-D, or 4-D to 7-D with every extent
  past the third 1, and ``pixdim`` in mm (``xyzt_units`` spatial code 2, or
  0 for unknown);
* a JSON sidecar ``{dims, spacing_mm, unit, data}`` pointing at a raw
  little-endian float32 file, convenient for tests; ``data`` is a relative
  path without ``..`` and ``unit`` a known :class:`IntensityUnit` string.

A bad header or sidecar field raises ``VolumeFormatError`` naming it (checked
before the payload is opened), an unusable payload ``VolumeDataError``; the
CLI exits 2 for both. ``_decode`` reads and ``_write`` writes both formats,
except that ``write_mask`` hands a NIfTI mask's chunks to the writer itself;
``encode_nifti`` is the one NIfTI encoder. Writes are atomic. Volumes are
written as float32, masks as uint8 0/1.

``read_stored`` is the one volume reader, ``_decode``'s one caller: it checks
the whole grid in its stored dtype and returns it as a ``StoredVolume``,
which widens to float64 only the box it is asked for. ``read_volume`` is its
volume widened whole; pipeline reads widen boxes only. ``read_mask`` is
``read_stored``'s values compared with zero.

Grids stay in file order: a volume or mask read here is an F-contiguous
(x-fastest) array, as the payload is stored, so reading widens without a
transpose and writing a grid read from a file copies without one. Indexing
is by (x, y, z) in either layout.

A NIfTI payload is not read into memory but mapped read-only, once the header
and the file size have been checked: the stored grid is a read-only view of
the file's pages, and a map that fails is a ``VolumeDataError``. The map
keeps the file that was opened, so replacing the file by rename, as every
writer here does, leaves a grid already read unchanged. A file truncated in
place while a grid of it is still in use is another matter: touching the
lost pages raises SIGBUS, which kills the process. Masks are written with
holes for the zero bytes outside their foreground's span (see
``serialize.write_bytes_atomic``).
"""

from __future__ import annotations

import json
import mmap
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import IntensityUnitError, ParameterError, VolumeDataError, VolumeFormatError, check_real
from .mask import BinaryMask
from .serialize import write_bytes_atomic
from .volume import IntensityUnit, Volume3D, _Grid, check_finite, check_grid

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


def _format(path: Path) -> str:
    if path.suffix not in (".nii", ".json"):
        raise VolumeFormatError(
            f"{path}: unsupported volume extension {path.suffix!r} (use .nii or .json)"
        )
    return path.suffix


def _decode_nifti(path: Path) -> tuple:
    with open(path, "rb") as fh:
        raw = fh.read(HEADER_SIZE)
        if len(raw) < HEADER_SIZE:
            raise VolumeFormatError(f"{path}: truncated header ({len(raw)} < {HEADER_SIZE} bytes)")
        hdr = np.frombuffer(raw, dtype=_HEADER_DTYPE)[0]
        sizeof_hdr = int(hdr["sizeof_hdr"])
        if sizeof_hdr != HEADER_SIZE:
            if struct.unpack(">i", raw[:4])[0] == HEADER_SIZE:
                raise VolumeFormatError(f"{path}: big-endian file not supported (field sizeof_hdr)")
            raise VolumeFormatError(
                f"{path}: bad field sizeof_hdr = {sizeof_hdr}, expected {HEADER_SIZE}"
            )
        magic = bytes(hdr["magic"])  # numpy strips trailing NULs
        if magic != _MAGIC.rstrip(b"\x00"):
            raise VolumeFormatError(f"{path}: bad field magic = {magic!r}, expected {_MAGIC!r}")
        ndim = int(hdr["dim"][0])
        if not 3 <= ndim <= 7:
            raise VolumeFormatError(f"{path}: bad field dim[0] = {ndim}, only 3D volumes supported")
        for i in range(4, ndim + 1):  # a 4-D to 7-D header may only add extents of 1
            if hdr["dim"][i] != 1:
                raise VolumeFormatError(
                    f"{path}: bad field dim[{i}] = {hdr['dim'][i]}, only 3D volumes supported"
                )
        units = int(hdr["xyzt_units"])
        if units & 0x07 not in (0, 2):  # pixdim is read as mm: millimetres, or unknown
            raise VolumeFormatError(
                f"{path}: bad field xyzt_units = {units}, spatial unit code {units & 0x07}"
                " is not mm (2) or unknown (0)"
            )
        datatype = int(hdr["datatype"])
        if datatype not in _DTYPES:
            raise VolumeFormatError(
                f"{path}: bad field datatype = {datatype}, supported codes are {sorted(_DTYPES)}"
            )
        bitpix = int(hdr["bitpix"])
        if bitpix != _BITPIX[datatype]:
            need = _BITPIX[datatype]
            raise VolumeFormatError(
                f"{path}: bad field bitpix = {bitpix}, datatype {datatype} requires {need}"
            )
        dims = tuple(int(d) for d in hdr["dim"][1:4])
        spacing = check_grid(dims, tuple(float(s) for s in hdr["pixdim"][1:4]), ("dim", "pixdim"))
        offset = float(hdr["vox_offset"])
        if not np.isfinite(offset) or offset != int(offset) or offset < VOX_OFFSET:
            raise VolumeFormatError(f"{path}: bad field vox_offset = {offset}")
        offset = int(offset)
        slope, inter = float(hdr["scl_slope"]), float(hdr["scl_inter"])
        for name, value in (("scl_slope", slope), ("scl_inter", inter)):
            check_real(f"{path}: bad field {name}", value, error=VolumeFormatError)
        dtype = _DTYPES[datatype]
        size = dims[0] * dims[1] * dims[2] * dtype.itemsize
        # against the file size first: a bad header cannot make the map reach past the file
        available = max(os.fstat(fh.fileno()).st_size - offset, 0)
        if available < size:
            raise VolumeDataError(f"{path}: data section has {available} bytes, expected {size}")
        try:
            # the map outlives the file handle; a file shorter than this length now
            # (shrunk since fstat) cannot be mapped
            mapped = mmap.mmap(fh.fileno(), offset + size, access=mmap.ACCESS_READ)
        except (OSError, ValueError) as exc:
            raise VolumeDataError(f"{path}: data section cannot be mapped: {exc}") from exc
    grid = np.frombuffer(mapped, dtype, dims[0] * dims[1] * dims[2], offset)
    return grid.reshape(dims, order="F"), spacing, slope or 1.0, inter, None  # slope 0: unscaled


def _triple(value, types: tuple) -> bool:
    """A JSON list of 3 values whose exact types are in `types` (a bool is no int)."""
    return isinstance(value, list) and len(value) == 3 and all(type(v) in types for v in value)


def _decode_sidecar(path: Path) -> tuple:
    try:
        meta = json.loads(path.read_bytes())
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise VolumeFormatError(f"{path}: invalid JSON sidecar: {exc}") from exc
    for key in ("dims", "spacing_mm", "unit", "data"):
        if not isinstance(meta, dict) or key not in meta:
            raise VolumeFormatError(f"{path}: sidecar missing field {key!r}")
    dims, spacing, data = meta["dims"], meta["spacing_mm"], meta["data"]
    if not _triple(dims, (int,)):
        raise VolumeFormatError(f"{path}: bad field dims = {dims!r}, needs 3 integers")
    if not _triple(spacing, (int, float)):
        raise VolumeFormatError(f"{path}: bad field spacing_mm = {spacing!r}, needs 3 numbers")
    spacing = check_grid(dims, spacing, ("dims", "spacing_mm"))
    unit = IntensityUnit.from_string(meta["unit"])
    # the payload must be a file below the sidecar's directory
    parts = Path(data).parts if isinstance(data, str) else ()
    if not parts or Path(data).is_absolute() or ".." in parts:
        raise VolumeFormatError(f"{path}: bad field data = {data!r}, needs a relative file path")
    try:
        flat = np.fromfile(path.parent / data, dtype="<f4")
    except (OSError, ValueError) as exc:  # ValueError: a NUL or unencodable name
        raise VolumeDataError(f"{path}: field data = {data!r} cannot be read: {exc}") from exc
    count = dims[0] * dims[1] * dims[2]
    if flat.size != count:
        raise VolumeDataError(f"{path}: data has {flat.size} voxels, dims declare {count}")
    flat.flags.writeable = False  # as a mapped NIfTI grid: nothing may change it once checked
    return flat.reshape(dims, order="F"), spacing, 1.0, 0.0, unit


def _decode(path: Path) -> tuple:
    """The one decoder: a `.nii` or `.json` volume as its stored (nx, ny, nz)
    grid (read-only, stored dtype), spacing, scl slope and intercept, and the
    sidecar unit (None for NIfTI, which stores none)."""
    try:
        return _decode_sidecar(path) if _format(path) == ".json" else _decode_nifti(path)
    except ParameterError as exc:  # a header value the package's checks reject
        raise VolumeFormatError(f"{path}: bad field {exc}") from None


def _to_volume(grid: np.ndarray, spacing, slope: float, inter: float, unit) -> Volume3D:
    values = grid.astype(np.float64, order="K")  # one pass, the file's layout kept
    if slope != 1.0 or inter != 0.0:
        values *= slope
        values += inter
    values.flags.writeable = False
    return Volume3D(values, spacing, unit)


def _nifti_header(shape: tuple[int, ...], spacing, datatype: int) -> bytes:
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


def encode_nifti(values: np.ndarray, spacing, datatype: int) -> tuple[bytes, memoryview]:
    """The one NIfTI encoder: header and x-fastest payload of `values` stored
    as `datatype` (2 uint8, 4 int16, 16 float32), to write back to back. An
    F-contiguous grid converts without a transpose; a C one is transposed.
    The payload is the converted array's own buffer, as bytes, not a copy; an
    F-contiguous uint8 or bool grid stored as uint8 is its own payload."""
    if values.dtype == np.bool_:
        values = values.view(np.uint8)  # False and True are the bytes 0 and 1
    data = values.astype(_DTYPES[datatype], order="F", copy=False).reshape(-1, order="F")  # a view
    return _nifti_header(values.shape, spacing, datatype), memoryview(data).cast("B")


def _write(path: Path, values: np.ndarray, spacing, datatype: int, unit: IntensityUnit) -> None:
    """The one writer: NIfTI stores `datatype`; a sidecar stores float32 raw data."""
    if _format(path) == ".nii":
        write_bytes_atomic(path, *encode_nifti(values, spacing, datatype))
        return
    raw = path.with_suffix(".raw")
    meta = {"dims": list(values.shape), "spacing_mm": list(spacing), "unit": unit.value}
    meta["data"] = raw.name
    write_bytes_atomic(raw, values.astype("<f4", order="F").tobytes(order="F"))
    write_bytes_atomic(path, json.dumps(meta, indent=2).encode() + b"\n")


def _unit(path, stored: IntensityUnit | None, unit: IntensityUnit | None) -> IntensityUnit:
    """The unit to read a volume in: `unit` if given, else the sidecar's, else ARBITRARY."""
    if unit is not None and stored not in (None, IntensityUnit.ARBITRARY, unit):
        raise IntensityUnitError(f"{path}: sidecar unit {stored.value}, read as {unit.value}")
    return unit or stored or IntensityUnit.ARBITRARY


def read_volume(path: str | os.PathLike, unit: IntensityUnit | None = None) -> Volume3D:
    """Read a volume; format chosen by extension (.nii or .json sidecar).

    For NIfTI input the intensity unit defaults to ARBITRARY unless given.
    Sidecars carry their own: an explicit ``unit`` may replace ``arbitrary``,
    but one contradicting a declared SUV or kBq/mL raises IntensityUnitError.
    It is `read_stored`'s volume, checks included, widened whole to float64.
    """
    return read_stored(path, unit).widen()


@dataclass(frozen=True)
class StoredVolume(_Grid):
    """A volume file as stored: its (nx, ny, nz) grid, read-only and x-fastest
    in the stored dtype (uint8, int16 or float32; `read_stored` has checked
    every voxel finite), its spacing and unit, and the scl slope and
    intercept that map it to values."""

    grid: np.ndarray
    spacing: tuple[float, float, float]
    unit: IntensityUnit
    slope: float = 1.0
    inter: float = 0.0

    _ARRAY = "grid"

    @property
    def values(self) -> np.ndarray:
        """The voxel values exactly: the stored grid itself when the scl map is
        the identity, else the whole grid widened to float64."""
        if self.slope == 1.0 and self.inter == 0.0:
            return self.grid
        return self.widen().values

    def widen(self, box: tuple[slice, slice, slice] | None = None) -> Volume3D:
        """The float64 volume of the whole grid or of its `box`."""
        grid = self.grid if box is None else self.grid[box]
        return _to_volume(grid, self.spacing, self.slope, self.inter, self.unit)


def read_stored(path: str | os.PathLike, unit: IntensityUnit | None = None) -> StoredVolume:
    """The volume at `path` as stored: the unit is resolved, then non-finite
    values are sought in the stored dtype, since finite scl factors keep a
    finite stored value finite. Nothing is widened."""
    grid, spacing, slope, inter, stored = _decode(Path(path))
    unit = _unit(path, stored, unit)
    check_finite(grid)
    return StoredVolume(grid, spacing, unit, slope, inter)


def write_volume(vol: Volume3D | StoredVolume, path: str | os.PathLike) -> None:
    """Write a volume's values as float32. Roundtrip is bit-exact for float32
    data, and a float32 `StoredVolume` is written from its grid without a copy."""
    _write(Path(path), vol.values, vol.spacing, 16, vol.unit)


def read_mask(path: str | os.PathLike) -> BinaryMask:
    """Read a label volume with `read_stored`'s checks; nonzero voxels are
    foreground. An unscaled grid is compared as stored, a scaled one widened."""
    stored = read_stored(path)
    bits = stored.values != 0  # the file's x-fastest layout, like the grid
    bits.flags.writeable = False
    return BinaryMask(bits, stored.spacing)


def write_mask(mask: BinaryMask, path: str | os.PathLike) -> None:
    """Write a mask as a uint8 0/1 NIfTI volume (or float32 sidecar). Of a
    NIfTI payload only the span from the x-fastest index of the foreground
    box's first corner to its last is written; the zero bytes around it are
    holes, and an empty mask is a header and one hole."""
    path = Path(path)
    if _format(path) != ".nii":
        _write(path, mask.bits, mask.spacing, 2, IntensityUnit.ARBITRARY)
        return
    header, payload = encode_nifti(mask.bits, mask.spacing, 2)  # F-ordered bits: no copy
    lo = hi = 0
    if mask.box is not None:
        lo = np.ravel_multi_index([s.start for s in mask.box], mask.dims, order="F")
        hi = np.ravel_multi_index([s.stop - 1 for s in mask.box], mask.dims, order="F") + 1
    write_bytes_atomic(path, header, lo, payload[lo:hi], len(payload) - hi)
