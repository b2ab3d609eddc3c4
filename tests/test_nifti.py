import json
import math
import mmap
import os
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from petquant import nifti
from petquant.cli import main
from petquant import (
    BinaryMask,
    IntensityUnit,
    IntensityUnitError,
    Volume3D,
    VolumeDataError,
    VolumeFormatError,
    read_mask,
    read_volume,
    write_mask,
    write_volume,
)
from petquant.nifti import HEADER_SIZE, VOX_OFFSET, encode_nifti
from petquant.serialize import write_bytes_atomic


def make_vol(values, spacing=(4.0, 4.0, 4.0), unit=IntensityUnit.ARBITRARY):
    return Volume3D(np.asarray(values, dtype=float), spacing, unit)


def patch_header(path, offset, fmt, value):
    data = bytearray(path.read_bytes())
    struct.pack_into(fmt, data, offset, value)
    path.write_bytes(bytes(data))


class TestRoundtrip:
    def test_minimal_float_file(self, tmp_path):
        vol = make_vol(np.arange(8, dtype=float).reshape(2, 2, 2))
        path = tmp_path / "v.nii"
        write_volume(vol, path)
        back = read_volume(path)
        assert back.dims == (2, 2, 2)
        assert back.spacing == (4.0, 4.0, 4.0)
        np.testing.assert_array_equal(back.values, vol.values)

    def test_data_section_byte_exact(self, tmp_path, rng):
        vol = make_vol(rng.normal(0, 10, (5, 4, 3)).astype(np.float32))
        p1, p2 = tmp_path / "a.nii", tmp_path / "b.nii"
        write_volume(vol, p1)
        write_volume(read_volume(p1), p2)
        assert p1.read_bytes()[VOX_OFFSET:] == p2.read_bytes()[VOX_OFFSET:]

    def test_file_size_arithmetic(self, tmp_path):
        vol = make_vol(np.zeros((144, 144, 66)))
        path = tmp_path / "big.nii"
        write_volume(vol, path)
        assert path.stat().st_size == VOX_OFFSET + 144 * 144 * 66 * 4
        back = read_volume(path)
        assert back.dims == (144, 144, 66)

    def test_mask_roundtrip(self, tmp_path, rng):
        mask = BinaryMask(rng.random((4, 5, 6)) < 0.4, (4.0, 4.0, 4.0))
        path = tmp_path / "m.nii"
        write_mask(mask, path)
        back = read_mask(path)
        np.testing.assert_array_equal(back.bits, mask.bits)
        assert back.spacing == mask.spacing

    def test_mask_sidecar_roundtrip(self, tmp_path, rng):
        mask = BinaryMask(rng.random((4, 5, 6)) < 0.4, (4.0, 3.0, 2.0))
        path = tmp_path / "m.json"
        write_mask(mask, path)
        back = read_mask(path)
        np.testing.assert_array_equal(back.bits, mask.bits)
        assert back.spacing == mask.spacing
        raw = np.fromfile(tmp_path / "m.raw", dtype="<f4")
        np.testing.assert_array_equal(raw, mask.bits.ravel(order="F").astype(np.float32))

    def test_float_mask_read_opens_file_once(self, tmp_path, monkeypatch):
        path = tmp_path / "m.nii"
        write_volume(make_vol(np.arange(8, dtype=float).reshape(2, 2, 2) % 3), path)
        opened = []

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return open(file, *args, **kwargs)

        monkeypatch.setattr(nifti, "open", counting_open, raising=False)
        mask = read_mask(path)
        assert opened == [path]
        np.testing.assert_array_equal(mask.bits, np.arange(8).reshape(2, 2, 2) % 3 != 0)

    def test_nan_in_float_mask_rejected(self, tmp_path):
        path = tmp_path / "m.nii"
        write_volume(make_vol(np.ones((2, 2, 2))), path)
        patch_header(path, VOX_OFFSET + 4, "<f", float("nan"))
        with pytest.raises(VolumeDataError, match="index"):
            read_mask(path)

    def test_sidecar_roundtrip(self, tmp_path):
        vol = make_vol(np.arange(12, dtype=float).reshape(3, 2, 2), unit=IntensityUnit.SUV)
        path = tmp_path / "v.json"
        write_volume(vol, path)
        back = read_volume(path)
        assert back.unit is IntensityUnit.SUV
        np.testing.assert_array_equal(back.values, vol.values)
        meta = json.loads(path.read_text())
        assert set(meta) == {"dims", "spacing_mm", "unit", "data"}

    @pytest.mark.parametrize(
        "declared, asked",
        [
            (IntensityUnit.SUV, IntensityUnit.ACTIVITY_KBQ_PER_ML),
            (IntensityUnit.ACTIVITY_KBQ_PER_ML, IntensityUnit.SUV),
        ],
    )
    def test_explicit_unit_contradicting_sidecar_rejected(self, tmp_path, declared, asked):
        # the explicit unit used to win: SUV values were scaled to SUV again
        path = tmp_path / "v.json"
        write_volume(make_vol(np.ones((2, 2, 2)), unit=declared), path)
        with pytest.raises(IntensityUnitError, match=f"v.json: sidecar unit {declared.value}"):
            read_volume(path, unit=asked)
        assert read_volume(path, unit=declared).unit is declared

    def test_explicit_unit_replaces_arbitrary_sidecar(self, tmp_path):
        path = tmp_path / "v.json"
        write_volume(make_vol(np.ones((2, 2, 2))), path)
        assert read_volume(path).unit is IntensityUnit.ARBITRARY
        assert read_volume(path, unit=IntensityUnit.SUV).unit is IntensityUnit.SUV

    def test_nan_volume_refused(self):
        # the writers have no finite check of their own: Volume3D refuses
        # non-finite values and stores the rest read-only, so no NaN volume
        # can reach write_volume
        with pytest.raises(VolumeDataError, match=r"index \(1, 0, 1\)"):
            make_vol(np.where(np.arange(8).reshape(2, 2, 2) == 5, np.nan, 1.0))
        vol = make_vol(np.ones((2, 2, 2)))
        with pytest.raises(ValueError, match="read-only"):
            vol.values[0, 0, 0] = np.nan


class TestReadPathLayout:
    """A `.nii` grid stays in the file's x-fastest order from read to write."""

    @pytest.fixture
    def files(self, tmp_path, rng):
        bits = rng.random((6, 5, 4)) < 0.4
        vol_path, mask_path = tmp_path / "v.nii", tmp_path / "m.nii"
        write_volume(make_vol(rng.normal(0, 10, bits.shape).astype(np.float32)), vol_path)
        write_mask(BinaryMask(bits, (4.0, 4.0, 4.0)), mask_path)
        return vol_path, mask_path

    def test_read_grids_are_read_only_and_f_contiguous(self, files):
        vol_path, mask_path = files
        for arr in (read_volume(vol_path).values, read_mask(mask_path).bits):
            assert arr.flags.f_contiguous and not arr.flags.c_contiguous
            assert not arr.flags.writeable

    def test_read_write_roundtrip_keeps_payload_bytes(self, files, tmp_path):
        vol_path, mask_path = files
        write_volume(read_volume(vol_path), tmp_path / "v2.nii")
        write_mask(read_mask(mask_path), tmp_path / "m2.nii")
        for a, b in ((vol_path, "v2.nii"), (mask_path, "m2.nii")):
            assert a.read_bytes() == (tmp_path / b).read_bytes()


class TestHeaderValidation:
    @pytest.fixture
    def valid_file(self, tmp_path):
        path = tmp_path / "v.nii"
        write_volume(make_vol(np.zeros((2, 2, 2))), path)
        return path

    def test_zero_dim_rejected(self, valid_file):
        patch_header(valid_file, 40 + 2, "<h", 0)  # dim[1] = 0
        with pytest.raises(VolumeFormatError, match="dim"):
            read_volume(valid_file)

    def test_bad_magic_rejected(self, valid_file):
        data = bytearray(valid_file.read_bytes())
        data[344:348] = b"XXXX"
        valid_file.write_bytes(bytes(data))
        with pytest.raises(VolumeFormatError, match="magic"):
            read_volume(valid_file)

    def test_bad_sizeof_hdr_rejected(self, valid_file):
        patch_header(valid_file, 0, "<i", 349)
        with pytest.raises(VolumeFormatError, match="sizeof_hdr"):
            read_volume(valid_file)

    def test_big_endian_rejected(self, valid_file):
        patch_header(valid_file, 0, ">i", HEADER_SIZE)
        with pytest.raises(VolumeFormatError, match="endian"):
            read_volume(valid_file)

    def test_unsupported_datatype_rejected(self, valid_file):
        patch_header(valid_file, 70, "<h", 64)  # float64 not in the subset
        with pytest.raises(VolumeFormatError, match="datatype"):
            read_volume(valid_file)

    def test_bitpix_mismatch_rejected(self, valid_file):
        patch_header(valid_file, 72, "<h", 16)
        with pytest.raises(VolumeFormatError, match="bitpix"):
            read_volume(valid_file)

    def test_negative_pixdim_rejected(self, valid_file):
        patch_header(valid_file, 76 + 4, "<f", -4.0)
        with pytest.raises(VolumeFormatError, match="pixdim"):
            read_volume(valid_file)

    def test_truncated_data_rejected(self, valid_file):
        data = valid_file.read_bytes()
        valid_file.write_bytes(data[:-4])
        with pytest.raises(VolumeDataError, match="data section"):
            read_volume(valid_file)

    def test_nonfinite_after_scaling(self, valid_file):
        # plant an inf in the float32 payload
        data = bytearray(valid_file.read_bytes())
        struct.pack_into("<f", data, VOX_OFFSET + 4, float("inf"))
        valid_file.write_bytes(bytes(data))
        with pytest.raises(VolumeDataError, match="index"):
            read_volume(valid_file)

    def test_unknown_extension(self, tmp_path):
        with pytest.raises(VolumeFormatError):
            read_volume(tmp_path / "vol.raw")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_volume(tmp_path / "missing.nii")

    # each field used to give a ValueError traceback, a misleading
    # FileNotFoundError or exit 1, or (data) was accepted
    @pytest.mark.parametrize(
        "field, value",
        [
            ("dims", ["3", 2, 2]),
            ("dims", [3.0, 2, 2]),
            ("dims", [3, 2]),
            ("dims", [3, 2, True]),
            ("spacing_mm", [4.0, 4.0]),
            ("spacing_mm", [4.0, 4.0, 4.0, 4.0]),
            ("spacing_mm", [4.0, "x", 4.0]),
            ("data", "ABSOLUTE"),
            ("data", "../v.raw"),
            ("data", "sub/../../v.raw"),
            # appended, so the ids of the cases above stay put
            ("unit", 5),
            ("unit", "furlongs"),
            ("dims", [0, 2, 2]),
            ("spacing_mm", [4.0, -4.0, 4.0]),
            ("data", ""),
            ("data", "."),
        ],
    )
    def test_bad_sidecar_field_rejected(self, tmp_path, field, value):
        write_volume(make_vol(np.zeros((3, 2, 2))), tmp_path / "v.json")
        (tmp_path / "sub").mkdir()
        side = tmp_path / "sub" / "v.json"
        meta = json.loads((tmp_path / "v.json").read_text())
        meta["data"] = "missing.raw"  # checks run before the payload is opened
        meta[field] = str(tmp_path / "v.raw") if value == "ABSOLUTE" else value
        side.write_text(json.dumps(meta))
        with pytest.raises(VolumeFormatError, match=field):
            read_volume(side)


def _hand_nifti(dim, xyzt_units=2) -> bytes:
    """A float32 NIfTI-1 file built field by field, not by the package's
    writer: `dim` is dim[0..7], pixdim (4, 3, 2) mm, voxels 0, 1, 2, ... x-fastest."""
    hdr = bytearray(VOX_OFFSET)
    struct.pack_into("<i", hdr, 0, HEADER_SIZE)
    struct.pack_into("<8h", hdr, 40, *dim)
    struct.pack_into("<2h", hdr, 70, 16, 32)  # datatype float32, bitpix
    struct.pack_into("<4f", hdr, 76, 1.0, 4.0, 3.0, 2.0)  # pixdim[0..3]
    struct.pack_into("<2f", hdr, 108, VOX_OFFSET, 1.0)  # vox_offset, scl_slope
    hdr[123] = xyzt_units
    hdr[344:348] = b"n+1\0"
    return bytes(hdr) + np.arange(math.prod(dim[1:4]), dtype="<f4").tobytes()


class TestHeaderMeaning:
    # xyzt_units: the low three bits are the spatial unit, the next three time
    @pytest.mark.parametrize("units", [2, 0, 2 | 8, 2 | 24, 0 | 16])
    @pytest.mark.parametrize(
        "dim0, extra", [(3, (1,) * 4), (3, (5, 0, 9, -1)), (4, (1,) * 4), (7, (1,) * 4)]
    )
    def test_mm_or_unknown_units_and_singleton_extents_read(self, tmp_path, units, dim0, extra):
        # extents past dim[0] are unused, so only dim[4..dim[0]] must be 1
        path = tmp_path / "v.nii"
        path.write_bytes(_hand_nifti((dim0, 2, 3, 4, *extra), units))
        vol = read_volume(path)
        assert vol.spacing == (4.0, 3.0, 2.0)
        want = np.arange(24, dtype=float).reshape((2, 3, 4), order="F")
        np.testing.assert_array_equal(vol.values, want)

    @pytest.mark.parametrize("units", [1, 3, 1 | 8, 4, 7])
    def test_other_spatial_units_refused(self, tmp_path, units):
        # metres (1) with pixdim in mm would make MTV wrong by 10^9, microns (3) by 10^-9
        path = tmp_path / "v.nii"
        path.write_bytes(_hand_nifti((3, 2, 3, 4, 1, 1, 1, 1), units))
        for reader in (read_volume, read_mask, nifti.read_stored):
            with pytest.raises(VolumeFormatError) as err:
                reader(path)
            assert str(err.value) == (
                f"{path}: bad field xyzt_units = {units}, spatial unit code {units & 7}"
                " is not mm (2) or unknown (0)"
            )

    @pytest.mark.parametrize(
        "dim, field",
        [
            ((4, 2, 3, 4, 2, 1, 1, 1), "dim[4] = 2"),
            ((5, 2, 3, 4, 1, 3, 1, 1), "dim[5] = 3"),
            ((7, 2, 3, 4, 1, 1, 1, 0), "dim[7] = 0"),
            ((6, 2, 3, 4, 1, 1, -1, 1), "dim[6] = -1"),
            ((8, 2, 3, 4, 1, 1, 1, 1), "dim[0] = 8"),
            ((2, 2, 3, 4, 1, 1, 1, 1), "dim[0] = 2"),
        ],
    )
    def test_extra_extents_refused(self, tmp_path, dim, field):
        path = tmp_path / "v.nii"
        path.write_bytes(_hand_nifti(dim))
        with pytest.raises(VolumeFormatError) as err:
            read_volume(path)
        assert str(err.value) == f"{path}: bad field {field}, only 3D volumes supported"

    def test_refused_units_exit_2_with_one_json_line(self, tmp_path, capsys):
        path = tmp_path / "v.nii"
        path.write_bytes(_hand_nifti((3, 2, 3, 4, 1, 1, 1, 1), 1))
        code = main(["quantify", str(path), str(path), "--json-errors"])
        (line,) = capsys.readouterr().err.splitlines()
        assert code == 2
        assert json.loads(line) == {
            "error": "input error",
            "type": "VolumeFormatError",
            "message": f"{path}: bad field xyzt_units = 1, spatial unit code 1"
            " is not mm (2) or unknown (0)",
        }


class TestIntegerDatatypes:
    def test_int16_payload_with_scaling(self, tmp_path):
        raw = np.arange(-4, 4, dtype="<i2").reshape(2, 2, 2)
        path = tmp_path / "i16.nii"
        path.write_bytes(b"".join(encode_nifti(raw, (4.0, 4.0, 4.0), datatype=4)))
        patch_header(path, 112, "<f", 0.5)  # scl_slope
        patch_header(path, 116, "<f", 10.0)  # scl_inter
        back = read_volume(path)
        np.testing.assert_array_equal(back.values, raw.astype(float) * 0.5 + 10.0)

    def test_uint8_payload(self, tmp_path):
        raw = np.arange(8, dtype="<u1").reshape(2, 2, 2)
        path = tmp_path / "u8.nii"
        path.write_bytes(b"".join(encode_nifti(raw, (2.0, 2.0, 2.0), datatype=2)))
        back = read_volume(path)
        np.testing.assert_array_equal(back.values, raw.astype(float))
        assert back.spacing == (2.0, 2.0, 2.0)


class TestScaling:
    def test_slope_intercept_applied(self, tmp_path, valid_int16_file=None):
        path = tmp_path / "s.nii"
        write_volume(make_vol(np.arange(8, dtype=float).reshape(2, 2, 2)), path)
        patch_header(path, 112, "<f", 2.0)  # scl_slope
        patch_header(path, 116, "<f", 1.0)  # scl_inter
        back = read_volume(path)
        np.testing.assert_array_equal(
            back.values, np.arange(8, dtype=float).reshape(2, 2, 2) * 2.0 + 1.0
        )

    def test_zero_slope_treated_as_one(self, tmp_path):
        path = tmp_path / "z.nii"
        write_volume(make_vol(np.arange(8, dtype=float).reshape(2, 2, 2)), path)
        patch_header(path, 112, "<f", 0.0)
        back = read_volume(path)
        np.testing.assert_array_equal(back.values, np.arange(8, dtype=float).reshape(2, 2, 2))


def _label_file(tmp_path, kind: str, grid: np.ndarray):
    """`grid` stored as `kind`: a uint8, int16 or float32 NIfTI, a float32 NIfTI
    scaled by 0.5·v - 1, or a float32 sidecar."""
    if kind == "sidecar":
        path = tmp_path / "m.json"
        raw = tmp_path / "m.raw"
        write_volume(make_vol(np.zeros(grid.shape)), path)
        raw.write_bytes(grid.astype("<f4").tobytes(order="F"))  # NaN included
        return path
    datatype = {"uint8": 2, "int16": 4}.get(kind, 16)
    path = tmp_path / "m.nii"
    path.write_bytes(b"".join(encode_nifti(grid, (4.0, 3.0, 2.0), datatype)))
    if kind == "scaled":
        patch_header(path, 112, "<f", 0.5)  # scl_slope
        patch_header(path, 116, "<f", -1.0)  # scl_inter: a stored 2 is the value 0
    return path


class TestReaderParity:
    """`read_mask` is `read_volume`'s values compared with zero, errors included."""

    @pytest.mark.parametrize("kind", ["uint8", "int16", "float32", "scaled", "sidecar"])
    def test_bits_are_nonzero_values(self, tmp_path, kind):
        grid = np.arange(60).reshape(3, 4, 5) % 7
        if kind != "uint8":
            grid = grid - 2  # negative labels too
        path = _label_file(tmp_path, kind, grid)
        bits = read_mask(path).bits
        np.testing.assert_array_equal(bits, read_volume(path).values != 0)
        # the scl map moves the zeros: the stored grid is not what is compared
        assert np.array_equal(bits, grid != 0) == (kind != "scaled")

    @pytest.mark.parametrize("kind", ["float32", "scaled", "sidecar"])
    def test_nan_gives_the_same_error(self, tmp_path, kind):
        grid = np.ones((3, 4, 5), dtype=np.float32)
        grid[2, 1, 3] = grid[0, 3, 4] = np.nan  # (2, 1, 3) is first in file order
        path = _label_file(tmp_path, kind, grid)
        errors = []
        for reader in (read_volume, read_mask):
            with pytest.raises(VolumeDataError) as err:
                reader(path)
            errors.append(str(err.value))
        assert errors[0] == errors[1] == "non-finite voxel value at index (0, 3, 4)"


def _json_values():
    scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=6,
    )


def _read_both(path) -> None:
    """Every reader may only fail with the two volume-file errors."""
    for reader in (read_volume, read_mask, nifti.read_stored):
        try:
            reader(path)
        except (VolumeFormatError, VolumeDataError):
            pass


# the header fields a reader interprets, as (offset, format): sizeof_hdr,
# dim[0..3], datatype, bitpix, pixdim[1..3], vox_offset, scl_slope, scl_inter
_FIELDS = [(0, "<i"), (40, "<h"), (42, "<h"), (44, "<h"), (46, "<h"), (70, "<h"), (72, "<h")]
_FIELDS += [(80, "<f"), (84, "<f"), (88, "<f"), (108, "<f"), (112, "<f"), (116, "<f")]
_LIMITS = {"<i": 2**31, "<h": 2**15}


def _field_value(field):
    fmt = field[1]
    if fmt == "<f":
        return st.floats(width=32) | st.sampled_from([0.0, -1.0, 352.0, 353.0, 1e30])
    edge = st.sampled_from([-1, 0, 1, 2, 3, 4, 16, 348, _LIMITS[fmt] - 1])
    return edge | st.integers(-_LIMITS[fmt], _LIMITS[fmt] - 1)


def _valid_nifti(datatype: int) -> bytearray:
    grid = np.arange(24).reshape(2, 3, 4) % 5
    return bytearray(b"".join(encode_nifti(grid, (4.0, 3.0, 2.0), datatype)))


_FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestFuzz:
    # more examples here: a crash needs one field at an edge value and the rest valid
    @settings(_FUZZ, max_examples=400)
    @given(
        datatype=st.sampled_from([2, 4, 16]),
        fields=st.lists(
            st.sampled_from(_FIELDS).flatmap(lambda f: st.tuples(st.just(f), _field_value(f))),
            min_size=1,
            max_size=3,
        ),
    )
    def test_mutated_header_fields(self, tmp_path_factory, datatype, fields):
        data = _valid_nifti(datatype)
        for (offset, fmt), value in fields:
            struct.pack_into(fmt, data, offset, value)
        path = tmp_path_factory.mktemp("nii") / "v.nii"
        path.write_bytes(bytes(data))
        _read_both(path)

    @_FUZZ
    @given(
        datatype=st.sampled_from([2, 4, 16]),
        edits=st.lists(st.tuples(st.integers(0, 399), st.integers(0, 255)), max_size=4),
        cut=st.none() | st.integers(0, 400),
    )
    def test_mutated_bytes_and_truncation(self, tmp_path_factory, datatype, edits, cut):
        data = _valid_nifti(datatype)
        for pos, byte in edits:
            if pos < len(data):
                data[pos] = byte
        path = tmp_path_factory.mktemp("nii") / "v.nii"
        path.write_bytes(bytes(data[:cut]))
        _read_both(path)

    @_FUZZ
    @given(
        field=st.sampled_from(["dims", "spacing_mm", "unit", "data"]),
        value=_json_values()
        | st.lists(st.integers(-2, 5), min_size=3, max_size=3)
        | st.lists(st.floats() | st.integers(), min_size=3, max_size=3),
    )
    def test_sidecar_field_values(self, tmp_path_factory, field, value):
        tmp = tmp_path_factory.mktemp("side")
        write_volume(make_vol(np.ones((3, 2, 2))), tmp / "v.json")
        meta = json.loads((tmp / "v.json").read_text())
        meta[field] = value
        (tmp / "v.json").write_text(json.dumps(meta))
        _read_both(tmp / "v.json")


class TestMappedRead:
    """A NIfTI payload is a read-only map of the file, not a copy."""

    @pytest.fixture
    def vol_path(self, tmp_path, rng):
        path = tmp_path / "v.nii"
        write_volume(make_vol(rng.normal(0, 10, (6, 5, 4)).astype(np.float32)), path)
        return path

    def test_mapped_grid_is_read_only(self, vol_path):
        # a sidecar's grid too: it used to be writable after its finite check
        write_volume(read_volume(vol_path), vol_path.with_suffix(".json"))
        for path in (vol_path, vol_path.with_suffix(".json")):
            stored = nifti.read_stored(path)
            with pytest.raises(ValueError, match="read-only"):
                stored.grid[0, 0, 0] = 1.0

    def test_grid_outlives_a_replaced_file(self, vol_path):
        stored = nifti.read_stored(vol_path)
        before = stored.grid.copy()
        write_bytes_atomic(vol_path, *encode_nifti(np.zeros((6, 5, 4)), (4.0, 4.0, 4.0), 16))
        np.testing.assert_array_equal(stored.grid, before)
        assert not read_volume(vol_path).values.any()

    def test_file_shrunk_before_the_map_rejected(self, vol_path, monkeypatch):
        # the size check passed; the file loses its last voxel before it is mapped
        real_mmap = mmap.mmap

        def shrink_then_map(fileno, length, **kwargs):
            os.truncate(fileno, length - 4)
            return real_mmap(fileno, length, **kwargs)

        monkeypatch.setattr(nifti.mmap, "mmap", shrink_then_map)
        with pytest.raises(VolumeDataError, match=f"{vol_path.name}: data section cannot be mapped"):
            nifti.read_stored(vol_path)

    def test_map_failure_is_a_volume_data_error(self, vol_path, monkeypatch):
        def failing_mmap(*args, **kwargs):
            raise OSError(12, "Cannot allocate memory")

        monkeypatch.setattr(nifti.mmap, "mmap", failing_mmap)
        for reader in (read_volume, read_mask, nifti.read_stored):
            with pytest.raises(VolumeDataError, match="Cannot allocate memory") as err:
                reader(vol_path)
            assert str(vol_path) in str(err.value)


def _dense_mask_file(bits, spacing) -> bytes:
    """The bytes of a mask file as the dense encoder gives them."""
    header, payload = encode_nifti(np.asarray(bits, dtype=np.uint8), spacing, 2)
    return header + bytes(payload)


@st.composite
def _masks(draw):
    dims = tuple(draw(st.lists(st.integers(1, 7), min_size=3, max_size=3)))
    kind = draw(st.sampled_from(["box", "empty", "full"]))
    bits = np.zeros(dims, dtype=bool, order=draw(st.sampled_from("CF")))
    if kind == "full":
        bits[...] = True
    elif kind == "box":
        box = []
        for n in dims:
            lo = draw(st.integers(0, n - 1))
            box.append(slice(lo, draw(st.integers(lo + 1, n))))
        seed = draw(st.integers(0, 2**32 - 1))
        inside = np.random.default_rng(seed).random(bits[tuple(box)].shape) < 0.5
        inside.flat[0] = inside.flat[-1] = True  # the box is the foreground's
        bits[tuple(box)] = inside
    return bits


class TestMaskHoles:
    """Masks are written as their foreground's span between holes."""

    @settings(max_examples=200, deadline=None)
    @given(bits=_masks())
    def test_file_equals_the_dense_encoding(self, tmp_path_factory, bits):
        path = tmp_path_factory.mktemp("holes") / "m.nii"
        write_mask(BinaryMask(bits, (4.0, 3.0, 2.5)), path)
        assert path.read_bytes() == _dense_mask_file(bits, (4.0, 3.0, 2.5))

    @pytest.mark.parametrize("dims", [(144, 144, 66), (3, 4, 5)])
    def test_empty_mask_is_a_header_and_one_hole(self, tmp_path, monkeypatch, dims):
        written = []

        def recording_writer(path, *chunks):
            written.append(chunks)
            write_bytes_atomic(path, *chunks)

        monkeypatch.setattr(nifti, "write_bytes_atomic", recording_writer)
        bits = np.zeros(dims, dtype=bool, order="F")
        write_mask(BinaryMask(bits, (4.0, 4.0, 4.0)), tmp_path / "m.nii")
        (chunks,) = written
        data = [c for c in chunks if not isinstance(c, (int, np.integer))]
        assert [len(c) for c in data] == [VOX_OFFSET, 0]
        assert sum(c for c in chunks if isinstance(c, (int, np.integer))) == bits.size
        assert (tmp_path / "m.nii").read_bytes() == _dense_mask_file(bits, (4.0, 4.0, 4.0))
