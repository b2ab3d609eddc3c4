"""Guards against duplicate implementations growing back in src/petquant.

The package keeps one thread map (`cohort.parallel_map`), one atomic writer
(`serialize.write_bytes_atomic`), one manifest schema (`cohort.CohortEntry`,
whose fields `cohort.MANIFEST_COLUMNS` lists), one CSV table reader
(`cohort.read_table`), one MTV ratio (`biomarkers.delta`), one SUV scale
formula (`volume.AcquisitionInfo.suv_scale`), one JSON decoder in the CLI
(`cli._read_json`), one voxel-volume formula (`volume.voxel_volume_cm3`), one
volume-file suffix dispatch (`nifti._format`), one NIfTI header encoder, one
foreground bounding box (`mask.bounding_box`) and one pipeline volume reader
(`nifti.read_stored`, which `read_mask`, `read_volume` and
`cohort.extract_file` go through; only it calls `nifti._decode`) and one cohort
writer (`cohort.run_cohort`, the only caller of `analyse_cohort` and
`_write_files`, for both `qc` and `report`) and one pair-quadrant rule
(`qc.pair_quadrants`, the only caller of `regrid_nearest`) and one per-pair
QC path (`qc.pair_quadrants` in `cohort._quantify_one`, then `qc.build_record`
in `cohort.analyse_cohort`) and one volume module (`volume.py` defines both
`Volume3D` and `StoredVolume`, so no module imports either under
`TYPE_CHECKING`) and one NIfTI write path (`nifti._write`, the only caller of
`encode_nifti` in `nifti.py`); new call sites use those instead of copies.

The package's public names are its imports: `petquant.__all__` is derived
from them, not restated.

The benchmark's traced run wraps functions by name (`perfbench/replay.py`'s
`LAYERS`), so each name it lists must exist.

Grids keep one memory layout from file to report: the read path makes no
C-order copy, and full-grid arrays made next to a grid take its layout.
Segmentation reads each volume as stored and never calls `read_volume`,
which widens the whole grid to float64.

Each crop rule lives in the one module that needs it: `segment.segment_stored`
owns the ROI box, its background-shell reach and the paste back, so the CLI
imports none of them, and `biomarkers.extract` widens the mask's box itself,
so `cohort.extract_file` neither widens nor checks geometry.

Every file is written by `serialize.write_bytes_atomic`, holes included: no
other function opens a file for writing, truncates one or maps one writable,
and the writer takes no flag. Files are only ever read through a map or a
read-mode `open`.

Report columns are named once: a CSV's header is its row dicts' keys, and no
class defines an `as_dict`: `dataclasses.asdict` gives a dataclass's fields.

A scalar parameter's range is checked by `errors.check_real`, which also
refuses NaN and infinity; no module writes its own comparison and message.
"""

import ast
import importlib
import types
from dataclasses import fields
from pathlib import Path

import petquant
from petquant import cohort

SRC = Path(__file__).resolve().parents[1] / "src" / "petquant"
REPLAY = Path(__file__).resolve().parents[1] / "perfbench" / "replay.py"


def _nodes(files: str = "*.py"):
    for path in sorted(SRC.glob(files)):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield f"{path.name}:{getattr(node, 'lineno', 0)}", node


def _calls(dotted: str, files: str = "*.py") -> list[str]:
    return [
        where
        for where, node in _nodes(files)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == dotted
    ]


def _callers(name: str) -> list[str]:
    """file:function of each function that calls `name`, through any alias."""
    return [
        where.split(":")[0] + ":" + node.name
        for where, node in _nodes()
        if isinstance(node, ast.FunctionDef)
        and any(
            isinstance(n, ast.Call) and ast.unparse(n.func).split(".")[-1] == name
            for n in ast.walk(node)
        )
    ]


def _function(file: str, name: str) -> ast.FunctionDef:
    tree = ast.parse((SRC / file).read_text())
    return next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == name)


def test_one_thread_pool():
    assert len(_calls("ThreadPoolExecutor")) == 1, _calls("ThreadPoolExecutor")


def test_one_atomic_rename():
    assert len(_calls("os.replace")) == 1, _calls("os.replace")


def test_one_manifest_column_list():
    # the columns are CohortEntry's fields; no string list restates them
    hits = [
        where
        for where, node in _nodes()
        if isinstance(node, (ast.List, ast.Tuple))
        and all(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts)
        and {"bl_mask", "fu_mask"} <= {e.value for e in node.elts}
    ]
    assert hits == [], hits
    assert cohort.MANIFEST_COLUMNS == [f.name for f in fields(cohort.CohortEntry)]


def test_one_mtv_ratio():
    # QC reads DeltaSet.mtv_ratio; only biomarkers.delta divides one MTV by another
    hits = [
        where
        for where, node in _nodes()
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Div)
        and ast.unparse(node.left).endswith("mtv_cm3")
        and ast.unparse(node.right).endswith("mtv_cm3")
    ]
    assert len(hits) == 1 and hits[0].startswith("biomarkers.py:"), hits


def test_one_csv_reader():
    # any alias counts: the CLI once read its batch file with `_csv.DictReader`
    hits = [
        where
        for where, node in _nodes()
        if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("DictReader")
    ]
    assert len(hits) == 1, hits


def test_one_suv_conversion_outside_volume():
    # one `weight / dose` SUV scale formula, `AcquisitionInfo.suv_scale`
    formulas = [
        where
        for where, node in _nodes()
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Div)
        and "weight" in ast.unparse(node.left)
        and "dose" in ast.unparse(node.right)
    ]
    assert len(formulas) == 1 and formulas[0].startswith("volume.py:"), formulas
    # outside volume.py only `extract` applies it, to the masked voxels; no
    # whole-grid `to_suv` on the quantify path
    uses = {
        where.split(":")[0]
        for where, node in _nodes()
        if isinstance(node, ast.Attribute) and node.attr == "suv_scale"
    }
    assert uses == {"volume.py", "biomarkers.py"}, uses
    assert _calls("to_suv") == [], _calls("to_suv")


def test_one_json_decoder_in_cli():
    assert len(_calls("json.loads", "cli.py")) == 1, _calls("json.loads", "cli.py")


def test_one_unsupported_extension_message():
    counts = {p.name: p.read_text().count("unsupported volume extension") for p in SRC.glob("*.py")}
    assert sum(counts.values()) == 1, counts


def test_one_nifti_header_encoder():
    assert len(_calls("_nifti_header")) == 1, _calls("_nifti_header")


def test_no_private_nifti_imports():
    hits = [
        where
        for where, node in _nodes()
        if isinstance(node, ast.ImportFrom)
        and node.module == "nifti"
        and any(alias.name.startswith("_") for alias in node.names)
    ]
    assert hits == [], hits


def test_suffix_read_in_one_function():
    # reading and writing both dispatch on nifti._format's answer
    owners = {
        where.split(":")[0] + ":" + node.name
        for where, node in _nodes()
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(n, ast.Attribute) and n.attr == "suffix" for n in ast.walk(node))
    }
    assert owners == {"nifti.py:_format"}, owners


def test_one_voxel_volume_formula():
    hits = [
        where
        for where, node in _nodes()
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Div)
        and isinstance(node.right, ast.Constant)
        and node.right.value == 1000.0
    ]
    assert len(hits) == 1, hits



def _is_axis_any(node) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "any"
        and any(k.arg == "axis" for k in node.keywords)
    )


def test_one_bounding_box_routine():
    defs = [w for w, node in _nodes() if isinstance(node, ast.FunctionDef) and node.name == "bounding_box"]
    assert len(defs) == 1 and defs[0].startswith("mask.py:"), defs
    # a per-axis `.any(axis=...)` reduction is how a box is found
    owners = {
        where.split(":")[0] + ":" + node.name
        for where, node in _nodes()
        if isinstance(node, ast.FunctionDef) and any(_is_axis_any(n) for n in ast.walk(node))
    }
    assert owners == {"mask.py:bounding_box"}, owners
    everywhere = [w for w, node in _nodes() if _is_axis_any(node)]
    assert len(everywhere) == 1, everywhere
    # a mask's box is found once and kept: BinaryMask.box is the only caller,
    # and overlap_counts takes the hull of two masks' boxes
    callers = _callers("bounding_box")
    assert callers == ["mask.py:box"], callers


def test_one_pair_quadrant_rule():
    # quadrants are compared on the baseline grid; the cohort pass once
    # restated that rule by regridding the baseline mask onto its own dims
    assert _callers("regrid_nearest") == ["qc.py:pair_quadrants"], _callers("regrid_nearest")
    hits = [c for c in _callers("centroid") if c.startswith("cohort.py:")]
    assert hits == [], hits


def test_public_names_are_the_imports():
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = sorted(
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    )
    assert petquant.__all__ == imported
    namespace: dict = {}
    exec("from petquant import *", namespace)
    bound = set(namespace) - {"__builtins__"}
    assert bound == set(imported)
    assert not any(isinstance(namespace[k], types.ModuleType) for k in bound)


def test_read_path_keeps_the_file_layout():
    # the NIfTI payload is x-fastest: no C-order copy on the way in
    hits = [
        where
        for name in ("nifti.py", "volume.py")
        for where, node in _nodes(name)
        if (isinstance(node, ast.Attribute) and node.attr == "ascontiguousarray")
        or (
            isinstance(node, ast.keyword)
            and node.arg == "order"
            and isinstance(node.value, ast.Constant)
            and node.value.value == "C"
        )
    ]
    assert hits == [], hits


def test_full_grids_take_their_grids_layout():
    # np.zeros(dims) next to an F-order grid would make every mixed op a transpose
    hits = [
        where
        for name in ("cli.py", "cohort.py", "mask.py", "segment.py")
        for where, node in _nodes(name)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func) in ("np.zeros", "np.ones", "np.empty", "np.full")
        and node.args
        and any(key in ast.unparse(node.args[0]) for key in ("dims", "shape"))
    ]
    assert hits == [], hits


def _fields(cls: ast.ClassDef) -> list[str]:
    return [s.target.id for s in cls.body if isinstance(s, ast.AnnAssign)]


def _is_string_list(node) -> bool:
    return (
        isinstance(node, (ast.List, ast.Tuple))
        and len(node.elts) > 1
        and all(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts)
    )


def test_report_columns_named_once():
    # a report CSV's header is its row dicts' keys: one csv writer, `_write_table`,
    # and no header literal; a string tuple may only list fields read with getattr
    assert len(_calls("dumps_csv", "cohort.py")) == 1, _calls("dumps_csv", "cohort.py")
    fields = {
        name
        for _, node in _nodes("biomarkers.py")
        if isinstance(node, ast.ClassDef)
        for name in _fields(node)
    }
    tree = ast.parse((SRC / "cohort.py").read_text())
    manifest = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "MANIFEST_COLUMNS"
    ]
    hits = [
        node.lineno
        for node in ast.walk(tree)
        if _is_string_list(node)
        and node not in manifest
        and not {e.value for e in node.elts} <= fields
    ]
    assert len(manifest) == 1 and hits == [], hits


def test_no_as_dict_restating_fields():
    # dataclasses.asdict already gives a dataclass's fields in order
    hits = [
        where
        for where, node in _nodes()
        if isinstance(node, ast.ClassDef)
        for fn in node.body
        if isinstance(fn, ast.FunctionDef) and fn.name == "as_dict"
    ]
    assert hits == [], hits


def test_one_range_check():
    # a hand-written `x < 0` lets NaN through and a bare `x > 0` lets infinity through
    phrases = ("must be >", "must be <", "must exceed")
    messages = [
        where
        for where, node in _nodes()
        if where.split(":")[0] not in ("errors.py", "cli.py")
        and isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and any(phrase in node.value for phrase in phrases)
    ]
    assert messages == [], messages
    # any reference counts, not only a call: `map(math.isfinite, ...)` is one too
    finite = {
        where.split(":")[0]
        for where, node in _nodes()
        if isinstance(node, ast.Attribute) and ast.unparse(node) == "math.isfinite"
    }
    assert finite <= {"errors.py", "volume.py"}, finite


def test_one_volume_reader():
    # read_mask and cohort.extract_file decode through read_stored, not a fork of it
    callers = sorted(
        node.name
        for _, node in _nodes("nifti.py")
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(n, ast.Call) and ast.unparse(n.func) == "_decode" for n in ast.walk(node))
    )
    assert callers == ["read_stored"], callers
    assert len(_calls("_decode")) == 1, _calls("_decode")
    names = {"read_volume_box"}
    hits = [
        where
        for where, node in _nodes()
        if {getattr(node, "name", None), getattr(node, "id", None), getattr(node, "attr", None)} & names
    ]
    assert hits == [], hits


def test_one_cohort_writer():
    # qc and report once had a writer each, run_qc and run_report, over the same
    # analysis; a call through a module alias (`cohort_mod.analyse_cohort`) counts
    def calls(node, name: str) -> bool:
        return isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == name

    for name in ("analyse_cohort", "_write_files"):
        callers = _callers(name)
        assert callers == ["cohort.py:run_cohort"], (name, callers)
        assert len([w for w, node in _nodes() if calls(node, name)]) == 1, name
    texts = {p.name: p.read_text() for p in SRC.glob("*.py")}
    hits = [f for f, text in texts.items() if "run_qc" in text or "run_report" in text]
    assert hits == [], hits


def test_benchmark_layers_exist():
    # the traced benchmark run looks each layer up by name: a renamed or deleted
    # function would stop it with an AttributeError. replay.py is parsed, not imported
    tree = ast.parse(REPLAY.read_text(), str(REPLAY))
    (layers,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "LAYERS"
    ]
    missing = []
    for key, spec in zip(layers.keys, layers.values):
        module, attr = ast.unparse(spec.elts[0]), ast.literal_eval(spec.elts[1])
        if not hasattr(importlib.import_module(f"petquant.{module}"), attr):
            missing.append(ast.literal_eval(key))
    assert layers.keys
    assert missing == [], missing


def test_segment_reads_volumes_as_stored():
    # read_volume widens a whole grid to float64; segment reads the stored grid
    # (nifti.read_stored) and widens at most an roi's box
    fn = _function("cli.py", "_segment_file")
    names = {ast.unparse(n) for n in ast.walk(fn) if isinstance(n, (ast.Name, ast.Attribute))}
    assert "read_stored" in names
    assert not any(name.split(".")[-1] == "read_volume" for name in names), names


def test_each_crop_rule_in_the_module_that_needs_it():
    # the CLI once restated segment's box reach and threshold dispatch, and
    # extract_file re-cropped the volume and mask that extract already crops
    imported = {
        alias.name
        for _, node in _nodes("cli.py")
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    segment_rules = {
        "BACKGROUND_SHELL_GAP",
        "grow_box",
        "paste",
        "threshold_pct_suvmax",
        "threshold_contrast_iterative",
        "postprocess",
    }
    assert imported & segment_rules == set(), imported & segment_rules
    box_rules = {"BACKGROUND_SHELL_GAP", "grow_box", "paste"}
    users = {
        where.split(":")[0]
        for where, node in _nodes()
        if {getattr(node, key, None) for key in ("id", "attr", "name")} & box_rules
    }
    assert users == {"mask.py", "segment.py"}, users
    fn = _function("cohort.py", "extract_file")
    calls = {ast.unparse(n.func).split(".")[-1] for n in ast.walk(fn) if isinstance(n, ast.Call)}
    assert calls & {"widen", "require_same_geometry"} == set(), calls
    # _segment_file reads, makes one segment_stored call and writes
    fn = _function("cli.py", "_segment_file")
    calls = [ast.unparse(n.func) for n in ast.walk(fn) if isinstance(n, ast.Call)]
    assert sorted(calls) == ["_roi_box", "read_stored", "segment_stored", "write_mask"], calls


# besides an `open` for writing: the calls that write or resize a file by name or descriptor
_WRITE_CALLS = {"tofile", "write_bytes", "write_text", "truncate", "ftruncate", "pwrite", "sendfile"}


def _writes_files(fn: ast.FunctionDef) -> bool:
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        name = ast.unparse(node.func)
        if name == "open":
            modes = [k.value for k in node.keywords if k.arg == "mode"] + node.args[1:2]
            if any(not isinstance(m, ast.Constant) or set(m.value) & set("wxa+") for m in modes):
                return True
        elif name.split(".")[-1] in _WRITE_CALLS:
            return True
        elif name.split(".")[-1] == "mmap":
            access = [k.value for k in node.keywords if k.arg == "access"]
            if [ast.unparse(a) for a in access] != ["mmap.ACCESS_READ"]:
                return True
    return False


def test_one_file_writer():
    # write_mask's holes, the phantom's background slices and the annotation
    # export all go through the one atomic writer, not a sparse-file fork of it
    owners = [
        where.split(":")[0] + ":" + node.name
        for where, node in _nodes()
        if isinstance(node, ast.FunctionDef) and _writes_files(node)
    ]
    assert owners == ["serialize.py:write_bytes_atomic"], owners
    (writer,) = [n for _, n in _nodes("serialize.py") if getattr(n, "name", "") == "write_bytes_atomic"]
    args = writer.args
    assert [a.arg for a in args.args] == ["path"] and args.vararg.arg == "chunks", ast.unparse(args)
    assert not (args.kwonlyargs or args.defaults or args.kwarg), ast.unparse(args)
    for fn in ("write_mask", "generate_cohort", "export_annotation_batch"):
        (node,) = [n for _, n in _nodes() if isinstance(n, ast.FunctionDef) and n.name == fn]
        calls = {ast.unparse(c.func) for c in ast.walk(node) if isinstance(c, ast.Call)}
        assert calls & {"write_bytes_atomic", "_write", "write_mask", "write_volume"}, (fn, calls)


def test_no_environment_switches():
    # the only environment variable is PETQUANT_THREADS, the --threads default
    hits = [
        (where, ast.unparse(node))
        for where, node in _nodes()
        if isinstance(node, ast.Attribute) and ast.unparse(node) in ("os.environ", "os.getenv")
    ]
    assert [w.split(":")[0] for w, _ in hits] == ["cli.py"], hits
    assert "PETQUANT_THREADS" in (SRC / "cli.py").read_text()


def test_one_per_pair_qc_path():
    # check_pair once restated, for tests only, what the cohort pass does per pair
    assert _callers("build_record") == ["cohort.py:analyse_cohort"], _callers("build_record")
    assert _callers("pair_quadrants") == ["cohort.py:_quantify_one"], _callers("pair_quadrants")
    hits = [p.name for p in SRC.glob("*.py") if "check_pair" in p.read_text()]
    assert hits == [], hits


def test_one_volume_module():
    # StoredVolume once lived in nifti.py, so segment and biomarkers could only
    # name it under TYPE_CHECKING
    classes = {
        node.name: where.split(":")[0]
        for where, node in _nodes()
        if isinstance(node, ast.ClassDef) and node.name in ("Volume3D", "StoredVolume")
    }
    assert classes == {"Volume3D": "volume.py", "StoredVolume": "volume.py"}, classes
    hits = [p.name for p in SRC.glob("*.py") if "TYPE_CHECKING" in p.read_text()]
    assert hits == [], hits


def test_one_nifti_write_path():
    # write_mask once encoded and wrote its own NIfTI beside _write
    callers = [c for c in _callers("encode_nifti") if c.startswith("nifti.py:")]
    assert callers == ["nifti.py:_write"], callers
