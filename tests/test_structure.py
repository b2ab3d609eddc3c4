"""Guards against duplicate implementations growing back in src/petquant.

The package keeps one thread map (`cohort.parallel_map`), one atomic writer
(`serialize.write_bytes_atomic`), one manifest column list
(`cohort.MANIFEST_COLUMNS`), one CSV table reader (`cohort.read_table`), one
SUV scale formula (`volume.AcquisitionInfo.suv_scale`), one JSON decoder in
the CLI (`cli._read_json`), one voxel-volume formula
(`volume.voxel_volume_cm3`), one volume-file suffix dispatch
(`nifti._format`), one NIfTI header encoder and one foreground bounding box
(`mask.bounding_box`); new call sites use those instead of copies.

Grids keep one memory layout from file to report: the read path makes no
C-order copy, and full-grid arrays made next to a grid take its layout.

Report columns are named once: a CSV's header is its row dicts' keys, and no
`as_dict` restates a dataclass's fields, which `dataclasses.asdict` gives.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "petquant"


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


def test_one_thread_pool():
    assert len(_calls("ThreadPoolExecutor")) == 1, _calls("ThreadPoolExecutor")


def test_one_atomic_rename():
    assert len(_calls("os.replace")) == 1, _calls("os.replace")


def test_one_manifest_column_list():
    hits = [
        where
        for where, node in _nodes()
        if isinstance(node, (ast.List, ast.Tuple))
        and all(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts)
        and {"bl_mask", "fu_mask"} <= {e.value for e in node.elts}
    ]
    assert len(hits) == 1, hits


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
        if isinstance(fn, ast.FunctionDef)
        and fn.name == "as_dict"
        and [
            key.value
            for d in ast.walk(fn)
            if isinstance(d, ast.Dict)
            for key in d.keys
            if isinstance(key, ast.Constant)
        ]
        == _fields(node)
    ]
    assert hits == [], hits
