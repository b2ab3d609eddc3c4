"""Command-line entry point.

Subcommands: segment, quantify, compare, delta, qc, report, phantom,
loss-check. Exit codes: 0 success, 1 validation/usage error, 2 I/O or file
format error. Outputs are written atomically; ``--threads`` bounds
patient-level parallelism without changing any output byte (the default
comes from the PETQUANT_THREADS environment variable).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import cohort as cohort_mod
from .biomarkers import BiomarkerSet, delta as biomarker_delta
from .errors import InputDataError, ParameterError, PetQuantError
from .losses import LossParams, gradient_check
from .mask import BinaryMask
from .metrics import dice, hausdorff_mm, iou, sensitivity
from .nifti import read_mask, read_volume, write_mask, write_volume
from .phantom import LesionSpec, ResponseModel, generate, generate_cohort
from .qc import fixed_threshold
from .segment import postprocess, threshold_contrast_iterative, threshold_pct_suvmax
from .serialize import dumps_csv, dumps_json, write_text_atomic
from .volume import AcquisitionInfo


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _thread_count(raw: str) -> int:
    """--threads value, or PETQUANT_THREADS when the flag is absent: an integer >= 1."""
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise argparse.ArgumentTypeError(
            f"needs an integer >= 1 (the default comes from PETQUANT_THREADS), got {raw!r}"
        )
    return int(raw)


def _tolerance(raw: str) -> float:
    """--tolerance: a finite number > 0 (NaN would fail every check, <= 0 pass none)."""
    value = float(raw)
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"needs a finite number > 0, got {raw!r}")
    return value


def _emit(payload: dict | str, out: str | None) -> None:
    text = payload if isinstance(payload, str) else dumps_json(payload)
    if out:
        write_text_atomic(out, text)
    else:
        sys.stdout.write(text)


def _read_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:
        raise ParameterError(f"{path}: invalid JSON: {exc}") from exc


def _is(value, kind) -> bool:
    """A JSON value of Python type `kind`: float also takes an int, no number
    takes a bool, and (kind, n) is a list of n values of that kind."""
    if isinstance(kind, tuple):
        elem, n = kind
        return isinstance(value, list) and len(value) == n and all(_is(v, elem) for v in value)
    if isinstance(value, bool) and kind in (int, float):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def _fields(obj, where: str, types: dict, required=()) -> dict:
    """The keys of the JSON object `obj`, each checked with `_is` against its kind in `types`.

    Not an object, an unknown or missing key, or a value of the wrong kind
    raises ParameterError. Floats go through float() and (kind, n) lists
    become tuples, as the library has always been given them.
    """
    if not isinstance(obj, dict):
        raise ParameterError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - set(types))
    if unknown:
        raise ParameterError(f"{where}: unknown keys {unknown}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise ParameterError(f"{where}: missing keys {missing}")
    out = {}
    for key, value in obj.items():
        kind = types[key]
        if not _is(value, kind):
            name = getattr(kind, "__name__", None) or f"a list of {kind[1]} {kind[0].__name__}"
            raise ParameterError(f"{where}: {key!r} must be {name}, got {value!r}")
        if isinstance(kind, tuple):
            value = tuple(value)
        out[key] = float(value) if kind is float else value
    return out


def _parse_roi(spec: str | list, grid: np.ndarray) -> np.ndarray:
    """Half-open voxel box x0,y0,z0,x1,y1,z1 from a --roi string or a config
    list, as a boolean grid in `grid`'s shape and memory layout.

    Every axis must satisfy 0 <= lo < hi <= dim: no negative (wrapped) index,
    no clipping, no empty box.
    """
    dims = grid.shape
    parts = spec.split(",") if isinstance(spec, str) else spec
    try:
        # bools and floats are dropped here: int() would truncate them silently
        bounds = [int(v) for v in parts if not isinstance(v, (bool, float))]
    except (TypeError, ValueError):
        bounds = []
    if len(bounds) != 6 or len(bounds) != len(parts):
        raise ParameterError(f"roi needs 6 integers x0,y0,z0,x1,y1,z1, got {spec!r}")
    if not all(0 <= bounds[i] < bounds[i + 3] <= dims[i] for i in range(3)):
        raise ParameterError(f"roi {spec!r} needs 0 <= lo < hi <= dim on each axis of {dims}")
    x0, y0, z0, x1, y1, z1 = bounds
    box = np.zeros_like(grid, dtype=bool)
    box[x0:x1, y0:y1, z0:z1] = True
    return box


# config keys; the segment flags use the same names as their dest. _parse_roi
# checks the roi, and null means the whole volume.
_SEG_CONFIG = {
    **dict.fromkeys(("pct", "a", "b", "tol"), float),
    "max_iter": int,
    "method": str,
    "roi": object,
    "postprocess": bool,
}
_CONTRAST_KEYS = ("a", "b", "tol", "max_iter")  # passed only when set: the library has defaults


def _load_seg_config(args) -> dict:
    cfg = {"method": "pct_suvmax", "pct": 0.5, "roi": None, "postprocess": True}
    if args.config:
        cfg.update(_fields(_read_json(args.config), args.config, _SEG_CONFIG))
    # flags win over the config file
    cfg.update({k: v for k, v in vars(args).items() if k in _SEG_CONFIG and v is not None})
    if args.no_postprocess:
        cfg["postprocess"] = False
    if cfg["method"] not in ("pct_suvmax", "contrast"):
        raise ParameterError(f"method must be 'pct_suvmax' or 'contrast', got {cfg['method']!r}")
    return cfg


def _segment_file(vol_path, mask_path, cfg: dict) -> dict:
    """Segment one volume file into a mask file; returns the run's info."""
    vol = read_volume(vol_path)
    if cfg["roi"] is None:
        bits = np.ones_like(vol.values, dtype=bool)
    else:
        bits = _parse_roi(cfg["roi"], vol.values)
    bits.flags.writeable = False  # nothing else holds it, so BinaryMask need not copy
    roi = BinaryMask(bits, vol.spacing)
    info: dict = {"method": cfg["method"]}
    if cfg["method"] == "pct_suvmax":
        mask = threshold_pct_suvmax(vol, roi, cfg["pct"])
        info["pct"] = cfg["pct"]
    else:
        result = threshold_contrast_iterative(
            vol, roi, **{k: cfg[k] for k in _CONTRAST_KEYS if k in cfg}
        )
        mask = result.mask
        info.update(
            {
                "threshold": result.threshold,
                "converged": result.converged,
                "iterations": result.iterations,
            }
        )
    if cfg["postprocess"]:
        mask = postprocess(mask)
    write_mask(mask, mask_path)
    info["voxel_count"] = mask.voxel_count
    return info


def _cmd_segment(args) -> int:
    cfg = _load_seg_config(args)
    if args.manifest:
        if not args.out_dir:
            raise UsageError("segment: --manifest requires --out-dir")
        entries = cohort_mod.load_manifest(args.manifest)
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)

        def seg_one(entry):
            paths = {}
            for tag in ("bl", "fu"):
                vol_path = getattr(entry, f"{tag}_volume")
                mask_path = out / f"{entry.patient_id}_{tag}_pred.nii"
                _segment_file(vol_path, mask_path, cfg)
                paths[f"{tag}_volume"] = Path(os.path.relpath(vol_path, out))
                paths[f"{tag}_mask"] = Path(mask_path.name)
            return replace(entry, **paths)

        rows = cohort_mod.parallel_map(seg_one, entries, args.threads)
        manifest_path = out / "manifest.csv"
        cohort_mod.write_manifest(manifest_path, rows)
        _emit({"manifest": str(manifest_path), "patients": len(rows)}, None)
        return 0

    if not args.volume or not args.out:
        raise UsageError("segment: single mode needs VOLUME and --out")
    info = _segment_file(args.volume, args.out, cfg)
    info["mask"] = args.out
    _emit(info, None)
    return 0


def _cmd_quantify(args) -> int:
    if (args.dose is None) != (args.weight is None):
        raise UsageError("quantify: --dose and --weight must be given together")
    acq = None if args.dose is None else AcquisitionInfo(args.dose, args.weight)
    bio = cohort_mod.extract_file(args.volume, read_mask(args.mask), acq)
    payload = {"patient_id": args.patient_id, "timepoint": args.timepoint, **asdict(bio)}
    _emit(payload, args.out)
    return 0


_METRICS = ("dsc", "iou", "sensitivity", "hd_mm")


def _compare_pair(a: BinaryMask, b: BinaryMask) -> dict:
    """Agreement of a ground-truth and a predicted mask: the `_METRICS`, None
    where undefined, plus the warnings saying why."""
    flags = []
    payload: dict = {"dsc": dice(a, b), "iou": iou(a, b), "sensitivity": None, "hd_mm": None}
    if a.is_empty and b.is_empty:
        flags.append("both masks empty: overlap metrics defined as 1")
    if a.is_empty:
        flags.append("ground-truth mask empty: sensitivity undefined")
    else:
        payload["sensitivity"] = sensitivity(a, b)
    if a.is_empty or b.is_empty:
        flags.append("empty mask: Hausdorff distance undefined")
    else:
        payload["hd_mm"] = hausdorff_mm(a, b)
    payload["warnings"] = flags
    return payload


def _cmd_compare(args) -> int:
    if args.batch:
        base = Path(args.batch).parent
        rows = []
        for _, row in cohort_mod.read_table(args.batch, ("pair_id", "path_a", "path_b")):
            m = _compare_pair(read_mask(base / row["path_a"]), read_mask(base / row["path_b"]))
            rows.append([row["pair_id"], *(m[k] for k in _METRICS)])
        _emit(dumps_csv(["pair_id", *_METRICS], rows), args.out)
        return 0

    if not args.gt or not args.pred:
        raise UsageError("compare: needs GT and PRED mask paths")
    _emit(_compare_pair(read_mask(args.gt), read_mask(args.pred)), args.out)
    return 0


# a `quantify` output: the first five keys are the BiomarkerSet fields
_BIOMARKER_JSON = {
    **dict.fromkeys(("suv_max", "suv_mean", "mtv_cm3", "tlg"), float),
    "voxel_count": int,
    **dict.fromkeys(("patient_id", "timepoint"), str),
    "warnings": list,
}


def _read_biomarker_json(path: str) -> BiomarkerSet:
    fields = list(_BIOMARKER_JSON)[:5]
    data = _fields(_read_json(path), path, _BIOMARKER_JSON, required=fields)
    return BiomarkerSet(*(data[k] for k in fields))


def _cmd_delta(args) -> int:
    bl = _read_biomarker_json(args.baseline)
    fu = _read_biomarker_json(args.followup)
    _emit(asdict(biomarker_delta(bl, fu)), args.out)
    return 0


def _cmd_qc(args) -> int:
    if args.select_extreme < 0:  # before anything is read or written
        raise UsageError(f"qc: --select-extreme must be >= 0, got {args.select_extreme}")
    entries = cohort_mod.load_manifest(args.manifest)
    summary = cohort_mod.run_qc(
        entries,
        args.out_dir,
        threshold=None if args.threshold is None else fixed_threshold(args.threshold),
        select_extreme=args.select_extreme,
        threads=args.threads,
    )
    _emit(summary, None)
    return 0


def _cmd_report(args) -> int:
    entries = cohort_mod.load_manifest(args.manifest)
    threshold = None if args.threshold is None else fixed_threshold(args.threshold)
    stats = cohort_mod.run_report(entries, args.out_dir, threshold=threshold, threads=args.threads)
    _emit(stats, None)
    return 0


_RESPONSE_KEYS = ("ratio_mean", "ratio_sd", "outlier_fraction", "outlier_ratio_min")
_PHANTOM_SPEC = {
    **dict.fromkeys(("peak_suv", "background_suv", "noise_sd"), float),
    "seed": int,
    "dims": (int, 3),
    "spacing_mm": (float, 3),
}
_COHORT_SPEC = {
    **_PHANTOM_SPEC,
    **dict.fromkeys((*_RESPONSE_KEYS, "baseline_radius_mm"), float),
    "n": int,
}
_LESION_SPEC = {**_PHANTOM_SPEC, "center": (float, 3), "radius_mm": float, "profile": str}


def _grid(spec: dict) -> dict:
    """Pop a phantom spec's dims / spacing_mm as generate()'s grid arguments."""
    names = (("dims", "dims"), ("spacing_mm", "spacing"))
    return {arg: spec.pop(key) for key, arg in names if key in spec}


@contextmanager
def _naming(path: str):
    """Prefix the library's validation errors about a spec with its file."""
    try:
        yield
    except ParameterError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _cmd_phantom(args) -> int:
    spec = _fields(_read_json(args.spec), args.spec, {"cohort": dict, "lesion": dict})
    if len(spec) != 1:
        raise ParameterError(f"{args.spec}: spec must contain one 'cohort' or 'lesion' object")
    out = Path(args.out)
    if "cohort" in spec:
        c = _fields(spec["cohort"], f"{args.spec}: cohort", _COHORT_SPEC, ("n", "ratio_mean"))
        grid = _grid(c)
        seed = c.pop("seed", 0)  # generate_cohort has no default seed
        with _naming(args.spec):
            response = ResponseModel(**{k: c.pop(k) for k in _RESPONSE_KEYS if k in c})
            manifest = generate_cohort(
                response=response, seed=seed, out_dir=out, threads=args.threads, **grid, **c
            )
        _emit({"manifest": str(manifest)}, None)
        return 0
    les = _fields(
        spec["lesion"], f"{args.spec}: lesion", _LESION_SPEC, ("center", "radius_mm", "peak_suv")
    )
    grid = _grid(les)
    with _naming(args.spec):
        vol, mask, bio = generate(LesionSpec(**les), **grid)
    out.mkdir(parents=True, exist_ok=True)
    write_volume(vol, out / "volume.nii")
    write_mask(mask, out / "mask.nii")
    write_text_atomic(out / "ground_truth.json", dumps_json(asdict(bio)))
    _emit({"out": str(out), **asdict(bio)}, None)
    return 0


_LOSS_PARAMS = ("alpha", "beta", "gamma", "ftl_weight")


def _cmd_loss_check(args) -> int:
    def given(keys) -> dict:  # flags left out take the library's defaults
        return {k: getattr(args, k) for k in keys if getattr(args, k) is not None}

    check = given(("trials", "seed"))
    if args.shape is not None:
        check["shape"] = (args.shape,) * 3
    report = gradient_check(params=LossParams(**given(_LOSS_PARAMS)), **check)
    report["passed"] = report["max_relative_error"] < args.tolerance
    report["tolerance"] = args.tolerance
    _emit(report, args.out)
    return 0 if report["passed"] else 1


def build_parser() -> _Parser:
    parser = _Parser(prog="petquant", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--threads",
        type=_thread_count,
        default=os.environ.get("PETQUANT_THREADS") or "1",  # converted by _thread_count
        help="patient-level parallelism (identical output for any value)",
    )
    common.add_argument(
        "--json-errors", action="store_true", help="machine-readable errors on stderr"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("segment", parents=[common], help="classical lesion segmentation")
    p.add_argument("volume", nargs="?", help="input volume (.nii or .json sidecar)")
    p.add_argument("--out", help="output mask path (single mode)")
    p.add_argument("--manifest", help="cohort manifest CSV (batch mode)")
    p.add_argument("--out-dir", help="output directory (batch mode)")
    p.add_argument("--config", help="segmentation config JSON")
    p.add_argument("--method", choices=["pct_suvmax", "contrast"])
    p.add_argument("--pct", type=float, help="fraction of ROI max (pct_suvmax)")
    p.add_argument("--contrast-a", type=float, dest="a")
    p.add_argument("--contrast-b", type=float, dest="b")
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iter", type=int, dest="max_iter")
    p.add_argument("--roi", help="x0,y0,z0,x1,y1,z1 half-open voxel box")
    p.add_argument("--no-postprocess", action="store_true")
    p.set_defaults(func=_cmd_segment)

    p = sub.add_parser("quantify", parents=[common], help="extract SUVmax/SUVmean/MTV/TLG")
    p.add_argument("volume")
    p.add_argument("mask")
    p.add_argument("--dose", type=float, help="injected dose in MBq (input is kBq/mL)")
    p.add_argument("--weight", type=float, help="body weight in kg")
    p.add_argument("--patient-id", default="", dest="patient_id")
    p.add_argument("--timepoint", default="", choices=["", "baseline", "followup"])
    p.add_argument("--out")
    p.set_defaults(func=_cmd_quantify)

    p = sub.add_parser("compare", parents=[common], help="mask agreement metrics")
    p.add_argument("gt", nargs="?")
    p.add_argument("pred", nargs="?")
    p.add_argument("--batch", help="CSV with pair_id,path_a,path_b")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("delta", parents=[common], help="longitudinal biomarker changes")
    p.add_argument("baseline", help="baseline biomarker JSON (from quantify)")
    p.add_argument("followup", help="follow-up biomarker JSON")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_delta)

    p = sub.add_parser("qc", parents=[common], help="two-step cohort quality control")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", required=True)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--derive-threshold", action="store_true", dest="derive_threshold",
                   help="derive the ratio threshold from this cohort (default)")
    g.add_argument("--threshold", type=float, help="fixed ratio threshold")
    p.add_argument("--select-extreme", type=int, default=0, dest="select_extreme",
                   help="export the K most extreme outliers for annotation")
    p.set_defaults(func=_cmd_qc)

    p = sub.add_parser("report", parents=[common], help="cohort tables, box plots, statistics")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--threshold", type=float)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("phantom", parents=[common], help="synthetic ground-truth data")
    p.add_argument("--spec", required=True, help="phantom spec JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_phantom)

    p = sub.add_parser("loss-check", parents=[common], help="analytic-vs-numeric gradient check")
    p.add_argument("--trials", type=int)
    p.add_argument("--shape", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--tolerance", type=_tolerance, default=1e-5)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--ftl-weight", type=float, dest="ftl_weight")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_loss_check)

    return parser


# first match wins: InputDataError is also a PetQuantError
_FAILURES = (
    (UsageError, "usage error", 1),
    (InputDataError, "input error", 2),
    (OSError, "io error", 2),
    (PetQuantError, "validation error", 1),
)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = None
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (UsageError, OSError, PetQuantError) as exc:
        kind, code = next((k, c) for t, k, c in _FAILURES if isinstance(exc, t))
        # a usage error can stop parsing before --json-errors is read
        json_errors = "--json-errors" in argv if args is None else args.json_errors
        if json_errors:
            line = json.dumps({"error": kind, "type": type(exc).__name__, "message": str(exc)})
            print(line, file=sys.stderr)
        else:
            print(exc if kind == "usage error" else f"petquant: {kind}: {exc}", file=sys.stderr)
        return code


def main_entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    main_entry()
