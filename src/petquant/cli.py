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
from pathlib import Path

import numpy as np

from . import cohort as cohort_mod
from .biomarkers import BiomarkerSet, delta as biomarker_delta, extract
from .errors import InputDataError, ParameterError, PetQuantError
from .losses import LossParams, gradient_check
from .mask import BinaryMask
from .metrics import dice, hausdorff_mm, iou, sensitivity
from .nifti import read_mask, read_volume, write_mask, write_volume
from .phantom import (
    DEFAULT_DIMS,
    DEFAULT_SPACING,
    LesionSpec,
    ResponseModel,
    generate,
    generate_cohort,
)
from .qc import QcThreshold, fixed_threshold
from .segment import postprocess, threshold_contrast_iterative, threshold_pct_suvmax
from .serialize import dumps_csv, dumps_json, write_text_atomic
from .volume import AcquisitionInfo, IntensityUnit, to_suv


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _default_threads() -> int:
    raw = os.environ.get("PETQUANT_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _emit(payload: dict, out: str | None) -> None:
    text = dumps_json(payload)
    if out:
        write_text_atomic(out, text)
    else:
        sys.stdout.write(text)


def _parse_roi(spec: str | list, dims: tuple[int, int, int]) -> np.ndarray:
    """Half-open voxel box x0,y0,z0,x1,y1,z1 from a --roi string or a config list.

    Every axis must satisfy 0 <= lo < hi <= dim: no negative (wrapped) index,
    no clipping, no empty box.
    """
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
    box = np.zeros(dims, dtype=bool)
    box[x0:x1, y0:y1, z0:z1] = True
    return box


def _load_seg_config(args) -> dict:
    cfg = {
        "method": "pct_suvmax",
        "pct": 0.5,
        "a": 0.39,
        "b": 1.0,
        "tol": 1e-4,
        "max_iter": 100,
        "roi": None,
        "postprocess": True,
    }
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except json.JSONDecodeError as exc:
            raise ParameterError(f"{args.config}: invalid JSON: {exc}") from exc
        unknown = set(loaded) - set(cfg)
        if unknown:
            raise ParameterError(f"{args.config}: unknown keys {sorted(unknown)}")
        cfg.update(loaded)
    # flags win over the config file
    for key, flag in (
        ("method", args.method),
        ("pct", args.pct),
        ("a", args.contrast_a),
        ("b", args.contrast_b),
        ("tol", args.tol),
        ("max_iter", args.max_iter),
        ("roi", args.roi),
    ):
        if flag is not None:
            cfg[key] = flag
    if args.no_postprocess:
        cfg["postprocess"] = False
    if cfg["method"] not in ("pct_suvmax", "contrast"):
        raise ParameterError(f"method must be 'pct_suvmax' or 'contrast', got {cfg['method']!r}")
    return cfg


def _segment_volume(vol, cfg: dict) -> tuple[BinaryMask, dict]:
    if cfg["roi"] is None:
        roi = BinaryMask(np.ones(vol.dims, dtype=bool), vol.spacing)
    else:
        roi = BinaryMask(_parse_roi(cfg["roi"], vol.dims), vol.spacing)
    info: dict = {"method": cfg["method"]}
    if cfg["method"] == "pct_suvmax":
        mask = threshold_pct_suvmax(vol, roi, float(cfg["pct"]))
        info["pct"] = float(cfg["pct"])
    else:
        result = threshold_contrast_iterative(
            vol,
            roi,
            a=float(cfg["a"]),
            b=float(cfg["b"]),
            tol=float(cfg["tol"]),
            max_iter=int(cfg["max_iter"]),
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
    info["voxel_count"] = mask.voxel_count
    return mask, info


def _cmd_segment(args) -> int:
    cfg = _load_seg_config(args)
    if args.manifest:
        if not args.out_dir:
            raise UsageError("segment: --manifest requires --out-dir")
        entries = cohort_mod.load_manifest(args.manifest)
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)

        def seg_one(entry):
            row = [entry.patient_id]
            for tag, vol_path in (("bl", entry.bl_volume), ("fu", entry.fu_volume)):
                vol = read_volume(vol_path)
                mask, _ = _segment_volume(vol, cfg)
                mask_path = out / f"{entry.patient_id}_{tag}_pred.nii"
                write_mask(mask, mask_path)
                row.extend([os.path.relpath(vol_path, out), mask_path.name])
            row.append("" if entry.dose_MBq is None else entry.dose_MBq)
            row.append("" if entry.weight_kg is None else entry.weight_kg)
            return row

        rows = cohort_mod.parallel_map(seg_one, entries, args.threads)
        manifest_path = out / "manifest.csv"
        write_text_atomic(manifest_path, dumps_csv(cohort_mod.MANIFEST_COLUMNS, rows))
        _emit({"manifest": str(manifest_path), "patients": len(rows)}, None)
        return 0

    if not args.volume or not args.out:
        raise UsageError("segment: single mode needs VOLUME and --out")
    vol = read_volume(args.volume)
    mask, info = _segment_volume(vol, cfg)
    write_mask(mask, args.out)
    info["mask"] = args.out
    _emit(info, None)
    return 0


def _cmd_quantify(args) -> int:
    if (args.dose is None) != (args.weight is None):
        raise UsageError("quantify: --dose and --weight must be given together")
    vol = read_volume(args.volume)
    if args.dose is not None:
        vol = to_suv(
            vol.with_unit(IntensityUnit.ACTIVITY_KBQ_PER_ML),
            AcquisitionInfo(args.dose, args.weight),
        )
    else:
        vol = vol.with_unit(IntensityUnit.SUV)
    mask = read_mask(args.mask)
    bio = extract(vol, mask)
    payload = {"patient_id": args.patient_id, "timepoint": args.timepoint, **bio.as_dict()}
    _emit(payload, args.out)
    return 0


def _cmd_compare(args) -> int:
    if args.batch:
        rows = []
        import csv as _csv

        with open(args.batch, newline="") as fh:
            reader = _csv.DictReader(fh)
            for required in ("pair_id", "path_a", "path_b"):
                if required not in (reader.fieldnames or []):
                    raise ParameterError(f"{args.batch}: batch CSV needs column {required!r}")
            base = Path(args.batch).parent
            for row in reader:
                a = read_mask(base / row["path_a"])
                b = read_mask(base / row["path_b"])
                rows.append(
                    [
                        row["pair_id"],
                        dice(a, b),
                        iou(a, b),
                        sensitivity(a, b),
                        hausdorff_mm(a, b),
                    ]
                )
        text = dumps_csv(["pair_id", "dsc", "iou", "sensitivity", "hd_mm"], rows)
        if args.out:
            write_text_atomic(args.out, text)
        else:
            sys.stdout.write(text)
        return 0

    if not args.gt or not args.pred:
        raise UsageError("compare: needs GT and PRED mask paths")
    a = read_mask(args.gt)
    b = read_mask(args.pred)
    flags = []
    payload: dict = {"dsc": dice(a, b), "iou": iou(a, b)}
    if a.is_empty and b.is_empty:
        flags.append("both masks empty: overlap metrics defined as 1")
    if a.is_empty:
        payload["sensitivity"] = None
        flags.append("ground-truth mask empty: sensitivity undefined")
    else:
        payload["sensitivity"] = sensitivity(a, b)
    if a.is_empty or b.is_empty:
        payload["hd_mm"] = None
        flags.append("empty mask: Hausdorff distance undefined")
    else:
        payload["hd_mm"] = hausdorff_mm(a, b)
    payload["warnings"] = flags
    _emit(payload, args.out)
    return 0


def _read_biomarker_json(path: str) -> BiomarkerSet:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParameterError(f"{path}: invalid biomarker JSON: {exc}") from exc
    try:
        return BiomarkerSet(
            float(data["suv_max"]),
            float(data["suv_mean"]),
            float(data["mtv_cm3"]),
            float(data["tlg"]),
            int(data["voxel_count"]),
        )
    except KeyError as exc:
        raise ParameterError(f"{path}: biomarker JSON missing field {exc}") from exc


def _cmd_delta(args) -> int:
    bl = _read_biomarker_json(args.baseline)
    fu = _read_biomarker_json(args.followup)
    _emit(biomarker_delta(bl, fu).as_dict(), args.out)
    return 0


def _threshold_from_args(args) -> QcThreshold | None:
    """A fixed --threshold, or None: derive it from the cohort downstream."""
    return None if args.threshold is None else fixed_threshold(args.threshold)


def _cmd_qc(args) -> int:
    entries = cohort_mod.load_manifest(args.manifest)
    summary = cohort_mod.run_qc(
        entries,
        args.out_dir,
        threshold=_threshold_from_args(args),
        select_extreme=args.select_extreme,
        threads=args.threads,
    )
    _emit(summary, None)
    return 0


def _cmd_report(args) -> int:
    entries = cohort_mod.load_manifest(args.manifest)
    stats = cohort_mod.run_report(
        entries, args.out_dir, threshold=_threshold_from_args(args), threads=args.threads
    )
    _emit(stats, None)
    return 0


def _cmd_phantom(args) -> int:
    try:
        spec = json.loads(Path(args.spec).read_text())
    except json.JSONDecodeError as exc:
        raise ParameterError(f"{args.spec}: invalid JSON: {exc}") from exc
    out = Path(args.out)
    if "cohort" in spec:
        c = dict(spec["cohort"])
        response = ResponseModel(
            ratio_mean=float(c.pop("ratio_mean")),
            ratio_sd=float(c.pop("ratio_sd", 0.0)),
            outlier_fraction=float(c.pop("outlier_fraction", 0.0)),
            outlier_ratio_min=float(c.pop("outlier_ratio_min", 10.0)),
        )
        manifest = generate_cohort(
            n=int(c.pop("n")),
            response=response,
            seed=int(c.pop("seed", 0)),
            out_dir=out,
            dims=tuple(c.pop("dims", list(DEFAULT_DIMS))),
            spacing=tuple(c.pop("spacing_mm", list(DEFAULT_SPACING))),
            baseline_radius_mm=float(c.pop("baseline_radius_mm", 16.0)),
            peak_suv=float(c.pop("peak_suv", 10.0)),
            background_suv=float(c.pop("background_suv", 1.0)),
            noise_sd=float(c.pop("noise_sd", 0.0)),
            threads=args.threads,
        )
        if c:
            raise ParameterError(f"{args.spec}: unknown cohort keys {sorted(c)}")
        _emit({"manifest": str(manifest)}, None)
        return 0
    if "lesion" in spec:
        les = dict(spec["lesion"])
        dims = tuple(les.pop("dims", list(DEFAULT_DIMS)))
        spacing = tuple(les.pop("spacing_mm", list(DEFAULT_SPACING)))
        lesion = LesionSpec(
            center=tuple(les.pop("center")),
            radius_mm=float(les.pop("radius_mm")),
            peak_suv=float(les.pop("peak_suv")),
            profile=les.pop("profile", "uniform"),
            background_suv=float(les.pop("background_suv", 0.0)),
            noise_sd=float(les.pop("noise_sd", 0.0)),
            seed=int(les.pop("seed", 0)),
        )
        if les:
            raise ParameterError(f"{args.spec}: unknown lesion keys {sorted(les)}")
        vol, mask, bio = generate(lesion, dims, spacing)
        out.mkdir(parents=True, exist_ok=True)
        write_volume(vol, out / "volume.nii")
        write_mask(mask, out / "mask.nii")
        write_text_atomic(out / "ground_truth.json", dumps_json(bio.as_dict()))
        _emit({"out": str(out), **bio.as_dict()}, None)
        return 0
    raise ParameterError(f"{args.spec}: spec must contain a 'cohort' or 'lesion' object")


def _cmd_loss_check(args) -> int:
    params = LossParams(
        alpha=args.alpha, beta=args.beta, gamma=args.gamma, ftl_weight=args.ftl_weight
    )
    report = gradient_check(
        trials=args.trials, shape=(args.shape,) * 3, seed=args.seed, params=params
    )
    report["passed"] = report["max_relative_error"] < args.tolerance
    report["tolerance"] = args.tolerance
    _emit(report, args.out)
    return 0 if report["passed"] else 1


def build_parser() -> _Parser:
    parser = _Parser(prog="petquant", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--threads",
        type=int,
        default=_default_threads(),
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
    p.add_argument("--contrast-a", type=float, dest="contrast_a")
    p.add_argument("--contrast-b", type=float, dest="contrast_b")
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
    p.add_argument("--derive-threshold", action="store_true", dest="derive_threshold",
                   help="derive the ratio threshold from this cohort (default)")
    p.add_argument("--threshold", type=float, help="fixed ratio threshold")
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
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--shape", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-5)
    p.add_argument("--alpha", type=float, default=0.7)
    p.add_argument("--beta", type=float, default=0.3)
    p.add_argument("--gamma", type=float, default=1.5)
    p.add_argument("--ftl-weight", type=float, default=0.7, dest="ftl_weight")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_loss_check)

    return parser


def _report_error(exc: Exception, json_errors: bool, kind: str) -> None:
    if json_errors:
        line = json.dumps({"error": kind, "type": type(exc).__name__, "message": str(exc)})
        print(line, file=sys.stderr)
    else:
        print(f"petquant: {kind}: {exc}", file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    json_errors = getattr(args, "json_errors", False)
    try:
        return args.func(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except InputDataError as exc:
        _report_error(exc, json_errors, "input error")
        return 2
    except OSError as exc:
        _report_error(exc, json_errors, "io error")
        return 2
    except PetQuantError as exc:
        _report_error(exc, json_errors, "validation error")
        return 1


def main_entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    main_entry()
