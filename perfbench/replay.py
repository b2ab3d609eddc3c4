"""Traced run: a workload's stages through petquant.cli.main, with spans.

The stages run as in an untraced pass, but on one thread and with every
function in LAYERS wrapped in a span. Each stage is a `cli.<stage>` root
span; calls into the layers are spans below it. The benchmark's counters
(raw components, bounding boxes, contrast iterations, bytes) are count
callbacks on the layer spans, and their work runs in `bench.count` spans.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import ndimage

from petquant import biomarkers, cohort, losses, mask, metrics, nifti, phantom, qc, segment
from petquant import serialize, stats, volume
from tracing import BENCH, Tracer, instrument, span_cost_ns, summarize

_STRUCT_26 = np.ones((3, 3, 3), dtype=bool)


def _size_of(index):
    return lambda args, out: os.path.getsize(args[index])


def _bbox_frac(bits: np.ndarray) -> float:
    if not bits.any():
        return 0.0
    extent = 1
    for axis in range(3):
        other = tuple(i for i in range(3) if i != axis)
        hit = np.flatnonzero(bits.any(axis=other))
        extent *= int(hit[-1] - hit[0] + 1)
    return extent / bits.size


def _postprocess_counts(args, out) -> dict:
    raw = args[0]
    return {
        "raw_components": int(ndimage.label(raw.bits, structure=_STRUCT_26)[1]),
        "raw_voxels": raw.voxel_count,
        "kept_voxels": out.voxel_count,
        "bbox_frac": _bbox_frac(out.bits),
    }


def _contrast_counts(args, out) -> dict:
    return {"iterations": out.iterations, "converged": bool(out.converged)}


LAYERS = {
    "nifti.read_volume": (nifti, "read_volume", _size_of(0)),
    "nifti.read_mask": (nifti, "read_mask", _size_of(0)),
    "nifti.write_volume": (nifti, "write_volume", _size_of(1)),
    "nifti.write_mask": (nifti, "write_mask", _size_of(1)),
    "volume.to_suv": (volume, "to_suv"),
    "mask.largest_component": (mask, "largest_component"),
    "mask.fill_holes": (mask, "fill_holes"),
    "mask.centroid": (mask, "centroid"),
    "mask.boundary_voxels": (mask, "boundary_voxels", lambda args, out: len(out)),
    "segment.threshold_pct_suvmax": (segment, "threshold_pct_suvmax"),
    "segment.threshold_contrast_iterative": (segment, "threshold_contrast_iterative", _contrast_counts),
    "segment.background_estimate": (segment, "background_estimate"),
    "segment.postprocess": (segment, "postprocess", _postprocess_counts),
    "biomarkers.extract": (biomarkers, "extract"),
    "biomarkers.delta": (biomarkers, "delta"),
    "metrics.dice": (metrics, "dice"),
    "metrics.iou": (metrics, "iou"),
    "metrics.sensitivity": (metrics, "sensitivity"),
    "metrics.hausdorff_mm": (metrics, "hausdorff_mm"),
    "qc.derive_threshold": (qc, "derive_threshold"),
    "qc.build_record": (qc, "build_record"),
    "qc.select_extreme_outliers": (qc, "select_extreme_outliers"),
    "stats.paired_ttest": (stats, "paired_ttest"),
    "stats.boxplot_summary": (stats, "boxplot_summary"),
    "serialize.dumps_csv": (serialize, "dumps_csv"),
    "serialize.dumps_json": (serialize, "dumps_json"),
    "cohort.load_manifest": (cohort, "load_manifest"),
    "cohort.quantify_per_patient": (cohort, "_quantify_one"),
    "cohort.export_annotation_batch": (cohort, "export_annotation_batch"),
    "phantom.generate_cohort": (phantom, "generate_cohort"),
    "losses.combined_loss": (losses, "combined_loss"),
    "losses.combined_loss_grad": (losses, "combined_loss_grad"),
    "losses.gradient_check": (losses, "gradient_check"),
}


def _p50(values) -> float:
    return float(np.median(values)) if values else 0.0


def _counters(spans: list[list], work: Path, span_ns: float) -> dict:
    """Counts and ratios measured where the work happens (0 where a layer did not run)."""
    by_name: dict[str, list[list]] = {}
    for s in spans:
        by_name.setdefault(s[0], []).append(s)

    def counts(name, key=None):
        return [s[4] if key is None else s[4][key] for s in by_name.get(name, [])]

    children: dict[int, list[list]] = {}
    for s in spans:
        children.setdefault(s[3], []).append(s)
    pairs = []
    for i, s in enumerate(spans):
        if s[0] == "metrics.hausdorff_mm":
            sizes = [ch[4] for ch in children.get(i, []) if ch[0] == "mask.boundary_voxels"]
            pairs.append(int(np.prod(sizes)))

    roots = [(i, s) for i, s in enumerate(spans) if s[3] == -1]
    stage_ns = sum(s[2] - s[1] for _, s in roots)
    bench_ns = sum(s[2] - s[1] for s in by_name.get(BENCH, []))
    direct_ns = sum(ch[2] - ch[1] for i, _ in roots for ch in children.get(i, []))
    phantom_dir = work / "phantom"
    phantom_bytes = sum(p.stat().st_size for p in phantom_dir.iterdir()) if phantom_dir.is_dir() else 0
    pp = "segment.postprocess"
    raw_voxels = sum(counts(pp, "raw_voxels"))
    converged = counts("segment.threshold_contrast_iterative", "converged")
    return {
        "segment.raw_components_p50": _p50(counts(pp, "raw_components")),
        "segment.kept_voxel_frac": sum(counts(pp, "kept_voxels")) / raw_voxels if raw_voxels else 0.0,
        "mask.lesion_bbox_frac_p50": _p50(counts(pp, "bbox_frac")),
        "segment.contrast.iterations_p50": _p50(counts("segment.threshold_contrast_iterative", "iterations")),
        "segment.contrast.converged_frac": float(np.mean(converged)) if converged else 0.0,
        "nifti.MB_read": (sum(counts("nifti.read_volume")) + sum(counts("nifti.read_mask"))) / 1e6,
        "nifti.MB_written": (sum(counts("nifti.write_volume")) + sum(counts("nifti.write_mask"))) / 1e6,
        "phantom.MB_written": phantom_bytes / 1e6,
        "metrics.hausdorff_pairs_p50": _p50(pairs),
        "losses.loss_evals": float(len(by_name.get("losses.combined_loss", []))),
        "cli.unattributed_frac": (stage_ns - direct_ns) / (stage_ns - bench_ns) if stage_ns else 0.0,
        "trace.overhead_frac": len(spans) * span_ns / (stage_ns - bench_ns) if stage_ns else 0.0,
    }


def run(run_id: str, spans_file: Path, work: Path, run_stages: Callable) -> dict:
    """Trace `run_stages(around)`, which runs each stage inside `around(stage)`."""
    tracer = Tracer(run_id)
    span_ns = span_cost_ns()
    instrument(tracer, LAYERS)
    result = run_stages(lambda stage: tracer.span(f"cli.{stage}"))
    spans = tracer.spans
    busy = {}
    for s in spans:
        if s[3] == -1 and s[0].startswith("cli."):
            own = sum(b[2] - b[1] for b in spans if b[0] == BENCH and s[1] <= b[1] <= s[2])
            busy[s[0][4:]] = (s[2] - s[1] - own) / 1e9
    spans_file.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_file)
    return {
        **result,
        "busy_s": busy,
        "layers": summarize(spans),
        "counters": _counters(spans, work, span_ns),
        "spans": len(spans),
        "span_cost_ns": span_ns,
    }
