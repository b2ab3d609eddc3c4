"""petquant benchmark: one workload, measured, checked and reported.

    python3 perfbench/run.py --workload ref_cohort --seed 1 --seconds 30 --trace 0

Run from the root of a source tree; petquant is imported from its `src/`.
With --trace 0 the run repeats the workload's whole pipeline, each pass in a
fresh process, for about --seconds, and reports medians over the passes;
set-up-only starts before and after the passes, pooled with each pass's own
start, give setup_s. With --trace 1 it runs one untraced pass and one traced
run of the same stages on one thread and reports the per-layer metrics. Every pass's outputs are checked against the phantom
ground truth. The last line of standard output is the JSON result; the exit
code is 0 only if every check passed. Metric names and units come from
BENCHMARK.json. Each run's files live in a fresh directory under
.perfbench_work/ that is deleted afterwards; a run record (environment,
stage walls, output digests, check results) is kept in .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import uuid
from pathlib import Path

import checks
from workloads import WORKLOADS, Workload, disk_need_bytes, resolve_threads, stages

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 10  # set-up-only starts per run: half before the passes, half after
DEADLINE_S = 170.0
STAGE_RATES = {
    "phantom": "phantom_vol_per_s",
    "segment": "segment_vol_per_s",
    "qc": "qc_patients_per_s",
    "report": "report_patients_per_s",
    "compare": "compare_pairs_per_s",
    "loss-check": "gradcheck_trials_per_s",
}
TIME_STATS = {"ms_p50": ("p50_ms", 1.0), "ms_p90": ("p90_ms", 1.0), "us_p50": ("p50_ms", 1e3),
              "ms": ("total_ms", 1.0), "s": ("total_ms", 1e-3)}  # fmt: skip


class BenchError(Exception):
    pass


class Bench:
    def __init__(self, w: Workload, seed: int, src: Path, work_root: Path, out_dir: Path):
        self.w, self.seed, self.src = w, seed, src
        self.threads = resolve_threads(w)
        self.work_root, self.out_dir = work_root, out_dir
        self.started = time.monotonic()

    def config(self, **extra) -> str:
        cfg = {"workload": vars(self.w), "seed": self.seed, "threads": self.threads, "src": str(self.src)}
        return json.dumps({**cfg, **extra})

    def spawn(self, mode: str, work: Path, **extra) -> tuple[float, dict]:
        """Start a worker; return (seconds from start to READY, its result)."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(self.src), env.get("PYTHONPATH")]))
        work.mkdir(parents=True, exist_ok=True)
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError("time budget exhausted")
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), mode, str(work), self.config(**extra)],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True, cwd=work, env=env,
        )  # fmt: skip
        timer = threading.Timer(remaining, proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest = proc.stdout.read()
            rc = proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        if ready.strip() != "READY" or rc != 0:
            raise BenchError(f"worker {mode} exited with {rc} before finishing")
        lines = rest.strip().splitlines()
        return setup_s, json.loads(lines[-1]) if lines else {}

    def setup_times(self, n: int) -> list[float]:
        out = []
        for _ in range(n):
            d = Path(tempfile.mkdtemp(prefix="setup-", dir=self.work_root))
            try:
                out.append(self.spawn("setup", d)[0])
            finally:
                shutil.rmtree(d, ignore_errors=True)
        return out

    def cli_pass(self, work: Path, digests: bool) -> dict:
        """One untraced pass in a fresh process, with its outputs checked."""
        cpu0 = _cpu_times()
        t0 = time.perf_counter()
        setup_s, result = self.spawn("cli", work)
        wall = time.perf_counter() - t0
        cpu1 = _cpu_times()
        problems = checks.PassChecker(self.w, work).run()
        ran = {s["stage"]: s for s in result["stages"]}
        for stage, _ in stages(self.w):
            if stage not in ran or ran[stage]["rc"] != 0:
                problems[stage] = [f"exit code {ran.get(stage, {}).get('rc')}"] + problems[stage]
        record = {"setup_s": setup_s, "wall_s": wall, "stages": result["stages"],
                  "maxrss_mb": result["maxrss_mb"], "problems": problems}  # fmt: skip
        if cpu0 and cpu1:
            # share of this machine's CPU time taken by the hypervisor during the pass
            record["cpu_steal_frac"] = (cpu1[7] - cpu0[7]) / max(1, sum(cpu1) - sum(cpu0))
        if digests:
            record["sha256"] = {s: checks.stage_digest(work, s) for s in ran}
        return record

    def measure(self, seconds: int) -> dict:
        setups = self.setup_times(SETUP_SAMPLES // 2)
        passes = []
        target = 1
        while len(passes) < target:
            work = Path(tempfile.mkdtemp(prefix="pass-", dir=self.work_root))
            try:
                passes.append(self.cli_pass(work, digests=not passes))
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if len(passes) == 1:
                target = max(1, round(seconds / passes[0]["wall_s"]))
        setups += self.setup_times(SETUP_SAMPLES - SETUP_SAMPLES // 2)
        return {"setup_s": setups + [p["setup_s"] for p in passes], "passes": passes}

    def traced(self) -> dict:
        work = Path(tempfile.mkdtemp(prefix="trace-", dir=self.work_root))
        try:
            cli = self.cli_pass(work / "cli", digests=True)
            shutil.rmtree(work / "cli" / "phantom", ignore_errors=True)
            run_id = uuid.uuid4().hex[:12]
            spans_file = self.out_dir / f"spans-{self.w.name}-seed{self.seed}-{run_id}.jsonl"
            _, replay = self.spawn("replay", work / "replay", run_id=run_id, spans_file=str(spans_file))
            ran = {s["stage"]: s["rc"] for s in replay["stages"]}
            replay_problems = [f"traced stage {stage} exit code {ran.get(stage)}"
                               for stage, _ in stages(self.w) if ran.get(stage) != 0]  # fmt: skip
            replay_problems += checks.replay_problems(self.w, work / "cli", work / "replay")
        finally:
            shutil.rmtree(work, ignore_errors=True)
        replay.update(run_id=run_id, spans_file=str(spans_file))
        return {"passes": [cli], "replay": replay, "replay_problems": replay_problems}


def _cpu_times() -> list[int]:
    """The aggregate `cpu` line of /proc/stat, or [] where there is none."""
    try:
        with open("/proc/stat") as fh:
            return [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return []


def _median(values):
    return statistics.median(values) if values else 0.0


def _stage_walls(passes: list[dict]) -> dict[str, float]:
    walls: dict[str, list[float]] = {}
    for p in passes:
        for s in p["stages"]:
            walls.setdefault(s["stage"], []).append(s["wall_s"])
    return {stage: _median(v) for stage, v in walls.items()}


def _failures(w: Workload, passes: list[dict], replay_problems: list[str]) -> tuple[int, int]:
    ops = dict(stages(w))
    attempted = sum(ops.values()) * len(passes)
    failed = sum(ops[s] for p in passes for s, probs in p["problems"].items() if probs)
    if replay_problems:
        failed = attempted
    return attempted, failed


def _stage_rates(w: Workload, walls: dict[str, float]) -> dict[str, float]:
    return {STAGE_RATES[stage]: n / walls[stage] for stage, n in stages(w) if walls.get(stage)}


def e2e_metrics(w: Workload, run: dict) -> dict[str, float]:
    passes = run["passes"]
    return {
        "pipeline_s": _median([sum(s["wall_s"] for s in p["stages"]) for p in passes]),
        "setup_s": _median(run["setup_s"]),
        "peak_rss_mb": _median([p["maxrss_mb"] for p in passes]),
        **_stage_rates(w, _stage_walls(passes)),
    }


def layer_metrics(w: Workload, run: dict, names: list[str], threads: int) -> dict[str, float]:
    """Per-layer metrics by name: `<span>.<stat>` for timings, else a counter."""
    replay = run["replay"]
    layers, counters = replay["layers"], replay["counters"]
    walls = _stage_walls(run["passes"])
    busy = replay["busy_s"]
    common = [s for s in busy if s in walls]
    values = dict(counters)
    serial_busy = sum(busy[s] for s in common)
    values["cohort.parallel_efficiency"] = serial_busy / (threads * sum(walls[s] for s in common))
    values.update({rate: 0.0 for rate in STAGE_RATES.values()})
    values.update(_stage_rates(w, walls))
    attempted, failed = _failures(w, run["passes"], run["replay_problems"])
    values["failed_frac"] = failed / attempted
    out = {}
    for name in names:
        layer, _, stat = name.rpartition(".")
        if name in values:
            out[name] = values[name]
        elif stat in TIME_STATS:
            key, scale = TIME_STATS[stat]
            out[name] = layers[layer][key] * scale if layer in layers else 0.0
        else:
            raise BenchError(f"no measurement for per-layer metric {name!r}")
    return out


def environment(root: Path, work_root: Path) -> dict:
    import numpy
    import scipy

    fstype, best = "unknown", ""
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                mnt, kind = line.split()[1:3]
                if str(work_root).startswith(mnt) and len(mnt) > len(best):
                    fstype, best = kind, mnt
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():  # a plain source tree must not report an enclosing repository
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None  # fmt: skip
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "work_dir": str(work_root),
        "work_fs": fstype,
        "work_free_gb": shutil.disk_usage(work_root).free / 1e9,
        "io_cache": "page-cache-warm: the page cache is not dropped between or within runs",
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def run(w: Workload, seed: int, seconds: int, trace: bool, root: Path = ROOT) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, run record)."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    src = root / "src"
    if not (src / "petquant" / "__init__.py").is_file():
        raise BenchError(f"no petquant sources under {src}")
    work_root = root / ".perfbench_work"
    out_dir = root / ".perfbench_out"
    work_root.mkdir(exist_ok=True)
    out_dir.mkdir(exist_ok=True)
    need = disk_need_bytes(w) * (2 if trace else 1)
    free = shutil.disk_usage(work_root).free
    if free < need:
        raise BenchError(f"{free / 1e9:.2f} GB free under {work_root}, the run needs {need / 1e9:.2f} GB")
    bench = Bench(w, seed, src, work_root, out_dir)
    env = environment(root, work_root)
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    if trace:
        raw = bench.traced()
        values = layer_metrics(w, raw, [m["name"] for m in listed], bench.threads)
    else:
        raw = bench.measure(seconds)
        raw["replay_problems"] = []
        values = e2e_metrics(w, raw)
    attempted, failed = _failures(w, raw["passes"], raw["replay_problems"])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    record = {"workload": w.name, "seed": seed, "seconds": seconds, "trace": trace, "threads": bench.threads,
              "environment": env, "units": units, "values": values, "raw": raw, "result": result}  # fmt: skip
    return result, record


def _report(record: dict, out) -> None:
    r, values, units = record["result"], record["values"], record["units"]
    env = record["environment"]
    mode = "traced replay" if record["trace"] else f"{len(record['raw']['passes'])} untraced passes"
    print(f"workload {record['workload']}  seed {record['seed']}  threads {record['threads']}  {mode}"
          f"  (closed loop, 1 caller, 1 process)", file=out)  # fmt: skip
    print(f"env: {env['nproc']} cpu {env['cpu_model']}, python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, commit {env['commit']}, work fs {env['work_fs']} "
          f"({env['work_free_gb']:.1f} GB free); I/O numbers are {env['io_cache']}", file=out)  # fmt: skip
    for p in record["raw"]["passes"]:
        for stage, digest in p.get("sha256", {}).items():
            print(f"  sha256 {stage:<11} {digest}", file=out)
        for stage, probs in p["problems"].items():
            for msg in probs:
                print(f"  FAILED {stage}: {msg}", file=out)
    steal = [p["cpu_steal_frac"] for p in record["raw"]["passes"] if "cpu_steal_frac" in p]
    if steal:
        print(f"  cpu steal during passes: {', '.join(f'{x:.1%}' for x in steal)}", file=out)
    for msg in record["raw"]["replay_problems"]:
        print(f"  FAILED replay: {msg}", file=out)
    for name, value in values.items():
        if name == "failed_frac":
            continue
        unit = units.get(name, "")
        print(f"  {name:<44} {value:>14.6g} {unit}", file=out)
    frac = r["failed"] / r["attempted"]
    print(f"  {'failed_frac':<44} {frac:>14.6g} ({r['failed']}/{r['attempted']} operations)", file=out)


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still stops its worker and removes its files (the finally blocks)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds < 1:
        print("run.py: --seconds must be >= 1", file=sys.stderr)
        return 2
    try:
        result, record = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"run.py: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"record-{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    (ROOT / ".perfbench_out" / name).write_text(json.dumps(record, indent=1))
    _report(record, sys.stdout)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
