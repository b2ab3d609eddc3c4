"""One benchmark process: set up, then run a workload's stages once.

    python3 worker.py MODE WORKDIR CONFIG_JSON

MODE is `setup` (stop once ready), `cli` (run the stages in process through
petquant.cli.main, as a user would) or `replay` (run the same stages through
petquant.cli.main on one thread, with spans). Set-up is importing petquant and
writing the phantom spec and the compare pairs file. The process prints
READY when set up and, unless MODE is `setup`, one JSON result line at the
end.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, ContextManager

from workloads import Workload, pair_rows, stage_argv, stages


def _set_up(work: Path, w: Workload, seed: int, src: Path):
    import petquant
    import petquant.cli
    from petquant.serialize import dumps_csv, dumps_json

    if Path(petquant.__file__).resolve().parent != (src / "petquant").resolve():
        raise SystemExit(f"petquant imported from {petquant.__file__}, not from {src}")
    work.mkdir(parents=True, exist_ok=True)
    if w.cohort:
        (work / "spec.json").write_text(dumps_json({"cohort": {**w.cohort, "seed": seed}}))
        if w.compare:
            (work / "pairs.csv").write_text(dumps_csv(["pair_id", "path_a", "path_b"], pair_rows(w)))
    return petquant.cli.main


def _cpu_s() -> float:
    """CPU seconds this process has used so far, all threads, user and system."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _run_cli(
    main, w: Workload, work: Path, seed: int, threads: int,
    around: Callable[[str], ContextManager] = lambda stage: contextlib.nullcontext(),
) -> dict:  # fmt: skip
    """Each stage of `w` through `main`, inside `around(stage)`."""
    walls = []
    for stage, _ in stages(w):
        argv = stage_argv(w, stage, work, seed, threads)
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            with around(stage), contextlib.redirect_stdout(io.StringIO()):
                rc = main(argv)
        except Exception:  # a crash fails the stage; the checks still run
            traceback.print_exc()
            rc = -1
        wall = time.perf_counter() - t0
        walls.append({"stage": stage, "wall_s": wall, "cpu_s": _cpu_s() - cpu0, "rc": rc})
        if rc != 0:
            break
    return {"stages": walls}


def _peak_rss_mb() -> float:
    """This process's peak resident set. VmHWM restarts at exec; ru_maxrss
    also keeps the parent's peak from before the fork, so it is the fallback."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    mode, work, cfg = sys.argv[1], Path(sys.argv[2]), json.loads(sys.argv[3])
    w = Workload(**{**cfg["workload"], "segment": tuple(cfg["workload"]["segment"]),
                    "qc": tuple(cfg["workload"]["qc"])})  # fmt: skip
    cli_main = _set_up(work, w, cfg["seed"], Path(cfg["src"]))
    print("READY", flush=True)
    if mode == "setup":
        return 0
    if mode == "cli":
        result = _run_cli(cli_main, w, work, cfg["seed"], cfg["threads"])
    elif mode == "replay":
        import replay

        result = replay.run(
            cfg["run_id"], Path(cfg["spans_file"]), work,
            lambda around: _run_cli(cli_main, w, work, cfg["seed"], 1, around),
        )  # fmt: skip
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    result["maxrss_mb"] = _peak_rss_mb()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
