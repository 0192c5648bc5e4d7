"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload query_warm --seed 1 --seconds 10 --trace 0

Run from the repository root. ``--trace 0`` prints every end-to-end metric
of BENCHMARK.json, ``--trace 1`` every per-layer metric (a separate, traced
pass over the same seeded inputs). ``--workload all`` runs each workload in
its own process. A full record of the run (provenance, host-state probes,
sample counts, failures, and for traced runs the spans and the self-time
table) is written under ``.perfbench/`` and summarised on stderr. The
printed timings are CPU time without the hypervisor's steal (clocks.py); the
record also holds the query figures uncalibrated and in wall time
(``query_figures``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
# Ray's plasma socket lives at <temp dir>/session_<stamp>_<pid>/sockets/
# plasma_store and a unix socket path may hold at most 107 bytes
RAY_SOCKET_SUFFIX = 70
RUN_LIMIT_S = 170


def vm_state_control() -> float:
    """bench.py's host-state probe: seconds for a fixed 2M-element integer
    cumsum (milliseconds in the host's fast memory state, up to seconds in
    its slow one). A label only; it never decides which runs count."""
    import numpy as np

    a = np.arange(2_000_000, dtype=np.int64)
    t0 = time.perf_counter()
    np.cumsum(a)
    np.add.accumulate(a)
    return round(time.perf_counter() - t0, 4)


def cpu_ticks() -> tuple[int, int]:
    """(busy, steal) clock ticks of all CPUs so far, from /proc/stat; (0, 0)
    where it cannot be read. Steal is time the hypervisor ran something else
    while a CPU of this machine had work."""
    try:
        with open("/proc/stat") as f:
            v = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    user, nice, system, _idle, _iowait, irq, softirq, steal = v
    return user + nice + system + irq + softirq, steal


def available_cores() -> int:
    """Cores available to this process as ``nproc`` counts them: the CPU
    affinity mask, overridden by OMP_NUM_THREADS when that is set."""
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True, check=True).stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        return len(os.sched_getaffinity(0))


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def declared(spec: dict, traced: bool) -> dict[str, str]:
    """Metric name -> unit of what a run must print."""
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def result_line(spec: dict, traced: bool, values: dict[str, float], tally) -> dict:
    units = declared(spec, traced)
    if set(values) != set(units):
        raise ValueError(
            f"metrics differ from BENCHMARK.json: missing {sorted(set(units) - set(values))}, "
            f"undeclared {sorted(set(values) - set(units))}"
        )
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": float(values[n]), "unit": units[n]} for n in units},
    }


def provenance(args, cores: int, ray_tmp: str | None) -> dict:
    import numpy
    import pyarrow
    import ray

    sha = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        sha = out.stdout.strip() or None
    digest = hashlib.sha256()
    for p in sorted(ROOT.glob("lucene_ray/**/*.py")) + sorted(ROOT.glob("perfbench/*.py")):
        digest.update(p.relative_to(ROOT).as_posix().encode())
        digest.update(p.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cores": cores, "affinity_cores": len(os.sched_getaffinity(0)),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"), "git_sha": sha,
        "source_sha256": digest.hexdigest(), "python": sys.version.split()[0],
        "ray": ray.__version__, "pyarrow": pyarrow.__version__, "numpy": numpy.__version__,
        "ray_temp_dir": ray_tmp,
    }


def start_ray(cores: int, state: Path) -> str | None:
    """ray.init on this process's cores, with Ray's files inside the
    checkout when the socket paths fit."""
    import ray

    tmp = state / f"ray-{os.getpid()}"  # runs side by side must not share it
    temp_dir = str(tmp) if len(str(tmp)) + RAY_SOCKET_SUFFIX <= 107 else None
    # workers must import lucene_ray from this checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    # the allocator settings bench.py exports, so workers keep and reuse
    # warm pages from birth (see lucene_ray._tune_allocator)
    os.environ.setdefault("MALLOC_MMAP_THRESHOLD_", str(256 * 1024 * 1024))
    os.environ.setdefault("MALLOC_TRIM_THRESHOLD_", str(1024 * 1024 * 1024))
    os.environ.setdefault("ARROW_DEFAULT_MEMORY_POOL", "system")
    ray.init(num_cpus=cores, include_dashboard=False, logging_level="ERROR",
             log_to_driver=False, object_store_memory=300 * 1024 * 1024,
             _temp_dir=temp_dir)
    import ray.data
    from ray.data import ExecutionResources

    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.resource_limits = ExecutionResources(cpu=cores)
    return temp_dir


def timed_out(_signum, _frame):
    raise TimeoutError(f"the run took more than {RUN_LIMIT_S} s")


def terminated(signum, _frame):
    raise SystemExit(128 + signum)  # so the cleanup below still runs


def run_one(args, spec: dict) -> int:
    try:
        import lucene_ray.search.engine
    except ImportError as e:
        print(f"perfbench: cannot import the engine from {ROOT}: {e}", file=sys.stderr)
        return 2
    if ROOT not in Path(lucene_ray.search.engine.__file__).resolve().parents:
        print(f"perfbench: the engine is not in this checkout ({ROOT})", file=sys.stderr)
        return 2
    import layers
    from workloads import (
        CALIBRATION_PCT, WORKLOADS, Context, metrics, percentile, query_figures,
    )

    # a run that hangs stops itself, and its Ray processes (below), in time
    signal.signal(signal.SIGALRM, timed_out)
    signal.signal(signal.SIGTERM, terminated)
    signal.alarm(RUN_LIMIT_S)
    cores = available_cores()
    state = ROOT / ".perfbench"
    work = state / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    probe_before = vm_state_control()
    ticks_before = cpu_ticks()
    t_start = time.perf_counter()
    ray_tmp = start_ray(cores, state)
    import ray

    try:
        ctx = Context(args.workload, args.seed, args.seconds, str(work), cores, traced=bool(args.trace))
        WORKLOADS[args.workload](ctx)
        if args.trace:
            values = layers.compute(ctx)
        else:
            values = metrics(ctx)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        record = {"provenance": provenance(args, cores, ray_tmp)}
        if not args.trace:
            record["query_figures"] = {
                "calibrated": query_figures(ctx),
                "uncalibrated": query_figures(ctx, calibrated=False),
                "wall": query_figures(ctx, wall=True, calibrated=False),
                "calibration_ms": percentile(ctx.samples.probe_ms, CALIBRATION_PCT),
            }
    finally:
        ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)
        if ray_tmp:
            shutil.rmtree(ray_tmp, ignore_errors=True)
        signal.alarm(0)
    result = result_line(spec, bool(args.trace), values, ctx.tally)
    s = ctx.samples
    busy, steal = (b - a for a, b in zip(ticks_before, cpu_ticks()))
    record.update(
        host_state={"vm_state_control_before_s": probe_before,
                    "vm_state_control_after_s": vm_state_control(),
                    "cpu_steal_share": round(steal / (busy + steal), 4) if busy + steal else None},
        wall_s=time.perf_counter() - t_start,
        phases_s=ctx.phases,
        sizes=s.info | {"query_samples": len(s.query_ms), "refresh_samples": len(s.refresh_ms),
                        "setup_repeats": len(s.setup_s),
                        "query_tail_pct": ctx.shape.query_pct,
                        "refresh_tail_pct": ctx.shape.refresh_pct},
        failures=ctx.tally.failures,
        samples={k: v for k, v in vars(s).items() if k != "info"},
        result=result,
    )
    if args.trace:
        table = ctx.tracer.table()
        record.update(self_time_table=table, counts=dict(ctx.tracer.counts),
                      spans=ctx.tracer.dump())
        print(f"{'layer span':32} {'count':>8} {'self_s':>10} {'total_s':>10}", file=sys.stderr)
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"{name:32} {row['count']:8d} {row['self_s']:10.4f} {row['total_s']:10.4f}",
                  file=sys.stderr)
        print(f"{'remainder (trace.remainder_s)':32} {'':8} {values['trace.remainder_s']:10.4f}",
              file=sys.stderr)
        if "pool_stats" in s.info:
            print(s.info["pool_stats"], file=sys.stderr)
    out = state / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(time.time())}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, default=str))
    summary = {k: v for k, v in record.items() if k not in ("spans", "self_time_table", "counts", "samples")}
    summary["sizes"] = {k: v for k, v in summary["sizes"].items() if k != "pool_stats"}
    print(json.dumps(summary, default=str), file=sys.stderr)
    print(f"perfbench: record written to {out}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


def run_all(args, spec: dict) -> int:
    """Each workload in its own process; one result line per workload."""
    code = 0
    for w in spec["workloads"]:
        cmd = [sys.executable, __file__, "--workload", w["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        print(f"{w['name']} {last[0]}", flush=True)
        code = code or proc.returncode
    return code


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT))
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
