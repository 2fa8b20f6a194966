"""Benchmark runner for the repro library: one workload per invocation.

Usage, from the repository root::

    python3 perfbench/run.py --workload audit --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload

``--trace 0`` prints the end-to-end metrics (see BENCHMARK.json), ``--trace
1`` the per-layer metrics of a traced run.  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Any failed output
check makes the command exit 1.  See perfbench/README.md.
"""

import time

_STARTED = time.perf_counter()

import os  # noqa: E402

# The two-process pool is the only parallelism: no BLAS/OpenMP threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build" / "perfbench"  # streams, caches, traces
# Temporary files the library makes (the shared-memory segment registry)
# stay inside the checkout too.
os.environ["TMPDIR"] = str(SCRATCH / "tmp")
WORKLOAD_NAMES = ("audit", "dynamics", "fleet", "service")
SETUP_PROBES = 2  # extra fresh-process set-ups; the run's own is the third

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "items_per_ref": "1/ref",
    "op_p50_ref": "ref",
}

#: name -> (span name, field, unit); every value is per traced operation.
PER_LAYER = {
    "distances.apsp.calls": ("distances.apsp", "calls", "count/op"),
    "distances.apsp.self_s": ("distances.apsp", "self_s", "s/op"),
    "batched.plan.self_s": ("batched.plan", "self_s", "s/op"),
    "batched.bound.calls": ("batched.bound", "calls", "count/op"),
    "batched.bound.self_s": ("batched.bound", "self_s", "s/op"),
    "batched.bound.bytes_computed": ("batched.bound", "bytes", "bytes/op"),
    "batched.exact.calls": ("batched.exact", "calls", "count/op"),
    "batched.exact.self_s": ("batched.exact", "self_s", "s/op"),
    "batched.deletion_scan.self_s": ("batched.deletion_scan", "self_s", "s/op"),
    "batched.best_swap_scan.self_s": ("batched.best_swap_scan", "self_s", "s/op"),
    "batched.certify.self_s": ("batched.certify", "self_s", "s/op"),
    "repair.bfs_rows.calls": ("repair.bfs_rows", "calls", "count/op"),
    "repair.bfs_rows.rows": ("repair.bfs_rows", "rows", "count/op"),
    "repair.bfs_rows.self_s": ("repair.bfs_rows", "self_s", "s/op"),
    "repair.pred_counts.self_s": ("repair.pred_counts", "self_s", "s/op"),
    "repair.affected_masks.self_s": ("repair.affected_masks", "self_s", "s/op"),
    "engine.apply_swap.calls": ("engine.apply_swap", "calls", "count/op"),
    "engine.apply_swap.self_s": ("engine.apply_swap", "self_s", "s/op"),
    "engine.apply_swap.rows_changed": ("engine.apply_swap", "rows", "count/op"),
    "adjacency.to_csr.calls": ("adjacency.to_csr", "calls", "count/op"),
    "adjacency.to_csr.rebuilds": ("adjacency.to_csr", "rebuilds", "count/op"),
    "adjacency.to_csr.self_s": ("adjacency.to_csr", "self_s", "s/op"),
    "dynamics.run.self_s": ("dynamics.run", "self_s", "s/op"),
    "checkpoint.save.calls": ("checkpoint.save", "calls", "count/op"),
    "checkpoint.save.self_s": ("checkpoint.save", "self_s", "s/op"),
    "checkpoint.save.bytes": ("checkpoint.save", "bytes", "bytes/op"),
    "jsonl.append.self_s": ("jsonl.append", "self_s", "s/op"),
    "experiments.run_fleet.self_s": ("experiments.run_fleet", "self_s", "s/op"),
    "pool.map.wait_s": ("pool.map", "self_s", "s/op"),
    "pool.chunk.self_s": ("pool.chunk", "self_s", "s/op"),
    "shared.publish.bytes": ("shared.publish", "bytes", "bytes/op"),
    "cache.put.self_s": ("cache.put", "self_s", "s/op"),
    "cache.put.bytes": ("cache.put", "bytes", "bytes/op"),
    "cache.get.self_s": ("cache.get", "self_s", "s/op"),
    "service.handle.self_s": ("service.handle", "self_s", "s/op"),
    "service.http_s": ("service.request", "self_s", "s/op"),
}
#: Ratios and the tracing cost, computed rather than summed.
DERIVED = {
    "batched.survival": "ratio",
    "cache.hit_ratio": "ratio",
    "trace.overhead_s": "s/op",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only set up (fresh process), print setup_s, exit")
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def environment(args, steal: float) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        commit = out.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_steal_share": round(steal, 4),  # during the timed loop
    }


def cpu_ticks() -> list:
    """The machine's cumulative CPU ticks by state, from /proc/stat."""
    with open("/proc/stat") as fh:
        return [int(x) for x in fh.readline().split()[1:]]


def steal_share(before: list, after: list) -> float:
    """Share of CPU time the hypervisor gave to other guests in between."""
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / max(1, sum(delta))  # field 8 of the cpu line: steal


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its live child processes."""
    import workloads

    pids = [os.getpid()] + workloads.child_pids()
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    if total_kb == 0:
        total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return total_kb / 1024.0


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def measure(wl, name: str, seconds: float, ops: "int | None" = None) -> dict:
    """Closed loop of operations: for ``seconds`` (then to the end of the
    workload's cycle), or exactly ``ops`` ops."""
    import tracer

    items, wall, cpu, cost, samples, done = 0, 0.0, 0.0, 0.0, [], 0
    start = time.perf_counter()
    while (
        done < ops if ops is not None
        else done == 0 or time.perf_counter() - start < seconds
        or done % wl.CYCLE
    ):
        with tracer.scope(f"op.{name}", op=done, root=True):
            n_items, clock, op_samples = wl.op()
        items += n_items
        wall += clock.wall
        cpu += clock.cpu
        cost += clock.cost
        samples += op_samples
        done += 1
    return {"ops": done, "items": items, "wall_s": wall, "cpu_s": cpu,
            "cost": cost, "samples": samples}


def probe_setup(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=170)
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{out.stderr}")
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def layer_metrics(table: dict, traced: dict, untraced: dict) -> dict:
    def total(span, field):
        return table.get(span, {}).get(field, 0)

    metrics = {}
    for name, (span, field, unit) in PER_LAYER.items():
        metrics[name] = {"value": total(span, field) / traced["ops"],
                         "unit": unit}
    bound = total("batched.bound", "calls")
    lookups = total("cache.get", "lookup")
    per_op_traced = traced["cpu_s"] / traced["ops"]
    per_op_plain = untraced["cpu_s"] / untraced["ops"]
    derived = {
        "batched.survival":
            total("batched.exact", "calls") / bound if bound else 0.0,
        "cache.hit_ratio": total("cache.get", "hit") / lookups if lookups else 0.0,
        "trace.overhead_s": per_op_traced - per_op_plain,
        "trace.overhead_ratio": per_op_traced / per_op_plain - 1.0,
    }
    for name, value in derived.items():
        metrics[name] = {"value": value, "unit": DERIVED[name]}
    return metrics


def export_trace(args, env, table, spans, traced) -> Path:
    path = SCRATCH / f"trace-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps({"env": env, "ops": traced["ops"],
                             "e2e_s": traced["wall_s"], "layers": table}) + "\n")
        fh.write(json.dumps(["id", "parent", "name", "start", "end", "op",
                             "pid", "attrs"]) + "\n")
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    return path


def print_layer_table(table: dict, e2e_s: float) -> None:
    print(f"{'layer':<28}{'calls':>10}{'self_s':>12}{'share':>8}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        share = row["self_s"] / e2e_s if e2e_s else 0.0
        print(f"{name:<28}{row['calls']:>10}{row['self_s']:>12.4f}"
              f"{share:>8.1%}")


def stop_resource_tracker() -> None:
    """End and reap the shared-memory tracker process, if one started."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def run_workload(args) -> int:
    (SCRATCH / "tmp").mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(SRC))
    import reference
    import tracer
    import workloads
    from repro.parallel import shutdown_shared_pools

    gen_start = time.perf_counter()
    workdir = workloads.make_workdir(SCRATCH)
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    gen_s = time.perf_counter() - gen_start
    try:
        wl.warmup()
        setup_s = time.perf_counter() - _STARTED - gen_s
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        ticks = cpu_ticks()
        if args.trace:
            wl.mark()
            untraced = measure(wl, args.workload, args.seconds / 2)
            wl.rewind()  # the traced ops replay the untraced inputs
            shutdown_shared_pools()  # the next fork inherits the wrappers
            tr = tracer.install()
            wl.warmup()
            tr.spans = []
            traced = measure(wl, args.workload, 0, ops=untraced["ops"])
            # Freeze the spans: the output checks below are not program work.
            spans, tr.spans = tr.spans, []
        else:
            # Built after the warm-up, so no pool worker inherits its arrays.
            reference.ACTIVE = reference.Reference()
            traced = measure(wl, args.workload, args.seconds)
        steal = steal_share(ticks, cpu_ticks())
        peak = peak_rss_mb()
        wl.check()
    finally:
        wl.close()
        shutdown_shared_pools()
        stop_resource_tracker()
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args, steal)
    if args.trace:
        table = tracer.layer_table(spans)
        metrics = layer_metrics(table, traced, untraced)
        print_layer_table(table, traced["wall_s"])
        print(f"spans written to {export_trace(args, env, table, spans, traced)}")
    else:
        setups = [setup_s] + [probe_setup(args) for _ in range(SETUP_PROBES)]
        values = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak,
            "items_per_ref": traced["items"] / traced["cost"],
            "op_p50_ref": statistics.median(traced["samples"]),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in values.items()}
        # For people only, not metrics: the same run in CPU and wall seconds.
        ref = reference.ACTIVE
        print(f"reference_cpu_s = {statistics.median(ref.samples):.6g} s "
              f"({len(ref.samples)} samples)")
        print(f"items_per_cpu_s = {traced['items'] / traced['cpu_s']:.6g} 1/s")
        print(f"items_per_wall_s = {traced['items'] / traced['wall_s']:.6g} 1/s")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"failed_ratio = {wl.failed}/{wl.attempted}")
    print("env " + json.dumps(env))
    print(json.dumps({
        "correct": wl.failed == 0,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": metrics,
    }))
    return 0 if wl.failed == 0 else 1


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=900)
        lines = out.stdout.strip().splitlines()
        print(f"== {name} (exit {out.returncode})")
        print("\n".join(lines[:-1]))
        if out.returncode not in (0, 1) or not lines:
            sys.stderr.write(out.stderr)
            return 2
        result = json.loads(lines[-1])
        status = max(status, out.returncode)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        sys.stderr.write(f"perfbench: no repro sources under {SRC}\n")
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
