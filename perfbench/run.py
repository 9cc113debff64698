"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload adapt --seed 1 --seconds 10 --trace 0

Set-up runs three times, each in a child process of its own, so that its
memory does not count towards the workload's peak; `setup_s` is the median.
The measured phase then repeats whole rounds of the workload's operations
until --seconds have passed. With --trace 1, rounds alternate between
untraced and traced, and the per-layer metrics are totals per traced round;
`trace.overhead_pct` compares the two kinds of round. Before the JSON line
the run prints `digest <workload> seed=<n> <sha256>` over the numbers the
first round produced (result rows without wall time, per-epoch losses,
written onset lists); later rounds must reproduce them exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import OUT, ROOT, WORK, SetupError, bootstrap

SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 150


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-into", type=Path, help=argparse.SUPPRESS)  # set-up child mode
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def setup_child(workloads, tracing, args) -> int:
    """Child process: build the workload's inputs and report the time it took."""
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    args.setup_into.mkdir(parents=True)
    t0 = time.perf_counter()
    workloads.WORKLOADS[args.workload].setup(sys.modules["onsetkit"], args.seed, args.setup_into)
    seconds = time.perf_counter() - t0
    layers = {}
    if tracer:
        tracer.uninstall()
        layers = {k: tracer.metrics()[k] for k in tracing.SETUP_METRICS}
    print(json.dumps({"setup_s": seconds, "layers": layers}))
    return 0


def run_setups(args, work: Path) -> tuple[list[float], list[dict], Path]:
    times, layers, dirs = [], [], []
    for k in range(SETUP_REPEATS):
        into = work / f"setup{k}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--trace", str(args.trace), "--setup-into", str(into)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise SetupError(f"set-up {k} failed:\n{proc.stderr}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(report["setup_s"])
        layers.append(report["layers"])
        dirs.append(into)
    fingerprints = {tree_digest(d) for d in dirs}
    if len(fingerprints) != 1:
        raise SetupError("set-ups from one seed wrote different files")
    for d in dirs[1:]:
        shutil.rmtree(d)
    return times, layers, dirs[0]


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def measure(workload, seconds: float, tracer) -> list:
    """Whole rounds until `seconds` have passed; traced runs alternate plain/traced."""
    rounds = []
    t_end = time.perf_counter() + seconds
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            r = workload.run_round()
        finally:
            if traced:
                tracer.uninstall()
        r.wall_s, r.traced = time.perf_counter() - t0, traced
        rounds.append(r)
        print(f"round {len(rounds)}{' traced' if traced else ''}: {r.ops} ops, "
              f"{r.failed} failed, {r.wall_s:.2f} s", file=sys.stderr, flush=True)
        if time.perf_counter() >= t_end and (tracer is None or len(rounds) % 2 == 0):
            return rounds


END_TO_END = ("setup_s", "peak_rss_mib", "wait_s", "ops_per_min")


def check_benchmark_json(tracing) -> None:
    """BENCHMARK.json must list exactly the metrics this script reports."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = ([m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]])
    if listed != (list(END_TO_END), tracing.per_layer_names()):
        raise SetupError("BENCHMARK.json lists other metrics than perfbench/run.py reports")


def end_to_end(rounds, setup_times, peak_rss_mib) -> dict:
    waits = [w for r in rounds for w in r.waits]
    done = sum(r.ops - r.failed for r in rounds)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
        "wait_s": (statistics.median(waits), "s"),
        "ops_per_min": (60.0 * done / sum(r.busy_s for r in rounds), "1/min"),
    }


def per_layer(tracing, tracer, rounds, setup_layers) -> dict:
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    values = {k: v / len(traced) for k, v in tracer.metrics().items()}
    for k in tracing.SETUP_METRICS:
        values[k] = statistics.median(layer[k] for layer in setup_layers)
    traced_s = statistics.mean(r.wall_s for r in traced)
    plain_s = statistics.mean(r.wall_s for r in plain)
    values["trace.overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0)
    out = {}
    for k in tracing.per_layer_names():
        unit, v = tracing.unit_of(k), values[k]
        out[k] = (int(v) if unit in ("count", "frames") and float(v).is_integer() else v, unit)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        ok = bootstrap()
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    import onsetkit.cli  # noqa: F401  (traced and called by the detect workload)

    import checks
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_into is not None:
        return setup_child(workloads, tracing, args)

    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    workload = None
    try:
        check_benchmark_json(tracing)
        setup_times, setup_layers, inputs = run_setups(args, work)
        workload = workloads.WORKLOADS[args.workload](ok, args.seed, inputs, work)
        tracer = tracing.Tracer() if args.trace else None
        rounds = measure(workload, args.seconds, tracer)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        try:
            workload.check(rounds)
            correct = True
        except checks.CheckFailed as e:
            print(f"check failed: {e}", file=sys.stderr)
            correct = False
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(work, ignore_errors=True)

    if tracer is not None:
        metrics = per_layer(tracing, tracer, rounds, setup_layers)
        trace_path = OUT / f"{args.workload}-seed{args.seed}.trace.json"
        tracer.write_chrome_trace(trace_path, {"workload": args.workload, "seed": args.seed})
        print(f"trace {trace_path}", file=sys.stderr)
    else:
        metrics = end_to_end(rounds, setup_times, peak_rss_mib)
    print(f"digest {args.workload} seed={args.seed} {rounds[0].digest}")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.ops for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
