"""Benchmark entry point: one workload, one seed, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sparse-mute --seed 7 \\
        --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs half the operations untraced and then traced, checks
that both produce identical records, and reports the per-layer metrics
(self time per layer, counters, tracing overhead); the span aggregates
land in ``perfbench/out/trace-<workload>-<seed>.json``.  The metric
names, units and bounds live in ``BENCHMARK.json``; the workloads, and
which layers each one loads, are documented in ``workloads.py``.

The host-time metrics ``setup_s``, ``op_p50_s`` and ``wall_s`` are host
seconds scaled to a nominal host speed: a fixed reference pass runs after
every timed operation and set-up probe, and its median sets the factor
(``hostref.py`` says why).  A ``# host seconds`` line prints the values
before scaling.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A failed correctness gate
(record digest mismatch, oracle violation, incomplete delivery on
sparse-mute, a job that is not ``done``, a resubmit that is not all
cache hits) counts as a failed operation and makes the exit code 1.
Without the program's sources next to it, the command prints no result
and exits 2.

``--smoke`` shrinks every scenario to seconds for the self-tests, and
``--plant`` injects a fault the gates must catch.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("dense-mobile", "sparse-mute", "service-dsa")

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimum-size scenarios (self-tests)")
    parser.add_argument("--plant", choices=("record-mismatch", "failed-job"),
                        help="inject a fault the gates must catch")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_spec():
    """Metric names and units, from BENCHMARK.json at the root."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def setup_probe(workload):
    """Set up as a real run does, say ``ready``, then tear down."""
    import workloads
    if workload != "service-dsa":
        print("ready", flush=True)
        return
    scratch = tempfile.mkdtemp(prefix="probe-", dir=OUT)
    try:
        service = workloads.start_service(scratch)
        service.start(poll=0.5)
        print("ready", flush=True)
        service.stop()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure_setup(workload, host):
    """Median seconds from spawning a fresh process to its ``ready``,
    with a host-reference pass after each probe."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 workload, "--setup-probe"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - start
            probe.stdout.read()
            if probe.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe failed: {line!r}")
        samples.append(elapsed)
        host.measure()
    return statistics.median(samples)


def peak_rss_mb():
    """Peak RSS of this process plus the largest reaped child (pool
    workers), in MiB (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main(argv=None):
    args = parse_args(argv if argv is not None else sys.argv[1:])
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    if args.setup_probe:
        setup_probe(args.workload)
        return 0
    end_to_end, per_layer = load_spec()
    import workloads

    import hostref
    host = None if args.trace else hostref.HostReference()
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT)
    trace_path = None
    if args.trace:
        trace_path = os.path.join(
            OUT, f"trace-{args.workload}-{args.seed}.json")
    common = dict(seed=args.seed, seconds=args.seconds,
                  trace=bool(args.trace), plant=args.plant, smoke=args.smoke,
                  trace_path=trace_path, host=host)
    try:
        if args.workload == "service-dsa":
            service = workloads.start_service(scratch)
            service.start(poll=0.5)
            outcome = workloads.run_service(scratch=scratch,
                                            service=service, **common)
        else:
            outcome = workloads.run_packet(args.workload, **common)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    rss = peak_rss_mb()

    if args.trace:
        values = outcome.layers
        units = per_layer
    else:
        host_s = {
            "setup_s": measure_setup(args.workload, host),
            "op_p50_s": workloads.median_of(outcome.op_s),
            "wall_s": sum(outcome.op_s) + sum(outcome.resubmit_s),
        }
        scale = host.scale()
        values = dict(outcome.quantities)
        values.update({name: seconds * scale
                       for name, seconds in host_s.items()})
        values["peak_rss_mb"] = rss
        units = end_to_end
        print(f"# host seconds before scaling by {scale:.4f} (median "
              f"reference pass {statistics.median(host.passes):.4f} s of "
              f"{len(host.passes)}): "
              + ", ".join(f"{k} {v:.4f}" for k, v in host_s.items()))
    missing = sorted(set(units) - set(values))
    if missing:
        outcome.fail(f"metrics not measured: {missing}")
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    for message in outcome.failures:
        print(f"FAILED: {message}", file=sys.stderr)
    failed = min(outcome.attempted, len(outcome.failures))
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"timed untraced operations={len(outcome.op_s)}")
    for name, metric in metrics.items():
        print(f"{name:30s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{'fail_rate':30s} {failed / max(1, outcome.attempted):>16.6g} "
          f"ratio ({failed}/{outcome.attempted})")
    print(json.dumps({"correct": not outcome.failures,
                      "attempted": max(1, outcome.attempted),
                      "failed": failed, "metrics": metrics}))
    return 1 if outcome.failures else 0


if __name__ == "__main__":
    sys.exit(main())
