"""Seeded benchmark of foliation-af: one workload per process, checked outputs.

Usage (from the repository root):

    python3 bench/run.py --workload {functor,diagrams,batch} --seed N \
        --seconds S --trace {0,1}

The program is imported from ``src/`` of the checkout the script sits in, so
the benchmark measures that source tree.  Inputs are generated from ``--seed``
as plain data before the import.  Timed calls are made until their summed
wall time reaches ``--seconds`` (and at least MIN_CALLS calls are made);
every call's outputs are checked against independent oracles outside the
timed region.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
raw samples of each run go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from workloads import CheckError

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

# A call-time tail needs ten calls beyond it, so a run makes at least 40.
MIN_CALLS = 40
# setup_s is the median of this many set-ups: the run's own and fresh processes.
SETUP_SAMPLES = 3
# Inputs generated per second of --seconds (above the expected call rate, so
# a run cycles through its inputs only on a much faster machine).
POOL_PER_SECOND = {"functor": 4, "diagrams": 4, "batch": 4}

PER_LAYER = [
    "numeric.ms", "numeric.inverse.calls", "numeric.inverse.ms",
    "numeric.interval.calls", "numeric.escalations", "numeric.floor_exact.calls",
    "numeric.floor_exact.ms", "numeric.root_interval.ms",
    "jacobi_perron.ms", "jacobi_perron.jp_expand.ms", "jacobi_perron.jp_expand.digits",
    "jacobi_perron.jp_limit_check.ms",
    "lattice.ms", "lattice.functor_map.ms", "lattice.basis_change.ms",
    "lattice.module_equal.ms", "intmat.hnf_rows.ms",
    "bratteli.ms", "bratteli.unique_trace_estimate.ms",
    "bratteli.positive_cone_generators.calls", "bratteli.positive_cone_generators.ms",
    "bratteli.telescope.ms", "jacobi_perron.jp_convergents.ms",
    "intmat.ms", "intmat.matmul.calls", "intmat.matmul.ms", "intmat.matmul.max_bits",
    "numeric.field_init.calls", "numeric.field_init.ms", "numeric.parse_scalar.ms",
    "contfrac.ms", "contfrac.cf_expand.ms", "contfrac.cf_expand.digits",
    "contfrac.cf_matrix_product.calls", "contfrac.cf_matrix_product.ms",
    "contfrac.cf_tail_equivalent.ms",
    "cli.ms", "cli.build_parser.calls", "cli.build_parser.ms",
]


def make_workload(name):
    if name == "functor":
        return workloads.Functor()
    if name == "diagrams":
        return workloads.Diagrams()
    return workloads.Batch(OUT_DIR / f"batch-{os.getpid()}")


def import_program():
    """Import foliation_af from this checkout's src/ (and the test oracles)."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import foliation_af
    from foliation_af import bratteli, cli, contfrac, jacobi_perron, lattice, numeric  # noqa: F401

    if Path(foliation_af.__file__).resolve().parent != ROOT / "src" / "foliation_af":
        raise ImportError(f"foliation_af imported from {foliation_af.__file__}")
    return foliation_af


def set_up(work, inputs):
    """Import, prepare shared objects, warm up once: (package, seconds, warm-up output)."""
    t0 = time.perf_counter()
    fa = import_program()
    work.prepare(fa)
    warm = work.call(work.stage(inputs[0]))
    elapsed = time.perf_counter() - t0
    return fa, elapsed, warm


class Run:
    """Timed calls with their checks, counted in operations."""

    def __init__(self, work, inputs):
        self.work, self.inputs = work, inputs
        self.next_index = 1
        self.times = []
        self.attempted = self.failed = 0
        self.errors = []
        self.cycled = False

    def measure(self, seconds, min_calls, tracer=None):
        """Timed calls until their summed time reaches seconds; tracer spans only calls."""
        times = []
        while sum(times) < seconds or len(times) < min_calls:
            index = self.next_index
            self.next_index += 1
            if index >= len(self.inputs):
                self.cycled = True
            inp = self.inputs[1 + (index - 1) % (len(self.inputs) - 1)]
            arg = self.work.stage(inp)
            if tracer is not None:
                tracer.active = True
            t0 = time.perf_counter()
            out = self.work.call(arg)
            times.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.active = False
            self.attempted += self.work.ops_per_call
            try:
                self.failed += self.work.check(inp, out)
            except CheckError as exc:
                self.errors.append(f"call {index}: {exc}")
        self.times.extend(times)
        return times


def tail(times):
    """Highest percentile with ten calls beyond it: the 11th largest time."""
    ordered = sorted(times)
    return ordered[len(ordered) - 11]


def child_setup_seconds(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("functor", "diagrams", "batch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print one set-up time and exit (used for setup_s samples)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "foliation_af" / "__init__.py").is_file():
        print(f"error: no foliation_af source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Defaults of the program, whatever the caller's environment says.
    os.environ.pop("FOLIATION_AF_PRECISION", None)

    work = make_workload(args.workload)
    count = 1 if args.setup_only else max(
        2 * MIN_CALLS, int(POOL_PER_SECOND[args.workload] * args.seconds))
    inputs = work.generate(args.seed, count)
    try:
        fa, setup_s, warm = set_up(work, inputs)
        if args.setup_only:
            print(repr(setup_s))
            return 0
        run = Run(work, inputs)
        try:
            work.check(inputs[0], warm)
        except CheckError as exc:
            run.errors.append(f"warm-up: {exc}")
        if args.trace:
            metrics, raw = traced(run, fa, args.seconds)
        else:
            metrics, raw = untraced(run, args, setup_s)
    finally:
        if isinstance(work, workloads.Batch):
            shutil.rmtree(work.workdir, ignore_errors=True)

    for err in run.errors:
        print(f"check failed: {err}", file=sys.stderr)
    result = {"correct": not run.errors, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    raw.update(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
               calls=len(run.times), cycled_inputs=run.cycled, errors=run.errors,
               python=sys.version.split()[0])
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(raw, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def untraced(run, args, setup_s):
    times = run.measure(args.seconds, MIN_CALLS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = [setup_s] + [child_setup_seconds(args.workload, args.seed)
                          for _ in range(SETUP_SAMPLES - 1)]
    metrics = {
        "ops_per_s": (run.attempted / sum(times), "1/s"),
        "call_p50_ms": (1000 * statistics.median(times), "ms"),
        "call_tail_ms": (1000 * tail(times), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    raw = {"call_s": times, "setup_samples_s": setups,
           "tail_percentile": 100 * (len(times) - 10) / len(times)}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, raw


def traced(run, fa, seconds):
    """Untraced and traced calls alternate; per-layer figures are per traced operation.

    Alternating exposes both kinds of call to the same drift of machine speed,
    so their ratio is the tracing overhead.  The wrappers are installed only
    around the traced calls.
    """
    from tracer import Tracer

    tracer = Tracer()
    plain, traced_times = [], []
    while sum(plain) + sum(traced_times) < seconds or len(traced_times) < 10:
        plain += run.measure(0, 1)
        tracer.install(fa)
        try:
            traced_times += run.measure(0, 1, tracer)
        finally:
            tracer.uninstall()
    ops = len(traced_times) * run.work.ops_per_call
    overhead = sum(traced_times) / sum(plain) - 1

    metrics = {}
    for name in PER_LAYER:
        parts = name.split(".")
        if name == "intmat.matmul.max_bits":
            value, unit = tracer.max_bits, "bits"
        elif len(parts) == 2 and parts[1] == "ms":
            value, unit = tracer.layer_ms(parts[0]) / ops, "ms"
        elif parts[-1] == "ms":
            value, unit = 1000 * tracer.self_s[".".join(parts[:-1])] / ops, "ms"
        elif parts[-1] == "calls":
            value, unit = tracer.calls[".".join(parts[:-1])] / ops, "count"
        else:
            value, unit = tracer.counts[name] / ops, "count"
        metrics[name] = {"value": value, "unit": unit}
    metrics["trace.overhead_pct"] = {"value": 100 * overhead, "unit": "%"}
    raw = {"untraced_call_s": plain, "traced_call_s": traced_times,
           "self_ms_per_op": {k: 1000 * v / ops for k, v in sorted(tracer.self_s.items())},
           "calls_per_op": {k: v / ops for k, v in sorted(tracer.calls.items())}}
    return metrics, raw


if __name__ == "__main__":
    sys.exit(main())
