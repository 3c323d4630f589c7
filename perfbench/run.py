"""Benchmark of the ``tardos`` CLI, run in process through ``tardos.cli.main``.

    python3 perfbench/run.py --workload {pipeline,analysis}
        [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Run from the root of a checkout; the package is imported from ``src/``.

A *pass* is the workload's fixed sequence of CLI commands (see
``workloads.py``). After one warm-up pass, whose outputs go through the
correctness gate, passes repeat for ``--seconds`` and every pass's outputs must
hash the same as the warm-up's. The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` runs the CLI at its default ``--threads``, as users get it, and
reports the end-to-end metrics, each a median over passes:

* ``setup_s``: interpreter start to ``tardos.cli`` imported, the median of
  several fresh interpreters.
* ``peak_rss_mb``: peak resident memory of this process, in 10^6 bytes.
* ``pass_s``: wall time of one pass.

It also prints each workload's own named metrics, per command of the pass
(``generate_s``, ``attack_s``, ``search_iters_per_s``,
``sim_desk_trials_per_s``, ``error_rate``, ...), as ``metric`` lines, each
timing with its median, the highest percentile that has at least ten samples
beyond it, and the sample count.

``--trace 1`` runs every command with ``--threads 1`` and alternates
untraced passes with traced ones, in which ``spans.Recorder`` wraps the
public functions of each module. It reports the per-layer metrics (self and
inclusive span times, exact counts, rates) and writes the spans to
``perfbench/out/spans-<workload>.jsonl``. A layer that a workload does not
use reports 0. The exact counts must equal the values derived from the
inputs and repeat in every traced pass.

``--smoke`` shrinks every input so that a run takes seconds; the sha256 pins
only apply at full size and the default seed.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from spans import Recorder, summarize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
DEFAULT_SEED = 0
SETUP_SAMPLES = 5
PROBE_REPS = 5
MIN_PASSES = 3

END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("pass_s", "s"))

# Per-layer metrics: seconds in the outermost spans of one name per traced
# pass (inclusive of wrapped children) ...
_INCL = {
    "codegen.gen_matrix_s": "codegen.gen_matrix",
    "codegen.crc64_s": "codegen.crc64",
    "codegen.save_codebook_s": "codegen.save_codebook",
    "codegen.load_codebook_s": "codegen.load_codebook",
    "codegen.sample_bias_s": "codegen.sample_bias",
    "codegen.select_bits_s": "codegen.Codebook.select_bits",
    "model.bias_sample_s": "model.BiasDistribution.sample",
    "attacks.forge_s": "attacks.forge",
    "tracer.trace_s": "tracer.trace",
    "tracer.to_csv_s": "tracer.AccusationReport.to_csv",
    "simulate.run_s": "simulate.run",
    "simulate.to_jsonl_s": "simulate.SimReport.to_jsonl",
    "gaussian.moments_s": "gaussian.moments",
    "gaussian.erfc_inv_s": "gaussian.erfc_inv",
    "gaussian.conservative_plan_s": "gaussian.conservative_plan",
    "cli.build_parser_s": "cli.build_parser",
}
# ... exact counts per traced pass, from the span counters and output sizes ...
COUNTS = {
    "codegen.bits_generated": "count", "codegen.bytes_checksummed": "bytes",
    "codegen.file_bytes": "bytes", "rng.streams_opened": "count",
    "model.bias_draws": "count", "tracer.users_scored": "count",
    "tracer.evidence_columns": "count", "tracer.users_accused": "count",
    "tracer.csv_bytes": "bytes", "simulate.innocents_scored": "count",
    "simulate.coalition_bits": "count", "simulate.jsonl_bytes": "bytes",
    "gaussian.erfc_inv_calls": "count", "bounds.iterations": "count",
}
# ... and direct calls at 1 thread against the CLI default.
PROBES = ("tracer.trace_1t_s", "tracer.thread_speedup", "simulate.thread_speedup")
PER_LAYER_UNITS = {
    **{name: "s" for name in _INCL}, **COUNTS,
    "rng.stream_s": "s", "simulate.self_s": "s", "cli.main_self_s": "s",
    "bounds.search_min_A_s": "s",
    "codegen.gen_mbit_per_s": "Mbit/s", "codegen.crc64_mib_per_s": "MiB/s",
    "tracer.trace_1t_s": "s", "tracer.thread_speedup": "x",
    "simulate.thread_speedup": "x", "bench.tracing_overhead": "x",
    "bench.self_time_coverage": "x",
}


def layer_times(summary):
    incl, self_, calls = summary["incl"], summary["self"], summary["calls"]
    out = {metric: incl[span] for metric, span in _INCL.items()}
    out["rng.stream_s"] = incl["rng.stream"] + incl["rng.substreams"]
    out["simulate.self_s"] = self_["simulate.run"]
    out["cli.main_self_s"] = self_["cli.main"]
    cells = calls["bounds.search_min_A"]
    out["bounds.search_min_A_s"] = incl["bounds.search_min_A"] / cells if cells else 0.0
    return out


def tail(samples):
    """(percentile, value): the highest percentile with >= 10 samples above it."""
    n = len(samples)
    if n < 11:
        return None
    return math.floor(100 * (n - 10) / n), sorted(samples)[n - 11]


def timing_text(samples):
    t = tail(samples)
    pct = f"p{t[0]}={t[1]:.6g} s" if t else "p=n/a (fewer than 11 samples)"
    return f"median={statistics.median(samples):.6g} s {pct} n={len(samples)}"


def run_context(default_threads):
    """Machine, toolchain and code-size record printed next to the metrics."""
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    llc = (0, 0)  # (cache level, size in bytes) of the highest level found
    caches = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in (n for n in os.listdir(caches) if n.startswith("index")):
            with open(os.path.join(caches, index, "level"), encoding="utf-8") as fh:
                level = int(fh.read())
            with open(os.path.join(caches, index, "size"), encoding="utf-8") as fh:
                text = fh.read().strip()
            scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
            llc = max(llc, (level, int(text.rstrip("KMG")) * scale))
    except (OSError, ValueError):
        pass
    pkg = os.path.join(SRC, "tardos")
    lines = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "llc_bytes": llc[1],
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "cli_default_threads": default_threads,
            "src_tardos_lines": lines}


def measure_setup(tally, samples):
    """Wall time of fresh interpreters that import ``tardos.cli`` and exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import tardos.cli"], cwd=ROOT,
                              env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        tally.check(proc.returncode == 0, f"import tardos.cli: {proc.stderr[-200:]}")
    return times


class Runner:
    """One benchmark run of one workload."""

    def __init__(self, wl, tally, seconds, pins, context):
        self.wl = wl
        self.tally = tally
        self.seconds = seconds
        self.pins = pins
        self.context = context
        self.min_passes = 1 if wl.smoke else MIN_PASSES

    def one_pass(self, threads):
        steps = self.wl.run_pass(self.tally, threads)
        return steps, sum(s.seconds for s in steps)

    def more(self, deadline, walls, estimate):
        """Whether to start another pass: the minimum is not reached yet, or a
        pass of median length (``estimate`` before the first) ends in time."""
        expected = statistics.median(walls) if walls else estimate
        return (len(walls) < self.min_passes
                or time.perf_counter() + expected <= deadline)

    def end_to_end(self):
        setup = measure_setup(self.tally, 1 if self.wl.smoke else SETUP_SAMPLES)
        warm = self.wl.warm_up(self.tally, None, self.pins)
        deadline = time.perf_counter() + self.seconds
        passes, walls = [], []
        while self.more(deadline, walls, sum(s.seconds for s in warm)):
            steps, wall = self.one_pass(None)
            self.wl.check_repeat(self.tally, steps)
            passes.append(steps)
            walls.append(wall)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        metrics = {"setup_s": statistics.median(setup), "peak_rss_mb": rss_mb,
                   "pass_s": statistics.median(walls)}
        lines = [f"metric setup_s = {metrics['setup_s']:.6g} s ({timing_text(setup)})",
                 f"metric peak_rss_mb = {rss_mb:.6g} MB",
                 f"metric pass_s = {metrics['pass_s']:.6g} s ({timing_text(walls)})"]
        for name, unit, samples, work in self.wl.headline(passes):
            value = statistics.median(samples)
            value = value if work is None else work / value
            lines.append(f"metric {name} = {value:.6g} {unit} ({timing_text(samples)})")
        rate = len(self.tally.failures) / max(self.tally.attempted, 1)
        lines.append(f"metric error_rate = {rate:.6g} failed/attempted")
        return metrics, lines, {"passes": len(passes), "digests": self.wl.reference}

    def traced(self, recorder, spans_path):
        warm = self.wl.warm_up(self.tally, 1, self.pins)
        deadline = time.perf_counter() + self.seconds
        untraced, traced_walls, per_pass, counts = [], [], [], None
        expected = self.wl.expected_counts()
        rounds = []
        while self.more(deadline, rounds, 2 * sum(s.seconds for s in warm)):
            steps, wall = self.one_pass(1)
            self.wl.check_repeat(self.tally, steps)
            untraced.append(wall)
            recorder.install(f"{self.wl.name}/seed{self.wl.seed}/pass{len(per_pass)}")
            try:
                steps, twall = self.one_pass(1)
            finally:
                got = recorder.uninstall()
            self.wl.check_repeat(self.tally, steps)
            got.update(self.wl.output_sizes())
            got = {name: got.get(name, 0) for name in COUNTS}
            if counts is None:
                counts = got
                for name, want in expected.items():
                    self.tally.check(got[name] == want,
                                     f"count {name} = {got[name]}, inputs give {want}")
            else:
                for name in COUNTS:
                    self.tally.check(got[name] == counts[name],
                                     f"count {name} changed: {counts[name]} -> {got[name]}")
            summary = summarize(recorder.passes[-1][1])
            coverage = summary["self_total_s"] / twall
            self.tally.check(abs(coverage - 1.0) <= 0.1 and recorder.off_thread_calls == 0,
                             f"self times cover {coverage:.3f} of the pass wall time")
            times = layer_times(summary)
            times["bench.self_time_coverage"] = coverage
            per_pass.append(times)
            traced_walls.append(twall)
            rounds.append(wall + twall)
        recorder.write(spans_path)
        default_threads = self.context["cli_default_threads"]
        probes = self.wl.probe(default_threads, 2 if self.wl.smoke else PROBE_REPS)
        metrics = {name: statistics.median(p[name] for p in per_pass)
                   for name in per_pass[0]}
        metrics.update(counts)
        metrics.update({name: probes.get(name, 0.0) for name in PROBES})
        metrics["bench.tracing_overhead"] = (statistics.median(traced_walls)
                                             / statistics.median(untraced))
        gen, crc = metrics["codegen.gen_matrix_s"], metrics["codegen.crc64_s"]
        metrics["codegen.gen_mbit_per_s"] = (counts["codegen.bits_generated"] / 1e6 / gen
                                             if gen else 0.0)
        metrics["codegen.crc64_mib_per_s"] = (
            counts["codegen.bytes_checksummed"] / 2 ** 20 / crc if crc else 0.0)
        lines = [f"metric {name} = {metrics[name]:.6g} {PER_LAYER_UNITS[name]}"
                 for name in sorted(PER_LAYER_UNITS)]
        llc = self.context["llc_bytes"]
        if crc:
            bound = ("compute-bound: the codebook fits in the last-level cache"
                     if 0 < counts["codegen.file_bytes"] <= llc else
                     "the codebook may not fit in the last-level cache")
            lines.append(f"note codegen.crc64_mib_per_s is {bound} ({llc} bytes)")
        lines.append(f"note spans written to {os.path.relpath(spans_path, ROOT)}")
        return metrics, lines, {"traced_passes": len(per_pass),
                                "digests": self.wl.reference}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("pipeline", "analysis"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs; checks that every metric is reported")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_package():
    """Import ``tardos`` from this checkout's ``src``; exit 2 if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "tardos", "__init__.py")):
        print(f"error: no tardos package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import tardos.cli

    if not os.path.abspath(tardos.__file__).startswith(SRC + os.sep):
        print(f"error: imported tardos from {tardos.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return tardos.cli


def main(argv=None):
    args = parse_args(argv)
    cli = import_package()
    import workloads

    pins = None
    if args.seed == DEFAULT_SEED and not args.smoke:
        with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as fh:
            pins = json.load(fh)
    context = run_context(cli.build_parser().get_default("threads"))
    tally = workloads.Tally()
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, work)
        runner = Runner(wl, tally, args.seconds, pins, context)
        if args.trace:
            spans_path = os.path.join(OUT, f"spans-{args.workload}.jsonl")
            metrics, lines, extra = runner.traced(Recorder(), spans_path)
            units = PER_LAYER_UNITS
        else:
            metrics, lines, extra = runner.end_to_end()
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    head = (f"run workload={args.workload} seed={args.seed} trace={args.trace} "
            f"smoke={int(args.smoke)} "
            + " ".join(f"{k}={v}" for k, v in extra.items() if k != "digests"))
    ctx = " ".join(f"{k}={v!r}" for k, v in context.items())
    gate = f"gate attempted={tally.attempted} failed={len(tally.failures)}"
    print(head, f"context {ctx}", *lines, gate, sep="\n")
    for failure in tally.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    result = {"correct": not tally.failures, "attempted": tally.attempted,
              "failed": len(tally.failures),
              "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                          for name, unit in units.items()}}
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  smoke=args.smoke, context=context, detail=lines,
                  failures=tally.failures, **extra)
    with open(os.path.join(OUT, f"result-{args.workload}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
