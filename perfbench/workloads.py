"""The benchmark's workloads, run in process through ``tardos.cli.main``.

Each workload is a fixed sequence of CLI commands (one *pass*) whose inputs
come from the benchmark seed. A pass writes its outputs into a work directory;
the workload hashes them, checks them, and derives the exact counts that the
traced run must reproduce.
"""

import contextlib
import hashlib
import io
import json
import logging
import math
import os
import struct
import time
import statistics
import traceback
from dataclasses import dataclass, field

import tardos.cli
from tardos import codegen, gaussian, model, simulate, tracer
from tardos.attacks import KINDS


@dataclass
class Tally:
    """Operations attempted and the ones that failed, with a reason each."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


@dataclass
class Step:
    """One CLI command of a pass."""

    label: str
    argv: list
    seconds: float
    code: int
    out: str
    err: str


def run_cli(label, argv):
    """Run ``tardos.cli.main(argv)`` with stdout and stderr captured.

    The root logger is reset first, as a fresh ``tardos`` process would have
    it, so each call binds its log handler to the captured stderr.
    """
    root = logging.getLogger()
    for handler in list(root.handlers):
        root.removeHandler(handler)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = tardos.cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # reported as a failed operation, run continues
            traceback.print_exc()
            code = -1
        seconds = time.perf_counter() - start
    return Step(label, list(argv), seconds, code, out.getvalue(), err.getvalue())


def check_step(tally, step):
    last = step.err.strip().splitlines()[-1:] or [""]
    return tally.check(step.code == 0, f"{step.label}: exit {step.code}: {last[0]}")


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_text(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def compare_digests(tally, got, want, what):
    """One check per name in ``want``: the digest in ``got`` must equal it."""
    for name in sorted(want):
        tally.check(got.get(name) == want[name],
                    f"{what} {name}: sha256 {got.get(name)} != {want[name]}")


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - start


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


class Workload:
    """Common parts: global CLI flags and output paths in the work directory."""

    name = ""
    pinned = ()  # digest names pinned for the default seed at full size

    @property
    def parts(self):
        """The workloads whose pins apply; see ``Analysis``."""
        return (self,)

    def __init__(self, seed, smoke, work):
        self.seed = seed
        self.smoke = smoke
        self.work = work

    def path(self, name):
        return os.path.join(self.work, name)

    def cli_args(self, threads):
        """Global flags; ``threads=None`` keeps the CLI's default, as users get."""
        args = ["--seed", str(self.seed)]
        return args + (["--threads", str(threads)] if threads is not None else [])

    def run_pass(self, tally, threads):
        steps = [run_cli(label, argv) for label, argv in self.commands(threads)]
        for step in steps:
            check_step(tally, step)
        return steps

    def warm_up(self, tally, threads, pins):
        """First pass: its outputs go through the gate and become the reference.

        ``pins`` maps each part's name to its outputs' sha256 digests, recorded
        for the default seed at full size, or is None when they do not apply.
        """
        steps = self.run_pass(tally, threads)
        self.reference = self.digests(steps)
        self.gate(tally, threads, steps)
        if pins is not None:
            want = {}
            for part in self.parts:
                have = pins.get(part.name, {})
                tally.check(set(part.pinned) <= set(have),
                            f"pins.json lacks a pin of {part.name}")
                want.update({k: have[k] for k in part.pinned if k in have})
            compare_digests(tally, self.reference, want, "pinned")
        return steps

    def check_repeat(self, tally, steps):
        """Every pass must reproduce the warm-up pass's outputs exactly."""
        compare_digests(tally, self.digests(steps), self.reference, "repeat")

    def output_sizes(self):
        """Byte counts of the outputs, as per-layer metrics."""
        return {}

    def probe(self, threads, reps):
        """Thread-speedup metrics from direct library calls."""
        return {}


class Pipeline(Workload):
    """The distributor's path: generate, attack with users 3, 17 and 29, trace."""

    name = "pipeline"
    pinned = ("codebook", "pirate", "accusations")
    coalition = (3, 17, 29)

    def __init__(self, seed, smoke, work):
        super().__init__(seed, smoke, work)
        self.users = 50 if smoke else 10_000
        self.book = self.path("book.fpc")
        self.pirate = self.path("pirate.txt")
        self.csv = self.path("accusations.csv")

    def commands(self, threads):
        g = self.cli_args(threads)
        return [
            ("generate", g + ["generate", "--users", str(self.users), "--c0", "8",
                              "--eps1", "1e-3", "--eps2", "0.1", "--out", self.book]),
            ("attack", g + ["attack", "--codebook", self.book, "--users",
                            ",".join(map(str, self.coalition)), "--strategy",
                            "extremal", "--out", self.pirate]),
            ("trace", self._trace(g, self.csv)),
        ]

    def _trace(self, g, out):
        return g + ["trace", "--codebook", self.book, "--pirate", self.pirate,
                    "--out", out]

    def digests(self, steps):
        return {"codebook": sha256_file(self.book),
                "pirate": sha256_file(self.pirate),
                "accusations": sha256_file(self.csv)}

    def _rows(self):
        lines = _read(self.csv).splitlines()
        return lines[0], [line.split(",") for line in lines[1:]]

    def gate(self, tally, threads, steps):
        # Scores must not depend on the thread count: trace again with the
        # other setting (1 thread against the default) and compare the CSVs.
        other = 1 if threads is None else None
        alt = self.path("accusations-alt.csv")
        step = run_cli("trace (other threads)", self._trace(self.cli_args(other), alt))
        if check_step(tally, step):
            tally.check(sha256_file(alt) == sha256_file(self.csv),
                        "trace CSV differs between --threads 1 and the default")
        head, rows = self._rows()
        tally.check(head == "user_id,score,accused", f"accusation CSV header {head!r}")
        tally.check([r[0] for r in rows] == [str(j) for j in range(self.users)],
                    "accusation CSV does not list users 0..n-1 in order")
        scored = {int(r[0]): r for r in rows if len(r) == 3}
        for j in self.coalition:
            tally.check(j in scored and math.isfinite(float(scored[j][1])),
                        f"coalition user {j} not scored")
        accused = [int(r[0]) for r in rows if r[2] == "1"]
        tally.check(all(0 <= j < self.users for j in accused),
                    "accused index outside 0..n-1")
        m = len(_read(self.pirate).strip())
        with open(self.book, "rb") as fh:
            params_len = struct.unpack("<I", fh.read(20)[16:20])[0]
        words = (m + 63) // 64
        want = 48 + params_len + 8 * m + 8 * self.users * words
        tally.check(os.path.getsize(self.book) == want,
                    f"codebook is {os.path.getsize(self.book)} bytes, format says {want}")

    def expected_counts(self):
        pirate = _read(self.pirate).strip()
        _, rows = self._rows()
        return {
            "codegen.bits_generated": self.users * len(pirate),
            # save checksums the file once, attack and trace each load it
            "codegen.bytes_checksummed": 3 * (os.path.getsize(self.book) - 8),
            "tracer.users_scored": self.users,
            "tracer.evidence_columns": pirate.count("1"),
            "tracer.users_accused": sum(r[2] == "1" for r in rows),
        }

    def output_sizes(self):
        return {"codegen.file_bytes": os.path.getsize(self.book),
                "tracer.csv_bytes": os.path.getsize(self.csv)}

    def probe(self, threads, reps):
        """``tracer.trace`` called directly at 1 thread and at ``threads``."""
        cb = codegen.load_codebook(self.book)
        y = tracer.PirateCopy.from_text(_read(self.pirate)).bits
        one, many = [], []
        for _ in range(reps):
            one.append(_timed(tracer.trace, cb, y, cb.params.Z, threads=1))
            many.append(_timed(tracer.trace, cb, y, cb.params.Z, threads=threads))
        one = statistics.median(one)
        return {"tracer.trace_1t_s": one,
                "tracer.thread_speedup": one / statistics.median(many)}

    def headline(self, passes):
        walls = [sum(s.seconds for s in p) for p in passes]
        out = [("pipeline_s", "s", walls, None)]
        for i, label in enumerate(("generate", "attack", "trace")):
            out.append((f"{label}_s", "s", [p[i].seconds for p in passes], None))
        return out


class Simulate(Workload):
    """The Monte Carlo path in two campaign shapes (acceptance criteria 07, 05)."""

    name = "simulate"
    pinned = ("desk_aggregate", "coalition_aggregate")
    # Campaign flags; "c0" is also the coalition size, as the CLI defaults it.
    shapes = {
        "desk": {"c0": 6, "eps1": 0.01, "eps2": 0.25, "innocents": 1000,
                 "strategy": "extremal"},
        "coalition": {"c0": 20, "length": 10_000, "threshold": 30, "eps1": 1e-3,
                      "eps2": 0.3, "innocents": 10, "strategy": "interleave"},
    }

    def __init__(self, seed, smoke, work):
        super().__init__(seed, smoke, work)
        self.trials = {"desk": 2 if smoke else 100, "coalition": 4 if smoke else 400}
        self.probe_trials = 2 if smoke else 20
        self.jsonl = {k: self.path(f"{k}.jsonl") for k in self.shapes}

    def commands(self, threads):
        g = self.cli_args(threads)
        steps = []
        for k, shape in self.shapes.items():
            flags = [f for key, v in shape.items() for f in (f"--{key}", str(v))]
            steps.append((k, g + ["simulate"] + flags + [
                "--trials", str(self.trials[k]), "--out-jsonl", self.jsonl[k]]))
        return steps

    def _aggregate(self, kind):
        return _read(self.jsonl[kind]).splitlines()[-1]

    def digests(self, steps):
        out = {}
        for k, path in self.jsonl.items():
            out[f"{k}_jsonl"] = sha256_file(path)
            out[f"{k}_aggregate"] = sha256_text(self._aggregate(k))
        return out

    def gate(self, tally, threads, steps):
        for k, shape in self.shapes.items():
            lines = _read(self.jsonl[k]).splitlines()
            trials = self.trials[k]
            tally.check(len(lines) == trials + 1, f"{k}: {len(lines)} JSONL lines")
            agg = json.loads(lines[-1]).get("aggregate", {})
            tally.check(agg.get("trials") == trials and agg.get("c") == shape["c0"]
                        and agg.get("innocents_total") == trials * shape["innocents"],
                        f"{k}: aggregate record disagrees with the inputs")
            tally.check(0.0 <= agg.get("fp_hat", -1) <= 1.0
                        and 0.0 <= agg.get("fn_hat", -1) <= 1.0,
                        f"{k}: rates outside [0, 1]")

    def expected_counts(self):
        innocents = bits = 0
        for k, shape in self.shapes.items():
            m = json.loads(self._aggregate(k))["aggregate"]["m"]
            innocents += self.trials[k] * shape["innocents"]
            bits += self.trials[k] * shape["c0"] * m
        return {"simulate.innocents_scored": innocents, "simulate.coalition_bits": bits}

    def output_sizes(self):
        return {"simulate.jsonl_bytes": sum(os.path.getsize(p) for p in self.jsonl.values())}

    def probe(self, threads, reps):
        """A short desk campaign via ``simulate.run`` at 1 thread and at ``threads``."""
        d = self.shapes["desk"]
        t = model.default_cutoff(d["c0"])
        plan = gaussian.conservative_plan(d["c0"], d["c0"] * t, d["eps1"], d["eps2"])
        params = model.SchemeParams(n=d["innocents"], m=plan.m, c0=d["c0"],
                                    eps1=d["eps1"], eps2=d["eps2"], t=t, Z=plan.Z)

        def campaign(k):
            return _timed(simulate.run, simulate.SimConfig(
                params=params, strategy=d["strategy"], c=d["c0"],
                trials=self.probe_trials, innocents_per_trial=d["innocents"],
                seed=self.seed, threads=k))

        one, many = [], []
        for _ in range(reps):
            one.append(campaign(1))
            many.append(campaign(threads))
        return {"simulate.thread_speedup": statistics.median(one) / statistics.median(many)}

    def headline(self, passes):
        return [(f"sim_{k}_trials_per_s", "1/s", [p[i].seconds for p in passes],
                 self.trials[k]) for i, k in enumerate(self.shapes)]


class Plan(Workload):
    """The analyst's design path: a search table, then Gaussian predictions."""

    name = "plan"
    pinned = ("table", "predict")

    def __init__(self, seed, smoke, work):
        super().__init__(seed, smoke, work)
        self.c0_list = "10" if smoke else "10,20,40,80"
        self.ratio_list = "0.06" if smoke else "0.02,0.06,0.10"
        self.iterations = 4096 if smoke else 50_000
        self.cells = len(self.c0_list.split(",")) * len(self.ratio_list.split(","))
        self.reports = [(c0, kind) for c0 in ((5,) if smoke else (5, 10, 20, 40))
                        for kind in KINDS]
        self.table = self.path("table.csv")

    def commands(self, threads):
        g = self.cli_args(threads)
        steps = [("table", g + ["table", "--c0-list", self.c0_list, "--ratio-list",
                                self.ratio_list, "--iterations", str(self.iterations),
                                "--out", self.table])]
        for c0, kind in self.reports:
            steps.append(("predict", g + ["predict", "--c0", str(c0), "--eps1", "1e-6",
                                          "--eps2", "0.3", "--strategy", kind]))
        return steps

    def digests(self, steps):
        text = "".join(s.out for s in steps if s.label == "predict")
        return {"table": sha256_file(self.table), "predict": sha256_text(text)}

    def gate(self, tally, threads, steps):
        lines = _read(self.table).splitlines()
        tally.check(lines[:1] == ["R,c0,A,B,t_ratio"] and len(lines) == self.cells + 1,
                    f"table CSV has {len(lines)} lines")
        for row in lines[1:]:
            A = float(row.split(",")[2])
            tally.check(math.isfinite(A) and A > 0.0, f"table row {row!r}")
        reports = [s for s in steps if s.label == "predict"]
        tally.check(len(reports) == len(self.reports)
                    and all("strategy-specific m_min" in s.out for s in reports),
                    "predict output lacks the m_min line")

    def expected_counts(self):
        return {"bounds.iterations": self.cells * self.iterations}

    def headline(self, passes):
        table = [p[0].seconds for p in passes]
        predict = [sum(s.seconds for s in p[1:]) for p in passes]
        return [("search_iters_per_s", "1/s", table, self.cells * self.iterations),
                ("predict_reports_per_s", "1/s", predict, len(self.reports))]


class Analysis(Workload):
    """The analyst's path: the ``Plan`` commands, then the ``Simulate`` campaigns.

    One pass runs both parts in turn on the same seed; each part gates,
    hashes and counts its own slice of the pass's steps.
    """

    name = "analysis"

    def __init__(self, seed, smoke, work):
        super().__init__(seed, smoke, work)
        self._parts = (Plan(seed, smoke, work), Simulate(seed, smoke, work))

    @property
    def parts(self):
        return self._parts

    def _split(self, steps):
        out, start = [], 0
        for part in self._parts:
            end = start + len(part.commands(None))
            out.append(steps[start:end])
            start = end
        return out

    def commands(self, threads):
        return [c for part in self._parts for c in part.commands(threads)]

    def digests(self, steps):
        return {k: v for part, own in zip(self._parts, self._split(steps))
                for k, v in part.digests(own).items()}

    def gate(self, tally, threads, steps):
        for part, own in zip(self._parts, self._split(steps)):
            part.gate(tally, threads, own)

    def expected_counts(self):
        return {k: v for part in self._parts for k, v in part.expected_counts().items()}

    def output_sizes(self):
        return {k: v for part in self._parts for k, v in part.output_sizes().items()}

    def probe(self, threads, reps):
        return {k: v for part in self._parts for k, v in part.probe(threads, reps).items()}

    def headline(self, passes):
        split = [self._split(p) for p in passes]
        return [h for i, part in enumerate(self._parts)
                for h in part.headline([s[i] for s in split])]


WORKLOADS = {w.name: w for w in (Pipeline, Analysis)}
