"""Benchmark for betticone (stdlib only, one process, no threads).

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: resolve_deep, module_pipeline, cone_batch, window_rays (see
README.md).  Each run imports the package from ../src and builds its inputs
from the seed.  Then it repeats whole rounds for S seconds: a round is the
workload's own part at full size followed by a small fixed probe of each
other part, so every run reports every end-to-end metric and every metric is
sampled across the whole run.  Outputs are checked against bench/oracle.py
after the timed work.  With --trace 1 only the workload's own part runs,
rounds alternating untraced and traced (layer functions wrapped), and the
per-layer metrics are printed instead.  The last line of stdout is one JSON
object.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import oracle
import parts
from tracing import Tracer

WORKLOADS = {
    "resolve_deep": "resolve",
    "module_pipeline": "pipeline",
    "cone_batch": "cone",
    "window_rays": "window",
}
PARTS = {"resolve": parts.Resolve, "pipeline": parts.Pipeline, "cone": parts.Cone, "window": parts.Window}
SETUPS = 5  # set-up is repeated and its median reported
PER_LAYER_UNITS = {"s": "s/round", "self_s": "s/round", "useful_ratio": "ratio"}
REFERENCE_S = 0.0004  # nominal time of _reference(): the speed every timing is scaled to
SAMPLE_EVERY = 0.05  # seconds between reference timings
NEAR = 0.1  # reference timings this close to an operation set its scale


def _reference():
    """Seconds of fixed interpreter work like the program's own (Fraction
    arithmetic, tuple keys, dict and list traffic), the fastest of three
    runs so that an interrupt or a cold cache does not read as a slow host."""
    def once():
        t0 = time.perf_counter()
        acc, table = Fraction(0), {}
        for i in range(150):
            acc += Fraction(i % 7 + 1, i % 5 + 1)
            table[(i % 13, i)] = acc
        sorted(table.items())
        return time.perf_counter() - t0
    return min(once() for _ in range(3))


class Pace:
    """How fast the machine runs right now.  The host's speed drifts by tens
    of percent within minutes, for every program alike, so while a Pace is
    entered a timer signal times _reference() every SAMPLE_EVERY seconds,
    in this thread, even in the middle of an operation.  A timing is
    reported as measured seconds, less the reference timings inside it,
    times REFERENCE_S over the median reference time around it: the seconds
    it would take on a machine where the reference takes REFERENCE_S."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self.spent = 0.0  # seconds spent in _sample so far

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        self._sample()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, *_):
        t0 = time.perf_counter()
        self.took.append(_reference())
        self.at.append(t0)
        self.spent += time.perf_counter() - t0

    def run(self, fn, *args, sample=True):
        """(result, start, seconds) of fn(*args).  sample=False holds the
        reference timings off meanwhile, for work done in other processes,
        which a reference timed here would compete with for the CPUs."""
        if not sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
        spent, t0 = self.spent, time.perf_counter()
        try:
            result = fn(*args)
        finally:
            took = time.perf_counter() - t0 - (self.spent - spent)
            if not sample:
                signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        return result, t0, took

    def scaled(self, seconds, start):
        """seconds measured from start, at reference speed."""
        lo = max(bisect.bisect_left(self.at, start - NEAR) - 1, 0)
        hi = bisect.bisect_right(self.at, start + seconds + NEAR) + 1
        return seconds * REFERENCE_S / statistics.median(self.took[lo:hi])


def fresh_import():
    """Import betticone from scratch, as a new process would."""
    for name in [m for m in sys.modules if m == "betticone" or m.startswith("betticone.")]:
        del sys.modules[name]
    bc = importlib.import_module("betticone")
    if not Path(bc.__file__).resolve().is_relative_to(parts.SRC):
        raise ImportError(f"betticone imported from {bc.__file__}, not from {parts.SRC}")
    return bc, importlib.import_module("betticone.cli")


def build(seed, focus, names):
    """The parts in run order: probes first, the workload's own part last."""
    bc, cli = fresh_import()
    built = {name: PARTS[name](bc, cli, oracle.Lcg(seed * 1009 + n), name == focus)
             for n, name in enumerate(PARTS) if name in names}
    return dict(sorted(built.items(), key=lambda kv: kv[0] == focus))


class Rounds:
    """Whole rounds of a part's operations: per round, each operation's
    start, seconds as measured, and digest."""

    def __init__(self, part, pace):
        self.part = part
        self.pace = pace
        self.starts: list[list[float]] = []
        self.raw: list[list[float]] = []
        self.digests: list[list] = []

    def one(self):
        gc.collect()  # start every round with the same heap
        starts, raw_times, digests = [], [], []
        for op in self.part.ops:
            raw, t0, took = self.pace.run(_attempt, self.part.run, op,
                                          sample=op.group not in parts.OTHER_PROCESSES)
            raw_times.append(took)
            starts.append(t0)
            digests.append(_digest(self.part, op, raw))
        self.starts.append(starts)
        self.raw.append(raw_times)
        self.digests.append(digests)

    @property
    def times(self):
        """Per round, each operation's seconds at reference speed."""
        return [[self.pace.scaled(t, s) for t, s in zip(raw, starts)]
                for raw, starts in zip(self.raw, self.starts)]

    def metrics(self):
        """Each group's end-to-end metric: the median over rounds."""
        out = {}
        times = self.times
        for group, (metric, unit, how) in parts.GROUPS.items():
            cols = [n for n, op in enumerate(self.part.ops) if op.group == group]
            if cols:
                sums = [sum(t[n] for n in cols) for t in times]
                k = len(cols)
                values = sums if how == "total" else [k / s for s in sums] if how == "rate" \
                    else [s / k for s in sums]
                out[metric] = (statistics.median(values), unit)
        return out


def _attempt(run, op):
    try:
        return run(op)
    except Exception as exc:  # a failed operation, counted and reported
        return exc


def _digest(part, op, raw):
    if isinstance(raw, Exception):
        return ("raised", f"{type(raw).__name__}: {raw}")
    try:
        return part.digest(op, raw)
    except Exception as exc:
        return ("raised", f"{type(exc).__name__}: {exc}")


def judge(rounds):
    """(attempted, failed, incorrect, errors): a raised operation counts as
    failed; a wrong output counts as failed and makes the run incorrect.
    Each distinct output is checked once."""
    part = rounds.part
    first = {}  # label -> first output that did not raise, for cross checks
    for digests in rounds.digests:
        for op, dg in zip(part.ops, digests):
            if op.label not in first and dg[0] != "raised":
                first[op.label] = dg
    verdicts = {}
    attempted = failed = incorrect = 0
    errors = []
    for digests in rounds.digests:
        for op, dg in zip(part.ops, digests):
            attempted += 1
            if dg[0] == "raised":
                failed += 1
                errors.append(f"{op.label}: {dg[1]}")
                continue
            key = (op.label, dg)
            if key not in verdicts:
                try:
                    verdicts[key] = part.check(op, dg, first)
                except Exception as exc:  # an output the oracle cannot even read
                    verdicts[key] = [f"unreadable output ({type(exc).__name__}: {exc})"]
            if verdicts[key]:
                failed += 1
                incorrect += 1
                errors.append(f"{op.label}: {'; '.join(verdicts[key])}")
    return attempted, failed, incorrect, errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (parts.SRC / "betticone" / "__init__.py").is_file():
        print(f"error: no betticone package under {parts.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(parts.SRC))
    focus = WORKLOADS[args.workload]

    setup, metrics, absent = [], {}, []
    with Pace() as pace:
        for _ in range(1 if args.trace else SETUPS):
            built, t0, took = pace.run(build, args.seed, focus, [focus] if args.trace else list(PARTS))
            setup.append(pace.scaled(took, t0))
        rounds = {name: Rounds(part, pace) for name, part in built.items()}
        began = time.perf_counter()
        if args.trace:
            # untraced and traced rounds alternate, so drift in the machine's
            # speed reaches both alike
            traced = Rounds(built[focus], pace)
            tracer = Tracer()
            while not traced.raw or time.perf_counter() - began < args.seconds:
                rounds[focus].one()
                tracer.install()
                try:
                    traced.one()
                finally:
                    tracer.remove()
        else:
            while not rounds[focus].raw or time.perf_counter() - began < args.seconds:
                for r in rounds.values():
                    r.one()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"setup: median {statistics.median(setup):.4f} s of {len(setup)}")
    print(f"reference: median {statistics.median(pace.took) * 1000:.3f} ms over {len(pace.took)} timings, "
          f"scaled to {REFERENCE_S * 1000:g} ms")
    if args.trace:
        absent = tracer.absent + [f"counter of {s}" for s in sorted(tracer.broken)]
        scale = REFERENCE_S / statistics.median(pace.took)
        for metric, value in tracer.metrics(len(traced.raw)).items():
            unit = PER_LAYER_UNITS.get(metric.rsplit(".", 1)[-1], "count/round")
            metrics[metric] = (value * scale if unit == "s/round" else value, unit)
        metrics["trace.overhead_s"] = (statistics.median(map(sum, traced.times))
                                       - statistics.median(map(sum, rounds[focus].times)), "s/round")
    else:
        metrics["setup_s"] = (statistics.median(setup), "s")
        metrics["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
        for r in rounds.values():
            metrics.update(r.metrics())

    attempted = failed = incorrect = 0
    for name, r in rounds.items():
        a, f, bad, errors = judge(r)
        if args.trace:  # the traced rounds' outputs are checked as well
            a2, f2, bad2, errors2 = judge(traced)
            a, f, bad, errors = a + a2, f + f2, bad + bad2, errors + errors2
        attempted, failed, incorrect = attempted + a, failed + f, incorrect + bad
        own = "" if args.trace else "".join(f", {m} {v:.6g}" for m, (v, _) in r.metrics().items())
        print(f"{name} ({'workload' if name == focus else 'probe'}): {len(r.raw)} rounds, "
              f"attempted {a} failed {f}{own}")
        if name == focus:
            times = r.times
            for n, op in enumerate(r.part.ops):
                print(f"  {op.label}: median {statistics.median(t[n] for t in times):.4f} s "
                      f"(as measured {statistics.median(t[n] for t in r.raw):.4f} s)")
        for line in errors[:5]:
            print(f"  FAILED {line}")
    if absent:
        print("absent wrap targets: " + ", ".join(absent))
    print(json.dumps({
        "correct": incorrect == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 0 if incorrect == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
