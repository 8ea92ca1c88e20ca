"""Benchmark of the ``cremona`` command line on four seeded workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload klein-four-sweep --seed 1 --seconds 30 --trace 0

Each workload is a fixed, seeded set of operations; the run executes the
whole set in rounds until ``--seconds`` have passed, with one untimed
round first and at least two timed rounds.  Every output is checked.  Each
timed repeat is divided by the time of a fixed reference kernel (the
benchmark's own Fraction loop) measured just before it, so that the
machine's changing speed cancels out; an operation's cost is the median of
these ratios over its repeats, scaled by ``KERNEL_REF_MS``.  ``--trace 1``
replaces the end-to-end metrics by per-layer ones from a traced run (see
``tracing.py``).  The last line of standard output is one JSON object with
the result; a copy with per-operation detail goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_TIMED_ROUNDS = 2
#: fresh-interpreter set-ups per run, spread over it between rounds
SETUP_SAMPLES = 7
#: fresh interpreters per baseline in the traced run
START_SAMPLES = 7
#: a new reference-kernel sample is taken before an operation once this long has passed
KERNEL_EVERY_S = 0.05
#: the scale of the normalized times: a kernel of this many ms counts as that long
KERNEL_REF_MS = 4.0


def reference_kernel() -> float:
    """Seconds taken by a fixed loop of Fraction arithmetic, the benchmark's yardstick.

    Timed next to the operations, it reads how fast the machine runs at that
    moment.  The collector is held off, so objects the program keeps alive
    do not slow the kernel down.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        x, total = Fraction(1, 3), Fraction(0)
        for i in range(1, 600):
            total += x * Fraction(i, i + 7) - Fraction(2 * i + 1, 3 * i + 2)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class InProcess:
    """Runs an operation through ``cremona.cli.main`` in this process."""

    def __init__(self) -> None:
        sys.path.insert(0, str(SRC))
        import cremona.cli
        self.cli = cremona.cli

    def run(self, op: workloads.Op) -> tuple[int, str]:
        text, rc = op.stdin, 0
        for argv in op.stages:
            sys.stdin = io.StringIO(text)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                # looked up on every call, so the traced run sees the wrapper
                rc = self.cli.main(list(argv))
            text = out.getvalue()
        sys.stdin = sys.__stdin__
        return rc, text

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Cold:
    """Runs an operation as ``python -m cremona`` processes joined by pipes."""

    def __init__(self) -> None:
        self.env = child_env()
        self.peak_kb = 0

    def run(self, op: workloads.Op) -> tuple[int, str]:
        procs = []
        try:
            stdin = subprocess.PIPE
            for argv in op.stages:
                procs.append(subprocess.Popen(
                    [sys.executable, "-m", "cremona", *argv], stdin=stdin,
                    stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, cwd=ROOT, env=self.env))
                if len(procs) > 1:
                    procs[-2].stdout.close()
                stdin = procs[-1].stdout
            procs[0].stdin.write(op.stdin.encode())
            procs[0].stdin.close()
            out = procs[-1].stdout.read().decode()
            procs[-1].stdout.close()
            for p in procs:
                # wait4 gives each child's own peak memory
                _, status, usage = os.wait4(p.pid, 0)
                p.returncode = os.waitstatus_to_exitcode(status)
                self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
            return procs[-1].returncode, out
        finally:
            for p in procs:
                if p.returncode is None:
                    p.kill()
                    p.wait()

    def peak_rss_mb(self) -> float:
        return self.peak_kb / 1024


class Accounting:
    """Counts attempted and failed operations; each distinct output is checked once.

    An operation fails when the program raises, or when its report does
    not pass the check; the latter also makes the run incorrect.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self._verdicts: dict = {}

    def record(self, op: workloads.Op, rc, out: str) -> None:
        self.attempted += 1
        key = (op.name, rc, out)
        if key not in self._verdicts:
            verdict, error = "ok", None
            if rc is None:
                verdict, error = "error", out
            else:
                try:
                    op.check(rc, out)
                except Exception as exc:  # a malformed report is as wrong as a false one
                    verdict, error = "wrong", f"{type(exc).__name__}: {exc}"
            if error is not None:
                print(f"FAILED {op.name}: {error}", file=sys.stderr)
            self._verdicts[key] = verdict
        verdict = self._verdicts[key]
        self.failed += verdict != "ok"
        self.wrong += verdict == "wrong"


def execute(runner, op, acct: Accounting) -> float:
    t0 = time.perf_counter()
    try:
        rc, out = runner.run(op)
    except (Exception, SystemExit) as exc:  # the program's failure is a failed operation
        rc, out = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    acct.record(op, rc, out)
    return elapsed


_SETUP = """
import sys, time
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
t0 = time.perf_counter()
import cremona.cli
workloads.build_ops({workload!r}, {seed!r})
print(time.perf_counter() - t0)
"""


def fresh(code: str) -> float:
    """Wall time of a fresh interpreter running ``code``, or what it prints."""
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    elapsed = time.perf_counter() - t0
    return float(done.stdout) if done.stdout.strip() else elapsed


def setup_sample(workload: str, seed: int) -> float:
    """Seconds to import cremona and generate the inputs, in a fresh interpreter."""
    return fresh(_SETUP.format(src=str(SRC), bench=str(BENCH), workload=workload, seed=seed))


def timed_rounds(ops, runner, acct, seconds, min_rounds, between=None, tracer=None):
    """Run whole rounds: one untimed, then timed ones until ``seconds`` pass.

    Returns the number of rounds, each operation's timed repeats as
    (seconds, reference-kernel seconds) pairs and, with a tracer, the least
    traced time of each operation and the layer breakdown of that repeat.
    A traced repeat follows each untraced one of the same operation, so
    both see the same state of the machine.
    """
    n = len(ops)
    repeats: list = [[] for _ in range(n)]
    best_traced = [float("inf")] * n
    layers: list = [None] * n
    kernel_at, kernel = 0.0, 0.0
    start = time.perf_counter()
    rounds = 0
    while True:
        for i, op in enumerate(ops):
            if rounds and time.perf_counter() - kernel_at >= KERNEL_EVERY_S:
                kernel = reference_kernel()
                kernel_at = time.perf_counter()
            elapsed = execute(runner, op, acct)
            if not rounds:
                continue
            repeats[i].append((elapsed, kernel))
            if tracer is None:
                continue
            first = len(tracer.spans)
            tracer.install()
            try:
                elapsed = execute(runner, op, acct)
            finally:
                tracer.uninstall()
            if elapsed < best_traced[i]:
                best_traced[i] = elapsed
                layers[i] = tracing.self_times(tracer.spans, first)
        rounds += 1
        if between:
            between()
        if rounds > min_rounds and time.perf_counter() - start >= seconds:
            return rounds, repeats, best_traced, layers


def least(repeats) -> list[float]:
    """Each operation's least timed repeat, in seconds."""
    return [min(t for t, _ in reps) for reps in repeats]


def end_to_end(workload, seed, seconds, ops, runner, acct):
    start = time.perf_counter()
    setups = [setup_sample(workload, seed)]

    def between():
        due = len(setups) * seconds / SETUP_SAMPLES
        if len(setups) < SETUP_SAMPLES and time.perf_counter() - start >= due:
            setups.append(setup_sample(workload, seed))

    rounds, repeats, _, _ = timed_rounds(ops, runner, acct, seconds, MIN_TIMED_ROUNDS, between)
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample(workload, seed))
    # seconds at the reference speed: each repeat over the kernel timed before it
    norm = [statistics.median(t / k for t, k in reps) * KERNEL_REF_MS / 1e3 for reps in repeats]
    best = least(repeats)
    kernels = [k for reps in repeats for _, k in reps]
    metrics = {
        "norm_ops_per_s": (len(ops) / sum(norm), "1/s"),
        "norm_latency_p50_ms": (statistics.median(norm) * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (runner.peak_rss_mb(), "MB"),
    }
    detail = {"rounds": rounds, "setup_samples_s": setups,
              "wall": {"ops_per_s": len(ops) / sum(best),
                       "latency_p50_ms": statistics.median(best) * 1e3,
                       "kernel_median_ms": statistics.median(kernels) * 1e3},
              "norm_s": {op.name: t for op, t in zip(ops, norm)},
              "best_s": {op.name: t for op, t in zip(ops, best)}}
    return metrics, detail


def per_layer(seconds, ops, acct):
    """Per-layer metrics per pass, from traced repeats of the operations in process."""
    runner = InProcess()
    tracer = tracing.Tracer()
    starts, imports = [], []
    for _ in range(START_SAMPLES):
        starts.append(fresh("pass"))
        imports.append(fresh("import cremona.cli"))
    rounds, repeats, best_traced, layers = timed_rounds(ops, runner, acct, seconds, 1,
                                                        tracer=tracer)
    best = least(repeats)
    self_ms = {b: sum(l[b] for l in layers) * 1e3 for b in tracing.BUCKETS}
    op_ms = sum(best_traced) * 1e3
    metrics = {
        "cli.interpreter_start_ms": (min(starts) * 1e3, "ms"),
        "cli.import_ms": ((min(imports) - min(starts)) * 1e3, "ms"),
        "cli.self_ms": (self_ms["cli"], "ms"),
        "jsonio.parse_ms": (self_ms["jsonio.parse"], "ms"),
        "jsonio.emit_ms": (self_ms["jsonio.emit"], "ms"),
    }
    for layer in tracing.LAYERS[2:]:
        metrics[f"{layer}.self_ms"] = (self_ms[layer], "ms")
    for name in tracing.COUNTER_NAMES:
        unit = "bytes" if name.endswith("bytes_out") else "count"
        metrics[name] = (tracer.counts[name] / (rounds - 1), unit)
    metrics["trace.op_ms"] = (op_ms, "ms")
    metrics["trace.unattributed_ms"] = (op_ms - sum(self_ms.values()), "ms")
    metrics["trace.overhead_pct"] = ((op_ms / (sum(best) * 1e3) - 1) * 100, "%")
    detail = {"rounds": rounds, "buckets": tracing.BUCKETS, "spans": [
        (tracing.BUCKETS.index(b), t0, t1, parent) for b, t0, t1, parent in tracer.spans]}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cremona" / "cli.py").is_file():
        print(f"cannot find the cremona sources under {SRC}", file=sys.stderr)
        return 2
    ops = workloads.build_ops(args.workload, args.seed)
    acct = Accounting()
    if args.trace:
        metrics, detail = per_layer(args.seconds, ops, acct)
    else:
        runner = Cold() if args.workload == "cli-cold" else InProcess()
        metrics, detail = end_to_end(args.workload, args.seed, args.seconds, ops, runner, acct)

    print(f"workload {args.workload}: seed {args.seed}, python {platform.python_version()}, "
          f"{detail['rounds']} rounds of {len(ops)} operations (first untimed), "
          f"attempted {acct.attempted}, failed {acct.failed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:14.6f} {unit}")
    if "wall" in detail:
        wall = detail["wall"]
        print(f"  wall clock, least repeats: {wall['ops_per_s']:.4f} ops/s, "
              f"p50 {wall['latency_p50_ms']:.4f} ms; reference kernel median "
              f"{wall['kernel_median_ms']:.4f} ms (scale {KERNEL_REF_MS} ms)")
    result = {
        "correct": acct.wrong == 0,
        "attempted": acct.attempted,
        "failed": acct.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump({"python": platform.python_version(), "seed": args.seed,
                   "seconds": args.seconds, **result, **detail}, handle)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
