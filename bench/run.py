"""dichroma benchmark: one workload, one seed, one line of JSON.

    python3 bench/run.py --workload exact-solve --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout (the package is imported from
./src). The workload's batch of commands is built from --seed, then run
whole, one command at a time, round after round while another round still
fits in --seconds (at least one round). With --trace 1 the batch runs
exactly once with layer tracing on and the per-layer metrics are
reported instead of the end-to-end ones. Every output is checked after
the timing ends; a command whose output fails its check counts as failed.
The last line on stdout is the result object; per-run details and traces
go to bench/out/.

Times are reported at a reference speed. Between consecutive commands
(and cold starts) the driving process runs a burst of probes of the same
kind of work: a fixed pure-Python loop for in-process commands, a bare
interpreter start for processes. A command's slowdown is the median probe
time in the bursts around it over the probe's reference time, and its
reported time is its measured time divided by slowdown ** exponent. The
raw times and slowdowns are kept in the per-run details.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
COLD_STARTS = 7
COMMAND_TIMEOUT = 120  # seconds; a hung command is killed and fails its check
WINDOW = 3  # probe bursts on each side of a command that set its slowdown
RUNTIME = re.compile(r'\n\s*"runtime_ms": [^\n]*')

# A fresh interpreter imports the CLI and parses the workload's input
# files, then reports how long the import took and how many modules it
# loaded.
COLD_START = """
import sys, time, json
before = len(sys.modules)
t0 = time.perf_counter()
import dichroma.cli
t1 = time.perf_counter()
from dichroma.graphio import parse_graph_text
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        parse_graph_text(fh.read())
print(json.dumps({"import_s": t1 - t0, "modules": len(sys.modules) - before}))
"""

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cmd_p50_s": "s",
    "cmd_tail_s": "s",
    "peak_rss_mb": "MB",
}


def probe_loop() -> float:
    """Seconds taken by a fixed loop of dict updates and integer bit
    operations, the kind of work the solvers do."""
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    acc = 1
    for i in range(2000):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + 1
        acc = (acc ^ key << 3) & 0xFFFFF
        acc = acc & (acc - 1) | i & 7
    return time.perf_counter() - t0


def probe_process() -> float:
    """Seconds to start and stop a bare interpreter, site included: the
    start-up every CLI command pays before importing anything."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - t0


@dataclass(frozen=True)
class Probe:
    """A probe, the runs per burst, the reference time a slowdown is taken
    against, and the exponent of the slowdown a command time divides by.

    Reference times are typical medians on a 2-core x86-64 Linux host with
    Python 3.11.7, which ran the loop anywhere between 0.6 and 1.3 ms and
    the interpreter start between 50 and 100 ms for minutes at a time: the
    drift the slowdown divides out. In-process command time grew as the
    loop's slowdown to the power 0.71-0.79 (least-squares slopes of log
    time on log slowdown per command, 1,841 samples). CLI command times
    divided by the interpreter-start slowdown itself spread 0.05-0.07
    over ten seeds, against 0.14-0.31 raw.
    """

    run: Callable[[], float]
    per_burst: int
    reference_s: float
    exponent: float


LOOP = Probe(probe_loop, 3, 0.0011, 0.75)
PROCESS = Probe(probe_process, 1, 0.08, 1.0)


class Gauge:
    """Probe bursts taken before the first timed call and after each one."""

    def __init__(self, probe: Probe):
        self.probe = probe
        self.bursts = [self._burst()]

    def _burst(self) -> list[float]:
        return [self.probe.run() for _ in range(self.probe.per_burst)]

    def mark(self) -> None:
        self.bursts.append(self._burst())

    def slowdowns(self) -> list[float]:
        """One per call: median probe time of the WINDOW bursts on each
        side of it, over the probe's reference time."""
        calls = len(self.bursts) - 1
        return [statistics.median(
                    t for burst in self.bursts[max(0, i - WINDOW + 1):i + WINDOW + 1] for t in burst)
                / self.probe.reference_s for i in range(calls)]


def tail_rank(n: int) -> tuple[int, int]:
    """The highest whole percentile with at least ten commands above it,
    and its nearest rank (1-based)."""
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, rank
    raise ValueError(f"{n} commands leave no tail percentile; the batch needs at least 40")


def cold_starts(inputs: list[str], env: dict) -> list[dict]:
    samples = []
    gauge = Gauge(PROCESS)
    for _ in range(COLD_STARTS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", COLD_START, *inputs], env=env,
                              cwd=ROOT, capture_output=True, text=True, check=True)
        samples.append({"wall_s": time.perf_counter() - t0, **json.loads(proc.stdout)})
        gauge.mark()
    for sample, slowdown in zip(samples, gauge.slowdowns()):
        sample["slowdown"] = slowdown
    return samples


class InProcess:
    """Calls dichroma.cli.run(argv) in this process, stdout captured."""

    probe = LOOP

    def __init__(self):
        import dichroma.cli
        self.cli = dichroma.cli

    def __call__(self, cmd) -> tuple[int, str, float]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = self.cli.run(cmd.stages[0])
            except Exception:  # a traceback is a failed command, not a failed run
                code = -1
                err.write(traceback.format_exc())
            elapsed = time.perf_counter() - t0
        return code, out.getvalue() if code != -1 else err.getvalue(), elapsed


class Processes:
    """Runs each stage as a fresh `python -m dichroma.cli` process (or
    through the tracing launcher), joining stages with pipes."""

    probe = PROCESS

    def __init__(self, env: dict, trace_dir: Path | None):
        self.env = env
        self.trace_dir = trace_dir
        self.launched = 0

    def _argv(self, stage: list[str]) -> list[str]:
        if self.trace_dir is None:
            return [sys.executable, "-m", "dichroma.cli", *stage]
        self.launched += 1
        trace = self.trace_dir / f"{self.launched:04d}.json"
        return [sys.executable, str(BENCH / "launch.py"), str(trace), *stage]

    def __call__(self, cmd) -> tuple[int, str, float]:
        argvs = [self._argv(stage) for stage in cmd.stages]
        t0 = time.perf_counter()
        procs = []
        upstream = subprocess.DEVNULL
        for argv in argvs:
            proc = subprocess.Popen(argv, stdin=upstream, stdout=subprocess.PIPE,
                                    stderr=subprocess.DEVNULL, env=self.env, cwd=ROOT)
            if procs:
                procs[-1].stdout.close()  # the next stage owns the pipe now
            procs.append(proc)
            upstream = proc.stdout
        try:
            out = procs[-1].communicate(timeout=COMMAND_TIMEOUT)[0]
        except subprocess.TimeoutExpired:
            for proc in procs:
                proc.kill()
            out = procs[-1].communicate()[0]
        codes = [p.wait() for p in procs]
        elapsed = time.perf_counter() - t0
        return next((c for c in codes if c), 0), out.decode("utf-8", "replace"), elapsed


def run_round(commands, runner) -> list[tuple[int, str, float, float]]:
    """(exit code, output, seconds, slowdown) per command."""
    gauge = Gauge(runner.probe)
    results = []
    for cmd in commands:
        results.append(runner(cmd))
        gauge.mark()
    return [(*result, slowdown) for result, slowdown in zip(results, gauge.slowdowns())]


def failures(commands, rounds) -> list[dict]:
    """Check round 0 against the references, later rounds against round 0,
    and --threads 2 outputs against their --threads 1 twins. One entry per
    failed command execution."""
    errors: dict[tuple[int, str], str] = {}
    first = {}
    for cmd, (code, out, *_) in zip(commands, rounds[0]):
        first[cmd.label] = (code, RUNTIME.sub("", out))
        try:
            err = cmd.check(code, out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            err = f"unreadable output: {exc!r}"
        if err:
            errors[0, cmd.label] = err
    for cmd in commands:
        if cmd.same_as and first[cmd.label] != first[cmd.same_as]:
            errors.setdefault((0, cmd.label), f"output differs from {cmd.same_as}")
    for r, results in enumerate(rounds[1:], start=1):
        for cmd, (code, out, *_) in zip(commands, results):
            if (code, RUNTIME.sub("", out)) != first[cmd.label]:
                errors[r, cmd.label] = "output changed between rounds"
    return [{"round": r, "command": label, "error": err} for (r, label), err in errors.items()]


def end_to_end(rounds, cold, probe: Probe | None) -> dict[str, float]:
    """Time metrics from the rounds and cold starts; every time is divided
    by its slowdown ** exponent, or left raw when probe is None."""
    exponent = probe.exponent if probe else 0
    cold_exponent = PROCESS.exponent if probe else 0
    per_round = [[s / k ** exponent for _, _, s, k in r] for r in rounds]
    per_command = sorted(statistics.median(col) for col in zip(*per_round))
    return {
        "setup_s": statistics.median(c["wall_s"] / c["slowdown"] ** cold_exponent for c in cold),
        "wall_s": statistics.median(sum(r) for r in per_round),
        "cmd_p50_s": statistics.median(per_command),
        "cmd_tail_s": per_command[tail_rank(len(per_command))[1] - 1],
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main() -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "dichroma" / "cli.py").is_file():
        print(f"bench: no dichroma sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))

    tag = f"{args.workload}-seed{args.seed}"
    work = OUT / f"inputs-{tag}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    commands = workloads.WORKLOADS[args.workload](args.seed, work)
    inputs = sorted(str(p) for p in work.glob("*.txt"))
    cold = cold_starts(inputs, env)

    trace_dir = None
    tracer = None
    if args.workload in workloads.IN_PROCESS:
        runner = InProcess()
        if args.trace:
            import layers
            tracer = layers.Tracer()
            tracer.install()
    else:
        if args.trace:
            trace_dir = OUT / f"traces-{tag}"
            shutil.rmtree(trace_dir, ignore_errors=True)
            trace_dir.mkdir()
        runner = Processes(env, trace_dir)

    rounds = []
    durations = []
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(run_round(commands, runner))
        durations.append(time.perf_counter() - t0)
        if args.trace or time.perf_counter() - started + statistics.median(durations) > args.seconds:
            break

    failed = failures(commands, rounds)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(rounds), "commands": len(commands),
        "tail_percentile": tail_rank(len(commands))[0],
        "raw": end_to_end(rounds, cold, None),
        "cold_starts": cold, "failures": failed,
        "command_s": {cmd.label: [[r[i][2], r[i][3]] for r in rounds]
                      for i, cmd in enumerate(commands)},
    }

    if args.trace:
        import layers
        if tracer is not None:
            traces = [tracer.export(argv=None)]
        else:
            traces = [json.loads(p.read_text()) for p in sorted(trace_dir.glob("*.json"))]
            shutil.rmtree(trace_dir)
        values = layers.layer_metrics(
            traces, statistics.median(c["import_s"] for c in cold),
            statistics.median(c["modules"] for c in cold))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in layers.PER_LAYER.items()}
        layers.write_trace(OUT / f"trace-{tag}.json", {"traces": traces, "metrics": values})
    else:
        values = {**end_to_end(rounds, cold, runner.probe), "peak_rss_mb": peak_rss_mb()}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    detail["metrics"] = metrics
    (OUT / f"run-{tag}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1) + "\n")
    for f in failed[:20]:
        print(f"FAILED round {f['round']} {f['command']}: {f['error']}", file=sys.stderr)
    result = {"correct": not failed, "attempted": len(commands) * len(rounds),
              "failed": len(failed), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
