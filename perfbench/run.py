#!/usr/bin/env python3
"""latsum benchmark: seeded workloads against the public latsum API.

Run from the root of a latsum checkout; the package is imported from
``src/``.  One caller, closed loop: the next item starts when the
previous one returns.  One process and one compute thread.

    python3 perfbench/run.py --workload domain_sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1       # each workload in its own process
    python3 perfbench/run.py --self-check                  # tiny sizes; metrics and gates

A run repeats the seed's job in rounds for ``--seconds``.  With
``--trace 0`` the end-to-end metrics are printed, in reference seconds
(``refclock.py``); with ``--trace 1`` the per-layer metrics of traced
rounds, the start-up split and the tracing overhead, in wall seconds.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for what each metric means.
"""

import os

# one compute thread: cap the BLAS pools before numpy is loaded, here and
# in every interpreter this process starts
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

from refclock import RefClock, WallClock  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}
CLI_METRICS = ("cli.interpreter_s", "cli.import_s", "cli.import_scipy_s", "cli.command_s")
SETUP_REPEATS = 7
CLI_REPEATS = 3
CHILD_TIMEOUT_S = 150


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _run_child(cmd: list[str]) -> subprocess.CompletedProcess:
    """Run one fresh interpreter to completion (killed and reaped on timeout)."""
    return subprocess.run(
        cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )


# ---------------------------------------------------------------------------
# Start-up
# ---------------------------------------------------------------------------

def measure_setup(name: str, seed: int) -> float:
    """Reference seconds from launching an interpreter until latsum is
    imported and one warm-up item has finished."""
    t0 = time.monotonic()
    proc = _run_child([sys.executable, str(HERE / "setup_probe.py"), name, str(seed)])
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    done, spent, factor = (float(v) for v in proc.stdout.split()[-3:])
    return (done - t0 - spent) * factor


def scipy_import_seconds(importtime_log: str) -> float:
    """Time spent importing scipy modules and everything they import,
    from a ``-X importtime`` log."""
    rows = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        if not self_us.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((int(self_us), depth, name.strip()))
    # children are logged before their parent: walk backwards, parents first
    total_us = 0
    stack: list[tuple[int, bool]] = []
    for self_us, depth, name in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        in_scipy = name == "scipy" or name.startswith("scipy.") or (bool(stack) and stack[-1][1])
        stack.append((depth, in_scipy))
        if in_scipy:
            total_us += self_us
    return total_us * 1e-6


def measure_cli(repeats: int) -> tuple[dict, int]:
    """The start-up split, each part in fresh interpreters one at a time.
    Returns the metrics and the number of CLI runs whose output was wrong."""
    py = sys.executable
    samples = {name: [] for name in CLI_METRICS}
    wrong = 0
    for _ in range(repeats):
        walls = {}
        for label, cmd in (
            ("interpreter", [py, "-c", "pass"]),
            ("import", [py, "-c", "import latsum"]),
            ("command", [py, "-m", "latsum.cli", "reduce", "--tau", "2.5,0.9"]),
        ):
            t0 = time.perf_counter()
            proc = _run_child(cmd)
            walls[label] = time.perf_counter() - t0
            if label == "command":
                wrong += not _reduce_output_ok(proc)
            elif proc.returncode != 0:
                raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
        log = _run_child([py, "-X", "importtime", "-c", "import latsum"]).stderr
        samples["cli.interpreter_s"].append(walls["interpreter"])
        samples["cli.import_s"].append(walls["import"] - walls["interpreter"])
        samples["cli.import_scipy_s"].append(scipy_import_seconds(log))
        samples["cli.command_s"].append(walls["command"] - walls["import"])
    return {name: statistics.median(v) for name, v in samples.items()}, wrong


def _reduce_output_ok(proc: subprocess.CompletedProcess) -> bool:
    if proc.returncode != 0:
        return False
    try:
        row = json.loads(proc.stdout)
    except json.JSONDecodeError:
        return False
    return (
        abs(row["tau_out_re"] - 0.5) < 1e-12
        and abs(row["tau_out_im"] - 0.9) < 1e-12
        and row["word"] == ["Tinv", "Tinv"]
    )


# ---------------------------------------------------------------------------
# Timed runs
# ---------------------------------------------------------------------------

class Tally:
    """Each item's latencies over the rounds of one run, read on ``clock``,
    and the pass/fail counts of every round.  Within a round an item is
    run again until it has taken ``min_item_s`` (once if 0)."""

    def __init__(self, items: list, clock, min_item_s: float = 0.0) -> None:
        self.clock = clock
        self.min_item_s = min_item_s
        self.samples: list[list[float]] = [[] for _ in items]
        self.rounds = 0
        self.attempted = 0
        self.failed = 0

    def run_round(self, workload, items):
        """Run every item, closed loop, and check the round's outputs."""
        outputs = []
        for i, item in enumerate(items):
            spent = 0.0
            while True:
                mark = self.clock.mark()
                try:
                    out = workload.run(item)
                except Exception:  # an item that raises is a failed item; keep measuring
                    out = None
                    print(f"item {item!r} raised:\n{traceback.format_exc()}", file=sys.stderr)
                elapsed = self.clock.elapsed(mark)
                self.samples[i].append(elapsed)
                spent += elapsed
                if out is None or spent >= self.min_item_s:
                    break
            outputs.append(out)
        ok = workload.check(items, outputs)
        self.rounds += 1
        self.attempted += len(items)
        self.failed += ok.count(False)
        return outputs, ok

    def final_check(self, workload, items, outputs, ok) -> None:
        late = workload.final_check(items, outputs)
        self.failed += sum(1 for a, b in zip(ok, late) if a and not b)

    def item_s(self) -> list[float]:
        """Each item's lower-quartile latency: above the rare sample the
        clock's scaling reads too low, below the ones a preemption made
        too long."""
        return [
            statistics.quantiles(v, n=4, method="inclusive")[0] if len(v) > 1 else v[0]
            for v in self.samples
        ]

    def job_s(self) -> float:
        """The job's time with every item at its lower-quartile latency."""
        return math.fsum(self.item_s())


def measure(workload, seed: int, seconds: float, setup_repeats: int = SETUP_REPEATS):
    """End-to-end metrics, in reference seconds: rounds of the seed's job
    until ``seconds`` of rounds have passed.  The set-up probes are spread
    over the run, the i-th after i/setup_repeats of that time."""
    items = workload.job(seed)
    workload.run(items[0])  # warm-up, untimed
    tally = Tally(items, RefClock(), workload.min_item_s)
    setups: list[float] = []
    busy = 0.0
    while True:
        t0 = time.perf_counter()
        with tally.clock:
            outputs, ok = tally.run_round(workload, items)
        busy += time.perf_counter() - t0
        if tally.rounds == 1:
            first = (outputs, ok)
        while len(setups) < setup_repeats and len(setups) * seconds <= busy * setup_repeats:
            setups.append(measure_setup(workload.name, seed))
        if busy >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tally.final_check(workload, items, *first)
    item_s = tally.item_s()
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": math.fsum(item_s),
        "item_p50_ms": statistics.median(item_s) * 1e3,
        "item_p90_ms": statistics.quantiles(item_s, n=10)[8] * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    return metrics, END_TO_END, tally.attempted, tally.failed


def layer_units() -> dict:
    """Every per-layer metric with its unit: the tracer's, the start-up
    split and the tracing overhead."""
    from tracing import LAYER_METRICS

    return {**LAYER_METRICS, **{name: "s" for name in CLI_METRICS}, "trace.overhead_s": "s"}


def measure_traced(workload, seed: int, seconds: float, cli_repeats: int = CLI_REPEATS):
    """Per-layer metrics: untraced and traced rounds of the seed's job
    alternate until ``seconds`` have passed.  A per-layer time is its median
    over the traced rounds, in wall seconds; counts and margins must be the
    same in every traced round.  The overhead is the traced job time minus
    the untraced one, each with every item at its lower-quartile latency."""
    from tracing import SpanCost, Tracer

    items = workload.job(seed)
    workload.run(items[0])  # warm-up, untimed
    cost = SpanCost.calibrate()
    plain, traced = Tally(items, WallClock()), Tally(items, WallClock())
    rounds = []
    start = time.perf_counter()
    while True:
        plain.run_round(workload, items)
        tracer = Tracer(cost)
        with tracer:
            outputs, ok = traced.run_round(workload, items)
        rounds.append(tracer.metrics())
        if traced.rounds == 1:
            first = (outputs, ok)
        if time.perf_counter() - start >= seconds:
            break
    traced.final_check(workload, items, *first)
    units = layer_units()
    metrics = {}
    unsteady = 0
    for name in rounds[0]:
        values = [r[name] for r in rounds]
        if units[name] == "s":
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                unsteady += 1
                print(f"{name} differs between traced rounds: {values}", file=sys.stderr)
    cli, wrong = measure_cli(cli_repeats)
    metrics.update(cli)
    metrics["trace.overhead_s"] = traced.job_s() - plain.job_s()
    for name, unit in units.items():
        if unit == "count":
            metrics[name] = int(metrics[name])
    # the CLI runs and the repeat check of the counts are attempts too
    attempted = plain.attempted + traced.attempted + cli_repeats + 1
    failed = plain.failed + traced.failed + wrong + (unsteady > 0)
    return metrics, units, attempted, failed


# ---------------------------------------------------------------------------
# Run record and output
# ---------------------------------------------------------------------------

def _git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(workload: str, seed: int, seconds: float, trace: int) -> dict:
    versions = {}
    for package in ("numpy", "scipy", "mpmath"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = "absent"
    return {
        "commit": _git_commit(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "blas_threads": 1,
    }


def _print_metrics(name: str, metrics: dict, units: dict, attempted: int, failed: int) -> None:
    for metric, unit in units.items():
        print(f"{name}: {metric} = {metrics[metric]:.6g} {unit}")
    print(f"{name}: items = {attempted}  failed = {failed}  fail_frac = {failed / attempted:.6g} fraction")


def _result_line(metrics: dict, units: dict, attempted: int, failed: int) -> str:
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    })


def run_all(args, names) -> int:
    """Every workload in its own fresh process, one after another, so that
    each reports its own peak RSS; the children's lines are passed on and
    their results joined, each metric prefixed with its workload."""
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
        attempted += result["attempted"]
        failed += result["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# Self-check
# ---------------------------------------------------------------------------

def self_check() -> int:
    """Tiny sizes: every named metric is emitted for every workload, and
    every correctness gate catches a deliberately wrong value."""
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != END_TO_END:
        problems.append(f"BENCHMARK.json end_to_end {declared} != emitted {END_TO_END}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != layer_units():
        problems.append("BENCHMARK.json per_layer differs from the traced metrics: "
                        f"{sorted(set(declared.items()) ^ set(layer_units().items()))}")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    for name, cls in WORKLOADS.items():
        workload = cls(tiny=True)
        for trace in (0, 1):
            if trace:
                metrics, units, _, failed = measure_traced(workload, 1, 0.0, cli_repeats=1)
            else:
                metrics, units, _, failed = measure(workload, 1, 0.0, setup_repeats=1)
            missing = set(units) - set(metrics)
            if missing:
                problems.append(f"{name} trace={trace}: missing {sorted(missing)}")
            if failed:
                problems.append(f"{name} trace={trace}: {failed} items failed at tiny size")
        items = workload.job(1)
        outputs = [workload.run(item) for item in items]
        for label, patch, index in workload.mutants(items, outputs):
            wrong = [patch.get(i, out) for i, out in enumerate(outputs)]
            caught = not (workload.check(items, wrong)[index] and workload.final_check(items, wrong)[index])
            print(f"{name}: gate {'catches' if caught else 'MISSES'} {label}")
            if not caught:
                problems.append(f"{name}: gate misses {label}")
    for line in problems:
        print(f"self-check: {line}", file=sys.stderr)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "latsum" / "__init__.py").is_file():
        print(f"error: no latsum package under {SRC}; run from a latsum checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import latsum

    if Path(latsum.__file__).resolve().parent != (SRC / "latsum").resolve():
        print(f"error: latsum imported from {latsum.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.self_check:
        return self_check()
    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)} or all")

    print("run_record " + json.dumps(run_record(args.workload, args.seed, args.seconds, args.trace)))
    workload = WORKLOADS[args.workload]()
    if args.trace:
        metrics, units, attempted, failed = measure_traced(workload, args.seed, args.seconds)
    else:
        metrics, units, attempted, failed = measure(workload, args.seed, args.seconds)
    _print_metrics(args.workload, metrics, units, attempted, failed)
    print(_result_line(metrics, units, attempted, failed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
