"""Run one genusforge benchmark workload and print its metrics.

    python3 bench/run.py --workload modular-data --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
./src.  One caller issues queries in a closed loop, whole rounds at a
time, until --seconds have passed; every answer is checked against
bench/refs.py or a property the mathematics requires.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics from spans with --trace 1.  The run record, with the machine,
the versions and the raw times, goes to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("modular-data", "genus-extensions", "code-count", "cli-readme")

# Fresh processes timing import plus input construction; setup_s is their median.
SETUP_SAMPLES = 7
# Fresh processes that only import the package, timed as cli.import spans.
IMPORT_SAMPLES = 3

# On a small shared machine the CPU runs at two speeds about 1.5x apart,
# switching every second or so as other tenants load the host, and the
# share of slow time, like the cost of starting a process, drifts from one
# run to the next.  A fixed kernel that runs no genusforge code is timed
# through each round, and the round's times are scaled by
# reference / (median kernel time in that round): they are seconds at the
# speed at which the kernel takes its reference time.  A change to
# genusforge cannot move the kernel, so it moves the scaled times as it
# moves the raw ones.  Raw times and kernel medians are in the run record.
CPU_KERNEL_REF_S = 0.01
PROCESS_KERNEL_REF_S = 0.2


def cpu_kernel() -> float:
    """Seconds for a fixed mix of Fraction, integer and numpy int64 work."""
    import numpy as np
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 500):
        acc += Fraction(i % 7, i)
    total = 0
    for i in range(20_000):
        total += i * i
    a = np.arange(1 << 16, dtype=np.int64).reshape(-1, 16)
    g = np.arange(256, dtype=np.int64).reshape(16, 16)
    for _ in range(4):
        np.einsum("ij,jk,ik->i", a, g, a)
    return time.perf_counter() - start


def process_kernel() -> float:
    """Seconds for a fresh interpreter to import numpy and mpmath, the
    dependencies of genusforge; the yardstick for work that starts processes."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, mpmath"], env=child_env(),
                   check=True, timeout=170)
    return time.perf_counter() - start


# (kernel, reference seconds, seconds between samples) per workload: the
# cli commands and every set-up are dominated by starting a process.
CPU_CALIBRATION = (cpu_kernel, CPU_KERNEL_REF_S, 0.1)
PROCESS_CALIBRATION = (process_kernel, PROCESS_KERNEL_REF_S, 1.0)
CALIBRATION = {"cli-readme": PROCESS_CALIBRATION}


class Ctx:
    """Issues queries, times them, checks each answer, and calibrates."""

    def __init__(self, calibration, tracer=None) -> None:
        self.kernel, self.kernel_ref_s, self.kernel_interval_s = calibration
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.mismatches: list[str] = []
        self.time_by_query: dict[str, float] = {}
        # per round: raw time, kernel samples, and the raw latencies of the
        # queries that did not fail
        self.rounds: list[dict] = []
        self._calibrated_at = 0.0

    def calibrate(self, force: bool = False) -> None:
        if force or time.perf_counter() - self._calibrated_at >= self.kernel_interval_s:
            self.rounds[-1]["kernel_s"].append(self.kernel())
            self._calibrated_at = time.perf_counter()

    def call(self, name, fn, *args, check=None, **kwargs):
        """Result of fn(*args, **kwargs), or None when it raised."""
        current = self.rounds[-1]
        self.attempted += 1
        start = time.perf_counter()
        try:
            if self.tracer is None:
                result = fn(*args, **kwargs)
            else:
                self.tracer.query = f"q{self.attempted}"
                with self.tracer.span(f"query.{name}"):
                    result = fn(*args, **kwargs)
        except Exception as e:  # a failed operation is counted, not fatal
            current["time_s"] += time.perf_counter() - start
            self.failed += 1
            self.failures.append(f"{name}: {type(e).__name__}: {e}")
            self.calibrate()
            return None
        elapsed = time.perf_counter() - start
        current["time_s"] += elapsed
        current["latencies_s"].append(elapsed)
        self.time_by_query[name] = self.time_by_query.get(name, 0.0) + elapsed
        if check is not None:
            # imported here: checks imports numpy, which a set-up process
            # must not load before it times the package import
            import checks
            try:
                check(result)
            except checks.Mismatch as e:
                self.mismatches.append(f"{name}: {e}")
        self.calibrate()
        return result

    def skip(self, n: int) -> None:
        """Queries that depended on a failed one count as attempted and failed."""
        self.attempted += n
        self.failed += n

    def run_rounds(self, run_round, inputs, expected, seconds) -> None:
        """Whole rounds until `seconds` have passed.  A round's time is the
        sum of its query times, so checking and calibrating are not counted."""
        start = time.perf_counter()
        while True:
            self.rounds.append({"time_s": 0.0, "kernel_s": [], "latencies_s": []})
            self.calibrate(force=True)
            run_round(self, inputs, expected)
            self.calibrate(force=True)
            if time.perf_counter() - start >= seconds:
                return

    def scaled(self) -> tuple[list[float], list[float]]:
        """Round times and query latencies, each scaled by its round's factor."""
        rounds, latencies = [], []
        for r in self.rounds:
            factor = self.kernel_ref_s / statistics.median(r["kernel_s"])
            rounds.append(r["time_s"] * factor)
            latencies += [t * factor for t in r["latencies_s"]]
        return rounds, latencies


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time import and input construction once, print it, exit")
    return p.parse_args(argv)


def workdir(args) -> str:
    return os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")


def setup_only(args) -> int:
    start = time.perf_counter()
    import genusforge.cli  # noqa: F401  (every layer, numpy and mpmath)
    imported = time.perf_counter()
    import workloads
    build = workloads.WORKLOADS[args.workload][0]
    build(args.seed, workdir(args))
    done = time.perf_counter()
    shutil.rmtree(workdir(args), ignore_errors=True)
    print(json.dumps({"import_s": imported - start, "setup_s": done - start}))
    return 0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def measure_setup(args) -> list[dict]:
    """Set-up timed in fresh processes, each followed by the process kernel."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"],
            env=child_env(), capture_output=True, text=True, timeout=170, check=True)
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        sample["kernel_s"] = process_kernel()
        samples.append(sample)
    return samples


def trace_imports(tracer) -> None:
    for _ in range(IMPORT_SAMPLES):
        with tracer.span("cli.import"):
            subprocess.run([sys.executable, "-c", "import genusforge.cli"],
                           env=child_env(), check=True, timeout=170)


def environment(args) -> dict:
    import numpy
    return {
        "machine": platform.machine(),
        "processor": platform.processor(),
        "system": platform.platform(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "clients": 1,
        "loop": "closed",
    }


def percentile(values, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def timings(round_times, latencies) -> dict:
    return {"wall_s": statistics.median(round_times),
            "query_p50_s": statistics.median(latencies),
            "query_p95_s": percentile(latencies, 95)}


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SRC, "genusforge", "__init__.py")):
        print(f"error: no genusforge sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    if args.setup_only:
        return setup_only(args)

    setup_samples = [] if args.trace else measure_setup(args)

    import genusforge.cli  # noqa: F401
    import workloads
    from spans import Tracer
    if not os.path.dirname(os.path.abspath(genusforge.cli.__file__)).startswith(SRC):
        print(f"error: genusforge was imported from {genusforge.cli.__file__}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        workloads.run_cli = tracer.wrap("cli.command", workloads.run_cli)
        trace_imports(tracer)
    build, references, run_round = workloads.WORKLOADS[args.workload]
    inputs = build(args.seed, workdir(args))
    expected = references(inputs)
    ctx = Ctx(CALIBRATION.get(args.workload, CPU_CALIBRATION), tracer)
    try:
        ctx.run_rounds(run_round, inputs, expected, args.seconds)
    finally:
        shutil.rmtree(workdir(args), ignore_errors=True)

    raw = timings([r["time_s"] for r in ctx.rounds],
                  [t for r in ctx.rounds for t in r["latencies_s"]])
    scaled = timings(*ctx.scaled())
    if setup_samples:
        raw = {"setup_s": statistics.median(s["setup_s"] for s in setup_samples), **raw}
        scaled = {"setup_s": statistics.median(
            s["setup_s"] * PROCESS_KERNEL_REF_S / s["kernel_s"] for s in setup_samples),
            **scaled}
    end_to_end = {name: {"value": value, "unit": "s"} for name, value in scaled.items()}
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-readme" else resource.RUSAGE_SELF
    end_to_end["peak_rss_mb"] = {"value": resource.getrusage(who).ru_maxrss / 1024, "unit": "MB"}
    if args.trace:
        metrics = tracer.metrics()
        tracer.dump(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json"))
    else:
        metrics = end_to_end

    env = environment(args)
    record = {
        "environment": env,
        "correct": not ctx.mismatches,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "failures": sorted(set(ctx.failures)),
        "mismatches": ctx.mismatches[:20],
        "metrics": metrics,
        "end_to_end": end_to_end,
        "raw_s": raw,
        "rounds": [{"time_s": r["time_s"], "kernel_median_s": statistics.median(r["kernel_s"]),
                    "kernel_samples": len(r["kernel_s"])} for r in ctx.rounds],
        "setup_samples": setup_samples,
        "queries_timed": sum(len(r["latencies_s"]) for r in ctx.rounds),
        "time_by_query_s": ctx.time_by_query,
    }
    name = f"run-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for line in sorted(set(ctx.failures)) + ctx.mismatches[:20]:
        print(line, file=sys.stderr)
    print(json.dumps(env))
    print(json.dumps({"correct": not ctx.mismatches, "attempted": ctx.attempted,
                      "failed": ctx.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
