"""edgespec benchmark: one workload, one seed, one closed loop.

    python3 perfbench/run.py --workload cut_deep --seed 3 --seconds 30 --trace 0

Ops run back to back from one thread, in passes over the workload's op
list; every pass runs the same ops (relabelled afresh on ``cut_deep`` and
``cycle_line``).  Passes repeat until another would overrun ``--seconds``
once at least 100 ops have run, so at least ten lie beyond the 90th
percentile.  The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit, the run's ``failed_ratio`` and the
machine it ran on.

Latencies are reported at reference speed.  Shared machines drift: on
the 2-CPU x86_64 VM the benchmark was defined on, spells of seconds to
minutes ran all code about 1.5 times slower, so raw times of one workload
spread 0.10-0.35 (quartile spread over median) between 30-second runs,
whatever statistic a run took.  So between ops, every quarter second, the runner times a fixed
pure-Python loop (``calibration_work``), and each op latency is scaled by
the loop's reference time over the mean of the two loop times around the
op.  The meta line gives the median speed factor and the unscaled figures.
``ops_per_s`` is ops over the sum of their scaled latencies;
``op_p50_ms`` and ``op_p90_ms`` are percentiles of the scaled latencies
of every op run (at least 100).  ``setup_s`` is the median of several
set-ups, each scaled by the loop times just before and after it: a fresh
import of edgespec compiled from source (any bytecode cache under
``src/`` is ignored), making the inputs and a warm-up op of each kind.
Writing ``screen``'s input files is left out (see ``setup``).
``peak_rss_mb`` is the process's ``ru_maxrss``, read before the output
checks load networkx.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace
1`` runs passes for half of ``--seconds``, runs them again with span
wrappers on edgespec's public functions (see spans.py), and reports the
per-layer metrics.

Every op's output is checked: against digests recorded in reference.json
(for every seed on ``cut_deep`` and ``cycle_line``, for the default seed on
``screen``), against the first output of the same op in the run, and on
``screen`` against networkx for every definite verdict.  An op that
raises or whose output is wrong counts as failed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 21
MIN_OPS = 100
# calibration_work() time that counts as reference speed: about its time on
# an unloaded 2-CPU x86_64 VM with Python 3.11
CALIBRATION_REF_S = 0.005
CALIBRATE_EVERY_S = 0.25
IMPORT_RUNS = 5
# bytecode cache directory for edgespec's imports: never created, since
# bytecode is never written, so edgespec always compiles from source and a
# __pycache__ that tests or tools leave under src/ is never read
NO_PYC = ROOT / ".perfbench_work" / "no-pyc"

sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, OpError, digest  # noqa: E402


def import_edgespec():
    """Import edgespec afresh, compiled from source."""
    for name in [m for m in sys.modules if m == "edgespec" or m.startswith("edgespec.")]:
        del sys.modules[name]
    saved, sys.pycache_prefix = sys.pycache_prefix, str(NO_PYC)
    try:
        import edgespec
        import edgespec.cli
    finally:
        sys.pycache_prefix = saved
    return edgespec


def calibration_work() -> int:
    """A fixed pure-Python loop of the kinds of work edgespec does: integer
    bit operations, set and dict updates."""
    acc, seen, last = 0, set(), {}
    for i in range(20_000):
        x = (i * 2654435761) & 0xFFFFFFFF
        acc ^= x >> 3
        seen.add(x & 1023)
        last[i & 255] = acc
    return acc + len(seen) + len(last)


def calibration_time() -> float:
    t0 = time.perf_counter()
    calibration_work()
    return time.perf_counter() - t0


@dataclass
class KeyOutputs:
    """The first output of one op key and how many of its ops differed."""

    digest: str
    text: str | None
    ops: int = 1
    mismatches: int = 0


class Results:
    """Op latencies per pass, the calibrations taken between ops, and the
    output checks of one run."""

    def __init__(self) -> None:
        self.passes: list[list[tuple[float, int]]] = []
        self.cal: list[float] = []
        self.cal_at = 0.0
        self.outputs: dict[str, KeyOutputs] = {}
        self.failed = 0

    @property
    def attempted(self) -> int:
        return sum(len(p) for p in self.passes)

    def calibrate(self) -> None:
        self.cal.append(calibration_time())
        self.cal_at = time.perf_counter()

    def speed(self, i: int) -> float:
        """Machine speed, relative to the reference, between calibrations
        i and i + 1."""
        return CALIBRATION_REF_S / ((self.cal[i] + self.cal[i + 1]) / 2)

    def latencies(self, passes: slice = slice(None)) -> list[float]:
        """Latencies of the ops of the given passes, at reference speed."""
        return [t * self.speed(i) for lat in self.passes[passes] for t, i in lat]

    def add(self, key: str, text: str, keep_text: bool) -> None:
        d = digest(text)
        seen = self.outputs.get(key)
        if seen is None:
            self.outputs[key] = KeyOutputs(d, text if keep_text else None)
        else:
            seen.ops += 1
            seen.mismatches += d != seen.digest

    def check(self, wl) -> list[str]:
        """Check each key's first output and set ``failed``: every op of a
        key whose first output is wrong, else every op that differs from it."""
        problems = []
        self.failed = 0
        for key, out in self.outputs.items():
            accepted = wl.accepted(key)
            problem = None
            if accepted is not None and out.digest not in accepted:
                problem = "output differs from the reference"
            elif accepted is None and out.text is not None:
                problem = wl.validate(key, out.text)
            if problem:
                problems.append(f"{key}: {problem}")
                self.failed += out.ops
            else:
                if out.mismatches:
                    problems.append(f"{key}: {out.mismatches} of {out.ops} outputs differ from the first")
                self.failed += out.mismatches
        return problems


def run_op(op, results: Results, keep_text: bool, wrap=None) -> float:
    """Run and check one op; returns its latency."""
    t0 = time.perf_counter()
    try:
        raw = op.run() if wrap is None else wrap(op.run)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        raw = OpError(exc)
    seconds = time.perf_counter() - t0
    results.add(op.key, raw.text if isinstance(raw, OpError) else op.canon(raw), keep_text)
    return seconds


def run_pass(ops, results: Results, keep_text: bool, wrap=None) -> None:
    lat = []
    for op in ops:
        if time.perf_counter() - results.cal_at > CALIBRATE_EVERY_S:
            results.calibrate()
        lat.append((run_op(op, results, keep_text, wrap), len(results.cal) - 1))
    results.calibrate()
    results.passes.append(lat)


def run_passes(wl, budget: float, results: Results, passes: int | None = None, wrap=None) -> int:
    """Whole passes until the next would overrun budget with at least
    MIN_OPS ops run (or `passes` passes)."""
    start = time.perf_counter()
    first = len(results.passes)
    k = 0
    last = 0.0
    while True:
        if passes is not None:
            if k == passes:
                break
        elif k > 0 and sum(len(p) for p in results.passes[first:]) >= MIN_OPS:
            if time.perf_counter() - start + last > budget:
                break
        ops = wl.ops(k)
        t0 = time.perf_counter()
        run_pass(ops, results, wl.keeps_text, wrap)
        last = time.perf_counter() - t0
        k += 1
    return k


def setup(cls, seed: int, ref: dict, workdir: Path):
    """One set-up; its time is scaled like the op latencies.  Writing the
    input files is not timed: on the VM the benchmark was defined on,
    creating the same 200 files took anywhere from 4 to 110 ms, from one
    second to the next."""
    before = calibration_time()
    t0 = time.perf_counter()
    es = import_edgespec()
    wl = cls(es, seed, ref, workdir)
    wl.setup()
    seconds = time.perf_counter() - t0
    wl.write_files()
    t0 = time.perf_counter()
    warm = Results()
    for op in wl.warmup():
        run_op(op, warm, False)
    seconds += time.perf_counter() - t0
    return seconds * CALIBRATION_REF_S / ((before + calibration_time()) / 2), es, wl


def cli_import_ms() -> float:
    """Median wall time of a fresh interpreter that imports the CLI, with
    click loaded from its installed bytecode and edgespec compiled from
    source."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import click; "
        f"sys.pycache_prefix = {str(NO_PYC)!r}; import edgespec.cli"
    )
    times = []
    for _ in range(IMPORT_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-I", "-B", "-c", code], check=True, timeout=60)
        times.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(times)


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def spec_units() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        group: {m["name"]: m["unit"] for m in spec[group]} for group in ("end_to_end", "per_layer")
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "edgespec" / "__init__.py").is_file():
        print(f"error: no edgespec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    units = spec_units()
    ref = json.loads((HERE / "reference.json").read_text())
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    cls = WORKLOADS[args.workload]
    try:
        setups = []
        es = wl = None
        for _ in range(SETUP_REPEATS):
            # free the previous set-up's modules and inputs, so that peak_rss_mb
            # counts one set-up, not however many the collector left behind
            es = wl = None
            gc.collect()
            shutil.rmtree(workdir, ignore_errors=True)
            seconds, es, wl = setup(cls, args.seed, ref, workdir)
            setups.append(seconds)
        results = Results()
        if args.trace == 0:
            passes = run_passes(wl, args.seconds, results)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            lat = results.latencies()
            raw = [t for p in results.passes for t, _ in p]
            unscaled = {
                "ops_per_s": len(raw) / sum(raw),
                "op_p50_ms": statistics.median(raw) * 1000.0,
                "op_p90_ms": statistics.quantiles(raw, n=10)[8] * 1000.0,
            }
            metrics = {
                "ops_per_s": len(lat) / sum(lat),
                "op_p50_ms": statistics.median(lat) * 1000.0,
                "op_p90_ms": statistics.quantiles(lat, n=10)[8] * 1000.0,
                "setup_s": statistics.median(setups),
                "peak_rss_mb": rss_mb,
            }
            group = "end_to_end"
        else:
            passes = run_passes(wl, args.seconds / 2, results)
            tracer = Tracer()
            tracer.install(es)
            try:
                root = wl.root_layer
                wrap = (lambda fn: tracer.op(lambda: tracer.span(root, fn))) if root else tracer.op
                run_passes(wl, 0, results, passes, wrap)
            finally:
                tracer.uninstall()
            unscaled = {}
            metrics = tracer.layer_metrics()
            untraced = sum(results.latencies(slice(0, passes)))
            traced = sum(results.latencies(slice(passes, None)))
            metrics["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
            metrics["cli.import_ms"] = cli_import_ms()
            group = "per_layer"
        problems = results.check(wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    missing = set(units[group]) ^ set(metrics)
    if missing:
        raise RuntimeError(f"metrics out of step with BENCHMARK.json: {sorted(missing)}")
    attempted = results.attempted
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "speed": statistics.median(results.speed(i) for i in range(len(results.cal) - 1)),
        "unscaled": unscaled,
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": f"{platform.machine()} {platform.node()} {platform.platform()}",
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"ops attempted {attempted}, failed {results.failed}, failed_ratio {results.failed / attempted:.6f}")
    for problem in problems:
        print(f"check failed: {problem}")
    if args.trace:
        print("note: gf2 lies on no CLI or engine path, so it is not traced")
    for name in units[group]:
        print(f"{name} {metrics[name]:.6g} {units[group][name]}")
    print(
        json.dumps(
            {
                "correct": results.failed == 0,
                "attempted": attempted,
                "failed": results.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": units[group][name]} for name in units[group]
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
