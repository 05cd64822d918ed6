"""Benchmark of the equirank pipeline, run from the root of a source checkout.

    python3 perfbench/run.py --workload desk-grid --seed 1 --seconds 25 --trace 0

It imports equirank from `src/` of the checkout, makes the workload's inputs
from the seed with simgen, runs one discarded warm-up unit, then repeats
timed units for about `--seconds` seconds in this one process, checking the
outputs of every unit. With `--trace 0` it reports the end-to-end metrics,
its times rescaled to a quiet host by `pace`; with `--trace 1` it alternates
untraced and traced units and reports the per-layer metrics of the traced
ones in plain wall time. The last line of standard output is a
JSON object {correct, attempted, failed, metrics}; the lines before it give
each metric with its unit, the share of failed units and the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# Input generation is repeated this many times in set-up; setup_s takes the median.
SETUP_REPEATS = 3
END_TO_END_UNITS = {
    "run_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "mean_accuracy": "fraction", "acc_std": "fraction",
}


@dataclass
class Unit:
    seconds: float  # at the speed of a quiet host when paced, else wall time
    wall_s: float
    slowdown: float
    digest: str
    problems: list[str]
    reports: list[dict] = field(default_factory=list)
    layers: dict[str, float] | None = None


def _digest(out: Path) -> str:
    """sha256 over the unit's data files; manifests hold timestamps and paths."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        if path.name.startswith("manifest_"):
            continue
        h.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_unit(w, seed: int, inputs: Path, out: Path, trace: bool, paced: bool) -> Unit:
    import spans
    import workloads
    from pace import Pace

    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    # Each unit starts from a collected heap, as a fresh command would.
    gc.collect()
    tracer = spans.Tracer() if trace else None
    problems: list[str] = []
    clock = Pace() if paced else contextlib.nullcontext()
    start = perf_counter()
    with clock, contextlib.redirect_stdout(io.StringIO()):
        try:
            if tracer is None:
                codes = workloads.run_unit(w, seed, inputs, out)
            else:
                with spans.traced(tracer):
                    codes = tracer.run("cli", workloads.run_unit, w, seed, inputs, out)
            problems += [f"a command exited with code {c}" for c in codes if c != 0]
        except Exception:
            traceback.print_exc()
            problems.append("the unit raised an exception")
    seconds = wall_s = perf_counter() - start
    slowdown = 1.0
    if paced:
        seconds, slowdown = clock.seconds, clock.slowdown
    if tracer is not None:
        seconds = tracer.spans[0][2] - tracer.spans[0][1]
    reports: list[dict] = []
    try:
        found, reports = workloads.check(w, out)
        problems += found
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"outputs unreadable: {exc!r}")
    layers = tracer.metrics() if tracer is not None else None
    return Unit(seconds, wall_s, slowdown, _digest(out), problems, reports, layers)


def measure(w, seed: int, seconds: float, trace: bool, workdir: Path,
            import_s: float = 0.0) -> tuple[dict, list[Unit]]:
    """Set up, warm up and time units of workload `w`.

    Returns the result object and every timed unit. Set-up, and the units
    of an untraced run, are paced: their times are rescaled to a quiet host.
    """
    import workloads
    from pace import Pace

    inputs, out = workdir / "input", workdir / "out"
    generation = []
    for _ in range(SETUP_REPEATS):
        with Pace() as clock:
            workloads.make_inputs(w, seed, inputs)
        generation.append(clock.seconds)
    warmup = run_unit(w, seed, inputs, out, trace=False, paced=True)
    setup_s = import_s + median(generation) + warmup.seconds

    units: list[Unit] = []
    start = perf_counter()
    while True:
        # With tracing, odd units are traced and even ones give the untraced reference.
        units.append(run_unit(w, seed, inputs, out, trace=trace and len(units) % 2 == 1,
                              paced=not trace))
        enough = len(units) >= (2 if trace else 1)
        typical = median(u.wall_s for u in units)
        if enough and perf_counter() - start + typical > seconds:
            break

    failed = 0
    for i, u in enumerate([warmup] + units):
        if u.digest != warmup.digest:
            u.problems.append("data files differ from the first unit's")
        for problem in u.problems:
            print(f"unit {i}: {problem}", file=sys.stderr)
        failed += bool(u.problems) and i > 0

    plain = [u.seconds for u in units if u.layers is None]
    if trace:
        traced = [u for u in units if u.layers is not None]
        # The layers of one unit, so that their self times add up to its run time.
        middle = sorted(traced, key=lambda u: u.seconds)[(len(traced) - 1) // 2]
        metrics = dict(middle.layers)
        metrics["trace.overhead_s"] = median(u.seconds for u in traced) - median(plain)
        metrics = {name: (value, _layer_unit(name)) for name, value in metrics.items()}
    else:
        reports = units[-1].reports
        metrics = {
            "run_s": median(plain),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "mean_accuracy": _mean(r["overall_accuracy"] for r in reports),
            "acc_std": _mean(r["acc_std"] for r in reports),
        }
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}
    return {
        "correct": failed == 0 and not warmup.problems,
        "attempted": len(units),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }, units


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else float("nan")


def _layer_unit(name: str) -> str:
    return "s" if name.endswith("_s") or name.endswith("_s_max") else "count"


def environment() -> dict:
    import numpy

    commit = "unknown"  # an exported checkout has no .git
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10, check=True,
            ).stdout.strip()
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "equirank").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS + ("EQUIRANK_THREADS",)},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "equirank" / "__init__.py").is_file():
        print(f"run.py: no equirank sources under {src}", file=sys.stderr)
        return 2
    # One thread in every BLAS/OpenMP pool, and equirank's own pool left off.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("EQUIRANK_THREADS", None)
    sys.path.insert(0, str(src))
    from pace import Pace

    with Pace() as clock:  # numpy is already loaded, by pace
        import equirank.cli  # noqa: F401  (import time is part of setup_s)
    import_s = clock.seconds
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        result, units = measure(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                                bool(args.trace), workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    share = result["failed"] / result["attempted"]
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"units={result['attempted']}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(f"failed_share {share!r} fraction")
    for field_name in ("seconds", "wall_s", "slowdown"):
        print(f"unit_{field_name} " + " ".join(repr(getattr(u, field_name)) for u in units))
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
