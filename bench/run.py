#!/usr/bin/env python3
"""Benchmark of reservematch: end-to-end CLI throughput, set-up time and
memory on three workloads, or per-layer self times and counts when traced.

    python3 bench/run.py --workload market --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/`` (nothing needs installing) and exits with code 2 when that is
missing. Workloads (see ``workloads.py`` and ``BENCHMARK.json``):

- ``market``: ``match`` on one market of 1 000 students and 20 schools;
- ``audit``: ``audit --seed 120*S --count 120`` at the CLI defaults;
- ``stability``: ``verify`` on 16 matched markets of 60 students.

Each run builds its inputs from ``--seed`` with the package's generator
three times (``setup_s`` is the median; a set-up is the import of the
package in a fresh interpreter plus building and writing the inputs), then
repeats the timed operations for about ``--seconds`` and reports the median
throughput over those repetitions. Times are in reference seconds: wall time
corrected by calibration slices taken while the program runs, so that the
shared host's changing speed cancels out (``calibrate.py``); the record line
gives the wall-time figures too. Every operation's output is checked; a
failed check, an exception, a non-zero exit or a refused search counts as a
failed operation. The process is single-threaded:
``REserve_MATCH_WORKERS`` is removed from its environment.

With ``--trace 1`` the layer modules are wrapped from outside (``tracer.py``)
and the metrics are per-layer: the median over set-ups plus the median over
repetitions, so one value describes one set-up and one pass of the timed
operations, in wall seconds (traced runs take no calibration slices). A
last, untraced pass gives ``trace.overhead_ratio``. Spans are written to
``.bench_work/trace-<workload>-seed<seed>.json``.

Standard output ends with two JSON lines: a run record (machine, commit,
digests, sample counts, error rate), then the result
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

from calibrate import Calibrator, Measurement, total
from tracer import LAYER_METRICS, Tracer
from workloads import SIZES, WORKLOADS, Outcome

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKERS_ENV = "REserve_MATCH_WORKERS"
SETUP_REPS = 3
DEFAULT_SEED = 1
IMPORT_PROBE = """
import json, sys, calibrate
with calibrate.Calibrator(enabled=sys.argv[1] == "1").measure() as timing:
    import reservematch.cli
print(json.dumps(timing.as_dict()))
"""


class MissingSource(Exception):
    pass


def load_package(src: Path = SRC):
    """Import reservematch from ``src``."""
    init = src / "reservematch" / "__init__.py"
    if not init.is_file():
        raise MissingSource(f"{init} not found; run from the root of a reservematch checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    rm = importlib.import_module("reservematch")
    importlib.import_module("reservematch.cli")  # the one module the package does not import
    if Path(rm.__file__).resolve() != init.resolve():
        raise MissingSource(f"reservematch was imported from {rm.__file__}, not {init}")
    return rm


def import_timing(calibrator: Calibrator) -> Measurement:
    """How long a fresh interpreter takes to import the package and its CLI."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(int(calibrator.enabled))],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return Measurement(**json.loads(probe.stdout))


def run_rep(workload) -> list[Outcome]:
    try:
        return workload.rep()
    except Exception:  # a crashed operation is a failed one; keep measuring
        return [Outcome(Measurement(), 0, b"", traceback.format_exc(limit=3))]


def run_checks(outcomes: list[Outcome]) -> None:
    """Run the deferred output checks; a failed operation completes no items."""
    for o in outcomes:
        if o.check and not o.problem:
            try:
                o.problem = o.check()
            except Exception:
                o.problem = traceback.format_exc(limit=3)
        if o.problem:
            o.items = 0


def throughput(outcomes: list[Outcome], reference: bool = True) -> float:
    """Items per second: reference seconds, or wall seconds if not ``reference``."""
    timing = total(o.timing for o in outcomes)
    seconds = timing.reference_seconds if reference else timing.seconds
    return sum(o.items for o in outcomes) / seconds if seconds > 0 else 0.0


def digest(outcomes: list[Outcome]) -> str:
    return hashlib.sha256(b"".join(o.report for o in outcomes)).hexdigest()


def run_workload(
    rm,
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: dict | None = None,
    tamper=None,
    work_root: Path | None = None,
):
    """Run one workload; returns (result, record) as printed by ``main``."""
    size = size or SIZES[name]
    work_root = work_root or ROOT / ".bench_work"
    work = work_root / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.environ.pop(WORKERS_ENV, None)

    calibrator = Calibrator(enabled=not trace)
    workload = WORKLOADS[name](rm, calibrator, work, seed, size, tamper)
    tracer = Tracer() if trace else None
    problems: list[str] = []
    import_timings, build_timings, setup_digests, setup_deltas = [], [], [], []
    reps, rep_deltas, baseline = [], [], None

    if tracer:
        tracer.install()
    try:
        for _ in range(SETUP_REPS):
            import_timings.append(import_timing(calibrator))
            before = tracer.snapshot() if tracer else None
            with calibrator.measure() as timing:
                setup_digests.append(workload.setup())
            build_timings.append(timing)
            if tracer:
                setup_deltas.append(tracer.snapshot() - before)
        # Repeat until the next repetition would end nearer past ``seconds``
        # than this one ends short of it.
        measure_start = perf_counter()
        while True:
            rep_start = perf_counter()
            before = tracer.snapshot() if tracer else None
            reps.append(run_rep(workload))
            if tracer:
                rep_deltas.append(tracer.snapshot() - before)
            run_checks(reps[-1])
            now = perf_counter()
            if now - measure_start + (now - rep_start) / 2 >= seconds:
                break
        if tracer:
            tracer.uninstall()
            baseline = run_rep(workload)
            run_checks(baseline)
    finally:
        if tracer:
            tracer.uninstall()

    outcomes = [o for rep in reps + ([baseline] if baseline else []) for o in rep]
    failures = [o.problem for o in outcomes if o.problem]
    for problem in failures[:5]:
        print(f"failed: {problem}", file=sys.stderr)
    if len(set(setup_digests)) != 1:
        problems.append("set-up drew different inputs on repetition")
    report_digests = {digest(rep) for rep in reps if not any(o.problem for o in rep)}
    if len(report_digests) > 1:
        problems.append("reports differ between repetitions")
    inputs_sha256 = setup_digests[0]
    reports_sha256 = min(report_digests) if report_digests else None
    pin = "unpinned"
    if size == SIZES[name]:
        pinned = json.loads((BENCH / "pinned.json").read_text()).get(name, {}).get(str(seed))
        if pinned:
            pin = "match"
            if pinned != {"inputs_sha256": inputs_sha256, "reports_sha256": reports_sha256}:
                pin = "mismatch"
                problems.append(f"digests differ from those pinned for seed {seed}")

    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": size,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "commit": git_commit(),
        "source_sha256": source_sha256(),
        "workers_env": os.environ.get(WORKERS_ENV),
        "inputs_sha256": inputs_sha256,
        "reports_sha256": reports_sha256,
        "pin": pin,
        "error_rate": len(failures) / len(outcomes),
        "problems": problems,
    }
    rep_timings = [total(o.timing for o in rep) for rep in reps]
    setup_timings = [i + b for i, b in zip(import_timings, build_timings)]
    if tracer:
        metrics, counts_repeat = layer_metrics(setup_deltas, rep_deltas)
        metrics["trace.overhead_ratio"] = (
            median(t.seconds for t in rep_timings) / total(o.timing for o in baseline).seconds,
            "ratio",
        )
        if not counts_repeat:
            problems.append("layer counts differ between repetitions")
        trace_path = work_root / f"trace-{name}-seed{seed}.json"
        tracer.write(trace_path, {"record": record})
        record.update(
            counts_repeat=counts_repeat,
            trace_file=str(trace_path),
            samples={m: {"setups": SETUP_REPS, "reps": len(reps)} for m in metrics},
            traced_throughput=median(throughput(rep) for rep in reps),
            untraced_throughput=throughput(baseline),
            rep_seconds=[t.seconds for t in rep_timings],
        )
    else:
        metrics = {
            "throughput": (median(throughput(rep) for rep in reps), "items/s"),
            "setup_s": (median(t.reference_seconds for t in setup_timings), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        record.update(
            samples={"throughput": len(reps), "setup_s": SETUP_REPS, "peak_rss_mb": 1},
            # the throughput under its workload-specific name
            throughput_as={workload.alias: metrics["throughput"][0], "item": workload.item},
            # the same figures in wall seconds, and how slow the host ran
            wall={
                "throughput": median(throughput(rep, reference=False) for rep in reps),
                "setup_s": median(t.seconds for t in setup_timings),
            },
            slowdown={
                "reps": [t.slowdown for t in rep_timings],
                "setups": [t.slowdown for t in setup_timings],
            },
            rep_seconds=[t.seconds for t in rep_timings],
            setup_seconds=[t.seconds for t in setup_timings],
        )
    result = {
        "correct": not problems and not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    return result, record


def layer_metrics(setup_deltas, rep_deltas):
    """Median per set-up plus median per repetition, for every layer metric;
    also whether every count repeated exactly."""
    setups = [d.metrics() for d in setup_deltas]
    reps = [d.metrics() for d in rep_deltas]
    out, repeat = {}, True
    for metric in LAYER_METRICS:
        if not metric.endswith("_s"):
            repeat &= len({m[metric] for m in setups}) == 1 and len({m[metric] for m in reps}) == 1
        unit = "s" if metric.endswith("_s") else "bytes" if metric.endswith("_bytes") else "count"
        value = median(m[metric] for m in setups) + median(m[metric] for m in reps)
        out[metric] = (value, unit)
    return out, repeat


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git;
    "unknown" outside a git repository (``source_sha256`` still identifies
    the code)."""
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


def source_sha256() -> str:
    h = hashlib.sha256()
    package = SRC / "reservematch"
    for path in sorted(package.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(package).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        rm = load_package()
    except MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result, record = run_workload(rm, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
