"""The benchmark's workloads: how each builds its inputs from a seed, which
operations it times, and how it checks what the program produced.

A workload object is made once per run. ``setup()`` builds and writes the
inputs and returns their SHA-256; the runner calls it several times to take a
median. ``rep()`` runs the timed operations once and returns one ``Outcome``
per operation; a check that calls into the package is left in
``Outcome.check`` so the runner can run it outside the traced repetition.
Every operation goes through ``reservematch.cli.main`` and is timed by the
run's ``Calibrator`` (``calibrate.py``). Every library call is made through
a module attribute at call time, so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Optional

from calibrate import Calibrator, Measurement

# Full sizes; the smoke test passes toy ones.
SIZES = {
    # One over-demanded market: 1 000 students for 20 x 45 = 900 seats.
    "market": {"students": 1000, "schools": 20, "types": 3, "capacity": 45},
    # The audit subcommand at its defaults over 120 generated instances.
    "audit": {"count": 120, "students": 4, "schools": 2, "types": 3},
    # Markets whose `verify` runs the exhaustive blocking-set search.
    "stability": {"markets": 16, "students": 60, "schools": 6, "types": 3, "capacity": 3},
}

Tamper = Optional[Callable[[Path], None]]


@dataclass
class Outcome:
    """One timed operation: its timing (see ``calibrate``), the work items it
    completed, the report bytes it produced and, when it failed, why.
    ``check``, when set, returns the problem with the output, if any."""

    timing: Measurement
    items: int
    report: bytes
    problem: Optional[str] = None
    check: Optional[Callable[[], Optional[str]]] = None


def sha256_files(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).name.encode() + b"\0")
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def cli_arg(path: Path) -> str:
    """A path as the CLI should see it: relative to the working directory
    when possible, so reports (which echo the path) hash the same in every
    checkout."""
    try:
        return str(path.resolve().relative_to(Path.cwd().resolve()))
    except ValueError:
        return str(path)


def call_cli(rm, calibrator: Calibrator, argv: list[str]) -> tuple[int, Measurement, str, str]:
    """Run ``reservematch.cli.main`` in-process, capturing its output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with calibrator.measure() as timing:
            code = rm.cli.main(argv)
    return code, timing, out.getvalue(), err.getvalue()


def _exit_problem(command: str, code: int, err: str) -> Optional[str]:
    if code == 0:
        return None
    return f"{command} exited {code}: {err.strip()[-300:]}"


class Market:
    """`match` on one large generated market; COP does nearly all the work."""

    item = "students"
    alias = "match_students_per_s"

    def __init__(self, rm, calibrator: Calibrator, work: Path, seed: int, size: dict, tamper: Tamper = None):
        self.rm, self.calibrator = rm, calibrator
        self.seed, self.size, self.tamper = seed, size, tamper
        self.instance_path = work / "market.instance"
        self.allocation_path = work / "market.allocation"
        self.instance = None

    def setup(self) -> str:
        gen = self.rm.generator
        size = self.size
        params = gen.GeneratorParams(
            students=size["students"],
            schools=size["schools"],
            types=size["types"],
            seed=self.seed,
            capacity_range=(size["capacity"], size["capacity"]),
        )
        self.instance = gen.generate_random_instance(params)
        self.rm.fileio.save_instance(self.instance, self.instance_path)
        return sha256_files([self.instance_path])

    def rep(self) -> list[Outcome]:
        argv = [
            "match",
            cli_arg(self.instance_path),
            "--save-allocation",
            cli_arg(self.allocation_path),
            "--format",
            "machine",
        ]
        code, timing, out, err = call_cli(self.rm, self.calibrator, argv)
        problem = _exit_problem("match", code, err)
        if problem:
            return [Outcome(timing, 0, out.encode(), problem)]
        if self.tamper:
            self.tamper(self.allocation_path)
        saved = self.allocation_path.read_bytes()
        check = partial(self._check, json.loads(out), json.loads(saved)["contracts"])
        return [Outcome(timing, len(self.instance.students), out.encode() + saved, None, check)]

    def _check(self, report: dict, saved_ids: list) -> Optional[str]:
        """Held contracts are acceptable, and each school's reference choice
        over the allocation is exactly what it holds. (The blocking-set
        search refuses at this size, so stability is checked on the
        `stability` workload.)"""
        if sorted(saved_ids) != report["allocation"]:
            return "saved allocation differs from the reported one"
        instance = self.instance
        allocation = self.rm.fileio.load_allocation(self.allocation_path, instance)
        for c in sorted(allocation):
            if not instance.preferences[c.student].accepts(c):
                return f"{c} is unacceptable to its student"
        for cfg in instance.schools:
            held = frozenset(c for c in allocation if c.school == cfg.school)
            chosen, _ = self.rm.choice.dynamic_reserves_choice(allocation, cfg)
            if chosen != held:
                return f"school {cfg.school} would not choose what it holds"
        return None


class Audit:
    """`audit --seed S --count 120`: about 11 000 tiny COP re-runs under
    changed preferences, plus axiom tabulation and flexibility replays."""

    item = "instances"
    alias = "audit_instances_per_s"

    def __init__(self, rm, calibrator: Calibrator, work: Path, seed: int, size: dict, tamper: Tamper = None):
        self.rm, self.calibrator, self.size = rm, calibrator, size
        # Consecutive benchmark seeds audit disjoint ranges of instance seeds.
        self.base = seed * size["count"]

    def setup(self) -> str:
        """Draw the instances the audit will generate, to pin them."""
        gen, fileio, size = self.rm.generator, self.rm.fileio, self.size
        digest = hashlib.sha256()
        for n in range(size["count"]):
            params = gen.GeneratorParams(
                students=size["students"],
                schools=size["schools"],
                types=size["types"],
                seed=self.base + n,
                claim_range=(1, 2),
            )
            doc = fileio.instance_to_document(gen.generate_random_instance(params))
            digest.update(json.dumps(doc, sort_keys=True).encode())
        return digest.hexdigest()

    def rep(self) -> list[Outcome]:
        size = self.size
        argv = ["audit", "--seed", str(self.base), "--count", str(size["count"])]
        argv += ["--students", str(size["students"]), "--schools", str(size["schools"])]
        argv += ["--types", str(size["types"]), "--format", "machine"]
        code, timing, out, err = call_cli(self.rm, self.calibrator, argv)
        problem = _exit_problem("audit", code, err)
        if not problem:
            report = json.loads(out)
            if report["count"] != size["count"] or report["all_ok"] is not True:
                problem = f"audit reports all_ok={report['all_ok']} over {report['count']}"
        return [Outcome(timing, 0 if problem else size["count"], out.encode(), problem)]


class Stability:
    """`verify` on allocations that `match` produced in set-up; the
    exhaustive blocking-set search does most of the work."""

    item = "allocations"
    alias = "verify_allocations_per_s"

    def __init__(self, rm, calibrator: Calibrator, work: Path, seed: int, size: dict, tamper: Tamper = None):
        self.rm, self.calibrator = rm, calibrator
        self.seed, self.size, self.tamper = seed, size, tamper
        self.pairs = [
            (work / f"market-{k:02d}.instance", work / f"market-{k:02d}.allocation")
            for k in range(size["markets"])
        ]

    def setup(self) -> str:
        gen, size = self.rm.generator, self.size
        for k, (instance_path, allocation_path) in enumerate(self.pairs):
            params = gen.GeneratorParams(
                students=size["students"],
                schools=size["schools"],
                types=size["types"],
                seed=self.seed * size["markets"] + k,
                capacity_range=(size["capacity"], size["capacity"]),
            )
            self.rm.fileio.save_instance(gen.generate_random_instance(params), instance_path)
            argv = ["match", cli_arg(instance_path), "--save-allocation", cli_arg(allocation_path)]
            code, _, _, err = call_cli(self.rm, self.calibrator, argv + ["--format", "machine"])
            if code != 0:
                raise RuntimeError(f"set-up match of {instance_path} exited {code}: {err}")
        if self.tamper:
            self.tamper(self.pairs[0][1])
        return sha256_files(p for pair in self.pairs for p in pair)

    def rep(self) -> list[Outcome]:
        outcomes = []
        for instance_path, allocation_path in self.pairs:
            argv = ["verify", cli_arg(instance_path), "--allocation", cli_arg(allocation_path)]
            code, timing, out, err = call_cli(self.rm, self.calibrator, argv + ["--format", "machine"])
            problem = _exit_problem("verify", code, err)
            if not problem and json.loads(out)["stable"] is not True:
                problem = f"verify calls {instance_path.name} unstable"
            outcomes.append(Outcome(timing, 0 if problem else 1, out.encode(), problem))
        return outcomes


WORKLOADS = {"market": Market, "audit": Audit, "stability": Stability}
