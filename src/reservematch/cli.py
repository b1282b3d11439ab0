"""Command-line interface.

Subcommands: ``match`` runs the mechanism on an instance file, ``verify``
checks the stability of a given allocation, ``audit`` runs the property
suites over generated or provided instances, ``compare`` measures the effect
of more flexible capacity transfers, ``convert`` rewrites a slot-specific
school as a dynamic reserves instance, and ``gen`` writes random instances.

Every run can emit a human-readable table and a machine-readable JSON
document; the JSON is byte-identical across runs with the same arguments and
seed. Exit codes: 0 success, 1 a check failed, 2 bad input, 3 a check could
not be completed (an exhaustive search was refused by its cap).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .choice import ForwardSumScheme, convert_slot_specific, slot_specific_choice
from ._engine import Compiled
from .cop import _order_independence, _run
from .errors import ReserveMatchError, SearchCapExceededError
from .fileio import (
    contract_id,
    load_allocation,
    load_instance,
    load_slot_market,
    save_allocation,
    save_instance,
)
from .generator import (
    GeneratorParams,
    generate_random_instance,
    single_swap_improvement,
    unit_flexibility_pair,
)
from .incentives import (
    MISREPORT_CAP,
    _search_misreports,
    allocation_waste,
    check_flexibility_pareto,
    check_respects_improvements,
)
from .instance import ProblemInstance
from .model import PreferenceOrder
from .verification import (
    check_completion,
    check_irc,
    check_lad,
    check_substitutability,
    is_stable,
    tabulate,
    tabulate_school,
)

# The checks every audit row records, in report order. Each is true (passed),
# false (failed) or null (not fully covered: a search was refused by its cap).
AUDIT_CHECKS = (
    "stable",
    "order_independent",
    "strategy_proof",
    "respects_improvements",
    "flexibility_pareto",
    "completion_axioms",
)


def _emit(report: dict, lines: list[str], fmt: str, out: str | None) -> None:
    payload = json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    if out:
        Path(out).write_text(payload, encoding="utf-8")
    if fmt == "machine":
        sys.stdout.write(payload)
    else:
        for line in lines:
            print(line)


def _alloc_rows(instance: ProblemInstance, allocation: frozenset) -> list[str]:
    held = {c.student: c for c in allocation}
    lines = [f"{'student':<12} {'school':<10} {'privilege':<10}"]
    for s in instance.students:
        c = held.get(s)
        if c is None:
            lines.append(f"{s:<12} {'-':<10} {'-':<10}")
        else:
            lines.append(f"{s:<12} {c.school:<10} {c.privilege:<10}")
    return lines


# ----------------------------------------------------------------------
# subcommands


def _cmd_match(args) -> int:
    # the loader validates; the process runs on the canonical order
    instance = load_instance(args.instance)
    result = _run(instance, None, args.transcript)
    allocation = result.allocation
    steps = None
    if args.transcript:
        steps = [
            {
                "step": step.step,
                "proposed": contract_id(step.proposed),
                "held": {
                    s: sorted(contract_id(c) for c in cs) for s, cs in sorted(step.held.items())
                },
            }
            for step in result.steps
        ]
    if args.save_allocation:
        save_allocation(allocation, args.save_allocation)
    report = {
        "command": "match",
        "instance": str(args.instance),
        "allocation": sorted(contract_id(c) for c in allocation),
        "matched": len(allocation),
        "students": len(instance.students),
    }
    if steps is not None:
        report["transcript"] = steps
    lines = [f"matched {len(allocation)} of {len(instance.students)} students"]
    lines += _alloc_rows(instance, allocation)
    if steps is not None:
        lines.append(f"{len(steps)} proposals made")
    _emit(report, lines, args.format, args.out)
    return 0


def _cmd_verify(args) -> int:
    instance = load_instance(args.instance)
    allocation = load_allocation(args.allocation, instance)
    report = is_stable(allocation, instance)
    doc = {
        "command": "verify",
        "instance": str(args.instance),
        "allocation": sorted(contract_id(c) for c in allocation),
        "stable": report.passed,
        "students_individually_rational": report.students_ok,
        "schools_individually_rational": report.schools_ok,
        "unblocked": report.unblocked,
        "unacceptable_assignments": sorted(map(contract_id, report.unacceptable_assignments)),
        "blocking": None
        if report.blocking is None
        else {"school": report.blocking[0], "contracts": sorted(map(contract_id, report.blocking[1]))},
    }
    lines = [
        f"stable: {report.passed}",
        f"  students hold acceptable contracts: {report.students_ok}",
        f"  school choices respected: {report.schools_ok}",
        f"  no blocking set: {report.unblocked}",
    ]
    if report.blocking is not None:
        school, z = report.blocking
        lines.append(f"  blocking set at {school}: {sorted(contract_id(c) for c in z)}")
    _emit(doc, lines, args.format, args.out)
    return 0 if report.passed else 1


def _audit_one(instance: ProblemInstance, seed: int, max_contracts: int) -> dict:
    # the generator and the loader validate, so one compile serves the
    # truthful run (order independence's baseline) and every misreport search
    compiled = Compiled.from_instance(instance)
    independence = _order_independence(compiled, trials=10, seed=seed)
    row: dict = {"stable": is_stable(independence.baseline, instance).passed}
    row["order_independent"] = independence.ok

    strategy_proof = True
    for student in instance.students:
        try:
            found = _search_misreports(compiled, (student,), MISREPORT_CAP)
        except SearchCapExceededError:
            strategy_proof = None
            continue
        if found is not None:
            strategy_proof = False
            break
    row["strategy_proof"] = strategy_proof

    swap = single_swap_improvement(instance, seed)
    if swap is None:
        row["respects_improvements"] = True
    else:
        student, improved = swap
        row["respects_improvements"] = check_respects_improvements(
            instance, improved, student
        ).ok

    pair = unit_flexibility_pair(instance, seed)
    if pair is None:
        row["flexibility_pareto"] = True
    else:
        comparison = check_flexibility_pareto(*pair)
        row["flexibility_pareto"] = comparison.dominates and comparison.chain_agrees is not False

    axioms_ok = True
    checked = 0
    for cfg in instance.schools:
        pool = sorted(c for c in instance.contracts if c.school == cfg.school)
        if len(pool) > max_contracts:
            continue
        checked += 1
        base = tabulate_school(cfg, pool, cap=1 << max_contracts)
        comp = tabulate_school(cfg, pool, completion=True, cap=1 << max_contracts)
        axioms_ok = (
            axioms_ok
            and check_completion(base, comp).holds
            and check_irc(comp).holds
            and check_substitutability(comp).holds
            and check_lad(comp).holds
        )
    if axioms_ok and checked < len(instance.schools):
        axioms_ok = None
    row["completion_axioms"] = axioms_ok
    row["schools_axiom_checked"] = checked
    row["ok"] = all(row[k] is not False for k in AUDIT_CHECKS)
    return row


def _audit_inputs(args):
    """Yield (name, instance) for each audited instance: the given files, or
    ``count`` generated ones at consecutive seeds."""
    if args.instances:
        for path in args.instances:
            yield str(path), load_instance(path)
        return
    for n in range(args.count):
        params = GeneratorParams(
            students=args.students,
            schools=args.schools,
            types=args.types,
            seed=args.seed + n,
            claim_range=(1, 2),
        )
        yield f"seed-{args.seed + n}", generate_random_instance(params)


def _cmd_audit(args) -> int:
    rows: list[dict] = []
    for n, (name, instance) in enumerate(_audit_inputs(args)):
        row = _audit_one(instance, args.seed + n, args.max_contracts)
        row["instance"] = name
        row["index"] = n
        rows.append(row)

    summary = {k: sum(1 for r in rows if r[k] is True) for k in AUDIT_CHECKS}
    unverified = {k: n for k in AUDIT_CHECKS if (n := sum(1 for r in rows if r[k] is None))}
    all_ok = all(r["ok"] for r in rows)
    # the generator's sizes shape generated inputs only, so files omit them
    parameters = {"seed": args.seed, "max_contracts": args.max_contracts}
    if not args.instances:
        parameters.update(students=args.students, schools=args.schools, types=args.types)
    report = {
        "command": "audit",
        "count": len(rows),
        "parameters": parameters,
        "results": rows,
        "summary": summary,
        "all_ok": all_ok,
    }
    if unverified:
        report["unverified"] = unverified
    lines = [f"audited {len(rows)} instances"]
    for k in AUDIT_CHECKS:
        note = f" ({unverified[k]} unverified)" if k in unverified else ""
        lines.append(f"  {k:<24} {summary[k]}/{len(rows)}{note}")
    if unverified:
        lines.append(f"checks left unverified: {sum(unverified.values())}")
    lines.append(f"all {'covered ' if unverified else ''}checks passed: {all_ok}")
    _emit(report, lines, args.format, args.out)
    if not all_ok:
        return 1
    return 3 if unverified else 0


def _constant_baseline(instance: ProblemInstance) -> ProblemInstance:
    out = instance
    for cfg in instance.schools:
        frozen = ForwardSumScheme(((),) * cfg.group_count)
        out = out.with_school(replace(cfg, scheme=frozen))
    return out


def _cmd_compare(args) -> int:
    flexible = load_instance(args.instance)
    if args.against:
        rigid = load_instance(args.against)
    else:
        rigid = _constant_baseline(flexible)
    comparison = check_flexibility_pareto(rigid, flexible)
    waste_rigid = allocation_waste(rigid, comparison.rigid_outcome)
    waste_flexible = allocation_waste(flexible, comparison.flexible_outcome)
    report = {
        "command": "compare",
        "instance": str(args.instance),
        "against": str(args.against) if args.against else "constant-baseline",
        "dominates": comparison.dominates,
        "chain_agrees": comparison.chain_agrees,
        "decomposed": comparison.decomposed,
        "waste_rigid": waste_rigid,
        "waste_flexible": waste_flexible,
        "rigid_matched": len(comparison.rigid_outcome),
        "flexible_matched": len(comparison.flexible_outcome),
        "deltas": [
            {
                "student": s,
                "rigid": None if old is None else contract_id(old),
                "flexible": None if new is None else contract_id(new),
                "change": verdict,
            }
            for s, old, new, verdict in comparison.deltas
        ],
    }
    lines = [
        f"flexible outcome weakly dominates: {comparison.dominates}",
        f"vacancy-chain replay agrees: {comparison.chain_agrees}",
        f"waste: rigid {waste_rigid} -> flexible {waste_flexible}",
        f"{'student':<12} {'rigid':<22} {'flexible':<22} change",
    ]
    for s, old, new, verdict in comparison.deltas:
        lines.append(
            f"{s:<12} {(contract_id(old) if old else '-'):<22} "
            f"{(contract_id(new) if new else '-'):<22} {verdict}"
        )
    _emit(report, lines, args.format, args.out)
    return 0 if comparison.dominates and comparison.chain_agrees is not False else 1


def _cmd_convert(args) -> int:
    school, preferences = load_slot_market(args.slots)
    converted = convert_slot_specific(school)
    students = tuple(sorted({c.student for c in school.contracts}))
    prefs = {
        s: PreferenceOrder(s, tuple(converted.mapping[c] for c in preferences[s].ranked))
        if s in preferences
        else PreferenceOrder(s, ())
        for s in students
    }
    instance = ProblemInstance(
        students=students,
        profile=converted.profile,
        schools=(converted.config,),
        contracts=frozenset(converted.mapping.values()),
        preferences=prefs,
    )
    save_instance(instance, args.out_file)

    mismatch = None
    if args.check:
        pool = sorted(school.contracts)
        if len(pool) <= args.max_contracts:
            cap = 1 << args.max_contracts
            want = tabulate(lambda offers: slot_specific_choice(offers, school), pool, cap=cap)
            got = tabulate(converted.choice, pool, cap=cap)
            for mask, (a, b) in enumerate(zip(got.chosen, want.chosen)):
                if a != b:
                    mismatch = sorted(contract_id(c) for c in got.subset(mask))
                    break
        else:
            mismatch = f"skipped: {len(pool)} contracts exceed --max-contracts"

    report = {
        "command": "convert",
        "slots": str(args.slots),
        "out": str(args.out_file),
        "groups": len(converted.config.precedence),
        "capacity": converted.config.capacity,
        "artificial_types": {
            contract_id(c): converted.mapping[c].privilege for c in sorted(converted.mapping)
        },
        "equivalence_mismatch": mismatch,
    }
    lines = [
        f"wrote {args.out_file}: {len(converted.config.precedence)} groups, "
        f"capacity {converted.config.capacity}",
        f"choice equivalence check: {'skipped' if not args.check else mismatch or 'passed'}",
    ]
    _emit(report, lines, args.format, args.out)
    return 1 if (args.check and mismatch) else 0


def _cmd_gen(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for n in range(args.count):
        params = GeneratorParams(
            students=args.students,
            schools=args.schools,
            types=args.types,
            seed=args.seed + n,
            acceptability=args.acceptability,
            scheme_family=args.scheme_family,
        )
        path = out_dir / f"instance-{args.seed + n:06d}.instance"
        save_instance(generate_random_instance(params), path)
        written.append(str(path))
    report = {"command": "gen", "count": args.count, "seed": args.seed, "files": written}
    _emit(report, [f"wrote {len(written)} instances to {out_dir}"], args.format, args.out)
    return 0


# ----------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("table", "machine"), default="table")
    p.add_argument("--out", help="write the machine-readable report to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="reservematch", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("match", help="run the cumulative offer mechanism on an instance")
    p.add_argument("instance")
    p.add_argument("--save-allocation", help="also write the allocation file here")
    p.add_argument("--transcript", action="store_true",
                   help="include the step-by-step proposal transcript in the report")
    _add_common(p)
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("verify", help="stability-check an allocation against an instance")
    p.add_argument("instance")
    p.add_argument("--allocation", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("audit", help="run the property suites over instances")
    p.add_argument("instances", nargs="*", help="instance files; omit to generate instead")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--students", type=int, default=4)
    p.add_argument("--schools", type=int, default=2)
    p.add_argument("--types", type=int, default=3)
    p.add_argument("--max-contracts", type=int, default=8,
                   help="cap for the exhaustive per-school axiom checks")
    _add_common(p)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("compare", help="flexible vs rigid capacity transfers")
    p.add_argument("instance", help="the (more flexible) instance file")
    p.add_argument("--against",
                   help="rigid instance file to compare with (default: the no-transfers baseline)")
    _add_common(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("convert", help="slot-specific school file -> dynamic reserves instance")
    p.add_argument("slots", help="slot-school file")
    p.add_argument("--out-file", required=True, help="where to write the converted instance")
    p.add_argument("--check", action="store_true",
                   help="exhaustively verify choice equivalence after converting")
    p.add_argument("--max-contracts", type=int, default=12)
    _add_common(p)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("gen", help="write random instances")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--students", type=int, default=4)
    p.add_argument("--schools", type=int, default=2)
    p.add_argument("--types", type=int, default=3)
    p.add_argument("--acceptability", type=float, default=0.8)
    p.add_argument("--scheme-family", choices=("forward_sum", "table", "constant", "mixed"),
                   default="forward_sum")
    _add_common(p)
    p.set_defaults(func=_cmd_gen)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: a parser is a web of reference
    cycles, so one per call would leave garbage that only the rare full
    collection frees, and in-process callers would keep growing."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except SearchCapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ReserveMatchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
