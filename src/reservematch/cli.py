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
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

from . import __version__
from .choice import ForwardSumScheme, convert_slot_specific, slot_specific_choice
from ._engine import Compiled, bits
from .errors import InvalidInputError, ReserveMatchError, SearchCapExceededError, ValidationError
from .fileio import (
    _canonical_json,
    _load_market,
    _read_allocation,
    contract_id,
    load_instance,
    load_slot_market,
    save_allocation,
    save_instance,
)
from .generator import (
    GeneratorParams,
    _flexibility_draw,
    generate_random_instance,
    single_swap_improvement,
)
from .incentives import (
    _flexibility_pareto,
    _lifted,
    _respects_improvement,
    _truncation_misreport,
    allocation_waste,
    check_flexibility_pareto,
)
from .instance import ProblemInstance, _scheme_violations, validate_instance
from .model import PreferenceOrder
from .verification import _completion_axioms_hold, is_stable, tabulate, tabulate_school

# The checks every audit row records, in report order. Each is true (passed),
# false (failed) or null (not fully covered: the flexibility draw was refused
# by its step cap).
AUDIT_CHECKS = (
    "stable",
    "order_independent",
    "strategy_proof",
    "respects_improvements",
    "flexibility_pareto",
    "completion_axioms",
)


def _emit(report: dict, lines: list[str], fmt: str, out: str | None) -> None:
    payload = _canonical_json(report) + "\n"
    if out:
        Path(out).write_text(payload, encoding="utf-8")
    if fmt == "machine":
        sys.stdout.write(payload)
    else:
        for line in lines:
            print(line)


def _alloc_rows(students: tuple[str, ...], allocation: frozenset) -> list[str]:
    held = {c.student: c for c in allocation}
    lines = [f"{'student':<12} {'school':<10} {'privilege':<10}"]
    for s in students:
        c = held.get(s)
        if c is None:
            lines.append(f"{s:<12} {'-':<10} {'-':<10}")
        else:
            lines.append(f"{s:<12} {c.school:<10} {c.privilege:<10}")
    return lines


# ----------------------------------------------------------------------
# subcommands


def _cmd_match(args) -> int:
    # the file is parsed to flat form, validated once and compiled, with no
    # instance built; a transcript step is read from the engine's masks,
    # since it prints only the proposal and the held contracts, and a
    # school's held list is rebuilt only when its mask changes
    market = _load_market(args.instance)
    compiled = Compiled(market)
    raw = [] if args.transcript else None
    allocation = compiled.to_set(compiled.cop(compiled.default_order_rank(), transcript=raw))
    steps = None
    if args.transcript:
        ids = [contract_id(c) for c in compiled.contracts]
        school_ids = [cfg.school for cfg in market.schools]
        masks, lists = [0] * len(school_ids), [[] for _ in school_ids]
        steps = []
        for n, (proposed, _, by_school) in enumerate(raw, start=1):
            for si, mask in enumerate(by_school):
                if mask != masks[si]:
                    masks[si], lists[si] = mask, sorted(ids[ci] for ci in bits(mask))
            held = {school_ids[si]: lists[si] for si, mask in enumerate(by_school) if mask}
            steps.append({"step": n, "proposed": ids[proposed], "held": held})
    if args.save_allocation:
        save_allocation(allocation, args.save_allocation)
    report = {
        "command": "match",
        "instance": str(args.instance),
        "allocation": sorted(contract_id(c) for c in allocation),
        "matched": len(allocation),
        "students": len(market.students),
    }
    if steps is not None:
        report["transcript"] = steps
    lines = [f"matched {len(allocation)} of {len(market.students)} students"]
    lines += _alloc_rows(market.students, allocation)
    if steps is not None:
        lines.append(f"{len(steps)} proposals made")
    _emit(report, lines, args.format, args.out)
    return 0


def _cmd_verify(args) -> int:
    # the build path of ``match``: one compile of the flat form, to which the
    # allocation file resolves and on which the stability check runs
    market = _load_market(args.instance)
    compiled = Compiled(market)
    allocation = frozenset(_read_allocation(args.allocation, compiled.index, market))
    report = is_stable(allocation, compiled)
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


def _completion_axioms(compiled: Compiled, max_contracts: int) -> int:
    """Certify the completion axioms of every school of an audited market,
    and return how many schools the tabulated cross-check covers: those
    whose pool is at most ``max_contracts``.

    A school is certified when its own compiled scheme passes
    ``instance._scheme_violations``, whose docstring proves that its choice
    then has a completion that is substitutable and satisfies LAD. That is
    the check validation runs, so only a market compiled without validation
    can hold an uncertified school, and it is refused with
    :class:`InvalidInputError`. Each covered school's completion table is
    swept by ``verification._completion_axioms_hold``, in school order; a
    certified school that fails it contradicts the proof, so it raises
    ``RuntimeError``, an internal error rather than a verdict."""
    names = tuple(compiled.school_index)
    faults = [
        v for name, school in zip(names, compiled.schools)
        for v in _scheme_violations(f"school {name}", school)
    ]
    if faults:
        raise InvalidInputError("completion axioms not certified: " + "; ".join(faults))
    covered = [s for s in range(len(names)) if compiled.school_of.count(s) <= max_contracts]
    for s in covered:
        if not _completion_axioms_hold(compiled, s):
            raise RuntimeError(f"school {names[s]}: certified, yet its completion table fails")
    return len(covered)


def _audit_one(instance: ProblemInstance, seed: int, max_contracts: int) -> dict:
    # the generator and the loader validate, so one compile serves every
    # check: the changed markets of the improvement and flexibility checks
    # are its clones. Its certificate comes first, and with it the two
    # checks that rest on the completion theorem of the ``cop`` docstring:
    # order independence, and each student's one-contract reports (proof in
    # ``incentives._truncation_misreport``). One truthful run serves
    # stability, every misreport run and the improvement check.
    compiled = Compiled.from_instance(instance)
    row: dict = {"schools_axiom_checked": _completion_axioms(compiled, max_contracts)}
    row["completion_axioms"] = row["order_independent"] = True
    rank = compiled.default_order_rank()
    truth = compiled.cop(rank)
    row["stable"] = is_stable(compiled.to_set(truth), compiled).passed
    row["strategy_proof"] = all(
        _truncation_misreport(compiled, truth, student, rank) is None
        for student in compiled.students
    )

    swap = single_swap_improvement(instance, seed)
    if swap is None:
        row["respects_improvements"] = True
    else:
        student, improved = swap
        lifted = _lifted(compiled, instance.schools, improved)
        pref = instance.preferences[student]
        row["respects_improvements"] = _respects_improvement(
            compiled, truth, lifted, rank, pref
        ).ok

    row["flexibility_pareto"] = True
    try:
        draw = _flexibility_draw(instance, seed)
    except SearchCapExceededError:
        draw = row["flexibility_pareto"] = None
    if draw is not None:
        comparison = _flexibility_pareto(compiled, [draw], instance.preferences, rank)
        row["flexibility_pareto"] = comparison.dominates and comparison.chain_agrees is not False

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
    prefs = {s: PreferenceOrder(s, ()) for s in students}
    # every listing, so that validation names one for a student with no contract
    prefs.update(
        (s, PreferenceOrder(s, tuple(converted.mapping[c] for c in pref.ranked)))
        for s, pref in preferences.items()
    )
    instance = ProblemInstance(
        students=students,
        profile=converted.profile,
        schools=(converted.config,),
        contracts=frozenset(converted.mapping.values()),
        preferences=prefs,
    )
    # the validation ``match`` runs on the file, so no refused file is written
    violations = validate_instance(instance)
    if violations:
        raise ValidationError([f"{args.slots}: {v}" for v in violations])
    save_instance(instance, args.out_file)

    mismatch = None
    if args.check:
        # both tabulations refuse a pool over --max-contracts, and main exits
        # 3. The slot side is the set-based reference; the converted side runs
        # on the engine, over its own ids, which sort v10 before v2, so its
        # masks are mapped back to the slot pool's bits. The first offer set
        # that differs is reported in the slot pool's mask order.
        pool = sorted(school.contracts)
        cap = 1 << args.max_contracts
        want = tabulate(lambda offers: slot_specific_choice(offers, school), pool, cap=cap)
        got = tabulate_school(converted.config, converted.mapping.values(), cap=cap)
        to_slot = [0]  # to_slot[m]: the slot pool's mask of the converted mask m
        for c in got.pool:
            bit = 1 << pool.index(converted.inverse[c])
            to_slot += [m | bit for m in to_slot]
        bad = [
            to_slot[m] for m, c in enumerate(got.chosen) if to_slot[c] != want.chosen[to_slot[m]]
        ]
        if bad:
            mismatch = sorted(contract_id(c) for c in want.subset(min(bad)))

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


def _int_range(least: int, what: str, most: Optional[int] = None):
    """An argparse type: an integer of at least ``least`` (``what`` names
    that bound in the message) and, when given, at most ``most``, with the
    message of ``type=int`` for anything that is not an integer."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be {what}, got {value}")
        if most is not None and value > most:
            raise argparse.ArgumentTypeError(f"must be at most {most}, got {value}")
        return value

    return parse


_positive = _int_range(1, "positive")
# a pool of n contracts is tabulated as a list of 2^n choices, so this
# bound on --max-contracts bounds the memory of every table
_pool_size = _int_range(0, "non-negative", 20)


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
    p.add_argument("--count", type=_positive, default=20)
    p.add_argument("--students", type=int, default=4)
    p.add_argument("--schools", type=int, default=2)
    p.add_argument("--types", type=int, default=3)
    p.add_argument("--max-contracts", type=_pool_size, default=8,
                   help="bound of the tabulated cross-check (at most 20)")
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
    p.add_argument("--max-contracts", type=_pool_size, default=12,
                   help="cap for the exhaustive equivalence check (at most 20)")
    _add_common(p)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("gen", help="write random instances")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--count", type=_positive, default=1)
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
