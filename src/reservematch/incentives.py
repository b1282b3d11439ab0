"""Incentive audits and comparative statics for the cumulative offer mechanism.

Three families of checks live here. Misreport search covers a student's
(or small coalition's) entire strategy space and looks for a report that beats
truth-telling; it runs the process only for reports whose outcome no earlier
run settles. Priority-improvement checks verify that cleanly rising in a
school's ranking never hurts the student who rose. Flexibility comparison
pits two capacity transfer schemes against each other: the more flexible one
should weakly Pareto-improve the outcome, and the reseating chain rebuilds
the improved outcome from the old one, moving students only upward.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Optional, Sequence

from ._engine import Compiled
from .choice import (
    SchoolConfig,
    TableScheme,
    _require_steps,
    _table_report,
    capacity_table,
    dynamic_reserves_choice,
)
from .cop import _validated, run_cop_default
from .errors import InvalidInputError, SearchCapExceededError
from .instance import ProblemInstance
from .model import Contract, PreferenceOrder, PriorityOrder, assignments

__all__ = [
    "Misreport",
    "preference_space",
    "preference_space_size",
    "find_group_misreport",
    "is_unambiguous_improvement",
    "ImprovementCheck",
    "check_respects_improvements",
    "is_more_flexible",
    "improvement_chains",
    "FlexibilityComparison",
    "check_flexibility_pareto",
    "allocation_waste",
]


# ----------------------------------------------------------------------
# misreport search


@dataclass(frozen=True)
class Misreport:
    """A profitable deviation: who lied, what they said, what it bought them."""

    students: tuple[str, ...]
    reported: tuple[PreferenceOrder, ...]
    truthful: tuple[Optional[Contract], ...]
    deviant: tuple[Optional[Contract], ...]


def preference_space(student: str, contracts: Sequence[Contract]):
    """Every strict preference a student could report: each ordered subset of
    their contracts read as the acceptable prefix, including the empty report."""
    for combo in _reports(sorted(contracts)):
        yield PreferenceOrder(student, combo)


def _reports(pool: Sequence):
    """Every ordered subset of ``pool``, shortest first, each length in
    ``itertools.permutations`` order: the order of :func:`preference_space`."""
    for k in range(len(pool) + 1):
        yield from itertools.permutations(pool, k)


def preference_space_size(n: int) -> int:
    total, running = 1, 1
    for k in range(1, n + 1):
        running *= n - k + 1
        total += running
    return total


def _held_contract(compiled: Compiled, mask: int, student_index: int) -> Optional[Contract]:
    own = [ci for ci in compiled.student_contracts[student_index] if (mask >> ci) & 1]
    return compiled.contracts[own[-1]] if own else None


# The largest joint strategy space a misreport search enumerates, and the
# largest coalition it searches.
MISREPORT_CAP = 200_000
MAX_COALITION = 2


def find_group_misreport(
    coalition: Iterable[str],
    instance: ProblemInstance,
    cap: int = MISREPORT_CAP,
) -> Optional[Misreport]:
    """Search for a joint misreport that strictly benefits every coalition
    member; a coalition of one is a single student's search. The joint space
    is the product of the members' strategy spaces; a member who already
    holds their top contract makes the coalition hopeless, so those are
    dismissed without enumeration. A report whose outcome an earlier run
    already settles is not run (the prefix pruning of
    ``_search_misreports``).

    Returns the first profitable misreport in enumeration order, or ``None``
    after exhausting the space. Refuses if the space exceeds ``cap`` or the
    coalition has more than ``MAX_COALITION`` members.
    """
    members = tuple(sorted(set(coalition)))
    if not members:
        return None
    if len(members) > MAX_COALITION:
        raise SearchCapExceededError(len(members), MAX_COALITION, "coalition size")
    return _search_misreports(_validated(instance), members, cap)


def _search_misreports(
    compiled: Compiled, members: tuple[str, ...], cap: int
) -> Optional[Misreport]:
    """The misreport search of :func:`find_group_misreport` on a compiled
    market, whose ``acceptable`` lists are the truthful reports.

    Each report is a tuple of global contract indices (``_reports`` of the
    student's contracts, which are in contract order), run on a clone of
    ``compiled`` whose ``acceptable`` differs only in the members' entries;
    a :class:`PreferenceOrder` is built only for the misreport returned.

    The proposal order rank is the truthful ``default_order_rank`` with each
    member's block rewritten, and this equals ``default_order_rank`` of the
    changed profile. That order lists students in sorted-id order, and each
    student's block holds exactly their own contracts: the acceptable ones
    in report order, then the rest in contract order. A report lists only
    the student's own contracts, so the block keeps its size, every other
    block keeps its contents, and each block keeps its offset, which is the
    lowest rank among the student's contracts.

    Prefix pruning. Let a joint report ``J`` run, and let ``J'`` extend the
    report of every member outside ``J``'s dry set (``Compiled.cop``) and
    keep the others' reports. Then ``J'`` runs exactly as ``J`` does, step
    for step. Proof by induction over the loop, holding that both runs have
    the same heap, pointers, counts and school masks. At the start the
    heaps agree: a member who is not dry has a non-empty report, whose
    first contract ``J'`` keeps, and a block rewrite gives a report's
    contracts the ranks of their positions in it, so the contracts of the
    prefix keep their ranks, and every other student's ranks are equal.
    A step pops the same entry, makes the same stale test, offers the same
    contract and re-chooses the same way. Its pushes are the same: a push
    reads the pushed student's list at their pointer, and under ``J`` a
    member's pointer reaches the end of their list only where ``J'`` would
    push the next contract of the extension, which is the moment the member
    runs dry. So the members outside the dry set never propose past their
    prefix under ``J'``, and the held masks, hence every held contract,
    are equal.

    Call ``J`` decided by a run ``P`` when ``J`` extends ``P`` in this way.
    ``J`` is decided exactly when, for some member ``i`` with a non-empty
    report, the joint report with ``i``'s last contract dropped is decided
    by (or is) a run in which ``i`` is not dry: if ``P`` decides ``J`` and
    ``J != P``, some member ``i`` outside ``P``'s dry set has a longer
    report in ``J`` than in ``P``, and ``P`` decides that shortened report
    too; the converse is the lemma. That shortened report comes earlier in
    the enumeration, which is the product of the members' spaces, so each
    report's answer is known from the reports before it, and the process
    runs once per joint report no run decides. A decided report is never
    the first profitable one: its run ``P`` comes before it, and is either
    the truthful report, which gains nothing, or was found unprofitable.
    So the first witness, the refusals and the cap check on the full space
    are those of the plain enumeration (``tests/helpers``).

    The bookkeeping. ``covers`` holds, per joint report in enumeration
    order, the dry set of the run that decides it. Member ``m``'s report at
    position ``n`` of their space has its parent (the report less its last
    contract) at position ``parents[m][n]``, so the joint report with that
    member's report shortened lies ``strides[m] * (n - parents[m][n])``
    places earlier. The first member's space is streamed; the others' are
    held in memory.
    """
    contracts = compiled.contracts
    indices = [compiled.student_index[s] for s in members]
    truthful = tuple(compiled.acceptable[si] for si in indices)
    truths = [
        PreferenceOrder(s, tuple(contracts[ci] for ci in t)) for s, t in zip(members, truthful)
    ]
    base = compiled.default_order_rank()
    truth_mask, truth_dry = compiled.cop(base)
    truth_held = [_held_contract(compiled, truth_mask, si) for si in indices]
    truth_ranks = [p.rank(c) for p, c in zip(truths, truth_held)]
    if any(r == 0 for r in truth_ranks):
        return None

    pools = [compiled.student_contracts[si] for si in indices]
    space = 1
    for pool in pools:
        space *= preference_space_size(len(pool))
    if space > cap:
        raise SearchCapExceededError(space, cap, f"joint misreports for {members}")

    others = [list(_reports(pool)) for pool in pools[1:]]
    parents = [_parents(len(pool)) for pool in pools]
    strides = [1] * len(pools)
    for m in range(len(pools) - 2, -1, -1):
        strides[m] = strides[m + 1] * len(others[m])
    tails = list(itertools.product(*(range(len(reports)) for reports in others)))

    acceptable = list(compiled.acceptable)
    covers: list[int] = []
    for n0, first in enumerate(_reports(pools[0])):
        for tail in tails:
            dry = None
            for m, n in enumerate((n0, *tail)):
                parent = parents[m][n]
                if parent >= 0:
                    cover = covers[len(covers) - (n - parent) * strides[m]]
                    if not cover >> indices[m] & 1:
                        dry = cover
                        break
            if dry is None:
                joint = (first, *(reports[n] for reports, n in zip(others, tail)))
                if joint == truthful:
                    dry = truth_dry
                else:
                    order = list(base)
                    for si, pool, report in zip(indices, pools, joint):
                        _rewrite(order, pool, report)
                        acceptable[si] = report
                    trial = compiled.with_acceptable(tuple(acceptable))
                    mask, dry = trial.cop(order)
                    held = [_held_contract(trial, mask, si) for si in indices]
                    if all(p.rank(h) < k for p, h, k in zip(truths, held, truth_ranks)):
                        reported = tuple(
                            PreferenceOrder(s, tuple(contracts[ci] for ci in report))
                            for s, report in zip(members, joint)
                        )
                        return Misreport(members, reported, tuple(truth_held), tuple(held))
            covers.append(dry)
    return None


def _parents(size: int) -> list[int]:
    """For each report of a pool of ``size`` contracts, in ``_reports``
    order, the position of its parent (the report less its last contract);
    -1 for the empty report. Each length lists the extensions of the
    reports one shorter in their order, ``size - length + 1`` of each."""
    out = [-1]
    start, count = 0, 1
    for length in range(1, size + 1):
        fan = size - length + 1
        out.extend(start + j // fan for j in range(count * fan))
        start, count = start + count, count * fan
    return out


def _rewrite(rank: list, pool: Sequence[int], report: tuple) -> list:
    """Reorder the block of ``rank`` that holds one student's contracts
    ``pool`` to ``report``, then the rest of ``pool`` in contract order. The
    block stays where it is: it starts at the lowest rank in it."""
    pos = min(rank[ci] for ci in pool)
    for ci in report:
        rank[ci] = pos
        pos += 1
    for ci in pool:
        if ci not in report:
            rank[ci] = pos
            pos += 1
    return rank


# ----------------------------------------------------------------------
# respect for priority improvements


def is_unambiguous_improvement(
    base: Mapping[str, PriorityOrder],
    improved: Mapping[str, PriorityOrder],
    student: str,
) -> bool:
    """True when ``improved`` only ever moves ``student`` up.

    At every school the other students keep their exact relative order and
    acceptability, every student the beneficiary used to beat is still
    beaten, and the beneficiary never loses acceptability.
    """
    if set(base) != set(improved):
        return False
    for school, old in base.items():
        new = improved[school]
        others_old = tuple(s for s in old.ranked if s != student)
        others_new = tuple(s for s in new.ranked if s != student)
        if others_old != others_new:
            return False
        if old.accepts(student):
            if not new.accepts(student):
                return False
            beaten_old = set(old.ranked[old.rank(student) + 1 :])
            beaten_new = set(new.ranked[new.rank(student) + 1 :])
            if not beaten_old <= beaten_new:
                return False
    return True


@dataclass(frozen=True)
class ImprovementCheck:
    ok: bool
    base_assignment: Optional[Contract]
    improved_assignment: Optional[Contract]

    def __bool__(self) -> bool:
        return self.ok


def check_respects_improvements(
    instance: ProblemInstance,
    improved: Mapping[str, PriorityOrder],
    student: str,
) -> ImprovementCheck:
    """Run the mechanism before and after a priority improvement and verify
    the beneficiary is weakly better off under their true preferences."""
    base = {cfg.school: cfg.priority for cfg in instance.schools}
    if not is_unambiguous_improvement(base, improved, student):
        raise InvalidInputError(
            f"priorities are not an unambiguous improvement for {student}"
        )
    lifted = instance
    for cfg in instance.schools:
        lifted = lifted.with_school(replace(cfg, priority=improved[cfg.school]))

    pref = instance.preferences[student]
    before = assignments(run_cop_default(instance)).get(student)
    after = assignments(run_cop_default(lifted)).get(student)
    return ImprovementCheck(pref.rank(after) <= pref.rank(before), before, after)


# ----------------------------------------------------------------------
# flexibility comparison and the vacancy-chain algorithm


def is_more_flexible(first, second, targets: tuple[int, ...], bound: int) -> bool:
    """True when ``first`` grants every group at least the capacity ``second``
    does at every residual vector in the bounded domain, with at least one
    strict gain. Both schemes are assumed monotone with matching targets."""
    a = capacity_table(first, targets, bound)
    b = capacity_table(second, targets, bound)
    return a != b and all(a[vec] >= b[vec] for vec in a)


def _changed_schools(rigid: ProblemInstance, flexible: ProblemInstance) -> list[str]:
    if rigid.contracts != flexible.contracts or rigid.students != flexible.students:
        raise InvalidInputError("instances describe different markets")
    if rigid.preferences != flexible.preferences:
        raise InvalidInputError("instances must share one preference profile")
    ids = [cfg.school for cfg in rigid.schools]
    if ids != [cfg.school for cfg in flexible.schools]:
        raise InvalidInputError("instances list different schools")
    # a school changes when its scheme grants a different capacity somewhere
    # in the residual domain, not merely when the scheme is written otherwise
    changed = []
    for a, b in zip(rigid.schools, flexible.schools):
        if (a.priority, a.precedence, a.targets, a.capacity) != (
            b.priority,
            b.precedence,
            b.targets,
            b.capacity,
        ):
            raise InvalidInputError(f"school {a.school}: only the scheme may differ")
        if a.scheme != b.scheme and _school_table(a) != _school_table(b):
            changed.append(a.school)
    return changed


def _school_table(cfg: SchoolConfig) -> dict[tuple[int, ...], int]:
    return capacity_table(cfg.scheme, cfg.targets, cfg.capacity)


def improvement_chains(
    z: Iterable[Contract],
    rigid: ProblemInstance,
    flexible: ProblemInstance,
) -> frozenset:
    """Reseat students after a one-seat capacity expansion.

    ``flexible`` must differ from ``rigid`` by a unit increment of one
    school's transfer scheme at one residual vector, and ``z`` should be the
    mechanism outcome under ``rigid``. The expansion can only pull students
    upward: the newly fundable seat is taken by the best-ranked student who
    prefers it, the seat that student vacates is offered onward, and so on.
    Greedily committing each seat is not sound, though, because a taker may
    pass on a seat once a better one opens further down the chain and a
    withdrawn claim can re-settle a whole school. So the reseating is run as
    a deferred offer process over exactly the chain's move space: every
    student's list is truncated at their seat under ``z`` (their floor, which
    the expansion can never push them below), and the offer process re-runs
    on the flexible profile within that restricted market. No student ends
    worse than ``z``, reseated students are strictly better off, and the
    result equals the mechanism outcome under ``flexible``.
    """
    z = frozenset(z)
    changed = _changed_schools(rigid, flexible)
    if len(changed) != 1:
        raise InvalidInputError(f"expected exactly one school to change, got {changed}")
    a, b = (_school_table(inst.school(changed[0])) for inst in (rigid, flexible))
    diffs = [(len(vec), vec, b[vec] - a[vec]) for vec in a if b[vec] != a[vec]]
    if len(diffs) != 1 or diffs[0][2] != 1:
        raise InvalidInputError(
            "schemes must differ by a single unit increment; found "
            + ", ".join(f"group {k} at {v}: {d:+d}" for k, v, d in diffs)
        )

    floor = {c.student: c for c in z}
    trimmed = {}
    for s in flexible.students:
        pref = flexible.preferences[s]
        current = floor.get(s)
        if current is None:
            trimmed[s] = pref
        else:
            trimmed[s] = PreferenceOrder(s, pref.ranked[: pref.rank(current) + 1])
    compiled = Compiled.from_instance(flexible.with_preferences(trimmed))
    return compiled.to_set(compiled.cop(compiled.default_order_rank())[0])


# ----------------------------------------------------------------------
# end-to-end flexibility comparison


@dataclass(frozen=True)
class FlexibilityComparison:
    dominates: bool
    rigid_outcome: frozenset
    flexible_outcome: frozenset
    deltas: tuple[tuple[str, Optional[Contract], Optional[Contract], str], ...]
    chain_agrees: Optional[bool]
    decomposed: bool

    def __bool__(self) -> bool:
        return self.dominates


def check_flexibility_pareto(
    rigid: ProblemInstance, flexible: ProblemInstance
) -> FlexibilityComparison:
    """Compare mechanism outcomes under two transfer-scheme profiles.

    Every changed school's flexible scheme must be more flexible than its
    rigid counterpart. The comparison always runs both mechanisms directly
    and verifies weak Pareto dominance student by student. When the gap can
    be decomposed into monotone unit increments (one school at a time, one
    seat at a time), the reseating chain is replayed along the decomposition
    and must land exactly on the rerun mechanism's outcome at each school
    boundary; ``chain_agrees`` is ``None`` when no such decomposition exists.
    """
    changed = _changed_schools(rigid, flexible)
    for sid in changed:
        r_cfg = rigid.school(sid)
        f_cfg = flexible.school(sid)
        if not is_more_flexible(f_cfg.scheme, r_cfg.scheme, r_cfg.targets, r_cfg.capacity):
            raise InvalidInputError(f"school {sid}: flexible scheme is not more flexible")

    rigid_outcome = run_cop_default(rigid)
    flexible_outcome = run_cop_default(flexible)

    chain_agrees: Optional[bool] = True
    decomposed = True
    working = rigid
    outcome = rigid_outcome
    for sid in changed:
        target = working.with_school(flexible.school(sid))
        steps = _unit_instances(working, target, sid)
        direct = flexible_outcome if target == flexible else run_cop_default(target)
        if steps is None or chain_agrees is None:
            decomposed = decomposed and steps is not None
            chain_agrees = None
        else:
            previous = working
            replay = outcome
            agreed = True
            for inst in steps:
                replay = improvement_chains(replay, previous, inst)
                previous = inst
            if replay != direct:
                agreed = False
            chain_agrees = chain_agrees and agreed
        working, outcome = target, direct

    deltas = []
    dominates = True
    rigid_seats = assignments(rigid_outcome)
    flexible_seats = assignments(flexible_outcome)
    for student in rigid.students:
        pref = rigid.preferences[student]
        before = rigid_seats.get(student)
        after = flexible_seats.get(student)
        rb, ra = pref.rank(before), pref.rank(after)
        verdict = "same" if ra == rb else ("better" if ra < rb else "worse")
        if verdict == "worse":
            dominates = False
        deltas.append((student, before, after, verdict))
    return FlexibilityComparison(
        dominates, rigid_outcome, flexible_outcome, tuple(deltas), chain_agrees, decomposed
    )


def _unit_instances(
    working: ProblemInstance, target: ProblemInstance, sid: str
) -> Optional[list[ProblemInstance]]:
    """Instances stepping one seat at a time from ``working`` to ``target`` at
    school ``sid``; the last entry is ``target`` itself. Each round bumps the
    first candidate point that keeps the capacity table monotone (upper
    corners of the gap first, necessarily, since a bump below an unlifted
    point would overshoot it). ``None`` when no monotone bump order exists.
    Refuses, as :func:`check_monotonic` does, when one monotonicity check
    would take more than 2 000 000 steps.
    """
    base_cfg = working.school(sid)
    bound = base_cfg.capacity
    _require_steps(base_cfg.group_count, bound)
    table = _school_table(base_cfg)
    goal = _school_table(target.school(sid))

    intermediates: list[ProblemInstance] = []
    while table != goal:
        for vec in goal:
            if table[vec] < goal[vec]:
                table[vec] += 1
                if _table_report(table, bound).ok:
                    break
                table[vec] -= 1
        else:
            return None
        if table == goal:
            intermediates.append(target)
        else:
            scheme = TableScheme.pinned(table, base_cfg.targets)
            intermediates.append(working.with_school(replace(base_cfg, scheme=scheme)))
    return intermediates


def allocation_waste(instance: ProblemInstance, allocation: Iterable[Contract]) -> int:
    """Unfilled reserved seats that the transfer schemes left on the table.

    For each school's choice over its own assignment, a group's unmet target
    counts as waste unless zeroing that group's residual would have reduced a
    later group's realized capacity, i.e. unless the vacancies were passed
    on. An artifact-level diagnostic, not a quantity from the model itself.
    """
    allocation = frozenset(allocation)
    total = 0
    for cfg in instance.schools:
        _, trace = dynamic_reserves_choice(allocation, cfg)
        residuals = list(trace.residuals)
        for k, record in enumerate(trace.groups):
            if record.residual == 0:
                continue
            zeroed = list(residuals)
            zeroed[k] = 0
            transferred = any(
                cfg.dynamic_capacity(m, tuple(residuals[:m]))
                > cfg.dynamic_capacity(m, tuple(zeroed[:m]))
                for m in range(k + 1, cfg.group_count)
            )
            if not transferred:
                total += max(0, cfg.targets[k] - len(record.chosen))
    return total
