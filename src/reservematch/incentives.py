"""Incentive audits and comparative statics for the cumulative offer mechanism.

Three families of checks live here. The misreport check decides whether a
student can beat truth-telling from their one-contract reports alone, on a
market whose schools are certified (``_truncation_misreport``, which proves
it); the tests enumerate whole strategy spaces as its oracle.
Priority-improvement checks verify that cleanly rising in a school's
ranking never hurts the student who rose. Flexibility comparison
pits two capacity transfer schemes against each other: the more flexible one
should weakly Pareto-improve the outcome, and the reseating chain rebuilds
the improved outcome from the old one, moving students only upward.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Optional, Sequence

from ._engine import Compiled
from .choice import (
    SchoolConfig,
    TableScheme,
    _table_report,
    capacity_table,
    dynamic_reserves_choice,
)
from .cop import _validated
from .errors import InvalidInputError, SearchCapExceededError, ValidationError
from .instance import ProblemInstance, _scheme_violations
from .model import Contract, PreferenceOrder, PriorityOrder, assignments
from .verification import _require_allocation

__all__ = [
    "Misreport",
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


def _held_contract(compiled: Compiled, mask: int, student_index: int) -> Optional[Contract]:
    own = [ci for ci in compiled.student_contracts[student_index] if (mask >> ci) & 1]
    return compiled.contracts[own[-1]] if own else None


def _truncation_misreport(
    compiled: Compiled, truth: int, student: str, rank: Sequence[int]
) -> Optional[Misreport]:
    """The first profitable misreport of ``student``, or ``None``: a search
    of the student's whole strategy space (every ordered subset of their
    contracts), decided from one-contract reports, on a market that meets
    the hypotheses of the completion theorem in the :mod:`reservematch.cop`
    docstring: every school's choice ``C`` has a completion ``C'`` that is
    substitutable and satisfies the law of aggregate demand (LAD), and so
    IRC. ``audit`` calls it on every market it audits, each of whose
    schools it certifies (``instance._scheme_violations`` proves the
    hypotheses); on a market with an uncertified school it can miss a
    misreport. ``rank`` is ``compiled.default_order_rank()``, the truthful
    proposal order, and ``truth`` the held mask of the process under it.

    For each contract ``x`` the student truly ranks above their truthful
    outcome, in contract order, the report ``[x]`` runs on a
    ``Compiled.with_acceptable`` clone that differs from ``compiled`` only
    in the student's list, under ``rank``. The student can profit exactly
    when some ``[x]`` yields ``x``, and the first such ``x`` gives the
    misreport that the full enumeration returns
    (``tests/helpers.reference_group_misreport``, the oracle). Proof, for a
    fixed profile of the other students' reports. Steps 1 and 2 are the
    completion theorem of the :mod:`reservematch.cop` docstring, which holds
    for every preference profile: the process under ``C`` equals the
    process under ``C'``, and it ends at the student-optimal stable
    allocation under ``C'`` whatever the proposal order. The clone has the
    same schools, and the certificate reads only the schools, so the clone
    meets the hypotheses too: ``rank``, which is not the canonical order of
    the changed profile, gives the clone the outcome that every other order
    gives it.

    3. If some report ``P`` gives the student ``x``, ``[x]`` gives ``x``.
       The outcome ``Y`` under ``P`` is stable under ``C'`` (step 2). It
       stays stable when the student reports ``[x]``: ``x`` is acceptable
       under ``[x]``, the schools choose as before, and a blocking set
       would hold no contract of the student, who chooses ``x`` from any
       set holding it, so it would block ``Y`` under ``P`` too. By the
       rural hospitals theorem (Hatfield & Milgrom 2005, Thm 8, which
       needs LAD), the student is matched in every stable allocation under
       ``[x]``, so also in the outcome of ``[x]`` (step 2), and the only
       contract they ever offer is ``x``.

    So a profitable report exists exactly when a profitable ``[x]`` does.
    The empty report and the one-contract reports, in contract order, open
    the full enumeration, which runs reports shortest first, so the first
    profitable ``[x]`` is also its first witness. The proof uses only the
    axioms, not the scheme that certifies them. Under the same hypotheses
    Hatfield & Kominers ("Hidden substitutes") prove the mechanism
    strategy-proof outright, so a witness here means a process that departs
    from its own definition; the runs are what keep such a departure
    visible.
    """
    contracts = compiled.contracts
    si = compiled.student_index[student]
    listed = compiled.acceptable[si]
    truthful = _held_contract(compiled, truth, si)
    pref = PreferenceOrder(student, tuple(contracts[ci] for ci in listed))
    acceptable = list(compiled.acceptable)
    for ci in sorted(listed[: pref.rank(truthful)]):
        acceptable[si] = (ci,)
        if compiled.with_acceptable(tuple(acceptable)).cop(rank) >> ci & 1:
            x = contracts[ci]
            return Misreport((student,), (PreferenceOrder(student, (x,)),), (truthful,), (x,))
    return None


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
    beaten, and the beneficiary never loses acceptability. A list that names
    a student twice is no priority order, so it is no improvement either.
    """
    if set(base) != set(improved):
        return False
    for school, old in base.items():
        new = improved[school]
        if any(len(set(p.ranked)) != len(p.ranked) for p in (old, new)):
            return False
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
    the beneficiary is weakly better off under their true preferences. An
    unambiguous improvement of valid priorities is valid, so the lifted
    market is a clone of the validated one."""
    if student not in instance.students:
        raise InvalidInputError(f"unknown student {student!r}")
    base = {cfg.school: cfg.priority for cfg in instance.schools}
    if not is_unambiguous_improvement(base, improved, student):
        raise InvalidInputError(
            f"priorities are not an unambiguous improvement for {student}"
        )
    compiled = _validated(instance)
    rank = compiled.default_order_rank()
    lifted = _lifted(compiled, instance.schools, improved)
    return _respects_improvement(
        compiled, compiled.cop(rank), lifted, rank, instance.preferences[student]
    )


def _lifted(
    compiled: Compiled, schools: Iterable[SchoolConfig], improved: Mapping[str, PriorityOrder]
) -> Compiled:
    """The clone of ``compiled`` whose schools rank by ``improved``: every
    school of ``schools`` whose priority changes is rebuilt with
    ``Compiled.with_school``."""
    for cfg in schools:
        if improved[cfg.school] != cfg.priority:
            compiled = compiled.with_school(replace(cfg, priority=improved[cfg.school]))
    return compiled


def _respects_improvement(
    compiled: Compiled, held: int, lifted: Compiled, rank: Sequence[int], pref: PreferenceOrder
) -> ImprovementCheck:
    """The check of :func:`check_respects_improvements` on compiled markets:
    ``held`` is the outcome of ``compiled`` under ``rank``, ``lifted`` is its
    clone under the improved priorities, and ``pref`` is the beneficiary's
    true preference. Only ``lifted`` runs; the clone shares every
    preference, so ``rank`` is its canonical order too."""
    si = compiled.student_index[pref.student]
    before = _held_contract(compiled, held, si)
    after = _held_contract(lifted, lifted.cop(rank), si)
    return ImprovementCheck(pref.rank(after) <= pref.rank(before), before, after)


# ----------------------------------------------------------------------
# flexibility comparison and the vacancy-chain algorithm


def is_more_flexible(first, second, targets: tuple[int, ...], bound: int) -> bool:
    """True when ``first`` grants every group at least the capacity ``second``
    does at every residual vector in the bounded domain, with at least one
    strict gain. Both schemes are assumed monotone with matching targets.
    Raises :class:`SearchCapExceededError`, as :func:`check_monotonic`
    does, when a capacity table over ``[0, bound]`` spans more than
    2 000 000 unit steps."""
    a = capacity_table(first, targets, bound)
    b = capacity_table(second, targets, bound)
    return a != b and all(a[vec] >= b[vec] for vec in a)


def _compiled_pair(
    rigid: ProblemInstance, flexible: ProblemInstance
) -> tuple[Compiled, list[tuple[SchoolConfig, SchoolConfig]]]:
    """The instance half of both comparisons. The two instances must
    describe one market: the same contracts, students, type profile,
    preferences and schools, which may differ only in their schemes.
    ``rigid`` is validated and compiled once. Returns that compile and the
    (rigid, flexible) configurations of the schools whose schemes differ,
    in school order, for :func:`_changed_schools`."""
    if rigid.contracts != flexible.contracts or rigid.students != flexible.students:
        raise InvalidInputError("instances describe different markets")
    if rigid.profile != flexible.profile:
        raise InvalidInputError("instances must share one type profile")
    if rigid.preferences != flexible.preferences:
        raise InvalidInputError("instances must share one preference profile")
    ids = [cfg.school for cfg in rigid.schools]
    if ids != [cfg.school for cfg in flexible.schools]:
        raise InvalidInputError("instances list different schools")
    for a, b in zip(rigid.schools, flexible.schools):
        if replace(a, scheme=b.scheme) != b:
            raise InvalidInputError(f"school {a.school}: only the scheme may differ")
    pairs = [(a, b) for a, b in zip(rigid.schools, flexible.schools) if a.scheme != b.scheme]
    return _validated(rigid), pairs


def _changed_schools(
    compiled: Compiled, pairs: Sequence[tuple[SchoolConfig, SchoolConfig]]
) -> tuple[Compiled, dict]:
    """The one prelude of both comparisons, on the validated compile
    ``compiled``. Each pair holds a school's rigid and flexible
    configurations, which equal the compiled school's but for their
    schemes: the rigid side and the flexible side of the comparison.

    Only the schemes the compile does not already hold are validated, the
    rigid ones first, so the violations raised are those that validating
    the rigid market, then the flexible one, would find: for
    :func:`check_flexibility_pareto` the rigid schemes are the compile's
    own, and for the audit's draw (``generator._flexibility_draw``, which
    builds both monotone and checks neither) this is the pair's one check.

    Each side is read into one :func:`capacity_table`: a validated side's
    is the table its monotonicity check read, and any other side's (the
    compile's own scheme, or one certified without a table) is read after
    validation, school by school. Each read refuses, as
    :func:`check_monotonic` does, when its table would span more than
    2 000 000 unit steps, so the prelude refuses at the first such school,
    having possibly read the tables of earlier schools, each under the cap.
    Returns the rigid market, as a ``Compiled.with_school`` clone of
    ``compiled`` where a rigid scheme is not the compile's, and the
    changed schools in school order, each mapped to its rigid and flexible
    configurations, then its rigid and flexible tables. A school changes
    when its scheme grants a different capacity somewhere in the residual
    domain, not merely when it is written otherwise.
    """
    own = [compiled.schools[compiled.school_index[a.school]].scheme for a, _ in pairs]
    tables = [({}, {}) for _ in pairs]
    for side in (0, 1):
        violations = [
            v
            for pair, scheme, read in zip(pairs, own, tables)
            if pair[side].scheme != scheme
            for v in _scheme_violations(f"school {pair[side].school}", pair[side], read[side])
        ]
        if violations:
            raise ValidationError(violations)
    working, changed = compiled, {}
    for (a, b), scheme, read in zip(pairs, own, tables):
        if a.scheme != scheme:
            working = working.with_school(a)
        before, after = (
            t or capacity_table(c.scheme, c.targets, c.capacity) for c, t in zip((a, b), read)
        )
        if before != after:
            changed[a.school] = a, b, before, after
    return working, changed


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
    result equals the mechanism outcome under ``flexible``. As in
    :func:`check_flexibility_pareto`, only ``rigid`` is compiled, the
    flexible side is a clone of it, and a school whose table is past the
    step cap is refused where its table would be built. A ``z`` that is not
    an allocation of the market (a contract outside it, a student with
    several contracts, a school over capacity) raises
    :class:`InvalidInputError`, as in
    :func:`~reservematch.verification.is_stable`, before any table is read:
    the sides differ only in their schemes, so the rigid compile holds the
    capacities.
    """
    z = frozenset(z)
    compiled, pairs = _compiled_pair(rigid, flexible)
    _require_allocation(compiled, z, True)
    working, changed = _changed_schools(compiled, pairs)
    if len(changed) != 1:
        raise InvalidInputError(f"expected exactly one school to change, got {list(changed)}")
    ((_, cfg, a, b),) = changed.values()
    compiled = working.with_school(cfg)
    diffs = [(len(vec), vec, b[vec] - a[vec]) for vec in a if b[vec] != a[vec]]
    if len(diffs) != 1 or diffs[0][2] != 1:
        raise InvalidInputError(
            "schemes must differ by a single unit increment; found "
            + ", ".join(f"group {k} at {v}: {d:+d}" for k, v, d in diffs)
        )
    held = compiled.to_mask(z)
    return compiled.to_set(_reseat(compiled, held, compiled.default_order_rank()))


def _reseat(compiled: Compiled, held: int, rank: Sequence[int]) -> int:
    """The reseating of :func:`improvement_chains` on a compiled market:
    cut each student's list after their contract in the global mask
    ``held``, and return the held mask of the process on the cut lists. It
    runs on a ``Compiled.with_acceptable`` clone, under ``rank``, the
    canonical order of the uncut lists.

    That order is sound wherever its market is certified: the clone has the
    same schools, so by the completion theorem in the
    :mod:`reservematch.cop` docstring every proposal order gives it the
    outcome of its own canonical order. Every market this runs on is
    certified. :func:`improvement_chains` runs it on its flexible side, and
    :func:`_flexibility_pareto` on markets whose schools are validated or
    certified by ``_changed_schools`` (the schemes of both sides), or are
    unit steps of :func:`_unit_instances`. Such a step lies between two
    certified tables, so it keeps each group's target at the zero vector
    and the targets' sum, and it passes both monotonicity conditions, which
    is the certificate (``instance._scheme_violations``)."""
    cut = tuple(
        lst[: next((p + 1 for p, ci in enumerate(lst) if held >> ci & 1), len(lst))]
        for lst in compiled.acceptable
    )
    return compiled.with_acceptable(cut).cop(rank)


# ----------------------------------------------------------------------
# end-to-end flexibility comparison


@dataclass(frozen=True)
class FlexibilityComparison:
    dominates: bool
    rigid_outcome: frozenset
    flexible_outcome: frozenset
    deltas: tuple[tuple[str, Optional[Contract], Optional[Contract], str], ...]
    chain_agrees: Optional[bool]

    @property
    def decomposed(self) -> bool:
        return self.chain_agrees is not None

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

    Refusals come first. After the preconditions (one market, only schemes
    differ, both sides valid), the capacity tables of the schools whose
    schemes differ are read in school order, and the comparison refuses, as
    :func:`check_monotonic` does, at the first table that would span more
    than 2 000 000 unit steps, before it builds that table; the tables of
    earlier schools, each under the cap, may already be read. The changed
    schools are then decomposed in order, stopping at the first one without
    a decomposition, since ``chain_agrees`` is ``None`` whatever the later
    ones give; chains are replayed only when every school decomposed. The
    decomposition's whole-table checks read at most ``_DECOMPOSITION_CAP``
    table entries in all, and more is refused (:func:`_unit_instances`).

    Only ``rigid`` is validated and compiled; the flexible side and every
    market in between are ``Compiled.with_school`` clones of it. The last
    school switched makes the market ``flexible``: the unchanged schools
    grant the same capacities.
    """
    compiled, pairs = _compiled_pair(rigid, flexible)
    rank = compiled.default_order_rank()  # the sides share every preference
    return _flexibility_pareto(compiled, pairs, rigid.preferences, rank)


def _flexibility_pareto(
    compiled: Compiled,
    pairs: Sequence[tuple[SchoolConfig, SchoolConfig]],
    preferences: Mapping[str, PreferenceOrder],
    rank: Sequence[int],
) -> FlexibilityComparison:
    """The comparison of :func:`check_flexibility_pareto` on the validated
    compile ``compiled``, between the (rigid, flexible) configuration
    ``pairs`` as :func:`_changed_schools` reads them; ``preferences`` are
    the true preferences both sides share, and ``rank`` is their
    ``default_order_rank``.

    The flexible side is built once, one changed school at a time: it is
    the clone the replay switches to, and each chain's last unit step, the
    bump that reaches the flexible table, runs on it."""
    working, changed = _changed_schools(compiled, pairs)
    for sid, (_, _, table, goal) in changed.items():
        if any(goal[vec] < cap for vec, cap in table.items()):
            raise InvalidInputError(f"school {sid}: flexible scheme is not more flexible")

    chains, read = [], 0
    for a, _, table, goal in changed.values():
        steps, read = _unit_instances(a, table, goal, read)
        if steps is None:
            break
        chains.append(steps)

    outcome = rigid_mask = working.cop(rank)
    flexible, chain_agrees = working, None
    if len(chains) == len(changed):
        chain_agrees = True
        for steps, (_, b, _, _) in zip(chains, changed.values()):
            replay = outcome
            for cfg in steps:
                replay = _reseat(flexible.with_school(cfg), replay, rank)
            flexible = flexible.with_school(b)
            outcome = flexible.cop(rank)
            chain_agrees = chain_agrees and _reseat(flexible, replay, rank) == outcome
    else:
        for _, b, _, _ in changed.values():
            flexible = flexible.with_school(b)
        outcome = flexible.cop(rank)
    rigid_outcome = working.to_set(rigid_mask)
    flexible_outcome = working.to_set(outcome)

    deltas = []
    rigid_seats = assignments(rigid_outcome)
    flexible_seats = assignments(flexible_outcome)
    for student in working.students:
        pref = preferences[student]
        before = rigid_seats.get(student)
        after = flexible_seats.get(student)
        rb, ra = pref.rank(before), pref.rank(after)
        verdict = "same" if ra == rb else ("better" if ra < rb else "worse")
        deltas.append((student, before, after, verdict))
    dominates = all(verdict != "worse" for *_, verdict in deltas)
    return FlexibilityComparison(
        dominates, rigid_outcome, flexible_outcome, tuple(deltas), chain_agrees
    )


# The table entries that the whole-table checks of ``_unit_instances`` may
# read in one comparison. The greedy order often fails after a few checks,
# so the count is kept as the checks run, not bounded up front by the gap.
_DECOMPOSITION_CAP = 16_000_000


def _unit_instances(
    base: SchoolConfig, table: dict, goal: dict, read: int
) -> tuple[Optional[list[SchoolConfig]], int]:
    """Configurations of one school stepping one seat at a time from
    ``base``, whose capacity table is ``table``, toward the capacity table
    ``goal``, stopping one bump short of it, and the count of table entries
    read. Each round bumps the first candidate point that keeps the
    capacity table monotone (upper corners of the gap first, necessarily,
    since a bump below an unlifted point would overshoot it). The steps are
    ``None`` when no monotone bump order exists.

    ``table`` lies nowhere above ``goal`` (``_flexibility_pareto`` refuses
    otherwise), so the last seat of the gap is the bump that makes the
    table equal ``goal``. That bump is neither taken nor checked: the
    caller runs it on its flexible side, whose scheme grants ``goal`` and
    which ``_changed_schools`` validated with the same report (it passes a
    certified scheme, monotone by its certificate), so the report would
    pass.

    Each check reads every entry of the table. ``read`` counts the entries
    the comparison's earlier checks read; a check that would take the count
    past ``_DECOMPOSITION_CAP`` raises :class:`SearchCapExceededError`
    before it runs.
    """
    table = dict(table)
    gap = sum(goal[vec] - table[vec] for vec in goal)
    steps: list[SchoolConfig] = []
    while gap > 1:
        for vec in goal:
            if table[vec] < goal[vec]:
                read += len(table)
                if read > _DECOMPOSITION_CAP:
                    what = "decomposition table reads"
                    raise SearchCapExceededError(read, _DECOMPOSITION_CAP, what)
                table[vec] += 1
                if _table_report(table, base.capacity).ok:
                    break
                table[vec] -= 1
        else:
            return None, read
        gap -= 1
        steps.append(replace(base, scheme=TableScheme.pinned(table, base.targets)))
    return steps, read


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
