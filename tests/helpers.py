"""Independent oracles used to cross-check the library's own verifiers.

Everything here re-derives results by unstructured enumeration, leaning only
on the choice functions themselves, so a library bug in the stability or
blocking-set code cannot hide behind itself. Some checks live only here, as
the oracles of what the library proves instead of enumerating: the full
misreport search (``reference_group_misreport``), the IRC scan
(``reference_irc``), the completion check (``check_completion``) and the
walk over proposal orders (``order_walk``).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import replace

import reservematch as rm
from reservematch._engine import Compiled, bits
from reservematch.choice import _table_report, capacity_table
from reservematch.fileio import contract_id
from reservematch.instance import FlatMarket, _ids_split, _scheme_violations
from reservematch.verification import PropertyCheck, _tabulate


def enumerate_allocations(instance: rm.ProblemInstance):
    """Every feasible allocation: each student unmatched or holding one of
    their contracts, school loads within capacity. Exponential; tiny only."""
    per_student = []
    for s in instance.students:
        per_student.append([None] + sorted(instance.contracts_of(s)))
    capacities = {cfg.school: cfg.capacity for cfg in instance.schools}
    for combo in itertools.product(*per_student):
        chosen = [c for c in combo if c is not None]
        loads: dict = {}
        ok = True
        for c in chosen:
            loads[c.school] = loads.get(c.school, 0) + 1
            if loads[c.school] > capacities[c.school]:
                ok = False
                break
        if ok:
            yield frozenset(chosen)


def brute_is_stable(y: frozenset, instance: rm.ProblemInstance) -> bool:
    """Direct re-implementation of the three stability conditions."""
    held = {c.student: c for c in y}
    for c in y:
        if not instance.preferences[c.student].accepts(c):
            return False
    for cfg in instance.schools:
        mine = frozenset(c for c in y if c.school == cfg.school)
        if rm.dynamic_reserves_choice(y, cfg)[0] != mine:
            return False
    for cfg in instance.schools:
        pool = sorted(c for c in instance.contracts if c.school == cfg.school)
        for size in range(1, cfg.capacity + 1):
            for z in itertools.combinations(pool, size):
                z = frozenset(z)
                if z & y:
                    continue
                chosen = rm.dynamic_reserves_choice(y | z, cfg)[0]
                if not z <= chosen:
                    continue
                if all(
                    rm.student_choice((y | z), instance.preferences[s])
                    in frozenset(c for c in z if c.student == s)
                    and sum(1 for c in z if c.student == s) == 1
                    for s in {c.student for c in z}
                ):
                    return False
    return True


def brute_blocking_set(y: frozenset, school: str, instance: rm.ProblemInstance):
    """The first blocking set at ``school`` in smallest-first enumeration of
    every subset of candidate contracts, each size in lexicographic contract
    order, up to the school's capacity; ``None`` when none blocks."""
    cfg = instance.school(school)
    current = {c.student: c for c in y}
    candidates = [
        c
        for c in sorted(instance.contracts)
        if c.school == school
        and c not in y
        and cfg.priority.accepts(c.student)
        and instance.preferences[c.student].prefers(c, current.get(c.student))
    ]
    for size in range(1, min(cfg.capacity, len(candidates)) + 1):
        for z in itertools.combinations(candidates, size):
            if len({c.student for c in z}) != size:
                continue
            z = frozenset(z)
            if z <= rm.dynamic_reserves_choice(y | z, cfg)[0]:
                return z
    return None


def brute_stable_set(instance: rm.ProblemInstance) -> list:
    return [y for y in enumerate_allocations(instance) if brute_is_stable(y, instance)]


def brute_monotonic(scheme, targets: tuple, bound: int) -> rm.MonotonicityReport:
    """Both monotonicity conditions checked on every componentwise-ordered
    pair of residual vectors in ``[0, bound]^k``, for every group ``k``."""

    def cap(k, vec):
        return scheme.capacity(k, vec, targets)

    for k in range(1, len(targets)):
        for low in itertools.product(range(bound + 1), repeat=k):
            for high in itertools.product(*(range(r, bound + 1) for r in low)):
                if cap(k, high) < cap(k, low):
                    return rm.MonotonicityReport(False, k, low, high, condition=1)
                gain = sum(cap(m, high[:m]) - cap(m, low[:m]) for m in range(1, k + 1))
                if gain > sum(high) - sum(low):
                    return rm.MonotonicityReport(False, k, low, high, condition=2)
    return rm.MonotonicityReport(True)


def reference_choice(offers, school) -> frozenset:
    """A school's set-based choice: slot-specific or dynamic reserves."""
    if isinstance(school, rm.SlotSpecificSchool):
        return rm.slot_specific_choice(offers, school)
    return rm.dynamic_reserves_choice(offers, school)[0]


def reference_cop(students, schools, preferences, order):
    """The cumulative offer process by full scan, over the set-based choices.

    Every step rescans all students, skips each one some school holds a
    contract of, moves the others past their contracts already offered, and
    offers the order-minimal next acceptable contract among them; the
    proposee school then re-chooses from everything it has been offered.
    Returns the held contracts and one ``(proposed, offered, held)`` tuple
    per step, where ``held`` has one frozenset per school of ``schools``.
    """
    position = {c: n for n, c in enumerate(order)}
    acceptable = {
        s: [c for c in preferences[s].ranked if c in position] if s in preferences else []
        for s in students
    }
    ptr = dict.fromkeys(students, 0)
    offered: set = set()
    held = {school.school: frozenset() for school in schools}
    steps = []
    while True:
        held_students = {c.student for cs in held.values() for c in cs}
        best = None
        for s in students:
            if s in held_students:
                continue
            lst = acceptable[s]
            while ptr[s] < len(lst) and lst[ptr[s]] in offered:
                ptr[s] += 1
            if ptr[s] < len(lst) and (best is None or position[lst[ptr[s]]] < position[best]):
                best = lst[ptr[s]]
        if best is None:
            break
        offered.add(best)
        school = next(x for x in schools if x.school == best.school)
        held[school.school] = reference_choice(
            frozenset(c for c in offered if c.school == school.school), school
        )
        steps.append((best, frozenset(offered), tuple(held[x.school] for x in schools)))
    return frozenset().union(*held.values()), steps


def order_walk(compiled: Compiled, baseline: int):
    """The oracle for order independence, which the library reads off the
    completion theorem in the ``cop`` docstring: ``None`` when every
    proposal order ends at the held mask ``baseline``, else a proposal
    order that ends elsewhere, with that outcome, as ``(order, outcome)``.

    A state of the process is the global mask of the contracts proposed so
    far: each school holds ``choose`` of what it was offered, and each
    student no school holds can propose their first listed contract not yet
    proposed. A proposal order picks one of these moves at each step, so the
    outcome is order independent exactly when every terminal state (one
    with no move left) holds ``baseline``. The walk is a depth-first search
    from the empty state that visits each state once, with one ``choose``
    per new state, at the school proposed to. Each state carries every
    school's offered local mask, so a move reads its school's offers with
    one OR instead of splitting the whole state. It has no cap: the markets
    it runs on are small.

    The witness needs no constraint solving. Take the path ``c_1, ..., c_T``
    by which the walk first reached a divergent terminal state, and put its
    contracts first, in path order, then the rest in contract order. Under
    that order the process follows the path: before step ``t`` it stands
    at the path's state ``t - 1``, where ``c_t`` is proposable and every
    other proposable contract is a later path contract or off the path, so
    ranks after ``c_t``. After step ``T`` nothing is proposable, and the
    process stops at the divergent state.
    """
    schools = compiled.schools
    school_of, local_bit = compiled.school_of, compiled.local_bit
    seen = {0}
    # a state, each school's offered local mask and held global mask there,
    # and the path that first reached it as a linked ``(last move, rest)``
    # pair, so that a state costs one pair rather than a copy of its path
    empty = (0,) * len(schools)
    stack: list = [(0, empty, empty, None)]
    while stack:
        proposed, offered, held, path = stack.pop()
        holding = sum(held)  # schools hold disjoint masks
        moves = compiled.proposable(proposed, holding)
        if not moves and holding != baseline:
            steps = []
            while path:
                ci, path = path
                steps.append(ci)
            steps.reverse()
            rest = sorted(set(range(len(compiled.contracts))) - set(steps))
            order = tuple(compiled.contracts[ci] for ci in steps + rest)
            return order, compiled.to_set(holding)
        for ci in bits(moves):
            state = proposed | 1 << ci
            if state in seen:
                continue
            seen.add(state)
            s = school_of[ci]
            offer = offered[s] | 1 << local_bit[ci]
            chosen, _ = schools[s].choose(offer)
            offered_now = offered[:s] + (offer,) + offered[s + 1 :]
            held_now = held[:s] + (compiled.to_global(s, chosen),) + held[s + 1 :]
            stack.append((state, offered_now, held_now, (ci, path)))
    return None


def local_mask(compiled: Compiled, s: int, contracts) -> int:
    """School ``s``'s local mask of those of ``contracts`` that are its own."""
    index, local_bit = compiled.index, compiled.local_bit
    return sum(1 << local_bit[index[c]] for c in contracts if compiled.school_of[index[c]] == s)


def reference_tabulate(market: FlatMarket, s: int, completion: bool) -> tuple[rm.ChoiceTable, set]:
    """The choice table of school ``s`` of ``market`` over all its
    contracts, through :func:`rm.tabulate`: one whole ``choose`` of a fresh
    compile per subset or, for the completion, one set-based
    ``completion_choice``. Also the capacity-table keys those choices read:
    every prefix of each choice's residuals (group ``k`` reads the key of
    the ``k`` residuals before it)."""
    compiled = Compiled(market)
    school, cfg = compiled.schools[s], market.schools[s]
    pool = [compiled.contracts[ci] for ci in school.global_index if ci is not None]
    keys = set()

    def choice(offers):
        if completion:
            picked, trace = rm.completion_choice(offers, cfg)
            residuals = trace.residuals
        else:
            local, residuals = school.choose(local_mask(compiled, s, offers))
            picked = compiled.to_set(compiled.to_global(s, local))
        keys.update(residuals[:k] for k in range(len(residuals)))
        return picked

    return rm.tabulate(choice, pool, cap=1 << len(pool)), keys


def certified(compiled: Compiled) -> bool:
    """Whether every school of a compiled market passes the certificate that
    ``audit`` reads off each compiled school (``instance._scheme_violations``)."""
    return not any(_scheme_violations("", school) for school in compiled.schools)


def reference_completion_axioms(compiled: Compiled, max_contracts: int) -> tuple:
    """The oracle for ``cli._completion_axioms``: whether every school is
    certified, restated from the certificate's definition (targets that are
    non-negative and sum to the capacity, each group's capacity at the
    all-zero residuals at its target, and both conditions of
    ``check_monotonic`` over ``[0, capacity]``, stepped even where a
    forward-sum shape certifies itself); whether every school whose pool is
    at most ``max_contracts`` passes all four checks on its tables (a
    completion, IRC, substitutable, LAD), IRC scanned rather than read off
    the other two; and how many schools those are."""
    certified, verdict, checked = True, True, 0
    for s, school in enumerate(compiled.schools):
        targets, capacity = school.targets, school.capacity
        certified = (
            certified
            and min(targets) >= 0
            and sum(targets) == capacity
            and all(
                school.scheme.capacity(k, (0,) * k, targets) == targets[k]
                for k in range(len(targets))
            )
            and rm.check_monotonic(school.scheme, targets, capacity).ok
        )
        if compiled.school_of.count(s) > max_contracts:
            continue
        checked += 1
        base = _tabulate(compiled, s, completion=False)
        comp = _tabulate(compiled, s, completion=True)
        verdict = (
            verdict
            and check_completion(base, comp).holds
            and reference_irc(comp).holds
            and rm.check_substitutability(comp).holds
            and rm.check_lad(comp).holds
        )
    return certified, verdict, checked


def take_back_market() -> rm.ProblemInstance:
    """A market where a school takes back a contract it rejected.

    School s seats group t2 only once group t1 has filled: a transfer that
    grows as vacancies shrink, which validation refuses. So s rejects a's
    t2 contract alone and takes it back once b fills group t1. Each student
    truly lists every contract of theirs, a's best first.
    """
    a_s = rm.Contract("a", "s", "t2")
    a_u = rm.Contract("a", "u", "t1")
    a_v = rm.Contract("a", "v", "t1")
    b_s = rm.Contract("b", "s", "t1")
    c_u = rm.Contract("c", "u", "t1")
    one_seat = rm.ForwardSumScheme(((),))
    schools = (
        rm.SchoolConfig(
            "s", 2, rm.PriorityOrder("s", ("a", "b")), ("t1", "t2"), (1, 0),
            rm.TableScheme({1: {(0,): 1}}),
        ),
        rm.SchoolConfig("u", 1, rm.PriorityOrder("u", ("c", "a")), ("t1",), (1,), one_seat),
        rm.SchoolConfig("v", 1, rm.PriorityOrder("v", ("a",)), ("t1",), (1,), one_seat),
    )
    return rm.ProblemInstance(
        students=("a", "b", "c"),
        profile=rm.TypeProfile(
            ("t1", "t2"),
            {"a": frozenset({"t1", "t2"}), "b": frozenset({"t1"}), "c": frozenset({"t1"})},
        ),
        schools=schools,
        contracts=frozenset({a_s, a_u, a_v, b_s, c_u}),
        preferences={
            "a": rm.PreferenceOrder("a", (a_s, a_u, a_v)),
            "b": rm.PreferenceOrder("b", (b_s,)),
            "c": rm.PreferenceOrder("c", (c_u,)),
        },
    )


def _manipulable_market(schools, claims, preferences):
    """A market whose schools are ``(id, capacity, priority, precedence,
    targets, table entries)``. Every student holds one contract per school
    and claimed type; ``preferences`` lists ``school:type`` labels."""
    names = [row[0] for row in schools]
    contracts = {
        f"{s}@{school}:{t}": rm.Contract(s, school, t)
        for s in claims
        for school in names
        for t in claims[s]
    }
    return rm.ProblemInstance(
        students=tuple(claims),
        profile=rm.TypeProfile(
            tuple(sorted({t for ts in claims.values() for t in ts})),
            {s: frozenset(ts) for s, ts in claims.items()},
        ),
        schools=tuple(
            rm.SchoolConfig(sid, cap, rm.PriorityOrder(sid, prio), prec, targets, rm.TableScheme(e))
            for sid, cap, prio, prec, targets, e in schools
        ),
        contracts=frozenset(contracts.values()),
        preferences={
            s: rm.PreferenceOrder(s, tuple(contracts[f"{s}@{x}"] for x in ranked))
            for s, ranked in preferences.items()
        },
    )


# Markets whose transfer tables are not monotone, so validation refuses
# them and the mechanism can be manipulated. Found by searching random
# tables over generated markets, then dropping every table entry the
# manipulation does not need. Each lists the coalition and the expected
# (reports, truthful outcomes, outcomes under the reports).
MANIPULABLE = {
    # group t1 gets no seat while group t2 is empty: i2 drops t2, so i4
    # fills group t2 and group t1 opens for i2
    "empty-group-closes-the-next": (
        _manipulable_market(
            [("s1", 2, ("i2", "i4", "i1", "i3"), ("t2", "t1"), (1, 1), {1: {(1,): 0}})],
            {"i1": ("t1",), "i2": ("t1", "t2"), "i3": ("t1",), "i4": ("t1", "t2")},
            {"i1": ("s1:t1",), "i2": ("s1:t1", "s1:t2"), "i3": ("s1:t1",),
             "i4": ("s1:t2", "s1:t1")},
        ),
        ("i2",),
        (("s1:t1",),),
        ("s1:t2",),
        ("s1:t1",),
    ),
    # unmatched when truthful, seated by reporting only the second choice
    "unmatched-student-is-seated": (
        _manipulable_market(
            [("s1", 2, ("i2", "i1", "i3", "i4"), ("t2", "t1", "t1"), (1, 0, 1),
              {1: {(1,): 2}, 2: {(0, 0): 0}})],
            {"i1": ("t1",), "i2": ("t1", "t2"), "i3": ("t1", "t2"), "i4": ("t1", "t2")},
            {"i1": ("s1:t1",), "i2": ("s1:t1", "s1:t2"), "i3": ("s1:t2", "s1:t1"),
             "i4": ()},
        ),
        ("i3",),
        (("s1:t1",),),
        (None,),
        ("s1:t1",),
    ),
    # a two-contract report that wins the contract it lists second
    "two-contract-report": (
        _manipulable_market(
            [
                ("s1", 2, ("i3", "i1", "i2"), ("t1", "t3", "t2"), (0, 2, 0), {}),
                ("s2", 1, ("i2", "i1"), ("t1", "t2", "t3", "t2"), (1, 0, 0, 0),
                 {1: {(1,): 1}, 2: {(0, 0): 1}}),
            ],
            {"i1": ("t1", "t3"), "i2": ("t1", "t2"), "i3": ("t2", "t3")},
            {"i1": ("s2:t3", "s1:t3", "s2:t1", "s1:t1"),
             "i2": ("s1:t1", "s2:t2", "s1:t2", "s2:t1"),
             "i3": ("s1:t2", "s2:t3", "s2:t2", "s1:t3")},
        ),
        ("i1",),
        (("s2:t1", "s2:t3"),),
        ("s1:t3",),
        ("s2:t3",),
    ),
    # a pair: i2 moves to its first choice and frees a seat for i3
    "pair": (
        _manipulable_market(
            [("s1", 2, ("i2", "i1", "i4", "i3"), ("t2", "t1"), (2, 0), {1: {(0,): 1}})],
            {"i1": ("t1",), "i2": ("t1", "t2"), "i3": ("t2",), "i4": ("t1", "t2")},
            {"i1": ("s1:t1",), "i2": ("s1:t1", "s1:t2"), "i3": ("s1:t2",),
             "i4": ("s1:t1", "s1:t2")},
        ),
        ("i2", "i3"),
        (("s1:t1",), ("s1:t2",)),
        ("s1:t2", None),
        ("s1:t1", "s1:t2"),
    ),
}


def count_builds(monkeypatch) -> dict:
    """Count validations (``FlatMarket.violations``, which every validation
    runs) and compiles (``Compiled.__init__``); the counts fill the returned
    dict."""
    calls = {"validate": 0, "compile": 0}
    violations, compile_ = FlatMarket.violations, Compiled.__init__

    def counting_violations(self):
        calls["validate"] += 1
        return violations(self)

    def counting_compile(self, *args):
        calls["compile"] += 1
        compile_(self, *args)

    monkeypatch.setattr(FlatMarket, "violations", counting_violations)
    monkeypatch.setattr(Compiled, "__init__", counting_compile)
    return calls


def reference_run(compiled: Compiled, preferences) -> frozenset:
    """The outcome of the process on a clone of ``compiled`` reporting
    ``preferences``, under the clone's own canonical order."""
    clone = compiled.with_preferences(preferences)
    return clone.to_set(clone.cop(clone.default_order_rank()))


def preference_space(student: str, contracts):
    """Every strict preference a student could report: each ordered subset of
    their contracts read as the acceptable prefix, including the empty
    report; shortest first, each length in ``itertools.permutations`` order
    of the sorted contracts."""
    pool = sorted(contracts)
    for k in range(len(pool) + 1):
        for combo in itertools.permutations(pool, k):
            yield rm.PreferenceOrder(student, combo)


def preference_space_size(n: int) -> int:
    """The number of reports in the space of a student with ``n`` contracts."""
    total, running = 1, 1
    for k in range(1, n + 1):
        running *= n - k + 1
        total += running
    return total


def reference_group_misreport(instance: rm.ProblemInstance, coalition, cap: int = 200_000):
    """The oracle for ``incentives._truncation_misreport``, which ``audit``
    runs: the misreport search by plain enumeration, with no validation,
    for a coalition of one student or more.

    Every joint report is a tuple of :class:`PreferenceOrder` from
    ``preference_space``; each one runs on a fresh ``with_preferences``
    clone under that clone's own ``default_order_rank``. Returns the first
    :class:`Misreport` that strictly benefits every member, or ``None``. A
    member who holds their top contract makes the coalition hopeless, so
    that returns ``None`` at once. It refuses a joint space larger than
    ``cap`` after the truthful run, with ``needed`` the product of the
    members' ``preference_space_size``. It runs the engine's process,
    which ``reference_cop`` checks on its own.
    """
    members = tuple(sorted(set(coalition)))
    if not members:
        return None
    compiled = Compiled.from_instance(instance)

    def held(allocation, student):
        # a market whose scheme is not monotone can leave a student held
        # at two schools; the search reads the last in contract order
        return max((c for c in allocation if c.student == student), default=None)

    truths = [instance.preferences[s] for s in members]
    truth_outcome = reference_run(compiled, instance.preferences)
    truth_held = [held(truth_outcome, s) for s in members]
    truth_ranks = [p.rank(c) for p, c in zip(truths, truth_held)]
    if any(r == 0 for r in truth_ranks):
        return None

    pools = [sorted(instance.contracts_of(s)) for s in members]
    space = 1
    for pool in pools:
        space *= preference_space_size(len(pool))
    if space > cap:
        raise rm.SearchCapExceededError(space, cap, f"joint misreports for {members}")

    spaces = [list(preference_space(s, pool)) for s, pool in zip(members, pools)]
    for joint in itertools.product(*spaces):
        if all(rep.ranked == t.ranked for rep, t in zip(joint, truths)):
            continue
        prefs = dict(instance.preferences)
        prefs.update(zip(members, joint))
        got = reference_run(compiled, prefs)
        deviant = [held(got, s) for s in members]
        if all(p.rank(h) < r for p, h, r in zip(truths, deviant, truth_ranks)):
            return rm.Misreport(members, joint, tuple(truth_held), tuple(deviant))
    return None


def check_completion(base: rm.ChoiceTable, candidate: rm.ChoiceTable) -> PropertyCheck:
    """``candidate`` completes ``base`` when, on every offer set, it either
    agrees with ``base`` exactly or selects two contracts of one student.
    Counterexample: the offending offer set. ``audit`` need not check it:
    ``verification._completion_axioms_hold`` proves that the completion
    ``_tabulate`` builds completes the overall choice."""
    if base.pool != candidate.pool:
        raise rm.InvalidInputError("completion check needs two tables over the same pool")
    for mask, (picked, expected) in enumerate(zip(candidate.chosen, base.chosen)):
        if picked == expected:
            continue
        students = [base.pool[i].student for i in bits(picked)]
        if len(set(students)) < len(students):
            continue
        return PropertyCheck(False, (base.subset(mask),))
    return PropertyCheck(True)


# The axiom checks a contract pair at a time, as the library first wrote
# them. The library's word-level scans of substitutability and LAD must
# return the same verdict and the same counterexample; IRC, which the
# library reads off those two, has only this scan.


def reference_irc(table: rm.ChoiceTable) -> PropertyCheck:
    """Irrelevance of rejected contracts: dropping a rejected contract from
    the offer set never changes what is chosen. Counterexample: (Y, z) with
    z rejected from Y + z yet C(Y) != C(Y + z)."""
    chosen = table.chosen
    for mask, picked in enumerate(chosen):
        for z in bits(mask & ~picked):
            without = mask & ~(1 << z)
            if chosen[without] != picked:
                return PropertyCheck(False, (table.subset(without), table.pool[z]))
    return PropertyCheck(True)


def reference_substitutability(table: rm.ChoiceTable) -> PropertyCheck:
    chosen, pool = table.chosen, table.pool
    full = len(chosen) - 1
    for mask, picked in enumerate(chosen):
        for z in bits(mask & ~picked):
            for extra in bits(full & ~mask):
                if (chosen[mask | (1 << extra)] >> z) & 1:
                    y = table.subset(mask & ~(1 << z))
                    return PropertyCheck(False, (y, pool[z], pool[extra]))
    return PropertyCheck(True)


def reference_lad(table: rm.ChoiceTable) -> PropertyCheck:
    chosen = table.chosen
    full = len(chosen) - 1
    for mask, picked in enumerate(chosen):
        size = picked.bit_count()
        for z in bits(full & ~mask):
            if chosen[mask | (1 << z)].bit_count() < size:
                y = table.subset(mask)
                return PropertyCheck(False, (y, y | {table.pool[z]}))
    return PropertyCheck(True)


def reference_contract_of(cid: str, market: rm.ProblemInstance):
    """The contract an allocation file's id ``cid`` named before the reader
    had one resolver, or ``None``: split at its first "@" and the first ":"
    after it where every id of the market splits back, else looked up in a
    map of every id built in contract order."""
    if _ids_split(market.students, [cfg.school for cfg in market.schools]):
        student, at, rest = cid.partition("@")
        school, colon, privilege = rest.partition(":")
        c = rm.Contract(student, school, privilege)
        return c if at and colon and c in market.contracts else None
    return {contract_id(c): c for c in sorted(market.contracts)}.get(cid)


def reference_convert_mismatch(school: rm.SlotSpecificSchool, converted) -> list | None:
    """What ``convert --check`` reported before the converted school was
    tabulated on the engine: both sides by the set-based choices over the
    slot pool, and the first offer set, in that pool's mask order, on which
    they differ, as sorted ids; ``None`` when they agree everywhere."""
    pool = sorted(school.contracts)
    cap = 1 << len(pool)
    want = rm.tabulate(lambda offers: rm.slot_specific_choice(offers, school), pool, cap=cap)
    got = rm.tabulate(converted.choice, pool, cap=cap)
    for mask, (a, b) in enumerate(zip(got.chosen, want.chosen)):
        if a != b:
            return sorted(contract_id(c) for c in got.subset(mask))
    return None


def reference_flexibility_draw(instance: rm.ProblemInstance, seed: int):
    """The unit flexibility draw as first written: it re-checks both tables
    of every candidate school, receiver and donor, in shuffled order, and
    takes the first pair that passes."""
    rng = random.Random(seed)
    schools = [cfg for cfg in instance.schools if cfg.group_count >= 2 and cfg.capacity >= 1]
    rng.shuffle(schools)
    for cfg in schools:
        bound = cfg.capacity
        receivers = list(range(1, cfg.group_count))
        rng.shuffle(receivers)
        constant = capacity_table(rm.TableScheme({}), cfg.targets, bound)
        for receiver in receivers:
            rigid = {
                vec: (cap + max(0, sum(vec) - 1)) if len(vec) == receiver else cap
                for vec, cap in constant.items()
            }
            if not _table_report(rigid, bound).ok:
                continue
            donor_coords = list(range(receiver))
            rng.shuffle(donor_coords)
            for j in donor_coords:
                bump = tuple(1 if i == j else 0 for i in range(receiver))
                flexible = {**rigid, bump: rigid[bump] + 1}
                if _table_report(flexible, bound).ok:
                    rigid_cfg = replace(cfg, scheme=rm.TableScheme.pinned(rigid, cfg.targets))
                    flex_cfg = replace(cfg, scheme=rm.TableScheme.pinned(flexible, cfg.targets))
                    return rigid_cfg, flex_cfg
    return None
