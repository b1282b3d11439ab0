"""Stability checks, blocking-set search, and choice-function axioms."""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from typing import Optional

import pytest

import reservematch as rm
from reservematch import cli, verification
from helpers import (
    MANIPULABLE,
    brute_blocking_set,
    brute_is_stable,
    brute_stable_set,
    certified,
    check_completion,
    count_builds,
    enumerate_allocations,
    reference_completion_axioms,
    reference_irc,
    reference_lad,
    reference_substitutability,
    reference_tabulate,
    take_back_market,
)
from reservematch._engine import Compiled
from reservematch.instance import FlatMarket
from reservematch.verification import _tabulate


def test_empty_outcome_is_stable_when_nothing_is_acceptable(ex1):
    nobody = ex1.with_preferences({s: rm.PreferenceOrder(s, ()) for s in ex1.students})
    assert rm.is_stable(frozenset(), nobody).passed


def test_unacceptable_assignment_fails_with_its_witness(ex1, X):
    prefs = dict(ex1.preferences)
    prefs["l"] = rm.PreferenceOrder("l", (X.w1,))  # w3 now unacceptable
    inst = ex1.with_preferences(prefs)
    report = rm.is_stable(frozenset({X.x1, X.w3}), inst)
    assert not report.passed
    assert X.w3 in report.unacceptable_assignments


def test_school_choice_mismatch_is_reported(ex1, X):
    # offered {y2, z2} the school keeps only y2, so holding both is mismatched
    report = rm.is_stable(frozenset({X.y2, X.z2}), ex1)
    assert not report.schools_ok
    school, held, chosen = report.school_choice_mismatch
    assert school == "s"
    assert chosen == {X.y2}


def test_worked_example_outcome_has_no_blocking_set(ex1):
    outcome = rm.run_cop_default(ex1)
    assert rm.find_blocking_set(outcome, "s", ex1) is None
    assert rm.is_stable(outcome, ex1).passed


def test_blocking_search_refuses_an_unknown_school(ex1, monkeypatch):
    compiled = Compiled.from_instance(ex1)
    calls = count_builds(monkeypatch)
    for market in (ex1, compiled):
        with pytest.raises(rm.InvalidInputError, match="unknown school 'nope'"):
            rm.find_blocking_set(frozenset(), "nope", market)
    assert calls["compile"] == 0


def test_obvious_block_is_found(ex1, X):
    z = rm.find_blocking_set(frozenset(), "s", ex1)
    assert z is not None
    # self-consistency: the returned set passes both blocking conditions
    chosen, _ = rm.dynamic_reserves_choice(z, ex1.schools[0])
    assert z <= chosen
    for c in z:
        assert rm.student_choice(z, ex1.preferences[c.student]) == c


def test_everyone_at_their_top_blocks_nothing(ex1, X):
    top = frozenset({X.x1, X.y2})  # i and j at their single listed contract
    prefs = {
        "i": ex1.preferences["i"],
        "j": ex1.preferences["j"],
        "k": rm.PreferenceOrder("k", ()),
        "l": rm.PreferenceOrder("l", ()),
    }
    inst = ex1.with_preferences(prefs)
    assert rm.find_blocking_set(top, "s", inst) is None


def _random_allocation(instance: rm.ProblemInstance, rng: random.Random) -> frozenset:
    """Each student in turn takes nothing or a random one of their contracts
    whose school still has a free seat; school choices are not consulted."""
    free = {cfg.school: cfg.capacity for cfg in instance.schools}
    out = set()
    for s in instance.students:
        options = [c for c in sorted(instance.contracts_of(s)) if free[c.school] > 0]
        c = rng.choice([None] + options)
        if c is not None:
            free[c.school] -= 1
            out.add(c)
    return frozenset(out)


def _assert_matches_the_oracle(y: frozenset, instance: rm.ProblemInstance) -> rm.StabilityReport:
    """Check the stability report of ``y`` against the set-based choice and
    the subset enumeration of blocking sets: the unacceptable contracts in
    contract order, the first school that would not choose what it holds,
    and the first school's first blocking set, which ``find_blocking_set``
    must also give school by school."""
    compiled = Compiled.from_instance(instance)
    report = rm.is_stable(y, compiled)
    bad = tuple(sorted(c for c in y if not instance.preferences[c.student].accepts(c)))
    mismatch = blocking = None
    for cfg in instance.schools:
        held = frozenset(c for c in y if c.school == cfg.school)
        chosen = rm.dynamic_reserves_choice(y, cfg)[0]
        if mismatch is None and chosen != held:
            mismatch = (cfg.school, held, chosen)
        z = brute_blocking_set(y, cfg.school, instance)
        assert rm.find_blocking_set(y, cfg.school, compiled) == z
        if blocking is None and z is not None:
            blocking = (cfg.school, z)
    assert report == rm.StabilityReport(bad, mismatch, blocking), y
    assert report.passed == brute_is_stable(y, instance)
    return report


def test_single_contract_search_matches_the_subset_enumeration(small_instances):
    for instance in small_instances:
        _assert_matches_the_oracle(rm.run_cop_default(instance), instance)
    rng = random.Random(5)
    pairs = blocked = mismatched = 0
    for seed in range(250):
        instance = rm.generate_random_instance(
            rm.GeneratorParams(
                students=rng.randint(3, 6), schools=rng.randint(1, 3), types=3,
                seed=seed, capacity_range=(1, 3), scheme_family="mixed",
            )
        )
        allocations = [rm.run_cop_default(instance)]
        allocations += [_random_allocation(instance, rng) for _ in range(3)]
        for y in allocations:
            pairs += 1
            report = _assert_matches_the_oracle(y, instance)
            blocked += not report.unblocked
            mismatched += not report.schools_ok
    assert pairs == 1000
    # the pairs cover blocked allocations and ones the schools would not choose
    assert blocked > 300 and mismatched > 300


def test_stability_matches_the_oracle_on_every_allocation_of_non_monotone_markets():
    # non-monotone tables: the block guard's proof must not lean on monotonicity
    markets = [take_back_market()] + [entry[0] for entry in MANIPULABLE.values()]
    seen = set()
    for instance in markets:
        for y in enumerate_allocations(instance):
            report = _assert_matches_the_oracle(y, instance)
            seen.add((report.schools_ok, report.unblocked))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_a_slot_specific_school_tries_every_unheld_contract():
    # no block guard: every contract its student prefers is a candidate,
    # tried in contract order against the set-based slot choice
    school = rm.generate_slot_specific_school(42)
    students = sorted({c.student for c in school.contracts})
    prefs = {
        s: rm.PreferenceOrder(s, tuple(sorted(c for c in school.contracts if c.student == s)))
        for s in students
    }
    market = FlatMarket.of(school.contracts, students, [school], prefs)
    compiled = Compiled(market)
    options = [[None] + list(prefs[s].ranked) for s in students]
    blocked = 0
    for combo in itertools.product(*options):
        y = frozenset(c for c in combo if c is not None)
        if len(y) > len(school.slots):
            continue
        current = {c.student: c for c in y}
        chosen = rm.slot_specific_choice(y, school)
        blocking = next(
            (
                (school.school, frozenset({c}))
                for c in sorted(school.contracts)
                if prefs[c.student].prefers(c, current.get(c.student))
                and c in rm.slot_specific_choice(y | {c}, school)
            ),
            None,
        )
        mismatch = None if chosen == y else (school.school, y, chosen)
        expected = rm.StabilityReport((), mismatch, blocking)
        assert rm.is_stable(y, compiled) == expected
        blocked += blocking is not None
    assert blocked


def test_stability_agrees_with_the_brute_force_oracle(small_instances):
    for instance in small_instances[:40]:
        outcome = rm.run_cop_default(instance)
        report = rm.is_stable(outcome, instance)
        assert report.passed == brute_is_stable(outcome, instance)
        assert report.passed


def test_mechanism_outcome_is_in_the_brute_force_stable_set(ex1):
    outcome = rm.run_cop_default(ex1)
    assert outcome in brute_stable_set(ex1)


# ----------------------------------------------------------------------
# axiom checkers


def _parity_choice(offers):
    """Deliberately broken: keeps everything on even-sized sets only."""
    return frozenset(offers) if len(offers) % 2 == 0 else frozenset()


def _drop_on_growth(offers):
    """Deliberately broken: chooses less from bigger sets."""
    offers = sorted(offers)
    return frozenset(offers[: max(0, 2 - len(offers) + 1)])


def _reference_table(cfg, pool, completion):
    choice = rm.completion_choice if completion else rm.dynamic_reserves_choice
    return rm.tabulate(lambda offers: choice(offers, cfg)[0], pool)


def test_engine_tables_match_the_reference_choice_on_every_subset(ex1, ex1_config):
    schools = [(ex1_config, sorted(ex1.contracts))]
    schools += [rm.generate_school_pool(seed) for seed in range(1000, 1100)]
    schools += [rm.generate_school_pool(seed) for seed in range(9100, 9120)]
    for cfg, pool in schools:
        for completion in (False, True):
            assert rm.tabulate_school(cfg, pool, completion) == _reference_table(
                cfg, pool, completion
            ), (cfg, completion)


def test_a_market_school_tabulates_as_its_own_pool(small_instances):
    # the audit reads a school's tables from the market's compile, not from
    # a compile of the school's pool
    for instance in small_instances:
        compiled = Compiled.from_instance(instance)
        for s, cfg in enumerate(instance.schools):
            pool = [c for c in instance.contracts if c.school == cfg.school]
            for completion in (False, True):
                assert _tabulate(compiled, s, completion) == rm.tabulate_school(
                    cfg, pool, completion
                ), (cfg, completion)


def _one_school(precedence, targets, ranked, contracts, chained=True):
    """A one-school market, ``s`` with priority ``ranked``, whose pool is
    ``contracts`` given as ``(student, type)`` pairs. With ``chained``
    each group receives the vacancies of the one before it."""
    pool = [rm.Contract(i, "s", t) for i, t in contracts]
    donors = tuple((k - 1,) if chained and k else () for k in range(len(targets)))
    cfg = rm.SchoolConfig(
        "s", sum(targets), rm.PriorityOrder("s", ranked), precedence, targets,
        rm.ForwardSumScheme(donors),
    )
    return FlatMarket.of(pool, sorted({c.student for c in pool}), [cfg], {})


HAND_BUILT_SCHOOLS = {
    # d is unranked and c's t3 lies outside the precedence: both after the blocks
    "bits-after-the-blocks": _one_school(
        ("t1", "t2"), (1, 1), ("b", "a", "c"),
        [("a", "t1"), ("a", "t2"), ("b", "t1"), ("c", "t2"), ("c", "t3"), ("d", "t1")],
    ),
    "type-heads-two-groups": _one_school(
        ("t1", "t2", "t1"), (1, 1, 1), ("a", "b", "c", "d"),
        [(i, t) for i in "abcd" for t in ("t1", "t2")] + [("e", "t1")],
    ),
    # no ranked student holds a contract here, so the blocks are empty
    "no-ranked-holder": _one_school(
        ("t1", "t2"), (1, 1), ("z",), [("a", "t1"), ("a", "t2"), ("b", "t2")],
    ),
    # more groups than the interpreter's default recursion limit
    "1100-groups": _one_school(
        tuple(f"t{k}" for k in range(1100)), (1,) * 1100, ("a", "b"),
        [("a", "t0"), ("b", "t0"), ("a", "t1099"), ("b", "t7")], chained=False,
    ),
}


def test_group_prefix_tables_match_one_choose_per_subset(small_instances):
    # both tables, and the capacity-table keys each leaves, against one
    # choose per subset and, for the completion, the set-based completion:
    # generated, non-monotone and hand-built schools
    markets = [i.flat() for i in [*small_instances, take_back_market()]]
    markets += [entry[0].flat() for entry in MANIPULABLE.values()]
    markets += HAND_BUILT_SCHOOLS.values()
    for market in markets:
        for s in range(len(market.schools)):
            for completion in (False, True):
                built = Compiled(market)
                table, keys = reference_tabulate(market, s, completion)
                assert _tabulate(built, s, completion) == table, (market, s)
                assert built.schools[s].cap_table.keys() == keys, (market, s)
    after = Compiled(HAND_BUILT_SCHOOLS["bits-after-the-blocks"]).schools[0]
    assert len(after.global_index) - after.block_end == 2
    twice = Compiled(HAND_BUILT_SCHOOLS["type-heads-two-groups"]).schools[0]
    assert twice.type_groups[0] == (0, 2)
    assert Compiled(HAND_BUILT_SCHOOLS["no-ranked-holder"]).schools[0].span == 0


def test_completion_satisfies_the_three_axioms_on_the_worked_example(ex1, ex1_config):
    comp = rm.tabulate_school(ex1_config, ex1.contracts, completion=True)
    assert reference_irc(comp).holds
    assert rm.check_substitutability(comp).holds
    assert rm.check_lad(comp).holds


def test_completion_relationship_holds_on_the_worked_example(ex1, ex1_config, X):
    pool = sorted(ex1.contracts)
    check = check_completion(
        rm.tabulate_school(ex1_config, pool), rm.tabulate_school(ex1_config, pool, completion=True)
    )
    assert check.holds
    # the two-contracts-for-one-student branch is really exercised
    completed, _ = rm.completion_choice({X.z2, X.z3}, ex1_config)
    assert completed == {X.z2, X.z3}
    assert rm.dynamic_reserves_choice({X.z2, X.z3}, ex1_config)[0] != completed


def test_overall_choice_satisfies_irc_on_the_worked_example(ex1, ex1_config):
    assert reference_irc(rm.tabulate_school(ex1_config, ex1.contracts)).holds


def test_overall_choice_satisfies_irc_on_generated_schools():
    for k in range(20):
        cfg, contracts = rm.generate_school_pool(9100 + k)
        assert reference_irc(rm.tabulate_school(cfg, contracts)).holds, k


def test_overall_choice_substitutability_is_recorded_not_asserted(ex1, ex1_config):
    # the overall choice is only claimed to be substitutable after completion;
    # record what the worked example does either way
    result = rm.check_substitutability(rm.tabulate_school(ex1_config, ex1.contracts))
    assert isinstance(result.holds, bool)
    print(f"overall-choice substitutability on the worked example: {result.holds}")


def test_parity_choice_fails_irc_with_a_counterexample(ex1):
    pool = sorted(ex1.contracts)[:4]
    check = reference_irc(rm.tabulate(_parity_choice, pool))
    assert not check.holds
    y, z = check.counterexample
    assert z not in _parity_choice(y | {z})
    assert _parity_choice(y) != _parity_choice(y | {z})


def test_irc_scan_tries_every_rejected_contract(ex1):
    # {a, b} rejects both; dropping a changes the choice and dropping b does
    # not, so the one counterexample is at a, the first rejected contract
    a, b = sorted(ex1.contracts)[:2]
    table = rm.ChoiceTable((a, b), (0b00, 0b00, 0b10, 0b00))
    assert reference_irc(table) == rm.PropertyCheck(False, (frozenset({b}), a))


def test_parity_choice_fails_substitutability_with_a_counterexample(ex1):
    pool = sorted(ex1.contracts)[:4]
    check = rm.check_substitutability(rm.tabulate(_parity_choice, pool))
    assert not check.holds
    y, z, extra = check.counterexample
    assert z not in _parity_choice(y | {z})
    assert z in _parity_choice(y | {z, extra})


def test_shrinking_choice_fails_lad_with_the_pair(ex1):
    pool = sorted(ex1.contracts)[:4]
    check = rm.check_lad(rm.tabulate(_drop_on_growth, pool))
    assert not check.holds
    smaller, bigger = check.counterexample
    assert smaller < bigger
    assert len(_drop_on_growth(bigger)) < len(_drop_on_growth(smaller))


AXIOMS = (
    (rm.check_substitutability, reference_substitutability),
    (rm.check_lad, reference_lad),
)


def _random_table(rng: random.Random) -> rm.ChoiceTable:
    """The responsive choice of up to ``cap`` contracts under one ranking,
    which passes every axiom, with a few entries redrawn as random subsets
    of their offer sets, which mostly breaks some."""
    n = rng.randint(0, 6)
    ranking = rng.sample(range(n), n)
    cap = rng.randint(0, n)
    chosen = []
    for mask in range(1 << n):
        best = [k for k in ranking if mask >> k & 1][:cap]
        chosen.append(sum(1 << k for k in best))
    for _ in range(rng.choice((0, 0, 1, 2, 3))):
        mask = rng.randrange(1 << n)
        chosen[mask] = mask & rng.getrandbits(max(n, 1))
    pool = tuple(rm.Contract(f"i{k}", "s", "t1") for k in range(n))
    return rm.ChoiceTable(pool, tuple(chosen))


def _built_tables(small_instances, ex1) -> list:
    """Both tables of every school of the generated and the non-monotone
    markets, and the broken choice functions' tables."""
    markets = list(small_instances) + [take_back_market()]
    markets += [entry[0] for entry in MANIPULABLE.values()]
    tables = [
        _tabulate(compiled, s, completion)
        for compiled in map(Compiled.from_instance, markets)
        for s in range(len(compiled.schools))
        for completion in (False, True)
    ]
    pool = sorted(ex1.contracts)
    for choice in (_parity_choice, _drop_on_growth):
        tables += [rm.tabulate(choice, pool), rm.tabulate(choice, pool[:4])]
    return tables


def test_word_level_axiom_checks_match_the_pairwise_scans(small_instances, ex1):
    # same verdict and same counterexample as the scans a contract pair at a
    # time, on market schools (both tables), non-monotone markets, broken
    # choice functions and seeded random tables
    tables = _built_tables(small_instances, ex1)
    rng = random.Random(4200)
    randoms = [_random_table(rng) for _ in range(600)]
    for table in tables + randoms:
        for check, reference in AXIOMS:
            assert check(table) == reference(table), (check.__name__, table)
    for check, _ in AXIOMS:
        failing = sum(not check(table).holds for table in randoms)
        assert 100 <= failing <= 500, (check.__name__, failing)


def test_substitutability_and_lad_imply_irc(small_instances, ex1):
    # the corollary by which the audit's verdict skips the IRC scan (proof in
    # ``verification._completion_axioms_hold``), on the tables above, the
    # hand-built schools' tables and seeded random tables
    tables = _built_tables(small_instances, ex1)
    for market in HAND_BUILT_SCHOOLS.values():
        tables += [_tabulate(Compiled(market), 0, completion) for completion in (False, True)]
    rng = random.Random(4300)
    tables += [_random_table(rng) for _ in range(3000)]
    both = irc_fails = 0
    for table in tables:
        irc = reference_irc(table).holds
        if rm.check_substitutability(table).holds and rm.check_lad(table).holds:
            assert irc, table
            both += 1
        irc_fails += not irc
    assert both > 1000 and irc_fails > 500, (both, irc_fails)


def _students(rng: random.Random, precedence, contracts: Optional[int]) -> str:
    """One to five students, or enough to hold a pool of ``contracts``
    contracts of the precedence's types and the stray type t9."""
    count = rng.randint(1, 5)
    if contracts is not None:
        count = max(count, -(-contracts // (len(set(precedence)) + 1)))
    return "abcdefghijklmnopqrst"[:count]


def _pool(rng: random.Random, students: str, precedence, contracts: Optional[int]) -> list:
    """Each student's contract of each type with probability 0.45, the first
    nine kept; or exactly ``contracts`` of them."""
    types = sorted(set(precedence)) + ["t9"]
    every = [rm.Contract(i, "s", t) for i in students for t in types]
    if contracts is None:
        return [c for c in every if rng.random() < 0.45][:9]
    return sorted(rng.sample(every, contracts))


def _random_non_monotone_school(rng: random.Random, contracts: Optional[int] = None) -> FlatMarket:
    """A one-school market under a random ``TableScheme``, more often not
    monotone than monotone: a precedence that may repeat a type, students left unranked,
    contracts of a type outside the precedence, and ranked students who
    lack a contract of some type (gaps). Its pool holds at most nine
    contracts, or exactly ``contracts``."""
    precedence = tuple(rng.choice(("t1", "t2", "t3")) for _ in range(rng.randint(1, 4)))
    targets = tuple(rng.randint(0, 2) for _ in precedence)
    students = _students(rng, precedence, contracts)
    ranked = [i for i in students if rng.random() < 0.8]
    rng.shuffle(ranked)
    capacity = sum(targets)
    entries = {
        k: {
            vec: rng.randint(0, capacity + 1)
            for vec in itertools.product(range(capacity + 2), repeat=k)
            if rng.random() < 0.5
        }
        for k in range(1, len(precedence))
    }
    cfg = rm.SchoolConfig(
        "s", capacity, rm.PriorityOrder("s", tuple(ranked)), precedence, targets,
        rm.TableScheme(entries),
    )
    pool = _pool(rng, students, precedence, contracts)
    return FlatMarket.of(pool, list(students), [cfg], {})


def _certified_table(rng: random.Random, targets, bound: int, lift: dict, eager: bool):
    """A random capacity table over ``[0, bound]`` that meets both conditions
    of ``check_monotonic``, drawn one entry at a time in key order: group
    ``k``'s all-zero entry is its target plus ``lift.get(k, 0)``, and every
    other entry lies between the largest entry one unit step below it
    (condition 1) and the least the steps into it allow (condition 2), the
    top of that range when ``eager``. ``None`` when the range is empty."""
    table = {}
    for k in range(1, len(targets)):
        for vec in itertools.product(range(bound + 1), repeat=k):
            if not any(vec):
                table[vec] = targets[k] + lift.get(k, 0)
                continue
            low, high = 0, math.inf
            for i in (i for i, r in enumerate(vec) if r):
                below = vec[:i] + (vec[i] - 1,) + vec[i + 1:]
                gained = sum(table[vec[:m]] - table[below[:m]] for m in range(i + 1, k))
                low = max(low, table[below])
                high = min(high, table[below] + 1 - gained)
            if low > high:
                return None
            table[vec] = high if eager else rng.randint(low, high)
    return table


def _random_table_school(
    rng: random.Random, contracts: Optional[int] = None
) -> tuple[str, FlatMarket]:
    """A one-school market under a random ``TableScheme`` built to fail at
    most one fact of the certificate, and which one. "monotone" fails none;
    "lower" takes a seat off every entry of group ``k`` at or above some
    residual vector, which fails condition 1 at most; "raise" adds one
    there, which fails condition 2 at most; "lift" grants a group one seat
    over its target at the all-zero residuals, and "short" takes one seat
    off the capacity, so that the targets sum past it, where both
    conditions still hold over ``[0, capacity]``. Schools as in
    :func:`_random_non_monotone_school`, with pools as there."""
    kind = rng.choice(("monotone", "lower", "lower", "raise", "raise", "lift", "short"))
    precedence = tuple(rng.choice(("t1", "t2", "t3")) for _ in range(rng.randint(2, 4)))
    targets = tuple(rng.randint(0, 2) for _ in precedence)
    students = _students(rng, precedence, contracts)
    ranked = [i for i in students if rng.random() < 0.8]
    rng.shuffle(ranked)
    capacity = sum(targets) - (kind == "short" and sum(targets) > 0)
    lift = {rng.randrange(1, len(targets)): 1} if kind == "lift" else {}
    table = None
    while table is None:
        table = _certified_table(rng, targets, capacity, lift, kind in ("raise", "lift"))
    inner = [vec for vec in table if any(vec)]
    if kind in ("lower", "raise") and inner:
        base = rng.choice(inner)
        above = [v for v in table if len(v) == len(base) and all(map(int.__ge__, v, base))]
        step = 1 if kind == "raise" else -1
        if min(table[v] for v in above) + step >= 0:
            for v in above:
                table[v] += step
    cfg = rm.SchoolConfig(
        "s", capacity, rm.PriorityOrder("s", tuple(ranked)), precedence, targets,
        rm.TableScheme.pinned(table, targets),
    )
    pool = _pool(rng, students, precedence, contracts)
    return kind, FlatMarket.of(pool, list(students), [cfg], {})


def test_the_certificate_never_passes_a_school_its_table_fails(small_instances):
    # the certificate ``audit`` reads off each compiled school
    # (``instance._scheme_violations``, whose docstring has the proof)
    # against the completion's table, on every school of the generated
    # markets, the take-back and manipulable markets, schools under random
    # tables and schools built to fail one fact of the certificate each;
    # every fact is needed: each kind of school breaks some table
    for compiled in map(Compiled.from_instance, small_instances):
        assert certified(compiled)
        assert all(
            verification._completion_axioms_hold(compiled, s) for s in range(len(compiled.schools))
        )
    unvalidated = [take_back_market()] + [entry[0] for entry in MANIPULABLE.values()]
    for compiled in map(Compiled.from_instance, unvalidated):
        assert not certified(compiled)
        assert not all(
            verification._completion_axioms_hold(compiled, s) for s in range(len(compiled.schools))
        )
    rng = random.Random(4600)
    kinds = [("random", _random_non_monotone_school(rng)) for _ in range(1500)]
    kinds += [_random_table_school(rng) for _ in range(1500)]
    passed, broken = Counter(), Counter()
    for kind, market in kinds:
        compiled = Compiled(market)
        holds = verification._completion_axioms_hold(compiled, 0)
        if certified(compiled):
            assert holds, (kind, market)
            passed[kind] += 1
        elif not holds:
            comp = _tabulate(compiled, 0, completion=True)
            broken[kind, rm.check_substitutability(comp).holds, rm.check_lad(comp).holds] += 1
    assert passed["monotone"] >= 150 and passed["random"] >= 300, passed
    # a lowered table breaks substitutability, a raised one breaks LAD alone
    assert broken["lower", False, True] >= 3 and broken["raise", True, False] >= 3, broken
    assert sum(broken[k] for k in broken if k[0] in ("lift", "short")) >= 5, broken


def test_the_tabulated_completion_completes_the_overall_choice(small_instances):
    # the lemma by which the audit's verdict builds only the completion table
    # (proof in ``verification._completion_axioms_hold``): on every school,
    # monotone or not, the completion either picks what the overall choice
    # picks or picks two contracts of one student; 322 of the tables differ
    # and 921 of the random schemes are not monotone
    markets = [i.flat() for i in [*small_instances, take_back_market()]]
    markets += [entry[0].flat() for entry in MANIPULABLE.values()]
    markets += HAND_BUILT_SCHOOLS.values()
    rng = random.Random(4400)
    randoms = [_random_non_monotone_school(rng) for _ in range(1500)]
    differ = 0
    for market in markets + randoms:
        compiled = Compiled(market)
        for s in range(len(market.schools)):
            base, comp = (_tabulate(compiled, s, completion) for completion in (False, True))
            assert check_completion(base, comp).holds, (market, s)
            differ += base != comp
    non_monotone = sum(
        not rm.check_monotonic(cfg.scheme, cfg.targets, cfg.capacity)
        for cfg in (m.schools[0] for m in randoms)
    )
    assert differ >= 250 and non_monotone >= 750, (differ, non_monotone)


def test_audit_axiom_verdict_is_the_two_checks_on_random_schools():
    # the verdict's one sweep gives the verdict of ``check_substitutability``
    # and ``check_lad`` on the completion table, on schools that fail either
    # axiom, or both, in many ways
    rng = random.Random(4500)
    seen = Counter()
    for _ in range(1500):
        compiled = Compiled(_random_non_monotone_school(rng))
        comp = _tabulate(compiled, 0, completion=True)
        axioms = (rm.check_substitutability(comp).holds, rm.check_lad(comp).holds)
        assert verification._completion_axioms_hold(compiled, 0) == all(axioms), compiled
        seen[axioms] += 1
    assert min(seen[True, False], seen[False, True], seen[False, False]) >= 10, seen


def test_audit_axiom_verdict_is_the_two_checks_at_every_pool_size():
    # the word-level sweep against ``check_substitutability`` and ``check_lad``
    # on completion tables of 0 to 20 contracts: many schools per size up to
    # 12, where one chunk holds the table, and two per size from 13 to 16 and
    # one from 17 on (for time), where chunks are also swept against chunks
    rng = random.Random(4700)
    seen = Counter()
    for n in range(21):
        count = 20 if n <= 12 else 2 if n <= 16 else 1
        for k in range(count):
            if k % 2:
                market = _random_non_monotone_school(rng, n)
            else:
                market = _random_table_school(rng, n)[1]
            compiled = Compiled(market)
            assert compiled.school_of.count(0) == n
            comp = _tabulate(compiled, 0, completion=True)
            axioms = (rm.check_substitutability(comp).holds, rm.check_lad(comp).holds)
            assert verification._completion_axioms_hold(compiled, 0) == all(axioms), (n, market)
            seen[n > verification._CHUNK_BITS, all(axioms)] += 1
    # large pools rarely fail at random: the planted failures below cover them
    assert seen[False, True] >= 200 and seen[False, False] >= 10, seen
    assert seen[True, True] >= 8 and seen[True, False] >= 1, seen


def _planted(n: int, bit: int, axiom: str) -> rm.ChoiceTable:
    """A table over ``n >= 2`` contracts whose only failing one-contract
    extension is by contract ``bit``, and which fails only ``axiom``.
    Substitutability: every set is chosen whole, but the set of all but
    ``bit`` rejects one contract, which its one extension chooses. LAD:
    contract ``bit`` is always rejected, and the full set rejects one more,
    so it chooses fewer than the set of all but ``bit``, and as many as
    every other set below it."""
    full, skip, other = (1 << n) - 1, 1 << bit, 1 << (bit == 0)
    if axiom == "substitutability":
        chosen = list(range(1 << n))
        chosen[full ^ skip] ^= other
    else:
        chosen = [mask & ~skip for mask in range(1 << n)]
        chosen[full] ^= other
    pool = tuple(rm.Contract(f"i{k:02d}", "s", "t1") for k in range(n))
    return rm.ChoiceTable(pool, tuple(chosen))


@pytest.mark.parametrize("axiom", ["substitutability", "lad"])
@pytest.mark.parametrize("n, bit", [(6, 0), (6, 5), (14, 0), (14, 12), (14, 13)])
def test_audit_axiom_verdict_finds_a_failure_at_any_one_extension_bit(monkeypatch, axiom, n, bit):
    # the first bit, the last (within one chunk at 6 contracts, swept chunk
    # against chunk at 14), and the first at or above the chunk size
    table = _planted(n, bit, axiom)
    sub, lad = rm.check_substitutability(table), rm.check_lad(table)
    if axiom == "substitutability":
        assert lad.holds and not sub.holds and sub.counterexample[2] == table.pool[bit]
    else:
        assert sub.holds and not lad.holds
        smaller, larger = lad.counterexample
        assert larger - smaller == {table.pool[bit]}
    monkeypatch.setattr(verification, "_tabulate", lambda compiled, s, completion: table)
    assert not verification._completion_axioms_hold(None, 0)


def test_audit_axiom_verdict_matches_the_four_check_oracle(small_instances):
    # the certificate and the covered-school count against the oracle, which
    # restates the certificate and runs all four checks, IRC scanned, on every
    # covered pool: a certified market is covered as the bound says (at a
    # bound of 4, some in full and some not) and passes every covered table;
    # the take-back and manipulable markets are refused, and their tables fail
    # substitutability or LAD ("unmatched-student-is-seated" LAD alone)
    markets = [*small_instances, take_back_market()]
    markets += [entry[0] for entry in MANIPULABLE.values()]
    covered, refused = set(), 0
    for instance in markets:
        compiled = Compiled.from_instance(instance)
        for max_contracts in (0, 4, 8, 20):
            passes, verdict, checked = reference_completion_axioms(compiled, max_contracts)
            if not passes:
                with pytest.raises(rm.InvalidInputError, match="not certified"):
                    cli._completion_axioms(compiled, max_contracts)
                assert max_contracts < 20 or not verdict, instance
                refused += 1
                continue
            assert verdict, instance
            assert cli._completion_axioms(compiled, max_contracts) == checked, instance
            covered.add((max_contracts, checked == len(compiled.schools)))
    assert refused == 5 * 4 and {(4, True), (4, False)} <= covered, (refused, covered)
    comp = _tabulate(Compiled.from_instance(MANIPULABLE["unmatched-student-is-seated"][0]), 0, True)
    assert rm.check_substitutability(comp).holds and not rm.check_lad(comp).holds


def test_audit_axiom_verdict_stops_tabulating_at_the_first_failing_school(monkeypatch):
    # the take-back market's first school fails substitutability. Its
    # certificate refuses the market before any table is built; a school
    # certified in spite of that fails its table as an internal error, and
    # the cross-check stops there
    compiled = Compiled.from_instance(take_back_market())
    assert not rm.check_substitutability(_tabulate(compiled, 0, True)).holds
    calls = []
    tabulate = verification._tabulate

    def counting(*args, **kwargs):
        calls.append(args[1])
        return tabulate(*args, **kwargs)

    monkeypatch.setattr(verification, "_tabulate", counting)
    with pytest.raises(rm.InvalidInputError, match="school s: group 1 capacity at the all-zero"):
        cli._completion_axioms(compiled, 8)
    assert calls == []
    monkeypatch.setattr(cli, "_scheme_violations", lambda where, school: [])
    with pytest.raises(RuntimeError, match="school s: certified, yet its completion table fails"):
        cli._completion_axioms(compiled, 8)
    assert calls == [0]


def test_empty_pool_is_vacuously_clean():
    table = rm.tabulate(_parity_choice, [])
    assert reference_irc(table).holds
    assert rm.check_substitutability(table).holds
    assert rm.check_lad(table).holds


def test_constant_empty_choice_satisfies_lad(ex1):
    assert rm.check_lad(rm.tabulate(lambda offers: frozenset(), ex1.contracts)).holds


def test_single_contract_domain_is_vacuously_substitutable(X):
    assert rm.check_substitutability(rm.tabulate(lambda offers: frozenset(), [X.x1])).holds


def test_broken_completion_candidate_is_rejected(ex1, ex1_config):
    def pruned(offers):  # one contract per student but not the base choice
        full, _ = rm.dynamic_reserves_choice(offers, ex1_config)
        return frozenset(sorted(full)[:1])

    base = rm.tabulate_school(ex1_config, ex1.contracts)
    check = check_completion(base, rm.tabulate(pruned, ex1.contracts))
    assert not check.holds


def test_identical_choices_complete_trivially(ex1, ex1_config):
    base = rm.tabulate_school(ex1_config, ex1.contracts)
    assert check_completion(base, base).holds


def test_table_builders_refuse_choices_outside_their_domain(ex1, ex1_config, X):
    with pytest.raises(rm.InvalidInputError):
        rm.tabulate(lambda offers: frozenset({X.x1}), [X.y2])  # picks an unoffered contract
    other = rm.Contract("i", "elsewhere", "t1")
    with pytest.raises(rm.InvalidInputError):
        rm.tabulate_school(ex1_config, [X.x1, other])


def test_school_tables_refuse_a_slot_specific_school():
    # its tables go through ``tabulate`` with ``slot_specific_choice``
    school = rm.generate_slot_specific_school(5)
    with pytest.raises(rm.InvalidInputError, match="not a dynamic reserves school"):
        rm.tabulate_school(school, school.contracts)


def test_axiom_checkers_refuse_oversized_pools(ex1, ex1_config):
    pool = sorted(ex1.contracts)
    with pytest.raises(rm.SearchCapExceededError):
        rm.tabulate(_parity_choice, pool, cap=16)
    with pytest.raises(rm.SearchCapExceededError):
        rm.tabulate_school(ex1_config, pool, cap=16)
