"""Misreport audits, priority improvements, and flexibility comparisons."""

from __future__ import annotations

import itertools
from dataclasses import replace

import pytest

import reservematch as rm
from conftest import small_params
from helpers import reference_group_misreport, reference_run, take_back_market
from reservematch._engine import Compiled
from reservematch.incentives import _reports, _search_misreports


def _assignment(allocation, student):
    for c in allocation:
        if c.student == student:
            return c
    return None


# ----------------------------------------------------------------------
# strategy space


def test_preference_space_counts_ordered_acceptable_prefixes():
    contracts = [rm.Contract("i", "s", f"t{n}") for n in range(4)]
    space = list(rm.preference_space("i", contracts))
    assert len(space) == rm.preference_space_size(4) == 65
    assert any(p.ranked == () for p in space)  # the empty report is a strategy
    assert len({p.ranked for p in space}) == 65


# ----------------------------------------------------------------------
# misreports


def test_student_at_their_top_has_no_profitable_misreport(ex1):
    # i's truthful outcome is their single listed contract
    assert rm.run_cop_default(ex1) >= {rm.Contract("i", "s", "t1")}
    assert rm.find_group_misreport(["i"], ex1) is None


def test_misreport_search_is_fruitless_on_random_instances():
    for k in range(30):
        instance = rm.generate_random_instance(small_params(6200 + k))
        for student in instance.students:
            assert rm.find_group_misreport([student], instance) is None


def test_misreport_search_refuses_over_its_cap(ex1):
    with pytest.raises(rm.SearchCapExceededError):
        rm.find_group_misreport(["k"], ex1, cap=2)


def test_misreport_search_requires_a_valid_instance(ex1, ex1_config):
    not_monotone = rm.TableScheme({2: {(1, 1): 0, (1, 0): 2}})
    broken = ex1.with_school(replace(ex1_config, scheme=not_monotone))
    with pytest.raises(rm.ValidationError):
        rm.find_group_misreport(["k"], broken)


def test_rejected_student_cannot_game_the_worked_example(ex1):
    # k ends unmatched truthfully; no report of theirs changes that for the better
    assert _assignment(rm.run_cop_default(ex1), "k") is None
    assert rm.find_group_misreport(["k"], ex1) is None


def test_empty_coalition_has_no_deviation(ex1):
    assert rm.find_group_misreport([], ex1) is None


def test_pairs_cannot_jointly_misreport_on_random_instances():
    import itertools

    for k in range(8):
        instance = rm.generate_random_instance(small_params(6300 + k))
        for pair in itertools.combinations(instance.students, 2):
            assert rm.find_group_misreport(pair, instance) is None


def test_oversized_coalitions_are_refused(ex1):
    with pytest.raises(rm.SearchCapExceededError):
        rm.find_group_misreport(["i", "j", "k"], ex1)


# ----------------------------------------------------------------------
# the search against its enumeration oracle


def _answer(search, *args):
    """A search's result, or its refusal as ``("refused", needed, cap)``."""
    try:
        return search(*args)
    except rm.SearchCapExceededError as exc:
        return ("refused", exc.needed, exc.cap)


def test_misreport_search_matches_the_oracle_on_every_small_instance(small_instances):
    for instance in small_instances:
        for student in instance.students:
            assert _answer(rm.find_group_misreport, (student,), instance) == _answer(
                reference_group_misreport, instance, (student,)
            ), student


def test_pair_search_matches_the_oracle_on_a_sample(small_instances):
    for instance in small_instances[::4]:
        for pair in itertools.combinations(instance.students, 2):
            assert _answer(rm.find_group_misreport, pair, instance) == _answer(
                reference_group_misreport, instance, pair
            ), pair


def test_each_report_runs_under_its_own_canonical_order(small_instances, monkeypatch):
    # The search rewrites the truthful order rank instead of recomputing it.
    # Outcomes cannot show a wrong order, because the process is order
    # independent on these markets, so every run's rank is compared directly.
    runs = []
    cop = Compiled.cop

    def checked(self, order_rank, transcript=None):
        assert tuple(order_rank) == self.default_order_rank()
        runs.append(len(order_rank))
        return cop(self, order_rank, transcript)

    monkeypatch.setattr(Compiled, "cop", checked)
    for instance in small_instances[::4]:
        for student in instance.students:
            rm.find_group_misreport([student], instance)
        for pair in itertools.combinations(instance.students, 2):
            rm.find_group_misreport(pair, instance)
    assert len(runs) > 2_000


def test_misreport_search_refuses_with_the_oracles_count_and_cap(ex1):
    for cap in (2, 4):
        refused = _answer(rm.find_group_misreport, ("k",), ex1, cap)
        assert refused == _answer(reference_group_misreport, ex1, ("k",), cap)
        assert refused[0] == "refused" and refused[2] == cap


def _market(schools, claims, preferences):
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
        _market(
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
        _market(
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
        _market(
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
        _market(
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


@pytest.mark.parametrize("name", sorted(MANIPULABLE))
def test_misreport_search_matches_the_oracle_where_the_mechanism_is_manipulable(name):
    instance, members, reports, truthful, deviant = MANIPULABLE[name]
    assert rm.validate_instance(instance)  # refused, so run on a Compiled directly

    def contract(student, label):
        return None if label is None else rm.Contract(student, *label.split(":"))

    expected = rm.Misreport(
        members,
        tuple(
            rm.PreferenceOrder(s, tuple(contract(s, x) for x in report))
            for s, report in zip(members, reports)
        ),
        tuple(contract(s, x) for s, x in zip(members, truthful)),
        tuple(contract(s, x) for s, x in zip(members, deviant)),
    )
    assert reference_group_misreport(instance, members) == expected
    assert _search_misreports(Compiled.from_instance(instance), members, 200_000) == expected


# ----------------------------------------------------------------------
# prefix pruning


def test_a_student_runs_dry_on_a_rejected_last_contract_though_taken_back():
    market = take_back_market()
    a_s = min(market.contracts)
    compiled = Compiled.from_instance(market)
    a = compiled.student_index["a"]
    # under the truthful lists a is rejected by s, so a goes on to u
    assert not compiled.cop(compiled.default_order_rank())[1] >> a & 1
    prefs = dict(market.preferences, a=rm.PreferenceOrder("a", (a_s,)))
    outcome, dry = reference_run(compiled, prefs)
    assert a_s in outcome  # s takes a back once b fills group t1 ...
    assert dry >> a & 1  # ... but a stood unheld with the report used up
    # every truthful list of a, so that the searches get past the top check
    for truth in rm.preference_space("a", sorted(market.contracts_of("a"))):
        instance = market.with_preferences(dict(market.preferences, a=truth))
        compiled = Compiled.from_instance(instance)
        for size in (1, 2):
            for coalition in itertools.combinations(instance.students, size):
                assert _answer(_search_misreports, compiled, coalition, 200_000) == _answer(
                    reference_group_misreport, instance, coalition
                ), (truth, coalition)


def _deciding_run(joint, runs, indices):
    """A run in ``runs`` (joint report -> dry set) that ``joint`` extends,
    past a member's report only for a member outside its dry set; ``None``
    when there is none. Every run decides itself."""
    for cut in itertools.product(*(range(len(report) + 1) for report in joint)):
        prefix = tuple(report[:k] for report, k in zip(joint, cut))
        dry = runs.get(prefix)
        if dry is not None and all(
            k == len(report) or not dry >> si & 1 for report, k, si in zip(joint, cut, indices)
        ):
            return prefix
    return None


def test_the_search_runs_exactly_the_reports_no_earlier_run_decides(small_instances, monkeypatch):
    # Witnesses alone cannot show a search that prunes too much, because
    # these markets have none, so every run of each search is recorded.
    runs = []
    cop = Compiled.cop

    def recorded(self, order_rank, transcript=None):
        held, dry = cop(self, order_rank, transcript)
        runs.append((self.acceptable, dry))
        return held, dry

    monkeypatch.setattr(Compiled, "cop", recorded)
    searches = 0
    for n, instance in enumerate(small_instances):
        compiled = Compiled.from_instance(instance)
        for size in (1, 2) if n % 8 == 0 else (1,):
            for coalition in itertools.combinations(instance.students, size):
                runs.clear()
                assert _search_misreports(compiled, coalition, 200_000) is None
                if len(runs) == 1:
                    continue  # a member holds their top contract
                searches += 1
                indices = [compiled.student_index[s] for s in coalition]
                seen: dict = {}
                for acceptable, dry in runs:
                    joint = tuple(acceptable[si] for si in indices)
                    assert _deciding_run(joint, seen, indices) is None, joint
                    seen[joint] = dry
                pools = [_reports(compiled.student_contracts[si]) for si in indices]
                for joint in itertools.product(*pools):
                    assert _deciding_run(joint, seen, indices) is not None, joint
    assert searches > 300


def _pruned_prefix_agreement(instance) -> int:
    """For every student and every report of theirs, the outcome equals the
    outcome of the report's pruned prefix: its shortest prefix whose run
    leaves the student out of the dry set (the report itself when there is
    none). Returns how many reports have a shorter pruned prefix."""
    compiled = Compiled.from_instance(instance)
    shorter = 0
    for student in instance.students:
        si = compiled.student_index[student]
        runs = {
            report.ranked: reference_run(
                compiled, dict(instance.preferences, **{student: report})
            )
            for report in rm.preference_space(student, sorted(instance.contracts_of(student)))
        }
        for report, (outcome, _) in runs.items():
            prefix = next(
                (report[:k] for k in range(len(report)) if not runs[report[:k]][1] >> si & 1),
                report,
            )
            assert runs[prefix][0] == outcome, (student, report, prefix)
            shorter += prefix != report
    return shorter


def test_a_report_runs_as_its_pruned_prefix_over_whole_spaces(small_instances):
    markets = small_instances[::4] + [entry[0] for entry in MANIPULABLE.values()]
    shorter = sum(_pruned_prefix_agreement(instance) for instance in markets)
    assert shorter > 1_000
    assert _pruned_prefix_agreement(take_back_market())


# ----------------------------------------------------------------------
# unambiguous improvements


def test_identical_priorities_are_a_weak_improvement(ex1):
    base = {cfg.school: cfg.priority for cfg in ex1.schools}
    assert rm.is_unambiguous_improvement(base, base, "k")


def test_single_upward_swap_is_unambiguous(ex1):
    base = {cfg.school: cfg.priority for cfg in ex1.schools}
    improved = {"s": rm.PriorityOrder("s", ("i", "k", "j", "l"))}  # k past j
    assert rm.is_unambiguous_improvement(base, improved, "k")


def test_reordering_other_students_is_ambiguous(ex1):
    base = {cfg.school: cfg.priority for cfg in ex1.schools}
    shuffled = {"s": rm.PriorityOrder("s", ("j", "i", "k", "l"))}  # i and j swapped
    assert not rm.is_unambiguous_improvement(base, shuffled, "k")


def test_losing_acceptability_is_not_an_improvement(ex1):
    base = {cfg.school: cfg.priority for cfg in ex1.schools}
    dropped = {"s": rm.PriorityOrder("s", ("i", "j", "l"))}
    assert not rm.is_unambiguous_improvement(base, dropped, "k")


def test_improvement_check_rejects_ambiguous_changes(ex1):
    shuffled = {"s": rm.PriorityOrder("s", ("j", "i", "k", "l"))}
    with pytest.raises(rm.InvalidInputError):
        rm.check_respects_improvements(ex1, shuffled, "k")


def test_identical_priorities_keep_the_outcome(ex1):
    base = {cfg.school: cfg.priority for cfg in ex1.schools}
    check = rm.check_respects_improvements(ex1, base, "k")
    assert check.ok
    assert check.base_assignment == check.improved_assignment


def test_rising_in_priority_never_hurts_on_random_instances():
    done = 0
    k = 0
    while done < 60:
        instance = rm.generate_random_instance(small_params(6400 + k))
        swap = rm.single_swap_improvement(instance, 6400 + k)
        k += 1
        if swap is None:
            continue
        student, improved = swap
        check = rm.check_respects_improvements(instance, improved, student)
        assert check.ok, (instance, student)
        done += 1


def test_single_swap_generator_produces_unambiguous_improvements():
    for k in range(25):
        instance = rm.generate_random_instance(small_params(6500 + k))
        swap = rm.single_swap_improvement(instance, 11 * k)
        if swap is None:
            continue
        student, improved = swap
        base = {cfg.school: cfg.priority for cfg in instance.schools}
        assert rm.is_unambiguous_improvement(base, improved, student)


# ----------------------------------------------------------------------
# flexibility comparison


def test_a_scheme_is_not_more_flexible_than_itself(ex1_config):
    scheme = ex1_config.scheme
    assert not rm.is_more_flexible(scheme, scheme, ex1_config.targets, bound=2)


def test_full_transfer_beats_no_transfer(ex1_config):
    frozen = rm.ForwardSumScheme(((), (), ()))
    assert rm.is_more_flexible(ex1_config.scheme, frozen, ex1_config.targets, bound=2)
    assert not rm.is_more_flexible(frozen, ex1_config.scheme, ex1_config.targets, bound=2)


def test_incomparable_schemes_are_not_ordered():
    first = rm.ForwardSumScheme(((), (0,), ()))  # group 1 takes from group 0
    second = rm.ForwardSumScheme(((), (), (1,)))  # group 2 takes from group 1
    targets = (1, 1, 1)
    assert not rm.is_more_flexible(first, second, targets, bound=3)
    assert not rm.is_more_flexible(second, first, targets, bound=3)


def test_a_table_restating_the_targets_is_no_change(ex1, ex1_config):
    frozen = rm.ForwardSumScheme(((), (), ()))
    empty = rm.TableScheme({})  # grants every group its target everywhere
    assert not rm.is_more_flexible(empty, frozen, ex1_config.targets, bound=2)
    rigid = ex1.with_school(replace(ex1_config, scheme=frozen))
    flexible = ex1.with_school(replace(ex1_config, scheme=empty))
    comparison = rm.check_flexibility_pareto(rigid, flexible)
    assert comparison.dominates and comparison.chain_agrees is True
    assert comparison.rigid_outcome == comparison.flexible_outcome


def _t3_market(ex1, X):
    """The worked-example school with demand only for third-type seats."""
    prefs = {s: rm.PreferenceOrder(s, ()) for s in ex1.students}
    prefs["k"] = rm.PreferenceOrder("k", (X.z3,))
    prefs["l"] = rm.PreferenceOrder("l", (X.w3,))
    return ex1.with_preferences(prefs)


def _lossy_pair(ex1, prefs):
    """The worked-example school with a transfer that loses its first vacancy,
    against the same scheme forgiven at exactly one residual vector."""
    cfg = ex1.schools[0]
    lossy = {
        vec: max(0, sum(vec) - 1)
        for vec in [(0, 1), (1, 0), (1, 1), (0, 2), (2, 0), (1, 2), (2, 1), (2, 2)]
    }
    rigid_scheme = rm.TableScheme({2: {v: c for v, c in lossy.items() if c != 0}})
    forgiven = dict(lossy)
    forgiven[(1, 0)] += 1
    flex_scheme = rm.TableScheme({2: {v: c for v, c in forgiven.items() if c != 0}})
    base = ex1.with_preferences(prefs)
    return (
        base.with_school(replace(cfg, scheme=rigid_scheme)),
        base.with_school(replace(cfg, scheme=flex_scheme)),
    )


def test_reseating_adds_the_previously_rejected_student(ex1, X):
    # under the rigid scheme the third-type seat never opens for k
    prefs = {
        "i": rm.PreferenceOrder("i", ()),
        "j": ex1.preferences["j"],
        "k": rm.PreferenceOrder("k", (X.z3,)),
        "l": rm.PreferenceOrder("l", (X.w3,)),
    }
    rigid, flexible = _lossy_pair(ex1, prefs)
    z = rm.run_cop_default(rigid)
    assert z == {X.y2}
    chain = rm.improvement_chains(z, rigid, flexible)
    assert chain == {X.y2, X.z3} == rm.run_cop_default(flexible)


def test_reseating_dies_when_nobody_wants_the_open_seat(ex1, X):
    prefs = {
        "i": rm.PreferenceOrder("i", ()),
        "j": ex1.preferences["j"],
        "k": rm.PreferenceOrder("k", ()),
        "l": rm.PreferenceOrder("l", ()),
    }
    rigid, flexible = _lossy_pair(ex1, prefs)
    z = rm.run_cop_default(rigid)
    assert z == {X.y2}
    assert rm.improvement_chains(z, rigid, flexible) == z == rm.run_cop_default(flexible)


def test_reseating_when_the_expansion_never_opens_a_seat(ex1):
    # everyone matched through the first two groups; the expanded point at
    # residuals (1, 0) is never reached
    rigid, flexible = _lossy_pair(ex1, dict(ex1.preferences))
    z = rm.run_cop_default(rigid)
    assert z == rm.run_cop_default(flexible)
    assert rm.improvement_chains(z, rigid, flexible) == z


def test_reseating_on_a_generated_pair(ex1, X):
    base = _t3_market(ex1, X)
    pair = rm.unit_flexibility_pair(base, seed=3)
    assert pair is not None
    rigid, flexible = pair
    z = rm.run_cop_default(rigid)
    chain = rm.improvement_chains(z, rigid, flexible)
    assert chain == rm.run_cop_default(flexible)


def test_reseating_matches_the_mechanism_on_random_instances():
    done = 0
    k = 0
    while done < 80:
        instance = rm.generate_random_instance(small_params(6600 + k))
        pair = rm.unit_flexibility_pair(instance, 6600 + k)
        k += 1
        if pair is None:
            continue
        rigid, flexible = pair
        z = rm.run_cop_default(rigid)
        chain = rm.improvement_chains(z, rigid, flexible)
        assert chain == rm.run_cop_default(flexible)
        done += 1


def test_reseating_requires_a_single_unit_increment(ex1, ex1_config):
    doubled = replace(
        ex1_config,
        scheme=rm.TableScheme({2: {(1, 0): 3, (0, 1): 1, (1, 1): 2, (2, 0): 2, (2, 1): 3, (1, 2): 3, (0, 2): 2, (2, 2): 4}}),
    )
    inflated = ex1.with_school(doubled)
    z = rm.run_cop_default(ex1)
    with pytest.raises(rm.InvalidInputError):
        rm.improvement_chains(z, ex1, inflated)


def test_identical_profiles_compare_as_equal(ex1):
    comparison = rm.check_flexibility_pareto(ex1, ex1)
    assert comparison.dominates
    assert comparison.rigid_outcome == comparison.flexible_outcome
    assert comparison.chain_agrees is True
    assert all(verdict == "same" for _, _, _, verdict in comparison.deltas)


def test_flexible_outcomes_weakly_dominate_on_random_instances():
    done = 0
    k = 0
    while done < 40:
        instance = rm.generate_random_instance(small_params(6700 + k))
        pair = rm.unit_flexibility_pair(instance, 6700 + k)
        k += 1
        if pair is None:
            continue
        rigid, flexible = pair
        comparison = rm.check_flexibility_pareto(rigid, flexible)
        assert comparison.dominates
        assert comparison.chain_agrees is True
        assert not any(v == "worse" for _, _, _, v in comparison.deltas)
        done += 1


def test_multi_school_gaps_are_compared_one_school_at_a_time(ex1, X):
    # two schools, both rigid twins frozen to no transfers at all
    second = rm.SchoolConfig(
        school="r",
        capacity=1,
        priority=rm.PriorityOrder("r", ("k", "l")),
        precedence=("t2", "t3", "t1"),
        targets=(1, 0, 0),
        scheme=rm.ForwardSumScheme(((), (0,), ())),
    )
    contracts = ex1.contracts | {rm.Contract("k", "r", "t3"), rm.Contract("l", "r", "t3")}
    prefs = dict(ex1.preferences)
    prefs["k"] = rm.PreferenceOrder("k", (rm.Contract("k", "r", "t3"), X.z3))
    prefs["l"] = rm.PreferenceOrder("l", (rm.Contract("l", "r", "t3"), X.w3))
    flexible = rm.ProblemInstance(
        ex1.students, ex1.profile, ex1.schools + (second,), contracts, prefs
    )
    assert rm.validate_instance(flexible) == []
    rigid = flexible
    for cfg in flexible.schools:
        rigid = rigid.with_school(
            replace(cfg, scheme=rm.ForwardSumScheme(((),) * cfg.group_count))
        )
    comparison = rm.check_flexibility_pareto(rigid, flexible)
    assert comparison.dominates
    assert comparison.chain_agrees is True
    assert comparison.flexible_outcome == rm.run_cop_default(flexible)


def test_comparison_rejects_less_flexible_changes(ex1, ex1_config):
    frozen = ex1.with_school(
        replace(ex1_config, scheme=rm.ForwardSumScheme(((), (), ())))
    )
    with pytest.raises(rm.InvalidInputError):
        rm.check_flexibility_pareto(ex1, frozen)  # arguments the wrong way round


# ----------------------------------------------------------------------
# waste accounting


def test_untransferred_vacancies_count_as_waste(ex1, X):
    market = _t3_market(ex1, X)
    frozen = market.with_school(
        replace(market.schools[0], scheme=rm.ForwardSumScheme(((), (), ())))
    )
    rigid_outcome = rm.run_cop_default(frozen)
    flexible_outcome = rm.run_cop_default(market)
    assert rigid_outcome == frozenset()
    assert flexible_outcome == {X.z3, X.w3}
    assert rm.allocation_waste(frozen, rigid_outcome) == 2
    assert rm.allocation_waste(market, flexible_outcome) == 0


def test_full_assignment_wastes_nothing(ex1):
    assert rm.allocation_waste(ex1, rm.run_cop_default(ex1)) == 0
