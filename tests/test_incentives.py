"""Misreport audits, priority improvements, and flexibility comparisons."""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import replace

import pytest

import reservematch as rm
from conftest import small_params
from helpers import (
    MANIPULABLE,
    certified,
    count_builds,
    preference_space,
    preference_space_size,
    reference_group_misreport,
    reference_run,
)
from reservematch import cli
from reservematch._engine import Compiled
from reservematch.cli import main
from reservematch.incentives import _truncation_misreport


def _assignment(allocation, student):
    for c in allocation:
        if c.student == student:
            return c
    return None


# ----------------------------------------------------------------------
# strategy space


def test_preference_space_counts_ordered_acceptable_prefixes():
    contracts = [rm.Contract("i", "s", f"t{n}") for n in range(4)]
    space = list(preference_space("i", contracts))
    assert len(space) == preference_space_size(4) == 65
    assert any(p.ranked == () for p in space)  # the empty report is a strategy
    assert len({p.ranked for p in space}) == 65


# ----------------------------------------------------------------------
# misreports


def _verified(instance):
    """The compiled market, its canonical rank and truthful run, when every
    school passes the certificate that the audit reads; else None."""
    compiled = Compiled.from_instance(instance)
    if not certified(compiled):
        return None
    rank = compiled.default_order_rank()
    return compiled, rank, compiled.cop(rank)


def _truncation(instance, student):
    """``audit``'s decision for ``student`` of a certified market: the
    first profitable one-contract report, or ``None``."""
    compiled, rank, truth = _verified(instance)
    return _truncation_misreport(compiled, truth, student, rank)


def test_student_at_their_top_has_no_profitable_misreport(ex1):
    # i's truthful outcome is their single listed contract
    assert rm.run_cop_default(ex1) >= {rm.Contract("i", "s", "t1")}
    assert _truncation(ex1, "i") is None
    assert reference_group_misreport(ex1, ["i"]) is None


def test_misreport_search_is_fruitless_on_random_instances():
    for k in range(30):
        instance = rm.generate_random_instance(small_params(6200 + k))
        for student in instance.students:
            assert _truncation(instance, student) is None


def test_rejected_student_cannot_game_the_worked_example(ex1):
    # k ends unmatched truthfully; no report of theirs changes that for the better
    assert _assignment(rm.run_cop_default(ex1), "k") is None
    assert _truncation(ex1, "k") is None
    assert reference_group_misreport(ex1, ["k"]) is None


def test_empty_coalition_has_no_deviation(ex1):
    assert reference_group_misreport(ex1, []) is None


def test_pairs_cannot_jointly_misreport_on_random_instances():
    for k in range(8):
        instance = rm.generate_random_instance(small_params(6300 + k))
        for pair in itertools.combinations(instance.students, 2):
            assert reference_group_misreport(instance, pair) is None


def _answer(search, *args):
    """A search's result, or its refusal as ``("refused", needed, cap)``."""
    try:
        return search(*args)
    except rm.SearchCapExceededError as exc:
        return ("refused", exc.needed, exc.cap)


def test_misreport_search_refuses_over_its_cap(ex1, monkeypatch):
    # the oracle refuses after the truthful run, before any report runs
    runs = []
    cop = Compiled.cop

    def counted(self, order_rank, transcript=None):
        runs.append(1)
        return cop(self, order_rank, transcript)

    monkeypatch.setattr(Compiled, "cop", counted)
    with pytest.raises(rm.SearchCapExceededError):
        reference_group_misreport(ex1, ["k"], cap=2)
    assert len(runs) == 1


def test_misreport_search_refuses_with_the_oracles_count_and_cap(ex1):
    for members in (("k",), ("k", "l")):
        needed = math.prod(preference_space_size(len(ex1.contracts_of(s))) for s in members)
        assert needed > 4
        for cap in (2, 4):
            assert _answer(reference_group_misreport, ex1, members, cap) == (
                "refused", needed, cap
            )


def test_changed_lists_run_under_the_truthful_order_as_under_their_own(
    small_instances, monkeypatch
):
    # The one-contract reports and the reseating's cut lists run under the
    # truthful order rank, not under the canonical order of their changed
    # profile. On a certified market the completion theorem of the ``cop``
    # docstring gives both orders one held mask; every run is compared with
    # its clone under its own ``default_order_rank``. The reports are also
    # checked to be ``[x]`` for each contract ``x`` the student prefers to
    # their outcome, in contract order, and the cut lists' markets, unit
    # steps of the decomposition included, to be certified.
    runs = []
    cop = Compiled.cop

    def recording(self, order_rank, transcript=None):
        held = cop(self, order_rank, transcript)
        runs.append((self, order_rank, held))
        return held

    monkeypatch.setattr(Compiled, "cop", recording)
    reports = cuts = reordered = 0
    for instance in small_instances:
        compiled, rank, truth = _verified(instance)
        for student in instance.students:
            si = compiled.student_index[student]
            listed = compiled.acceptable[si]
            held = [p for p, ci in enumerate(listed) if truth >> ci & 1]
            runs.clear()
            assert _truncation_misreport(compiled, truth, student, rank) is None
            expected = sorted(listed[: held[0] if held else len(listed)])
            assert [clone.acceptable[si] for clone, _, _ in runs] == [(ci,) for ci in expected]
            for clone, order_rank, mask in runs:
                assert order_rank is rank
                assert clone.acceptable[:si] + clone.acceptable[si + 1 :] == (
                    compiled.acceptable[:si] + compiled.acceptable[si + 1 :]
                )
                own = clone.default_order_rank()
                assert cop(clone, own) == mask
                reordered += own != rank
            reports += len(runs)

        # every scheme grants at least its targets, so each school whose
        # table differs from its targets is more flexible than a frozen copy
        for cfg in instance.schools:
            frozen = replace(cfg, scheme=rm.ForwardSumScheme(((),) * cfg.group_count))
            rigid = instance.with_school(frozen)
            runs.clear()
            rm.check_flexibility_pareto(rigid, instance)
            for clone, order_rank, mask in runs:
                if clone.acceptable == compiled.acceptable:
                    continue  # a run of the true lists
                assert certified(clone)
                own = clone.default_order_rank()
                assert cop(clone, own) == mask
                reordered += own != order_rank
                cuts += 1
    # 412 reports and 556 cut lists, 434 of them under a rank that is not
    # their own canonical one
    assert reports > 400 and cuts > 500 and reordered > 400


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


# ----------------------------------------------------------------------
# one-contract reports where the completion axioms hold


def test_one_contract_reports_decide_as_the_oracle_where_the_axioms_hold(small_instances):
    # the first witness too, not only the verdict: the one-contract reports
    # open the full enumeration
    verified = 0
    for instance in small_instances:
        if (market := _verified(instance)) is None:
            continue
        verified += 1
        compiled, rank, truth = market
        for student in instance.students:
            assert _truncation_misreport(compiled, truth, student, rank) == _answer(
                reference_group_misreport, instance, (student,)
            ), student
    assert verified > 150


def test_a_report_that_wins_a_contract_is_beaten_by_naming_it_alone(small_instances):
    # the lemma behind the one-contract decision, over whole report spaces:
    # if some report gets the student x, the report [x] gets x too
    pairs = 0
    for instance in small_instances[::2]:
        if (market := _verified(instance)) is None:
            continue
        compiled = market[0]
        for student in instance.students:
            for report in preference_space(student, instance.contracts_of(student)):
                prefs = dict(instance.preferences, **{student: report})
                won = _assignment(reference_run(compiled, prefs), student)
                if won is None:
                    continue
                alone = dict(instance.preferences, **{student: rm.PreferenceOrder(student, (won,))})
                assert _assignment(reference_run(compiled, alone), student) == won
                pairs += 1
    assert pairs > 3_000


@pytest.mark.parametrize("name", sorted(MANIPULABLE))
def test_audit_falls_back_to_the_full_search_where_the_axioms_fail(name):
    # an uncertified market can be manipulated, and only the full search of
    # some student's reports is sure to show it; ``audit`` decides students
    # from one-contract reports alone, so it refuses such a market
    instance, members, *_ = MANIPULABLE[name]
    compiled = Compiled.from_instance(instance)
    rank = compiled.default_order_rank()
    truth = compiled.cop(rank)
    assert not certified(compiled)
    witnesses = [reference_group_misreport(instance, (s,)) for s in instance.students]
    assert any(witnesses)
    for s, full in zip(instance.students, witnesses):
        # one-contract reports open the oracle's enumeration, so on any
        # market they find its witness when that is one, and else nothing
        one = full if full is None or len(full.reported[0].ranked) == 1 else None
        assert _truncation_misreport(compiled, truth, s, rank) == one, s
    if name == "two-contract-report":
        # only a two-contract report profits, so the one-contract reports
        # alone would pass the market
        assert all(
            _truncation_misreport(compiled, truth, s, rank) is None for s in instance.students
        )
        assert reference_group_misreport(instance, members) is not None
    with pytest.raises(rm.InvalidInputError, match="completion axioms not certified"):
        cli._audit_one(instance, 0, 8)


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


def test_a_list_naming_the_beneficiary_twice_is_no_improvement(ex1):
    base = {cfg.school: cfg.priority for cfg in ex1.schools}
    doubled = {"s": rm.PriorityOrder("s", ("k", "i", "j", "k", "l"))}
    assert not rm.is_unambiguous_improvement(base, doubled, "k")
    with pytest.raises(rm.InvalidInputError):
        rm.check_respects_improvements(ex1, doubled, "k")


def test_improvement_check_refuses_an_unknown_beneficiary(ex1):
    base = {cfg.school: cfg.priority for cfg in ex1.schools}
    with pytest.raises(rm.InvalidInputError):
        rm.check_respects_improvements(ex1, base, "zz")


def test_improvement_check_rejects_ambiguous_changes(ex1):
    shuffled = {"s": rm.PriorityOrder("s", ("j", "i", "k", "l"))}
    with pytest.raises(rm.InvalidInputError):
        rm.check_respects_improvements(ex1, shuffled, "k")


def test_identical_priorities_keep_the_outcome(ex1):
    base = {cfg.school: cfg.priority for cfg in ex1.schools}
    check = rm.check_respects_improvements(ex1, base, "k")
    assert check.ok
    assert check.base_assignment == check.improved_assignment


def test_the_improvement_check_rebuilds_only_the_schools_whose_priority_changed(
    ex1, X, monkeypatch
):
    second = rm.SchoolConfig(
        school="r",
        capacity=2,
        priority=rm.PriorityOrder("r", ("l", "k")),
        precedence=("t3", "t2", "t1"),
        targets=(1, 1, 0),
        scheme=rm.ForwardSumScheme(((), (0,), ())),
    )
    market = _with_school_r(ex1, X, second)
    improved = {cfg.school: cfg.priority for cfg in market.schools}
    improved["r"] = rm.PriorityOrder("r", ("k", "l"))  # k past l at r only
    built = []
    school_init = rm._engine.CompiledSchool.__init__

    def counting(self, config, *args):
        built.append(config.school)
        school_init(self, config, *args)

    monkeypatch.setattr(rm._engine.CompiledSchool, "__init__", counting)
    assert rm.check_respects_improvements(market, improved, "k").ok
    assert built == ["s", "r", "r"]  # the market's compile, then the lifted r


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


def test_is_more_flexible_refuses_a_table_past_the_step_cap():
    # six groups over [0, 13]: two tables of 579 194 entries and 2 647 749
    # unit steps each, past the cap, so neither is read
    chain = rm.ForwardSumScheme(((), (0,), (1,), (2,), (3,), (4,)))
    constant = rm.ForwardSumScheme(((),) * 6)
    started = time.perf_counter()
    with pytest.raises(rm.SearchCapExceededError) as refused:
        rm.is_more_flexible(chain, constant, (3, 2, 2, 2, 2, 2), bound=13)
    assert time.perf_counter() - started < 2
    assert (refused.value.needed, refused.value.cap) == (2_647_749, 2_000_000)


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
    return replace(ex1, preferences=prefs)


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
    base = replace(ex1, preferences=prefs)
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


@pytest.mark.parametrize(
    "extra, fault",
    [
        ("k:t2", r"students with several contracts: \['k'\]"),
        ("k:t9", r"unknown contracts \[<k@s:t9>\]"),
    ],
    ids=["doubled", "unknown"],
)
def test_reseating_refuses_a_set_that_is_no_allocation(ex1, X, extra, fault):
    # a second contract of one student, or one outside the market, gives no
    # floor to reseat from: refused as ``is_stable`` refuses it
    prefs = {
        "i": rm.PreferenceOrder("i", ()),
        "j": ex1.preferences["j"],
        "k": rm.PreferenceOrder("k", (X.z3,)),
        "l": rm.PreferenceOrder("l", (X.w3,)),
    }
    rigid, flexible = _lossy_pair(ex1, prefs)
    z = {X.y2, X.z3, rm.Contract("k", "s", extra.split(":")[1])}
    with pytest.raises(rm.InvalidInputError, match="not an allocation: " + fault):
        rm.improvement_chains(z, rigid, flexible)


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
    # ex1's transfers grant several seats more than none at all: a valid
    # increment, but not a single unit one
    frozen = ex1.with_school(replace(ex1_config, scheme=rm.ForwardSumScheme(((), (), ()))))
    z = rm.run_cop_default(frozen)
    with pytest.raises(rm.InvalidInputError, match="single unit increment"):
        rm.improvement_chains(z, frozen, ex1)


def test_reseating_rejects_a_non_monotone_increment(ex1, ex1_config):
    # one seat more at residuals (1, 0) than ex1's table grants: one vacancy
    # upstream would then fund two seats, so the flexible side is invalid and
    # no chain is built
    table = rm.capacity_table(ex1_config.scheme, ex1_config.targets, ex1_config.capacity)
    table[(1, 0)] += 1
    bumped = ex1.with_school(
        replace(ex1_config, scheme=rm.TableScheme.pinned(table, ex1_config.targets))
    )
    assert rm.validate_instance(bumped) != []
    with pytest.raises(rm.ValidationError, match="not monotone"):
        rm.improvement_chains(rm.run_cop_default(ex1), ex1, bumped)


@pytest.mark.parametrize("compare", ["check_flexibility_pareto", "improvement_chains"])
def test_comparisons_validate_and_compile_the_rigid_side_only(ex1, monkeypatch, compare):
    # the flexible side is a clone of the rigid one, checked in its schemes
    rigid, flexible = _lossy_pair(ex1, dict(ex1.preferences))
    z, want = rm.run_cop_default(rigid), rm.run_cop_default(flexible)
    calls = count_builds(monkeypatch)
    if compare == "improvement_chains":
        assert rm.improvement_chains(z, rigid, flexible) == want
    else:
        assert rm.check_flexibility_pareto(rigid, flexible).flexible_outcome == want
    assert calls == {"validate": 1, "compile": 1}


@pytest.mark.parametrize("compare", ["check_flexibility_pareto", "improvement_chains"])
def test_comparisons_require_one_type_profile(ex1, compare):
    claims = {**ex1.profile.claims, "i": frozenset({"t1", "t2"})}
    widened = replace(ex1, profile=rm.TypeProfile(ex1.profile.types, claims))
    assert rm.validate_instance(widened) == []
    with pytest.raises(rm.InvalidInputError, match="type profile"):
        if compare == "improvement_chains":
            rm.improvement_chains(frozenset(), ex1, widened)
        else:
            rm.check_flexibility_pareto(ex1, widened)


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


def test_a_gap_the_greedy_bump_order_cannot_decompose_still_compares(ex1, ex1_config):
    school = replace(
        ex1_config,
        capacity=3,
        precedence=("t1", "t2", "t3", "t1"),
        targets=(0, 1, 1, 1),
        scheme=rm.ForwardSumScheme(((), (), (1,), (2,))),
    )
    flexible = ex1.with_school(school)
    assert rm.validate_instance(flexible) == []
    rigid = ex1.with_school(replace(school, scheme=rm.ForwardSumScheme(((),) * 4)))
    comparison = rm.check_flexibility_pareto(rigid, flexible)
    assert comparison.dominates
    assert comparison.rigid_outcome == rm.run_cop_default(rigid)
    assert comparison.flexible_outcome == rm.run_cop_default(flexible)
    assert comparison.chain_agrees is not False


def _with_school_r(ex1, X, second):
    """ex1 plus a second school ``r`` (the config ``second``) at which k and
    l each hold a t3 contract, ranked between their ex1 contracts."""
    contracts = ex1.contracts | {rm.Contract("k", "r", "t3"), rm.Contract("l", "r", "t3")}
    prefs = dict(ex1.preferences)
    prefs["k"] = rm.PreferenceOrder("k", (X.z2, rm.Contract("k", "r", "t3"), X.z3))
    prefs["l"] = rm.PreferenceOrder("l", (X.w3, rm.Contract("l", "r", "t3")))
    schools = ex1.schools + (second,)
    market = rm.ProblemInstance(ex1.students, ex1.profile, schools, contracts, prefs)
    assert rm.validate_instance(market) == []
    return market


def test_a_rewritten_unchanged_scheme_keeps_the_flexible_outcome(ex1, X):
    # school r's scheme is written two ways with one capacity table, so only
    # s changes; the flexible outcome must be the flexible market's own
    forward = rm.ForwardSumScheme(((), (0,), ()))
    second = rm.SchoolConfig(
        school="r",
        capacity=2,
        priority=rm.PriorityOrder("r", ("l", "k")),
        precedence=("t3", "t2", "t1"),
        targets=(1, 1, 0),
        scheme=forward,
    )
    flexible = _with_school_r(ex1, X, second)
    pinned = rm.TableScheme.pinned(rm.capacity_table(forward, (1, 1, 0), 2), (1, 1, 0))
    rigid = flexible.with_school(replace(second, scheme=pinned)).with_school(
        replace(ex1.schools[0], scheme=rm.ForwardSumScheme(((), (), ())))
    )
    comparison = rm.check_flexibility_pareto(rigid, flexible)
    assert comparison.flexible_outcome == rm.run_cop_default(flexible)
    assert comparison.rigid_outcome == rm.run_cop_default(rigid)
    assert comparison.dominates and comparison.chain_agrees is True


def _gap_then_r(ex1, X, ex1_config):
    """Two changed schools: first ex1's school as the gap the greedy bump
    order cannot decompose (171 monotonicity steps), then a school ``r``
    with 4 seats and 4 groups (344 steps) gaining one forward transfer.
    Returns the rigid (no transfers) and the flexible market."""
    gap = replace(
        ex1_config,
        capacity=3,
        precedence=("t1", "t2", "t3", "t1"),
        targets=(0, 1, 1, 1),
        scheme=rm.ForwardSumScheme(((), (), (1,), (2,))),
    )
    second = rm.SchoolConfig(
        school="r",
        capacity=4,
        priority=rm.PriorityOrder("r", ("l", "k")),
        precedence=("t3", "t2", "t1", "t3"),
        targets=(1, 1, 1, 1),
        scheme=rm.ForwardSumScheme(((), (0,), (), ())),
    )
    flexible = _with_school_r(ex1, X, second).with_school(gap)
    rigid = flexible
    for cfg in flexible.schools:
        rigid = rigid.with_school(replace(cfg, scheme=rm.ForwardSumScheme(((),) * 4)))
    return rigid, flexible


def test_decomposition_stops_at_the_first_school_without_one(ex1, X, ex1_config, monkeypatch):
    rigid, flexible = _gap_then_r(ex1, X, ex1_config)
    decompositions = []
    unit_instances = rm.incentives._unit_instances

    def counting(base, *args):
        decompositions.append(base.school)
        return unit_instances(base, *args)

    monkeypatch.setattr(rm.incentives, "_unit_instances", counting)
    comparison = rm.check_flexibility_pareto(rigid, flexible)
    assert decompositions == ["s"]  # r is not decomposed once s has no decomposition
    assert comparison.dominates
    assert comparison.rigid_outcome == rm.run_cop_default(rigid)
    assert comparison.flexible_outcome == rm.run_cop_default(flexible)
    assert comparison.chain_agrees is None and not comparison.decomposed


def test_the_bump_that_reaches_the_goal_is_not_checked_again(ex1_config, monkeypatch):
    # one group fed by the other's vacancies, from a constant baseline: the
    # first two of the three bumps make three reports, one of them refused,
    # and the steps stop one bump before the goal the callers validated, for
    # the caller runs that bump on its flexible side
    cfg = replace(ex1_config, capacity=2, precedence=("t1", "t2"), targets=(1, 1))
    table = rm.capacity_table(rm.ForwardSumScheme(((), ())), cfg.targets, cfg.capacity)
    goal = rm.capacity_table(rm.ForwardSumScheme(((), (0,))), cfg.targets, cfg.capacity)
    reports = []
    report = rm.incentives._table_report

    def counting(*args):
        reports.append(report(*args).ok)
        return report(*args)

    monkeypatch.setattr(rm.incentives, "_table_report", counting)
    steps, read = rm.incentives._unit_instances(cfg, table, goal, 0)
    assert reports == [False, True, True] and read == 3 * len(table)
    granted = [rm.capacity_table(step.scheme, cfg.targets, cfg.capacity) for step in steps]
    assert len(steps) == 2 and sum(goal[vec] - granted[-1][vec] for vec in goal) == 1
    assert all(report(t, cfg.capacity).ok for t in granted)


def test_a_refusal_after_a_school_without_decomposition_still_refuses(
    ex1, X, ex1_config, monkeypatch, tmp_path, capsys
):
    # a cap between s's 171 monotonicity steps and r's 344 refuses r only
    # (both flexible schemes are certified, so validation reads no table)
    rigid, flexible = _gap_then_r(ex1, X, ex1_config)
    monkeypatch.setattr(rm.choice, "_STEP_CAP", 200)
    with pytest.raises(rm.SearchCapExceededError) as refused:
        rm.check_flexibility_pareto(rigid, flexible)
    assert (refused.value.needed, refused.value.cap) == (344, 200)
    path = tmp_path / "flexible.instance"
    rm.save_instance(flexible, path)
    assert main(["compare", str(path)]) == 3
    assert "monotonicity step enumeration" in capsys.readouterr().err


def test_an_oversize_comparison_refuses_before_it_builds_a_table(tmp_path, capsys):
    # one school, 7 groups at 10 seats: each capacity table of its two
    # schemes has about 11 million entries, so the refusal must come first
    params = rm.GeneratorParams(
        students=30, schools=1, types=6, seed=3, capacity_range=(10, 10), claim_range=(1, 3)
    )
    flexible = rm.generate_random_instance(params)
    assert flexible.schools[0].group_count == 7
    path = tmp_path / "flexible.instance"
    rm.save_instance(flexible, path)
    started = time.perf_counter()
    assert main(["compare", str(path)]) == 3
    assert time.perf_counter() - started < 2
    err = capsys.readouterr().err
    assert "monotonicity step enumeration: 10452210 cases exceed the cap of 2000000" in err
    rigid = flexible.with_school(
        replace(flexible.schools[0], scheme=rm.ForwardSumScheme(((),) * 7))
    )
    for compare in (
        rm.check_flexibility_pareto,
        lambda rigid, flexible: rm.improvement_chains(frozenset(), rigid, flexible),
    ):
        started = time.perf_counter()
        with pytest.raises(rm.SearchCapExceededError) as refused:
            compare(rigid, flexible)
        assert time.perf_counter() - started < 2
        assert (refused.value.needed, refused.value.cap) == (10_452_210, 2_000_000)
    # a z that is not an allocation is named as bad input before any table
    with pytest.raises(rm.InvalidInputError, match="unknown contracts"):
        rm.improvement_chains({rm.Contract("nobody", "s1", "t1")}, rigid, flexible)


def test_the_bench_size_comparison_refuses_on_its_decomposition_reads(tmp_path, capsys):
    # the 1 000-student, 20-school market at 45 seats against its constant
    # baseline: s1's greedy decomposition has 99 498 table entries and
    # 4 427 730 bumps, and never finished. Its 161st whole-table check would
    # take the reads past the cap, so the comparison refuses (10-12 s here,
    # most of it building the two capacity tables of every school)
    params = rm.GeneratorParams(
        students=1000, schools=20, types=3, seed=1, capacity_range=(45, 45)
    )
    path = tmp_path / "market.instance"
    rm.save_instance(rm.generate_random_instance(params), path)
    started = time.perf_counter()
    assert main(["compare", str(path), "--format", "machine"]) == 3
    assert time.perf_counter() - started < 60
    out, err = capsys.readouterr()
    needed, cap = 161 * 99_498, rm.incentives._DECOMPOSITION_CAP
    assert out == ""
    assert err == f"error: decomposition table reads: {needed} cases exceed the cap of {cap}\n"


def test_a_decomposition_that_reads_millions_of_entries_still_decides(monkeypatch):
    # the seed-1, 200-student market at 7 seats: the greedy order fails at
    # some school after 9 099 whole-table checks, under the cap
    params = rm.GeneratorParams(
        students=200, schools=10, types=3, seed=1, capacity_range=(7, 7)
    )
    flexible = rm.generate_random_instance(params)
    reads = []
    unit_instances = rm.incentives._unit_instances

    def recording(*args):
        steps, read = unit_instances(*args)
        reads.append(read)
        return steps, read

    monkeypatch.setattr(rm.incentives, "_unit_instances", recording)
    comparison = rm.check_flexibility_pareto(cli._constant_baseline(flexible), flexible)
    assert comparison.dominates and comparison.chain_agrees is None
    assert reads[-1] == 3_264_280 < rm.incentives._DECOMPOSITION_CAP


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


def test_waste_refuses_a_set_that_is_no_allocation(ex1, X):
    # a contract outside the market; two students with two contracts each,
    # at a school of capacity 2
    with pytest.raises(rm.InvalidInputError, match="unknown contracts"):
        rm.allocation_waste(ex1, {rm.Contract("zz", "s", "t1")})
    with pytest.raises(rm.InvalidInputError, match="several contracts.*over capacity"):
        rm.allocation_waste(ex1, {X.z2, X.z3, X.w1, X.w3})
