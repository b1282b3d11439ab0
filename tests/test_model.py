"""Domain types and their primitive operations."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reservematch as rm

STUDENTS = ("i", "j", "k", "l")


def test_derived_priority_for_third_type_keeps_score_order(ex1, ex1_config):
    ranking = rm.derive_type_priority(ex1_config.priority, "t3", ex1.profile)
    assert ranking.ranked == ("k", "l")
    assert ranking.privilege == "t3"


def test_derived_priority_for_unclaimed_type_is_empty(ex1_config):
    profile = rm.TypeProfile(("t1", "t9"), {s: frozenset({"t1"}) for s in STUDENTS})
    assert rm.derive_type_priority(ex1_config.priority, "t9", profile).ranked == ()


def test_derived_priority_drops_students_the_school_rejects(ex1):
    priority = rm.PriorityOrder("s", ("i", "j", "l"))  # k below the threshold
    ranking = rm.derive_type_priority(priority, "t2", ex1.profile)
    assert ranking.ranked == ("j",)


def test_derived_priority_rejects_unknown_type(ex1, ex1_config):
    with pytest.raises(rm.InvalidInputError):
        rm.derive_type_priority(ex1_config.priority, "t7", ex1.profile)


@given(st.data())
def test_derived_priority_is_a_subsequence_of_the_priority(data):
    students = [f"i{n}" for n in range(6)]
    ranked = tuple(data.draw(st.permutations(students))[: data.draw(st.integers(0, 6))])
    claims = {
        s: frozenset(data.draw(st.sets(st.sampled_from(["a", "b"]), min_size=1)))
        for s in students
    }
    profile = rm.TypeProfile(("a", "b"), claims)
    out = rm.derive_type_priority(rm.PriorityOrder("s", ranked), "a", profile).ranked
    positions = [ranked.index(s) for s in out]
    assert positions == sorted(positions)
    assert all("a" in claims[s] for s in out)


def test_student_choice_of_nothing_is_unmatched(ex1):
    assert rm.student_choice(set(), ex1.preferences["k"]) is None


def test_student_choice_takes_the_best_listed_contract(ex1, X):
    assert rm.student_choice({X.z2, X.z3}, ex1.preferences["k"]) == X.z2
    assert rm.student_choice({X.z3}, ex1.preferences["k"]) == X.z3


def test_student_choice_ignores_unacceptable_offers(X):
    pref = rm.PreferenceOrder("k", (X.z3,))  # z2 unlisted, so below staying put
    assert rm.student_choice({X.z2}, pref) is None
    assert rm.student_choice({X.z2, X.z3}, pref) == X.z3


@given(st.data())
def test_student_choice_is_maximal_among_offers(data):
    contracts = [rm.Contract("i", "s", f"t{n}") for n in range(5)]
    ranked = tuple(data.draw(st.permutations(contracts))[: data.draw(st.integers(0, 5))])
    pref = rm.PreferenceOrder("i", ranked)
    offers = set(data.draw(st.sets(st.sampled_from(contracts))))
    got = rm.student_choice(offers, pref)
    assert got is None or got in offers
    for other in offers:
        assert not pref.prefers(other, got)


def test_pareto_dominance_is_irreflexive(ex1, X):
    y = frozenset({X.x1, X.y2})
    assert not rm.pareto_dominates(y, y, ex1.preferences)


def test_pareto_dominance_needs_only_one_strict_gain(ex1, X):
    better = frozenset({X.x1, X.y2, X.z2, X.w1})
    worse = frozenset({X.x1, X.y2, X.z2})  # l unmatched, everyone else equal
    assert rm.pareto_dominates(better, worse, ex1.preferences)
    assert not rm.pareto_dominates(worse, better, ex1.preferences)


def test_pareto_dominance_fails_on_any_loss(ex1, X):
    y = frozenset({X.z2, X.w1})
    z = frozenset({X.z3, X.w1, X.y2})  # k worse, j better
    assert not rm.pareto_dominates(y, z, ex1.preferences)
    assert not rm.pareto_dominates(z, y, ex1.preferences)


def test_pareto_dominance_is_transitive_on_a_chain(ex1, X):
    best = frozenset({X.z2, X.w1})
    mid = frozenset({X.z2, X.w3})
    worst = frozenset({X.z3, X.w3})
    assert rm.pareto_dominates(best, mid, ex1.preferences)
    assert rm.pareto_dominates(mid, worst, ex1.preferences)
    assert rm.pareto_dominates(best, worst, ex1.preferences)


def test_worked_example_instance_is_valid(ex1):
    assert rm.validate_instance(ex1) == []


def test_validation_flags_unclaimed_privilege(ex1):
    bad = rm.Contract("i", "s", "t2")  # i claims only t1
    broken = rm.ProblemInstance(
        ex1.students,
        ex1.profile,
        ex1.schools,
        ex1.contracts | {bad},
        ex1.preferences,
    )
    violations = rm.validate_instance(broken)
    assert any("cannot claim" in v and "t2" in v for v in violations)


def test_validation_flags_targets_exceeding_capacity(ex1, ex1_config):
    oversub = replace(ex1_config, targets=(1, 1, 1))  # capacity stays 2
    violations = rm.validate_instance(ex1.with_school(oversub))
    assert any("targets sum to 3" in v for v in violations)


def test_validation_flags_missing_preferences(ex1):
    prefs = {s: p for s, p in ex1.preferences.items() if s != "l"}
    broken = replace(ex1, preferences=prefs)
    assert any("no preference order" in v for v in rm.validate_instance(broken))


def test_validation_flags_stray_preferences(ex1):
    prefs = dict(ex1.preferences)
    prefs["ghost"] = rm.PreferenceOrder("ghost", ())
    broken = replace(ex1, preferences=prefs)
    assert any("unknown student ghost" in v for v in rm.validate_instance(broken))


def test_validation_names_a_slot_specific_school():
    # the engine compiles it, but validation has no scheme to certify
    school = rm.generate_slot_specific_school(5)
    students = tuple(sorted({c.student for c in school.contracts}))
    types = tuple(sorted({c.privilege for c in school.contracts}))
    claims = {
        s: frozenset(c.privilege for c in school.contracts if c.student == s) for s in students
    }
    instance = rm.ProblemInstance(
        students=students,
        profile=rm.TypeProfile(types, claims),
        schools=(school,),
        contracts=frozenset(school.contracts),
        preferences={s: rm.PreferenceOrder(s, ()) for s in students},
    )
    want = f"school {school.school}: not a dynamic reserves school"
    assert rm.validate_instance(instance) == [want]
    for run in (rm.run_cop_default, rm.default_proposal_order):
        with pytest.raises(rm.ValidationError, match=want):
            run(instance)
    rm.is_stable(frozenset(), instance)  # compiled without validation


def test_assignments_rejects_double_matching(X):
    with pytest.raises(rm.InvalidInputError):
        rm.assignments({X.z2, X.z3})


@given(st.lists(st.tuples(*[st.sampled_from(("a", "b", "s", "u")) for _ in range(3)]), max_size=12))
def test_contracts_order_hash_and_compare_as_their_triples(triples):
    contracts = [rm.Contract(*t) for t in triples]
    assert sorted(contracts) == [rm.Contract(*t) for t in sorted(triples)]
    for c, t in zip(contracts, triples):
        assert (c.student, c.school, c.privilege) == t
        assert c == rm.Contract(*t) and hash(c) == hash(rm.Contract(*t))
    assert len(set(contracts)) == len(set(triples))


def test_contract_repr_names_its_fields():
    c = rm.Contract("i", "s", "t1")
    assert repr(c) == str(c) == "<i@s:t1>"
    assert rm.Contract("i", "s", "t1") != rm.Contract("i", "s", "t2")
    assert rm.Contract("i", "s", "t2") < rm.Contract("j", "a", "t1")


def test_contracts_are_immutable():
    c = rm.Contract("i", "s", "t1")
    with pytest.raises(AttributeError):
        c.student = "j"
    with pytest.raises(TypeError):
        c[0] = "j"
