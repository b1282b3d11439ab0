"""The cumulative offer process and its order independence."""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter
from dataclasses import replace

import pytest

import reservematch as rm
from reservematch._engine import Compiled
from reservematch.instance import FlatMarket

from helpers import MANIPULABLE, certified, order_walk, reference_cop, take_back_market


def test_nobody_acceptable_means_nobody_proposes(ex1):
    empty = ex1.with_preferences(
        {s: rm.PreferenceOrder(s, ()) for s in ex1.students}
    )
    result = rm.run_cop(empty, rm.default_proposal_order(empty))
    assert result.allocation == frozenset()
    assert result.steps == ()


def test_single_acceptable_contract_is_held_after_one_proposal(ex1, X):
    prefs = {s: rm.PreferenceOrder(s, ()) for s in ex1.students}
    prefs["k"] = rm.PreferenceOrder("k", (X.z3,))
    solo = ex1.with_preferences(prefs)
    result = rm.run_cop(solo, rm.default_proposal_order(solo))
    assert result.allocation == {X.z3}
    assert len(result.steps) == 1


def test_worked_example_run_exhausts_the_low_priority_students(ex1, X):
    result = rm.run_cop(ex1, rm.default_proposal_order(ex1))
    assert result.allocation == {X.x1, X.y2}
    proposed = {step.proposed for step in result.steps}
    # k and l run through their whole lists without ever being held
    assert {X.z2, X.z3, X.w1, X.w3} <= proposed


def test_default_run_matches_explicit_default_order(ex1):
    assert rm.run_cop_default(ex1) == rm.run_cop(ex1, rm.default_proposal_order(ex1)).allocation


def test_transcript_accumulates_one_contract_per_step(ex1):
    result = rm.run_cop(ex1, rm.default_proposal_order(ex1))
    assert len(result.steps) <= len(ex1.contracts)
    previous = frozenset()
    for step in result.steps:
        assert step.proposed not in previous
        assert previous < step.available
        assert len(step.available) == len(previous) + 1
        previous = step.available
        for held in step.held.values():
            students = [c.student for c in held]
            assert len(set(students)) == len(students)


def test_transcript_proposable_sets_drive_the_process(ex1):
    result = rm.run_cop(ex1, rm.default_proposal_order(ex1))
    # each proposal is drawn from the previous step's proposable set, every
    # proposable contract is its owner's best unproposed acceptable option,
    # and the process stops exactly when nothing is proposable
    for before, after in zip(result.steps, result.steps[1:]):
        assert after.proposed in before.proposable
    assert result.steps[-1].proposable == frozenset()
    for step in result.steps:
        held_students = {c.student for held in step.held.values() for c in held}
        for c in step.proposable:
            assert c.student not in held_students
            assert c not in step.available
            pref = ex1.preferences[c.student]
            better = [x for x in pref.ranked if pref.prefers(x, c)]
            assert all(x in step.available for x in better)


def test_contract_listing_order_does_not_matter(ex1, tmp_path):
    doc = json.loads(rm.ex1_path().read_text())
    doc["contracts"] = list(reversed(doc["contracts"]))
    shuffled = tmp_path / "shuffled.instance"
    shuffled.write_text(json.dumps(doc))
    assert rm.run_cop_default(rm.load_instance(shuffled)) == rm.run_cop_default(ex1)


def test_contract_order_is_the_sorted_order_whatever_the_listing(small_instances):
    # the engine sorts each student's contracts under the sorted student ids
    rng = random.Random(7)
    for instance in small_instances[:40]:
        listed = list(instance.contracts)
        rng.shuffle(listed)
        market = FlatMarket.of(listed, instance.students, instance.schools, instance.preferences)
        compiled = Compiled(market)
        assert compiled.contracts == tuple(sorted(instance.contracts))


def test_relabelling_students_relabels_the_outcome(ex1):
    relabel = {"i": "pd", "j": "pc", "k": "pb", "l": "pa"}  # reverses the id order

    def rc(c):
        return rm.Contract(relabel[c.student], c.school, c.privilege)

    renamed = rm.ProblemInstance(
        students=tuple(relabel[s] for s in ex1.students),
        profile=rm.TypeProfile(
            ex1.profile.types,
            {relabel[s]: ts for s, ts in ex1.profile.claims.items()},
        ),
        schools=tuple(
            replace(
                cfg,
                priority=rm.PriorityOrder(
                    cfg.school, tuple(relabel[s] for s in cfg.priority.ranked)
                ),
            )
            for cfg in ex1.schools
        ),
        contracts=frozenset(rc(c) for c in ex1.contracts),
        preferences={
            relabel[s]: rm.PreferenceOrder(relabel[s], tuple(rc(c) for c in p.ranked))
            for s, p in ex1.preferences.items()
        },
    )
    expected = frozenset(rc(c) for c in rm.run_cop_default(ex1))
    assert rm.run_cop_default(renamed) == expected


def test_order_independence_is_trivial_with_one_student(X):
    inst = rm.ProblemInstance(
        students=("k",),
        profile=rm.TypeProfile(("t2", "t3"), {"k": frozenset({"t2", "t3"})}),
        schools=(
            rm.SchoolConfig(
                "s", 1, rm.PriorityOrder("s", ("k",)), ("t2", "t3"), (1, 0),
                rm.ForwardSumScheme(((), (0,))),
            ),
        ),
        contracts=frozenset({X.z2, X.z3}),
        preferences={"k": rm.PreferenceOrder("k", (X.z2, X.z3))},
    )
    compiled = Compiled.from_instance(inst)
    baseline, divergent = _walk(compiled)
    assert divergent is None
    assert compiled.to_set(baseline) == rm.run_cop_default(inst) == {X.z2}


def test_worked_example_outcome_is_order_independent(ex1, X):
    compiled = Compiled.from_instance(ex1)
    baseline, divergent = _walk(compiled)
    assert divergent is None
    assert compiled.to_set(baseline) == rm.run_cop_default(ex1) == {X.x1, X.y2}


def test_validation_guards_the_process_against_broken_schemes(ex1, ex1_config):
    broken = ex1.with_school(
        replace(ex1_config, scheme=rm.TableScheme({2: {(1, 1): 0, (1, 0): 2}}))
    )
    order = rm.default_proposal_order(ex1)  # the same contracts
    for run in (rm.run_cop_default, lambda i: rm.run_cop(i, order), rm.default_proposal_order):
        with pytest.raises(rm.ValidationError, match="not monotone"):
            run(broken)


@pytest.mark.parametrize(
    "ranked, fault",
    [("i:t1", "ranks another student's contract <i@s:t1>"), ("k:t9", "ranks unknown contract")],
    ids=["another-students", "unknown"],
)
def test_the_canonical_order_names_a_preference_fault(ex1, ranked, fault):
    # validated as the process is: another student's contract is named, not
    # reported as a broken permutation, and an unknown one is not ordered
    student, privilege = ranked.split(":")
    prefs = dict(ex1.preferences)
    prefs["k"] = rm.PreferenceOrder("k", (rm.Contract(student, "s", privilege),))
    with pytest.raises(rm.ValidationError, match=f"student k: {fault}"):
        rm.default_proposal_order(ex1.with_preferences(prefs))


def _brute_force_independent(compiled: Compiled, baseline: int) -> bool:
    """True when every order of the listed contracts gives ``baseline``;
    the unlisted contracts trail, since no student ever proposes them."""
    listed = sorted({ci for lst in compiled.acceptable for ci in lst})
    rest = sorted(set(range(len(compiled.contracts))) - set(listed))
    for perm in itertools.permutations(listed):
        order = [compiled.contracts[ci] for ci in (*perm, *rest)]
        if compiled.cop(compiled.order_rank(order)) != baseline:
            return False
    return True


def _walk(compiled: Compiled):
    """The canonical-order outcome and the walk's answer on it."""
    baseline = compiled.cop(compiled.default_order_rank())
    return baseline, order_walk(compiled, baseline)


def test_order_walk_agrees_with_every_permutation_of_the_listed_contracts(small_instances):
    markets = [(Compiled.from_instance(i), True) for i in small_instances]
    markets.append((Compiled.from_instance(take_back_market()), False))
    markets += [(Compiled.from_instance(entry[0]), False) for entry in MANIPULABLE.values()]
    checked = dependent = 0
    for compiled, valid in markets:
        if sum(map(len, compiled.acceptable)) > 6:
            continue
        baseline, divergent = _walk(compiled)
        assert (divergent is None) == _brute_force_independent(compiled, baseline)
        assert divergent is None or not valid
        checked += 1
        dependent += divergent is not None
    # 150 generated markets, the take-back market and three manipulable
    # ones; the take-back market and two manipulable ones depend on order
    assert (checked, dependent) == (154, 3)


def test_verified_completion_axioms_imply_order_independence(small_instances):
    # the completion theorem of the ``cop`` docstring, by which the library
    # and ``audit`` read order independence off the certificate of every
    # school; validation refuses the take-back market, so each market runs
    # compiled
    markets = [*small_instances, take_back_market()]
    markets += [entry[0] for entry in MANIPULABLE.values()]
    verified = dependent = 0
    for instance in markets:
        compiled = Compiled.from_instance(instance)
        _, divergent = _walk(compiled)
        assert divergent is None or not certified(compiled)
        verified += certified(compiled)
        dependent += divergent is not None
    assert (verified, dependent) == (200, 3)


def test_order_independence_agrees_with_the_walk(small_instances):
    # every validated market is order independent, so the library's one
    # answer is the mechanism's outcome
    for instance in small_instances:
        compiled = Compiled.from_instance(instance)
        baseline, divergent = _walk(compiled)
        assert divergent is None
        assert rm.run_cop_default(instance) == compiled.to_set(baseline)


def test_order_walk_witness_reproduces_the_divergent_outcome():
    # validation refuses the take-back market's scheme, so run it compiled
    compiled = Compiled.from_instance(take_back_market())
    baseline, divergent = _walk(compiled)
    assert divergent is not None
    order, outcome = divergent
    assert sorted(order) == list(compiled.contracts)
    assert compiled.to_set(compiled.cop(compiled.order_rank(order))) == outcome
    assert outcome != compiled.to_set(baseline)


def test_proposal_order_must_cover_all_contracts(ex1):
    with pytest.raises(rm.InvalidInputError):
        rm.run_cop(ex1, tuple(sorted(ex1.contracts))[:-1])


def test_outcomes_are_feasible_allocations_on_random_instances(small_instances):
    for instance in small_instances[:60]:
        rm.is_stable(rm.run_cop_default(instance), instance)  # raises if infeasible


# ----------------------------------------------------------------------
# the event-driven engine against the full-scan oracle


def _orders(compiled: Compiled, seed: int, shuffles: int = 4):
    """The canonical proposal order, then ``shuffles`` seeded random ones."""
    rank = compiled.default_order_rank()
    yield tuple(sorted(compiled.contracts, key=lambda c: rank[compiled.index[c]]))
    rng = random.Random(seed)
    for _ in range(shuffles):
        order = list(compiled.contracts)
        rng.shuffle(order)
        yield tuple(order)


def _assert_cop_matches_oracle(compiled: Compiled, schools, preferences, order):
    raw: list = []
    held = compiled.cop(compiled.order_rank(order), transcript=raw)
    steps = [
        (
            compiled.contracts[ci],
            compiled.to_set(offered),
            tuple(compiled.to_set(mask) for mask in held_by_school),
        )
        for ci, offered, held_by_school in raw
    ]
    want_held, want_steps = reference_cop(compiled.students, schools, preferences, order)
    assert compiled.to_set(held) == want_held
    assert steps == want_steps


def test_engine_cop_matches_the_full_scan_oracle(small_instances):
    for n, instance in enumerate(small_instances):
        compiled = Compiled.from_instance(instance)
        for order in _orders(compiled, seed=n):
            _assert_cop_matches_oracle(
                compiled, instance.schools, instance.preferences, order
            )


def test_engine_cop_matches_the_oracle_on_slot_specific_markets():
    for seed in range(10):
        school = rm.generate_slot_specific_school(7000 + seed)
        students = sorted({c.student for c in school.contracts})
        rng = random.Random(seed)
        prefs = {}
        for s in students:
            own = sorted(c for c in school.contracts if c.student == s)
            rng.shuffle(own)
            prefs[s] = rm.PreferenceOrder(s, tuple(own[: rng.randint(0, len(own))]))
        compiled = Compiled(FlatMarket.of(school.contracts, students, [school], prefs))
        for order in _orders(compiled, seed=seed):
            _assert_cop_matches_oracle(compiled, [school], prefs, order)


def test_engine_cop_keeps_a_student_held_while_any_school_holds_them():
    # Rejected students must not be treated as free: a stays held while the
    # school that took a back holds them.
    market = take_back_market()
    a_s, a_u, a_v, b_s, c_u = sorted(market.contracts)
    schools, prefs = market.schools, market.preferences
    compiled = Compiled.from_instance(market)
    for order in (
        # a's offer to u is popped while s has taken a back
        (a_s, b_s, a_u, c_u, a_v),
        # u drops a while s still holds a, so a never reaches v
        (a_s, a_u, b_s, c_u, a_v),
    ):
        _assert_cop_matches_oracle(compiled, schools, prefs, order)
        assert compiled.to_set(compiled.cop(compiled.order_rank(order))) == {a_s, b_s, c_u}


def _runs(compiled: Compiled, orders):
    """Held mask and transcript of a run under each order."""
    out = []
    for order in orders:
        raw: list = []
        out.append((compiled.cop(compiled.order_rank(order), transcript=raw), raw))
    return out


LAYOUT = ("global_index", "student_of", "offsets", "type_groups", "span", "block", "block_end")


def test_a_school_clone_runs_as_a_fresh_compile_of_the_changed_market(small_instances):
    # the changed schools the audit's improvement and flexibility checks make:
    # a new priority rebuilds the school, and a new scheme keeps its layout
    clones = Counter()
    for n, instance in enumerate(small_instances):
        configs = []
        swap = rm.single_swap_improvement(instance, n)
        if swap is not None:
            improved = swap[1]
            configs += [
                replace(cfg, priority=improved[cfg.school])
                for cfg in instance.schools
                if improved[cfg.school] != cfg.priority
            ]
        pair = rm.unit_flexibility_pair(instance, n)
        if pair is not None:
            configs += [f for f, c in zip(pair[1].schools, instance.schools) if f != c]
        compiled = Compiled.from_instance(instance)
        orders = list(_orders(compiled, seed=n))
        before = _runs(compiled, orders)
        for cfg in configs:
            clone = compiled.with_school(cfg)
            fresh = Compiled.from_instance(instance.with_school(cfg))
            assert _runs(clone, orders) == _runs(fresh, orders), (n, cfg)
            s = compiled.school_index[cfg.school]
            new, old = clone.schools[s], compiled.schools[s]
            assert clone.schools is not compiled.schools
            assert new.cap_table is not old.cap_table
            rescheme = cfg.priority == old.priority
            assert rescheme == (cfg.scheme != old.scheme), (n, cfg)
            if rescheme:
                assert clone.local_bit is compiled.local_bit
                assert all(getattr(new, name) is getattr(old, name) for name in LAYOUT)
            else:
                assert clone.local_bit is not compiled.local_bit
            clones[rescheme] += 1
        # the clones fill their own tables and bits: the parent runs as before
        assert _runs(compiled, orders) == before
    assert min(clones[False], clones[True]) > 150, clones
