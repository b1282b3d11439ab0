"""Choice functions: sub-choices, transfer schemes, traces, slot rules."""

from __future__ import annotations

import itertools
import random
from dataclasses import replace

import pytest

import reservematch as rm
from helpers import brute_monotonic, local_mask
from reservematch._engine import Compiled, bits
from reservematch.instance import FlatMarket
from reservematch.verification import _tabulate


def rows(X):
    return [
        ({X.x1, X.y2, X.z2, X.z3, X.w1, X.w3}, {X.x1, X.y2}),
        ({X.y2, X.z2, X.z3}, {X.y2, X.z3}),
        ({X.x1, X.z2, X.z3}, {X.x1, X.z2}),
        ({X.y2, X.w1, X.w3}, {X.y2, X.w1}),
        ({X.x1, X.w1, X.w3}, {X.x1, X.w3}),
        ({X.z2, X.z3}, {X.z2}),
        ({X.w1, X.w3}, {X.w1}),
    ]


# ----------------------------------------------------------------------
# sub-choice


def test_sub_choice_takes_the_top_ranked_claimant(ex1, ex1_config, X):
    ranking = rm.derive_type_priority(ex1_config.priority, "t1", ex1.profile)
    assert rm.sub_choice({X.x1, X.w1}, 1, "t1", ranking) == {X.x1}


def test_sub_choice_with_zero_capacity_is_empty(ex1, ex1_config, X):
    ranking = rm.derive_type_priority(ex1_config.priority, "t1", ex1.profile)
    assert rm.sub_choice({X.x1, X.w1}, 0, "t1", ranking) == frozenset()


def test_sub_choice_takes_everything_under_slack_capacity(ex1, ex1_config, X):
    ranking = rm.derive_type_priority(ex1_config.priority, "t3", ex1.profile)
    assert rm.sub_choice({X.z3, X.w3}, 2, "t3", ranking) == {X.z3, X.w3}


def test_sub_choice_filters_other_types_and_unranked_students(ex1, ex1_config, X):
    ranking = rm.derive_type_priority(
        rm.PriorityOrder("s", ("i", "j", "l")), "t3", ex1.profile
    )
    assert rm.sub_choice({X.x1, X.z3, X.w3}, 5, "t3", ranking) == {X.w3}


# ----------------------------------------------------------------------
# monotonicity


def test_worked_example_scheme_is_monotone(ex1_config):
    assert rm.check_monotonic(ex1_config.scheme, ex1_config.targets, bound=2).ok


def test_constant_scheme_is_monotone():
    scheme = rm.ForwardSumScheme(((), (), ()))
    assert rm.check_monotonic(scheme, (1, 1, 1), bound=3).ok


def test_capacity_drop_is_caught_with_its_witness():
    # third group's capacity falls from 1 to 0 when the first group empties
    scheme = rm.TableScheme({2: {(1, 0): 0}})
    report = rm.check_monotonic(scheme, (1, 1, 1), bound=1)
    assert not report.ok
    assert report.condition == 1
    assert (report.low, report.high) == ((0, 0), (1, 0))
    assert report.group == 2


def test_overclaiming_transfers_are_caught():
    # one vacancy upstream cannot add two seats downstream
    scheme = rm.TableScheme({1: {(1,): 3}})
    report = rm.check_monotonic(scheme, (1, 1), bound=1)
    assert not report.ok
    assert report.condition == 2


def test_monotonicity_refuses_oversized_domains():
    # twelve groups over [0, 4]: 524 902 344 unit steps, past the cap
    scheme = rm.ForwardSumScheme(tuple(() for _ in range(12)))
    with pytest.raises(rm.SearchCapExceededError) as err:
        rm.check_monotonic(scheme, (1,) * 12, bound=4)
    assert err.value.cap == 2_000_000


def test_chained_single_donor_schemes_are_certified():
    scheme = rm.ForwardSumScheme(((), (0,), (1,), (2,)))
    assert scheme.certified_monotone()
    assert rm.check_monotonic(scheme, (2, 0, 0, 0), bound=2).ok


def test_double_donation_is_not_certified_and_checked_exhaustively():
    scheme = rm.ForwardSumScheme(((), (0,), (0,)))
    assert not scheme.certified_monotone()
    # the second grant only forwards what the first recipient left unused
    assert scheme.capacity(2, (3, 5), (0, 0, 0)) == 3
    assert scheme.capacity(2, (3, 1), (0, 0, 0)) == 1


def _perturbed_table_scheme(rng: random.Random):
    """A forward-sum scheme pinned to a table, then nudged at a few points."""
    groups = rng.randint(2, 4)
    bound = rng.randint(0, 3)
    targets = tuple(rng.randint(0, 2) for _ in range(groups))
    donors = [()] + [
        tuple(d for d in range(k) if rng.random() < 0.5) for k in range(1, groups)
    ]
    table = rm.capacity_table(rm.ForwardSumScheme(tuple(donors)), targets, bound)
    keys = list(table)
    for _ in range(rng.randint(0, 2)):
        vec = rng.choice(keys)
        table[vec] = max(0, table[vec] + rng.choice((-1, 1)))
    return rm.TableScheme.pinned(table, targets), targets, bound


def test_unit_steps_agree_with_all_pairs():
    rng = random.Random(4242)
    failing = 0
    for _ in range(2000):
        scheme, targets, bound = _perturbed_table_scheme(rng)
        report = rm.check_monotonic(scheme, targets, bound)
        assert report.ok == brute_monotonic(scheme, targets, bound).ok
        if report.ok:
            continue
        failing += 1
        # the witness is a unit step that violates the named condition
        k, low, high = report.group, report.low, report.high
        assert len(low) == len(high) == k
        assert sorted(h - lo for lo, h in zip(low, high)) == [0] * (k - 1) + [1]
        assert max(high) <= bound

        def cap(m, vec):
            return scheme.capacity(m, vec, targets)

        if report.condition == 1:
            assert cap(k, high) < cap(k, low)
        else:
            assert sum(cap(m, high[:m]) - cap(m, low[:m]) for m in range(1, k + 1)) > 1
    assert 200 < failing < 1800


def test_larger_domains_now_verify(ex1, ex1_config, monkeypatch):
    # six groups at capacity six: 17 847 788 ordered pairs, 81 234 unit steps
    targets = (1, 1, 1, 1, 1, 1)
    chain = rm.ForwardSumScheme(((), (0,), (1,), (2,), (3,), (4,)))
    scheme = rm.TableScheme.pinned(rm.capacity_table(chain, targets, 6), targets)
    cfg = replace(
        ex1_config, capacity=6, precedence=("t1", "t2", "t3") * 2, targets=targets, scheme=scheme
    )
    assert rm.validate_instance(ex1.with_school(cfg)) == []
    assert rm.check_monotonic(scheme, targets, bound=6).ok
    monkeypatch.setattr(rm.choice, "_STEP_CAP", 81_233)
    with pytest.raises(rm.SearchCapExceededError) as err:
        rm.check_monotonic(scheme, targets, bound=6)
    assert (err.value.needed, err.value.cap) == (81_234, 81_233)


def test_capacity_table_reads_the_scheme_and_pins_back(ex1_config):
    table = rm.capacity_table(ex1_config.scheme, ex1_config.targets, 2)
    assert list(table)[:4] == [(0,), (1,), (2,), (0, 0)]
    assert len(table) == 3 + 9
    assert table[(1, 1)] == 2 and table[(2,)] == 1
    pinned = rm.TableScheme.pinned(table, ex1_config.targets)
    assert pinned.entries == {2: {v: c for v, c in table.items() if len(v) == 2 and c != 0}}
    assert rm.capacity_table(pinned, ex1_config.targets, 2) == table


# ----------------------------------------------------------------------
# the overall dynamic reserves choice


def test_worked_example_choice_table(ex1_config, X):
    for offers, want in rows(X):
        got, _ = rm.dynamic_reserves_choice(offers, ex1_config)
        assert got == frozenset(want), offers


def test_empty_offer_trace_shows_the_full_transfer(ex1_config):
    chosen, trace = rm.dynamic_reserves_choice(set(), ex1_config)
    assert chosen == frozenset()
    assert trace.residuals == (1, 1, 2)
    assert trace.capacities == (1, 1, 2)


def test_choice_never_takes_two_contracts_of_one_student(ex1, ex1_config):
    pool = sorted(ex1.contracts)
    for mask in range(1 << len(pool)):
        offers = {pool[i] for i in range(len(pool)) if (mask >> i) & 1}
        chosen, trace = rm.dynamic_reserves_choice(offers, ex1_config)
        students = [c.student for c in chosen]
        assert len(set(students)) == len(students)
        assert chosen <= offers
        for record in trace.groups:
            assert all(c.privilege == record.privilege for c in record.chosen)
            assert record.residual == record.capacity - len(record.chosen) >= 0


# ----------------------------------------------------------------------
# completion


def test_completion_keeps_a_chosen_students_other_contracts(ex1_config, X):
    chosen, trace = rm.completion_choice({X.z2, X.z3}, ex1_config)
    assert chosen == {X.z2, X.z3}
    assert trace.residuals == (1, 0, 0)


def test_completion_agrees_when_no_student_offers_twice(ex1_config, X):
    assert rm.completion_choice({X.x1, X.y2}, ex1_config)[0] == {X.x1, X.y2}


def test_completion_agrees_whenever_it_picks_one_contract_per_student(ex1, ex1_config):
    pool = sorted(ex1.contracts)
    for mask in range(1 << len(pool)):
        offers = {pool[i] for i in range(len(pool)) if (mask >> i) & 1}
        completed, _ = rm.completion_choice(offers, ex1_config)
        students = [c.student for c in completed]
        if len(set(students)) == len(students):
            assert completed == rm.dynamic_reserves_choice(offers, ex1_config)[0]


# ----------------------------------------------------------------------
# slot-specific rules and their conversion


def _slot_school(*slots):
    contracts = tuple(sorted({c for slot in slots for c in slot}))
    return rm.SlotSpecificSchool("s", contracts, tuple(tuple(s) for s in slots))


def test_single_slot_takes_its_best_available():
    x = rm.Contract("a", "s", "t1")
    y = rm.Contract("b", "s", "t1")
    school = _slot_school([x, y])
    assert rm.slot_specific_choice({y}, school) == {y}
    assert rm.slot_specific_choice({x, y}, school) == {x}


def test_two_slots_share_one_student_once():
    x = rm.Contract("a", "s", "t1")
    y = rm.Contract("a", "s", "t2")
    school = _slot_school([x, y], [x, y])
    assert rm.slot_specific_choice({x, y}, school) == {x}


def test_empty_offers_leave_every_slot_null():
    x = rm.Contract("a", "s", "t1")
    school = _slot_school([x], [x])
    assert rm.slot_specific_choice(set(), school) == frozenset()


def test_conversion_of_a_one_contract_slot():
    x = rm.Contract("a", "s", "t1")
    conv = rm.convert_slot_specific(_slot_school([x]))
    assert conv.config.targets == (1,)
    assert conv.choice(set()) == frozenset()
    assert conv.choice({x}) == {x}


def test_conversion_cascades_the_seat_down_the_slot_ranking():
    x = rm.Contract("a", "s", "t1")
    y = rm.Contract("b", "s", "t1")
    school = _slot_school([x, y])
    conv = rm.convert_slot_specific(school)
    assert conv.config.targets == (1, 0)
    assert conv.config.scheme.donors == ((), (0,))
    assert conv.choice({y}) == {y}
    assert conv.choice({x, y}) == {x}


def test_conversion_matches_slot_choice_on_every_offer_set():
    for seed in range(12):
        school = rm.generate_slot_specific_school(3100 + seed)
        conv = rm.convert_slot_specific(school)
        assert conv.config.scheme.certified_monotone()
        assert sum(conv.config.targets) == conv.config.capacity
        pool = sorted(school.contracts)
        for mask in range(1 << len(pool)):
            offers = frozenset(pool[i] for i in range(len(pool)) if (mask >> i) & 1)
            assert conv.choice(offers) == rm.slot_specific_choice(offers, school), (
                seed,
                offers,
            )


# ----------------------------------------------------------------------
# the bitmask engine must agree with the reference implementation


def _capacities(school, residuals):
    """The capacity each group ran at in a choice with these residuals:
    group ``k``'s is keyed by the residuals of the groups before it."""
    return tuple(school.cap_table[residuals[:k]] for k in range(len(residuals)))


@pytest.mark.parametrize("seed", range(30))
def test_engine_choices_match_reference(seed):
    # the engine's one completion is the group-prefix tabulation, here on a
    # compile of its own
    cfg, contracts = rm.generate_school_pool(seed)
    market = FlatMarket.of(contracts, sorted({c.student for c in contracts}), [cfg], {})
    compiled = Compiled(market)
    school = compiled.schools[0]
    completed = _tabulate(Compiled(market), 0, completion=True)
    position = {c: i for i, c in enumerate(completed.pool)}
    rng = random.Random(seed)
    subsets = [
        frozenset(c for c in contracts if rng.random() < 0.5) for _ in range(40)
    ]
    subsets.append(frozenset(contracts))
    subsets.append(frozenset())
    for offers in subsets:
        want, trace = rm.dynamic_reserves_choice(offers, cfg)
        got, residuals = school.choose(local_mask(compiled, 0, offers))
        assert compiled.to_set(compiled.to_global(0, got)) == want
        assert residuals == trace.residuals
        assert _capacities(school, residuals) == trace.capacities
        got_c = completed.chosen[sum(1 << position[c] for c in offers)]
        assert completed.subset(got_c) == rm.completion_choice(offers, cfg)[0]


def _layout_market():
    """A hand-built pool and three schools over it whose local bits have
    every feature of the block layout: ranked students who lack a type (gap
    bits), an unranked student, a type outside the precedence, and a type
    heading two groups. Their groups are over-demanded at capacity 1 and
    above, and the second scheme's capacities jump with the residuals."""
    claims = {
        "a": ("t1", "t2"),
        "b": ("t1", "t3"),
        "c": ("t2", "t4"),  # t4 heads no group
        "d": ("t1", "t2", "t3"),
        "e": ("t3",),
        "f": ("t1", "t2"),  # unranked
    }
    pool = sorted(rm.Contract(s, "s", t) for s, types in claims.items() for t in types)
    priority = rm.PriorityOrder("s", ("d", "b", "e", "a", "c"))
    configs = [
        rm.SchoolConfig(
            "s", 5, priority, ("t1", "t2", "t1", "t3"), (2, 1, 1, 1),
            rm.ForwardSumScheme(((), (0,), (), (1, 2))),
        ),
        rm.SchoolConfig(
            "s", 4, priority, ("t2", "t1", "t3", "t2"), (1, 1, 1, 1),
            rm.TableScheme({1: {(0,): 2}, 2: {(1, 0): 0, (0, 0): 3}, 3: {(0, 1, 0): 2}}),
        ),
        rm.SchoolConfig("s", 3, priority, ("t3", "t1"), (1, 2), rm.ForwardSumScheme(((), (0,)))),
    ]
    return pool, configs


def test_block_layout_choices_match_reference_on_every_subset():
    # every subset of the pool, chosen plain (mask and residuals) and as a
    # completion (the group-prefix tabulation, on a compile of its own);
    # ``over`` counts the groups that ran over-demanded, by whether their
    # capacity was 1 or more
    pool, configs = _layout_market()
    students = sorted({c.student for c in pool})
    over = {1: 0, 2: 0}
    for cfg in configs:
        market = FlatMarket.of(pool, students, [cfg], {})
        compiled = Compiled(market)
        school = compiled.schools[0]
        assert None in school.global_index  # gap bits
        assert school.block_end < len(school.global_index)  # bits after the blocks
        completed = _tabulate(Compiled(market), 0, completion=True)
        assert completed.pool == tuple(pool)
        for mask in range(1 << len(pool)):
            offers = frozenset(pool[i] for i in bits(mask))
            want, trace = rm.dynamic_reserves_choice(offers, cfg)
            got, residuals = school.choose(local_mask(compiled, 0, offers))
            assert compiled.to_set(compiled.to_global(0, got)) == want, (cfg, offers)
            assert residuals == trace.residuals, (cfg, offers)
            want_c, trace_c = rm.completion_choice(offers, cfg)
            assert completed.subset(completed.chosen[mask]) == want_c, (cfg, offers)
            for g in (*trace.groups, *trace_c.groups):
                claimants = [
                    c for c in g.available
                    if c.privilege == g.privilege and cfg.priority.accepts(c.student)
                ]
                if 0 < g.capacity < len(claimants):
                    over[min(g.capacity, 2)] += 1
    # 12 440 at capacity 1, 2 584 above
    assert over[1] >= 12_000 and over[2] >= 2_500, over


def test_engine_slot_school_matches_reference():
    for seed in range(10):
        school = rm.generate_slot_specific_school(7000 + seed)
        students = sorted({c.student for c in school.contracts})
        compiled = Compiled(FlatMarket.of(school.contracts, students, [school], {}))
        engine = compiled.schools[0]
        pool = sorted(school.contracts)
        for mask in range(1 << len(pool)):
            offers = frozenset(pool[i] for i in range(len(pool)) if (mask >> i) & 1)
            local = local_mask(compiled, 0, offers)
            got = compiled.to_set(compiled.to_global(0, engine.choose(local)[0]))
            assert got == rm.slot_specific_choice(offers, school)


def _guard_schools(small_instances):
    """Every dynamic reserves school of the small instances and of a few
    generated mixed-scheme markets, compiled."""
    instances = list(small_instances)
    for seed in range(8):
        params = rm.GeneratorParams(
            students=24, schools=3, types=3, seed=4100 + seed, capacity_range=(2, 5),
            scheme_family="mixed",
        )
        instances.append(rm.generate_random_instance(params))
    for instance in instances:
        yield from Compiled.from_instance(instance).schools


def test_the_full_group_guard_only_skips_offers_the_school_rejects(small_instances):
    # ``keeps`` lets the cumulative offer process skip a re-choice; wherever
    # it says yes, offering the bit must leave the choice as it is, with the
    # bit rejected. Every bit a contract owns is tried, offered or not.
    rng = random.Random(41)
    fired = fired_covered = 0
    for school in _guard_schools(small_instances):
        owned = [b for b, ci in enumerate(school.global_index) if ci is not None]
        covered = school.block_end  # bits below are ranked and of a precedence type
        for density in (0.2, 0.5, 0.8):
            for _ in range(6):
                mask = sum(1 << b for b in owned if rng.random() < density)
                held, residuals = school.choose(mask)
                for b in owned:
                    if not school.keeps(b, held, residuals):
                        continue
                    fired += 1
                    fired_covered += b < covered
                    # the residuals too: the process keeps them after a skip
                    assert school.choose(mask | 1 << b) == (held, residuals), (mask, b)
                    assert not (held >> b) & 1, (mask, b)
    # 24 115 firings, 20 137 of them on bits some group admits
    assert fired >= 20_000
    assert fired_covered >= 15_000


def test_capacity_table_answers_as_the_scheme_in_any_fill_order():
    # The engine reads each group's capacity from a table it fills on first
    # use. On non-monotone schemes that grant zero and more than the target,
    # every offer set is chosen by two schools that meet the offer sets in
    # different orders, and both must equal the reference choice.
    rng = random.Random(17)
    above = zero = non_monotone = 0
    for seed in range(30):
        cfg, contracts = rm.generate_school_pool(seed)
        entries = {
            k: {
                vec: rng.choice((0, cfg.targets[k] + 1, cfg.targets[k] + 2, rng.randint(0, 3)))
                for vec in itertools.product(range(cfg.capacity + 3), repeat=k)
                if rng.random() < 0.6
            }
            for k in range(1, cfg.group_count)
        }
        cfg = replace(cfg, scheme=rm.TableScheme(entries))
        non_monotone += not rm.check_monotonic(cfg.scheme, cfg.targets, cfg.capacity)
        students = sorted({c.student for c in contracts})
        pool = sorted(contracts)
        market = FlatMarket.of(contracts, students, [cfg], {})
        completed = _tabulate(Compiled(market), 0, completion=True)
        assert completed.pool == tuple(pool)
        masks = list(range(1 << len(pool)))
        shuffled = masks[:]
        rng.shuffle(shuffled)
        for order in (masks, shuffled):
            compiled = Compiled(market)
            school = compiled.schools[0]
            for mask in order:
                offers = frozenset(pool[i] for i in range(len(pool)) if (mask >> i) & 1)
                want, trace = rm.dynamic_reserves_choice(offers, cfg)
                got, residuals = school.choose(local_mask(compiled, 0, offers))
                caps = _capacities(school, residuals)
                assert compiled.to_set(compiled.to_global(0, got)) == want, (seed, mask)
                assert residuals == trace.residuals
                assert caps == trace.capacities
                want_c = rm.completion_choice(offers, cfg)[0]
                assert completed.subset(completed.chosen[mask]) == want_c, (seed, mask)
                above += any(c > q for c, q in zip(caps[1:], cfg.targets[1:]))
                zero += any(c == 0 < q for c, q in zip(caps[1:], cfg.targets[1:]))
            for prefix, cap in school.cap_table.items():
                assert cap == cfg.dynamic_capacity(len(prefix), prefix)
    # 28 of the 30 schemes are not monotone; 3 320 choices realize some
    # capacity above its target, and 2 204 a zero where the target is not
    assert non_monotone >= 25 and above >= 3_000 and zero >= 2_000, (non_monotone, above, zero)
