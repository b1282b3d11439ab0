"""Acceptance suite: the worked example plus the property guarantees.

Each test prints one pass/fail line. Tolerances are exact: set equality for
choice and matching outcomes, zero counterexamples for the exhaustive
property sweeps.
"""

from __future__ import annotations

import itertools
from collections import defaultdict

import reservematch as rm
from conftest import small_params

A6_ROWS_BY_NAME = [
    (("x1", "y2", "z2", "z3", "w1", "w3"), ("x1", "y2")),
    (("y2", "z2", "z3"), ("y2", "z3")),
    (("x1", "z2", "z3"), ("x1", "z2")),
    (("y2", "w1", "w3"), ("y2", "w1")),
    (("x1", "w1", "w3"), ("x1", "w3")),
    (("z2", "z3"), ("z2",)),
    (("w1", "w3"), ("w1",)),
]


def _verdict(name: str, ok: bool, detail: str = "") -> bool:
    print(f"{name}: {'PASS' if ok else 'FAIL'}{'  (' + detail + ')' if detail else ''}")
    return ok


# ----------------------------------------------------------------------


def test_worked_example_choice_table_is_exact(ex1, ex1_config, X):
    names = {"x1": X.x1, "y2": X.y2, "z2": X.z2, "z3": X.z3, "w1": X.w1, "w3": X.w3}
    failures = []
    for offered, expected in A6_ROWS_BY_NAME:
        offers = {names[n] for n in offered}
        want = frozenset(names[n] for n in expected)
        got, _ = rm.dynamic_reserves_choice(offers, ex1_config)
        if got != want:
            failures.append((offered, sorted(got)))
    assert _verdict(
        "worked-example choice table (7 rows, exact)", not failures, f"{7 - len(failures)}/7"
    )


def test_completion_satisfies_all_axioms_exhaustively():
    bad = []
    for k in range(100):
        cfg, contracts = rm.generate_school_pool(1000 + k, max_contracts=8)
        base = rm.tabulate_school(cfg, contracts)
        comp = rm.tabulate_school(cfg, contracts, completion=True)
        checks = {
            "completion": rm.check_completion(base, comp),
            "irc": rm.check_irc(comp),
            "substitutability": rm.check_substitutability(comp),
            "lad": rm.check_lad(comp),
        }
        for name, result in checks.items():
            if not result.holds:
                bad.append((k, name, result.counterexample))
    assert _verdict(
        "completion axioms over 100 schools x all subsets", not bad, f"failures: {len(bad)}"
    )


def test_mechanism_outcomes_are_stable(small_instances):
    failures = 0
    for instance in small_instances:
        outcome = rm.run_cop_default(instance)
        if not rm.is_stable(outcome, instance).passed:
            failures += 1
    assert _verdict(
        "mechanism outcomes stable on 200 instances",
        failures == 0,
        f"failures: {failures}",
    )


def test_no_student_or_pair_profits_from_misreporting(small_instances):
    solo_failures = []
    for n, instance in enumerate(small_instances):
        for student in instance.students:
            found = rm.find_group_misreport([student], instance)
            if found is not None:
                solo_failures.append((n, student, found))
    pair_failures = []
    for n, instance in enumerate(small_instances[:50]):
        for pair in itertools.combinations(instance.students, 2):
            found = rm.find_group_misreport(pair, instance)
            if found is not None:
                pair_failures.append((n, pair, found))
    ok = not solo_failures and not pair_failures
    assert _verdict(
        "no profitable misreport (200 instances, full spaces; pairs on 50)",
        ok,
        f"solo: {len(solo_failures)}, pairs: {len(pair_failures)}",
    )


def test_priority_improvements_never_hurt():
    done = 0
    seed = 0
    failures = 0
    while done < 500:
        instance = rm.generate_random_instance(small_params(3000 + seed))
        swap = rm.single_swap_improvement(instance, 13000 + seed)
        seed += 1
        if swap is None:
            continue
        student, improved = swap
        if not rm.check_respects_improvements(instance, improved, student).ok:
            failures += 1
        done += 1
    assert _verdict(
        "single-swap priority improvements never hurt (500 pairs)",
        failures == 0,
        f"failures: {failures}",
    )


# ----------------------------------------------------------------------
# the worked-example table cannot come from any two-slot rule


def _slot_rule_search(rows, conflicts, n_contracts=6):
    """Count ordered two-slot ranking pairs reproducing every row.

    Rankings range over all ordered acceptable prefixes of the contracts.
    Returns (matching pair count, ranking count).
    """
    rankings = [
        p for k in range(n_contracts + 1) for p in itertools.permutations(range(n_contracts), k)
    ]
    null = n_contracts  # code for an empty slot
    best = []
    for ranking in rankings:
        table = bytearray(64)
        for mask in range(1 << n_contracts):
            pick = null
            for c in ranking:
                if (mask >> c) & 1:
                    pick = c
                    break
            table[mask] = pick
        best.append(bytes(table))

    satisfying = defaultdict(int)
    for idx, table in enumerate(best):
        bit = 1 << idx
        for mask in range(1 << n_contracts):
            satisfying[(mask, table[mask])] |= bit

    full = (1 << len(rankings)) - 1
    matches = 0
    for idx, table in enumerate(best):
        requirements = []
        feasible = True
        for offered, chosen in rows:
            first = table[offered]
            picks = [c for c in range(n_contracts) if (chosen >> c) & 1]
            if len(picks) == 2:
                if first not in picks:
                    feasible = False
                    break
                other = picks[0] if first == picks[1] else picks[1]
                requirements.append((offered & ~conflicts[first], other))
            else:
                (single,) = picks
                if first == single:
                    requirements.append((offered & ~conflicts[single], null))
                elif first == null:
                    requirements.append((offered, single))
                else:
                    feasible = False
                    break
        if not feasible:
            continue
        acc = full
        for requirement in requirements:
            acc &= satisfying.get(requirement, 0)
            if not acc:
                break
        matches += acc.bit_count()
    return matches, len(rankings)


def _ex1_index_rows(X):
    order = [X.x1, X.y2, X.z2, X.z3, X.w1, X.w3]
    index = {c: n for n, c in enumerate(order)}
    name_to_contract = {"x1": X.x1, "y2": X.y2, "z2": X.z2, "z3": X.z3, "w1": X.w1, "w3": X.w3}
    rows = []
    for offered, chosen in A6_ROWS_BY_NAME:
        o = sum(1 << index[name_to_contract[n]] for n in offered)
        c = sum(1 << index[name_to_contract[n]] for n in chosen)
        rows.append((o, c))
    conflicts = [0] * 6
    for a in order:
        for b in order:
            if a.student == b.student:
                conflicts[index[a]] |= 1 << index[b]
    return order, rows, conflicts


def test_no_two_slot_rule_reproduces_the_worked_example(X):
    order, rows, conflicts = _ex1_index_rows(X)

    # the searcher does find tables that really are two-slot generated
    school = rm.SlotSpecificSchool("s", tuple(sorted(order)), (tuple(order), tuple(reversed(order))))
    reachable_rows = []
    for offered_mask, _ in rows:
        offers = {order[c] for c in range(6) if (offered_mask >> c) & 1}
        chosen = rm.slot_specific_choice(offers, school)
        reachable_rows.append((offered_mask, sum(1 << order.index(c) for c in chosen)))
    found, total = _slot_rule_search(reachable_rows, conflicts)
    assert total == 1957
    assert found >= 1

    matches, total = _slot_rule_search(rows, conflicts)
    assert _verdict(
        "no 2-slot rule matches the worked-example table "
        f"({total} rankings per slot, both orders)",
        matches == 0,
        f"matches: {matches}",
    )


def test_flexibility_pareto_improves_and_reseating_is_exact():
    done = 0
    seed = 0
    dominance_failures = 0
    chain_failures = 0
    bites = 0
    while done < 300:
        instance = rm.generate_random_instance(small_params(4000 + seed))
        pair = rm.unit_flexibility_pair(instance, 14000 + seed)
        seed += 1
        if pair is None:
            continue
        rigid, flexible = pair
        rigid_outcome = rm.run_cop_default(rigid)
        flexible_outcome = rm.run_cop_default(flexible)
        if rigid_outcome != flexible_outcome:
            bites += 1
        rigid_by = {c.student: c for c in rigid_outcome}
        flexible_by = {c.student: c for c in flexible_outcome}
        for s in rigid.students:
            pref = rigid.preferences[s]
            if pref.rank(flexible_by.get(s)) > pref.rank(rigid_by.get(s)):
                dominance_failures += 1
                break
        if rm.improvement_chains(rigid_outcome, rigid, flexible) != flexible_outcome:
            chain_failures += 1
        done += 1
    ok = dominance_failures == 0 and chain_failures == 0
    assert _verdict(
        "flexibility weakly Pareto-improves and reseating is exact (300 pairs)",
        ok,
        f"dominance failures: {dominance_failures}, chain mismatches: {chain_failures}, "
        f"expansions that bind: {bites}",
    )


def test_slot_specific_rules_embed_into_dynamic_reserves():
    mismatches = 0
    for k in range(50):
        school = rm.generate_slot_specific_school(5000 + k, max_contracts=8)
        converted = rm.convert_slot_specific(school)
        pool = sorted(school.contracts)
        for mask in range(1 << len(pool)):
            offers = frozenset(pool[i] for i in range(len(pool)) if (mask >> i) & 1)
            if converted.choice(offers) != rm.slot_specific_choice(offers, school):
                mismatches += 1
                break
    assert _verdict(
        "slot-specific rules embed (50 schools x all offer sets, exact)",
        mismatches == 0,
        f"schools with a mismatch: {mismatches}",
    )


def test_outcomes_are_proposal_order_independent(small_instances):
    divergences = 0
    for n, instance in enumerate(small_instances):
        if not rm.check_order_independence(instance, trials=50, seed=17000 + n).ok:
            divergences += 1
    assert _verdict(
        "proposal order independence (200 instances x 50 random orders)",
        divergences == 0,
        f"divergences: {divergences}",
    )
