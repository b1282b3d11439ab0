"""Problem instances: the full bundle of students, schools, contracts, and
preferences; the flat index form of a market, which the loader parses a file
into and the engine is compiled from; and validation of every structural
invariant, which runs on that form."""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .choice import SchoolConfig, _table_report, capacity_table
from .errors import SearchCapExceededError
from .model import Contract, PreferenceOrder, TypeProfile

__all__ = ["ProblemInstance", "FlatMarket", "validate_instance"]


@dataclass(frozen=True)
class ProblemInstance:
    """An instance of the matching problem.

    ``contracts`` is the explicit contract universe; every preference and
    every choice-function evaluation ranges over it.
    """

    students: tuple[str, ...]
    profile: TypeProfile
    schools: tuple[SchoolConfig, ...]
    contracts: frozenset
    preferences: Mapping[str, PreferenceOrder]

    def school(self, school_id: str) -> SchoolConfig:
        for s in self.schools:
            if s.school == school_id:
                return s
        raise KeyError(school_id)

    def contracts_of(self, student: str) -> frozenset:
        return frozenset(c for c in self.contracts if c.student == student)

    def with_preferences(self, preferences: Mapping[str, PreferenceOrder]) -> "ProblemInstance":
        return replace(self, preferences=dict(preferences))

    def with_school(self, config: SchoolConfig) -> "ProblemInstance":
        updated = tuple(config if s.school == config.school else s for s in self.schools)
        return replace(self, schools=updated)

    def flat(self) -> "FlatMarket":
        """This instance in flat index form."""
        return FlatMarket.of(
            self.contracts, self.students, self.schools, self.preferences, self.profile
        )


def validate_instance(instance: ProblemInstance) -> list[str]:
    """Return every invariant violation found; an empty list means valid:
    :meth:`FlatMarket.violations` of the instance's flat form."""
    return instance.flat().violations()


class FlatMarket(NamedTuple):
    """A market in flat index form: an instance file is parsed into it,
    validation checks it, and the engine's ``Compiled`` is built from it.

    ``contracts`` is in contract order, which is sorted order. ``ranked``
    maps the student id of each preference listing to the contracts it
    ranks, best first, as global indices: positions in ``contracts``. Two
    faults only a :class:`ProblemInstance` can hold are kept for validation
    to name: a ranked contract outside the universe is the index
    ``len(contracts) + k`` of ``strays[k]``, and ``labels`` maps a listing
    to the student its order is labelled with, where the two differ.
    """

    students: tuple[str, ...]
    profile: TypeProfile
    schools: tuple
    contracts: tuple[Contract, ...]
    ranked: Mapping[str, tuple[int, ...]]
    strays: tuple[Contract, ...] = ()
    labels: Mapping[str, str] = MappingProxyType({})

    @classmethod
    def of(
        cls,
        contracts: Iterable[Contract],
        students: Sequence[str],
        schools: Sequence,
        preferences: Mapping[str, PreferenceOrder],
        profile: TypeProfile = TypeProfile((), MappingProxyType({})),
    ) -> "FlatMarket":
        """The flat form of a market given as sets and objects; only
        validation reads ``profile``."""
        ordered = tuple(sorted(contracts))
        index = dict(zip(ordered, range(len(ordered))))
        strays: dict[Contract, int] = {}
        ranked = {}
        for s, pref in preferences.items():
            # through a list, as in ``fileio._ranked_contracts``
            ranked[s] = tuple([
                index[c] if c in index else len(ordered) + strays.setdefault(c, len(strays))
                for c in pref.ranked
            ])
        labels = {s: p.student for s, p in preferences.items() if p.student != s}
        return cls(tuple(students), profile, tuple(schools), ordered, ranked, tuple(strays), labels)

    def instance(self) -> ProblemInstance:
        """The market as a :class:`ProblemInstance`."""
        table = self.contracts + self.strays
        preferences = {
            s: PreferenceOrder(self.labels.get(s, s), tuple([table[ci] for ci in listed]))
            for s, listed in self.ranked.items()
        }
        return ProblemInstance(
            self.students, self.profile, self.schools, frozenset(self.contracts), preferences
        )

    def violations(self) -> list[str]:
        """Return every invariant violation found; an empty list means valid.

        Checks id uniqueness and cross-references, the type profile,
        preference and priority well-formedness, that every school is a
        dynamic reserves school, target accounting per school, and that
        each transfer scheme is monotone over the bounded residual domain
        (by structural certificate when available, exhaustively otherwise).
        A check over many items is first a set test in C that passes exactly
        when no item is at fault; only a failed test walks the items, in
        contract or student order, to name each fault.
        """
        v: list[str] = []
        students, contracts, ranked = self.students, self.contracts, self.ranked
        student_set = set(students)
        if len(student_set) != len(students):
            v.append("duplicate student ids")

        types, claims = self.profile.types, self.profile.claims
        type_set = set(types)
        if len(type_set) != len(types):
            v.append("duplicate privilege type ids")
        for s in students:
            claimed = claims.get(s)
            if claimed is None:
                v.append(f"student {s}: no claimable type set")
            elif not claimed:
                v.append(f"student {s}: claimable type set is empty")
            elif not claimed <= type_set:
                v.append(f"student {s}: claims unknown types {sorted(claimed - type_set)}")
        v += [f"type profile names unknown student {s}" for s in claims if s not in student_set]

        school_ids = [cfg.school for cfg in self.schools]
        school_set = set(school_ids)
        if len(school_set) != len(school_ids):
            v.append("duplicate school ids")

        # a contract's student, type and claim are sound exactly when its
        # (student, type) pair is claimable
        claimable = {(s, t) for s in student_set for t in claims.get(s) or () if t in type_set}
        pairs = zip(map(itemgetter(0), contracts), map(itemgetter(2), contracts))
        schools = map(itemgetter(1), contracts)
        # the student and school ids the contracts name: the known ones,
        # unless some contract names another
        named: tuple[Iterable[str], Iterable[str]] = (student_set, school_set)
        if not (claimable.issuperset(pairs) and school_set.issuperset(schools)):
            named = (map(itemgetter(0), contracts), map(itemgetter(1), contracts))
            for c in contracts:
                if c.student not in student_set:
                    v.append(f"contract {c}: unknown student")
                if c.school not in school_set:
                    v.append(f"contract {c}: unknown school")
                if c.privilege not in type_set:
                    v.append(f"contract {c}: unknown privilege type")
                elif c.privilege not in claims.get(c.student, frozenset()):
                    v.append(f"contract {c}: student cannot claim this privilege")
        if not _ids_split(*named):
            v += _shared_ids(contracts)

        v += [f"preference order for unknown student {s}" for s in ranked if s not in student_set]
        # each ranked index's student; a stray has none
        owner = (*map(itemgetter(0), contracts), *[None] * len(self.strays))
        for s in students:
            listed = ranked.get(s)
            if listed is None:
                v.append(f"student {s}: no preference order")
                continue
            if s in self.labels:
                v.append(f"student {s}: preference order labelled {self.labels[s]}")
            if len(set(listed)) != len(listed):
                v.append(f"student {s}: duplicate entries in preference order")
            if not set(map(owner.__getitem__, listed)) <= {s}:
                for ci in listed:
                    if owner[ci] is None:
                        stray = self.strays[ci - len(contracts)]
                        v.append(f"student {s}: ranks unknown contract {stray}")
                    elif owner[ci] != s:
                        v.append(f"student {s}: ranks another student's contract {contracts[ci]}")

        for cfg in self.schools:
            where = f"school {cfg.school}"
            if not isinstance(cfg, SchoolConfig):
                # a slot-specific school: the engine runs it, but it has no
                # scheme to certify
                v.append(f"{where}: not a dynamic reserves school")
                continue
            if cfg.capacity < 0:
                v.append(f"{where}: negative capacity")
            priority = cfg.priority.ranked
            if len(set(priority)) != len(priority):
                v.append(f"{where}: duplicate students in priority order")
            unknown = [s for s in priority if s not in student_set]
            v += [f"{where}: priority order names unknown student {s}" for s in unknown]
            missing = type_set - set(cfg.precedence)
            if missing:
                v.append(f"{where}: precedence sequence never covers types {sorted(missing)}")
            for t in cfg.precedence:
                if t not in type_set:
                    v.append(f"{where}: precedence names unknown type {t}")
            v.extend(_scheme_violations(where, cfg))
        return v


def _ids_split(students: Iterable[str], schools: Iterable[str]) -> bool:
    """Whether each canonical id ``student@school:type`` of these students
    and schools splits back into its contract at its first "@" and the first
    ":" after it: true when no student id holds "@" and no school id ":".
    Only otherwise can two contracts share an id."""
    return not any("@" in s for s in students) and not any(":" in s for s in schools)


def _shared_ids(contracts: Sequence[Contract]) -> list[str]:
    """Every pair of contracts with one canonical id ``student@school:type``,
    the id that allocation files and reports name a contract by."""
    by_id: dict[str, list[Contract]] = {}
    for c in contracts:
        by_id.setdefault("%s@%s:%s" % c, []).append(c)
    return [
        f"contracts {tuple(a)} and {tuple(b)} share the id {cid!r}"
        for cid, same in by_id.items()
        for n, a in enumerate(same)
        for b in same[n + 1:]
    ]


def _scheme_violations(where: str, school, table: Optional[dict] = None) -> list[str]:
    """The faults of one school's targets and transfer scheme, each led by
    ``where``; an empty list certifies the school. ``school`` is a
    :class:`SchoolConfig` or the engine's compiled school, which both carry
    ``targets``, ``capacity`` and ``scheme``. Validation runs this one
    definition on every school, so every validated school is certified, and
    ``audit`` reads the certificate off each compiled school's own scheme.
    With ``table``, an empty dict, the :func:`capacity_table` over ``[0,
    Q]`` that the monotonicity check reads is stored in it, so that a caller
    who needs the table too reads the scheme once; it stays empty where the
    check reads none.

    A school is certified when its targets are non-negative and sum to its
    capacity ``Q``, its scheme covers its groups, each group's capacity at
    the all-zero residual vector is its target (a forward-sum scheme grants
    that by construction; a table lists it or falls back to it), and both
    conditions of :func:`check_monotonic` hold over ``[0, Q]``: read off
    ``certified_monotone()`` in O(groups) for a forward-sum shape in which
    no group donates twice, else checked one unit step at a time on the
    school's :func:`capacity_table`, whose refusal past its step cap leaves
    the school not certified.

    The certificate. A certified school's completion (the choice that drops
    only the picked contracts, not their students' others:
    ``completion_choice``, tabulated by ``verification._tabulate``, which
    completes the school's choice under every scheme, as
    ``verification._completion_axioms_hold`` proves) is substitutable and
    satisfies the law of aggregate demand (LAD). Those are the hypotheses of
    the completion theorem in the :mod:`reservematch.cop` docstring (Hatfield
    & Kominers, "Hidden substitutes"), and they imply irrelevance of
    rejected contracts (Aygun & Sonmez 2013; the proof is in
    ``_completion_axioms_hold``). Write ``q_k`` for group ``k``'s target,
    ``v = (r_0, ..., r_{k-1})`` for the residuals of the groups before it,
    ``c_k`` for its capacity at ``v``, ``n_k`` for the number of contracts
    it picks (at most ``c_k``, none when ``c_k`` is 0) and ``r_k = c_k -
    n_k`` for its residual.

    The box. Every residual vector a choice reads lies in ``[0, Q]^k``,
    where the conditions were checked. Induct over the groups: ``c_0 =
    q_0`` lies in ``[0, Q]``. Let ``v`` lie in the box. Along a chain of
    unit steps from the zero vector to ``v``, condition 1 gives ``c_k >=
    c_k(0) = q_k >= 0``, and condition 2 gives ``sum_{m<=k} c_m - sum(v) <=
    sum_{m<=k} q_m``, so ``c_k <= sum_{m<=k} q_m - sum_{m<k} n_m <= Q``.
    Then ``0 <= r_k <= c_k <= Q``. Inside the box, the same chain argument
    (as in :func:`check_monotonic`) gives both conditions between every
    ordered pair ``low <= high``: ``c_k(low) <= c_k(high)``, and
    ``sum_{m<=k} (c_m(high) - c_m(low)) <= sum(high) - sum(low)``.

    One more contract. Run the completion on an offer set ``X`` and on ``X +
    x``, primes marking the second run, and let ``A_k`` and ``A'_k`` be the
    contracts still offered before group ``k``. Induct on the claim that
    ``A_k`` is a subset of ``A'_k`` and ``v' <= v``, which holds before
    group 0. The extra contracts ``D_k = A'_k - A_k`` then number ``|D_k| =
    1 + sum_{m<k} (n_m - n'_m) = 1 + sum_{m<k} (c_m - c'_m) - (sum(v) -
    sum(v'))``. Condition 2 on ``v' <= v`` bounds ``sum_{m<=k} (c_m -
    c'_m)`` by ``sum(v) - sum(v')``, so ``|D_k| + (c_k - c'_k) <= 1``, and
    condition 1 makes ``c_k - c'_k >= 0``. So group ``k`` runs in one of two
    ways. (a) One seat short and with no extra contract: both runs see one
    pool, and the second picks its best ``c_k - 1`` where the first picks
    its best ``c_k``, so either both fill (``r'_k = r_k = 0``, and the
    first run's lowest pick becomes the one extra) or both take the whole
    pool (``r'_k = r_k - 1``). (b) At the same capacity, with at most one
    extra contract ``y``. If ``y`` is not in group ``k``'s pool (another
    type, or an unranked student), both runs pick the same. Otherwise the
    second pool is the first plus ``y``: where the first run leaves a seat
    vacant, the second also picks ``y`` (``r'_k = r_k - 1``); where it
    fills, ``y`` ranks below every pick, or displaces the lowest pick
    ``z``, which becomes the extra (``r'_k = r_k = 0``). In every case the
    second run picks no contract of ``A_k`` that the first does not, so
    ``A_{k+1}`` is a subset of ``A'_{k+1}``, and ``r'_k <= r_k``.

    After the last group ``G - 1``, a contract of ``X`` that the first run
    rejects is in ``A_G``, so in ``A'_G``: the second run rejects it too,
    which is substitutability. The same count, with condition 2 at group
    ``G - 1``, gives ``|D_G| <= 1 - (r_{G-1} - r'_{G-1}) <= 1``, and the
    second run picks ``1 - |D_G| >= 0`` more contracts than the first,
    which is LAD.

    Every fact is needed (``tests/test_verification.py`` draws the tables):
    a table that fails condition 1 can break substitutability, one that
    fails only condition 2 can break LAD, and one that meets both but grants
    a group more than its target at the zero vector, or whose targets sum
    past the capacity, can carry a residual out of the box, where an
    unlisted entry falls back to a smaller target.
    """
    targets, scheme = school.targets, school.scheme
    v = []
    if any(t < 0 for t in targets):
        v.append(f"{where}: negative group target")
    if sum(targets) != school.capacity:
        v.append(f"{where}: group targets sum to {sum(targets)}, capacity is {school.capacity}")
    shape = getattr(scheme, "donors", None)
    if shape is not None and len(shape) != len(targets):
        return v + [f"{where}: scheme covers {len(shape)} groups, school has {len(targets)}"]
    entries = getattr(scheme, "entries", None)
    if entries is not None:
        for k, listed in entries.items():
            if k >= len(targets):
                return v + [f"{where}: scheme table addresses nonexistent group {k}"]
            zero = (0,) * k
            if zero in listed and listed[zero] != targets[k]:
                return v + [
                    f"{where}: group {k} capacity at the all-zero residual vector "
                    f"must equal its target {targets[k]}"
                ]
    # a negative capacity leaves no box to check; the targets fault above
    # already keeps the school uncertified
    if scheme.certified_monotone() or school.capacity < 0:
        return v
    # check_monotonic's refusal and check, on a table the caller may keep
    try:
        read = capacity_table(scheme, targets, school.capacity)
    except SearchCapExceededError as exc:
        return v + [f"{where}: cannot verify scheme monotonicity ({exc})"]
    if table is not None:
        table.update(read)
    report = _table_report(read, school.capacity)
    if not report.ok:
        return v + [
            f"{where}: scheme not monotone (condition {report.condition} fails for "
            f"group {report.group} between residuals {report.low} and {report.high})"
        ]
    return v
