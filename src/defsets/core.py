"""The core every defining-set question shares: a set of positions defines
the anchor iff it hits the difference set of every other member.  A family
is one callback, `members(fixed)`: at most two members that agree with the
partial map `fixed` (position -> value), as position-indexed vectors, or []
when `fixed` itself breaks a constraint."""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator, Optional, Sequence, Tuple

DEFAULT_CAP = 24


class CapExceeded(Exception):
    """Instance is above the configured desk-scale cap."""


def check_cap(n: int, cap: int, unit: str) -> None:
    if n > cap:
        raise CapExceeded(f"instance has {n} {unit}, above the cap of {cap}")


def assignments(positions: Sequence[int], values: Sequence) -> Iterator[dict]:
    """Every map from `positions` to `values`, in product order."""
    return (dict(zip(positions, vals))
            for vals in itertools.product(values, repeat=len(positions)))


def first_hitting_set(positions: Sequence[int],
                      counterexample: Callable[[int], Optional[int]],
                      upper: Optional[int] = None) -> Optional[Tuple[int, ...]]:
    """Lexicographically first smallest defining set, as a sorted position
    tuple, of size at most `upper`, or None.

    Position p is bit 1 << p of a mask.  `counterexample(mask)` returns the
    difference mask of a member other than the anchor that agrees with it on
    `mask`, or None if there is none.  Position p is forced when a member
    agrees with the anchor everywhere but p; one query per position finds
    these, and every defining set contains them.  Candidates are the forced
    positions plus `itertools.combinations` of the others by increasing
    size; one that misses a mask already returned is skipped without a
    query."""
    full = sum(1 << p for p in positions)
    forced = tuple(p for p in positions
                   if counterexample(full & ~(1 << p)) is not None)
    misses = [1 << p for p in forced]
    rest = [p for p in positions if p not in forced]
    top = len(rest) if upper is None else min(upper - len(forced), len(rest))
    for extra in range(top + 1):
        for combo in itertools.combinations(rest, extra):
            mask = sum(1 << p for p in forced + combo)
            if all(mask & diff for diff in misses):
                diff = counterexample(mask)
                if diff is None:
                    return tuple(sorted(forced + combo))
                misses.append(diff)
    return None


def diff_mask(member, anchor, positions: Iterable[int]) -> int:
    """Mask of the positions where two position-indexed vectors differ."""
    return sum(1 << p for p in positions if member[p] != anchor[p])


def pair_witness(positions: Sequence[int], anchor, members: Callable,
                 upper: Optional[int] = None) -> Optional[Tuple[int, ...]]:
    """Canonical defining set of `anchor` of size at most `upper` (Q2), or
    None; each query asks `members` for one member other than the anchor."""
    def counterexample(mask: int) -> Optional[int]:
        fixed = {p: anchor[p] for p in positions if mask >> p & 1}
        return next((d for d in (diff_mask(m, anchor, positions)
                                 for m in members(fixed)) if d), None)

    return first_hitting_set(positions, counterexample, upper=upper)


def family_has_defining_within(positions: Sequence[int], values: Sequence,
                               members: Callable, k: int,
                               forced: Tuple[int, ...] = ()) -> bool:
    """Q3: does some member have a defining set of size at most k?  Sweeps
    partial maps on supersets of `forced` (positions in every defining set
    of every member); one with a single member extension defines it."""
    rest = [p for p in positions if p not in forced]
    for extra in range(min(k - len(forced), len(rest)) + 1):
        for combo in itertools.combinations(rest, extra):
            if any(len(members(fixed)) == 1
                   for fixed in assignments(forced + combo, values)):
                return True
    return False


def family_first_hitting_set(family: Sequence, positions: Sequence[int]
                             ) -> Tuple[int, Tuple[int, ...]]:
    """(index, witness) of the member whose canonical defining set is
    smallest, ties broken on (witness values, member vector); family[i][p]
    is member i's value at position p.  Difference masks come from the
    members themselves, so there are no queries."""
    best = None
    for i, anchor in enumerate(family):
        diffs = [d for d in (diff_mask(m, anchor, positions) for m in family)
                 if d]
        found = first_hitting_set(
            positions, lambda mask: next((d for d in diffs if not d & mask), None),
            upper=None if best is None else best[0][0])
        if found is not None:
            key = (len(found), tuple((p, anchor[p]) for p in found),
                   tuple(anchor[p] for p in positions))
            if best is None or key < best[0]:
                best = (key, i, found)
    return best[1], best[2]
