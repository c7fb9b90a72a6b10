"""Bounded epoch labels that can dominate arbitrary, never-generated labels.

A label is a pair (sting, antistings): the sting is one element of the
universe X = {1..K} and the antistings, a sorted tuple, are a k-subset of X,
with K = k*k + 1.  Label ``a`` precedes label ``b`` when a's sting is caught
in b's antistings while b's sting avoids a's antistings.  Given any
collection of at most k labels, even mutually incomparable ones that no
generator ever produced, ``next_label`` builds a label strictly above all of
them.  Its sting is the lowest element outside every input antisting set:
``next_label`` checks and searches any list, taking the union window by
window, and ``next_label_covered`` reads the union, the count and the
stings that the caller (``EpochsQueue``) keeps over labels it checked.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Collection, Iterable, Iterator, Optional, Sequence


class LabelError(ValueError):
    """Invalid label input (parameter mismatch, oversized set, bad literal)."""


@dataclass(frozen=True)
class LabelParams:
    """Universe parameters: antisting size k (>= 2) and universe size K = k*k+1."""

    k: int

    def __post_init__(self):
        if self.k < 2:
            raise LabelError(f"k must be >= 2, got {self.k}")

    @property
    def universe_size(self) -> int:
        return self.k * self.k + 1


@dataclass(frozen=True)
class Label:
    """An epoch label: sting in {1..K} plus k antistings, a sorted tuple."""

    sting: int
    antistings: tuple[int, ...]

    def __post_init__(self):
        # the hash the dataclass would compute, once: the epochs queue
        # probes its dict with the same labels over and over
        object.__setattr__(self, "_hash", hash((self.sting, self.antistings)))

    def __hash__(self) -> int:
        return self._hash


def check_shape(label: Label, params: LabelParams) -> None:
    """Raise LabelError unless ``label`` has k antistings and its sting and
    antistings lie in 1..K.  Antistings are sorted, so this is O(1) and
    catches any label built for another k."""
    K, anti = params.universe_size, label.antistings
    if len(anti) != params.k:
        raise LabelError(f"antisting set has {len(anti)} elements, need {params.k}")
    if not (1 <= label.sting <= K and 1 <= anti[0] and anti[-1] <= K):
        raise LabelError(f"sting or antisting outside universe 1..{K}")


def make_label(sting: int, antistings: Iterable[int]) -> Label:
    return Label(sting, tuple(sorted(set(antistings))))


def precedes_b(a: Label, b: Label) -> bool:
    """Strict label order: a's sting trapped by b, b's sting free of a.

    Antisymmetric by construction; many pairs are incomparable, and a label
    never precedes itself.
    """
    if a is b:
        return False
    anti, x = b.antistings, a.sting
    i = bisect_right(anti, x)
    if not i or anti[i - 1] != x:
        return False
    anti, x = a.antistings, b.sting
    i = bisect_right(anti, x)
    return not i or anti[i - 1] != x


def next_label(labels: Iterable[Label], params: LabelParams) -> Label:
    """Build a label strictly above every member of ``labels`` (at most k of them).

    The antisting set collects the input stings, padded with the smallest
    unused universe elements.  The sting is the lowest element outside the
    input antisting sets and the new one, or if that exceeds K, outside the
    input sets alone: k sets of k elements leave one of the k*k + 1 free.
    """
    labels = list(labels)
    for lab in labels:
        check_shape(lab, params)
    return _next_label(len(labels), {lab.sting for lab in labels}, params,
                       _free_elements(labels, params.universe_size))


def next_label_covered(count: int, stings: Collection[int], counts: Sequence[int],
                       params: LabelParams) -> Label:
    """``next_label(labels, params)`` for ``count`` labels whose shape the
    caller has checked, given their distinct ``stings`` (a set, or a dict
    keyed by them) and ``counts``, a list or bytearray whose entry x is
    nonzero exactly when some label holds antisting x (past its end: none)."""
    return _next_label(count, stings, params, _uncovered(counts))


def _next_label(count: int, stings: Collection[int], params: LabelParams,
                free: Iterator[int]) -> Label:
    """The label above ``count`` labels with the distinct ``stings``; ``free``
    yields the elements outside every input antisting set in ascending order."""
    k, K = params.k, params.universe_size
    if count > k:
        raise LabelError(f"next_label takes at most k={k} labels, got {count}")
    if not count:
        return Label(1, tuple(range(1, k + 1)))

    top, antistings = _padded(stings, k)
    fallback = sting = next(free)
    while sting <= top or sting in stings:
        sting = next(free)
    return Label(sting if sting <= K else fallback, antistings)


def _padded(stings: Collection[int], k: int) -> tuple[int, tuple[int, ...]]:
    """``stings`` padded to k elements with the least others, which fill
    1..top: (top, the sorted antistings)."""
    ordered = sorted(stings)
    top = k - len(ordered)
    for x in ordered:
        if x > top:
            break
        top += 1
    return top, (*range(1, top + 1), *ordered[bisect_right(ordered, top):])


def _free_elements(labels: Sequence[Label], K: int) -> Iterator[int]:
    """Elements >= 1 outside every label's antistings, in ascending order,
    window by window: [start, bound) strikes out the slices of antistings in
    it, then the bound doubles.  K + 1 is free, so one window of K + 1 will do."""
    start, bound = 1, min(64, K + 2)
    while True:
        free = set(range(start, bound))
        for lab in labels:
            anti = lab.antistings
            free.difference_update(anti[bisect_left(anti, start):bisect_left(anti, bound)])
        yield from sorted(free)
        start, bound = bound, 2 * bound


def _uncovered(counts: Sequence[int]) -> Iterator[int]:
    """Elements >= 1 whose entry in ``counts`` is zero or missing, ascending."""
    x = 0
    try:
        while True:
            x = counts.index(0, x + 1)
            yield x
    except ValueError:  # no zero past x: every element past the end is free
        yield from itertools.count(max(len(counts), 1))


def format_label(label: Label) -> str:
    """Canonical textual form ``(s|a1,a2,...)`` with sorted antistings."""
    return "(%d|%s)" % (label.sting, ",".join(map(str, label.antistings)))


def parse_label(text: str) -> Label:
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")) or "|" not in text:
        raise LabelError(f"bad label literal: {text!r}")
    sting_part, anti_part = text[1:-1].split("|", 1)
    try:
        sting = int(sting_part)
        antistings = [int(a) for a in anti_part.split(",")]
    except ValueError:
        raise LabelError(f"bad label literal: {text!r}") from None
    label = make_label(sting, antistings)
    if len(label.antistings) != len(antistings):
        repeated = next(a for i, a in enumerate(antistings) if a in antistings[:i])
        raise LabelError(f"bad label literal: {text!r} repeats antisting {repeated}")
    return label


def all_labels(params: LabelParams) -> Iterable[Label]:
    """Enumerate the whole label domain (feasible for small k only)."""
    K = params.universe_size
    universe = range(1, K + 1)
    for antistings in itertools.combinations(universe, params.k):
        for sting in universe:
            yield Label(sting, antistings)


def random_label(rng, params: LabelParams) -> Label:
    K = params.universe_size
    return Label(rng.randint(1, K), tuple(sorted(rng.sample(range(1, K + 1), params.k))))


def incomparable_family(
    size: int, params: LabelParams, rng, sting_pool: Optional[range] = None
) -> list[Label]:
    """Craft ``size`` pairwise-incomparable labels (size <= k).

    Every label's antistings contain all the family's stings, so each
    direction of the order is blocked for every pair.  The stings are drawn
    with ``rng`` from ``sting_pool`` (default: the whole universe).
    """
    k = params.k
    K = params.universe_size
    if size > k:
        raise LabelError(f"at most k={k} mutually incomparable labels supported")
    pool = sting_pool if sting_pool is not None else range(1, K + 1)
    if size > len(pool):
        raise LabelError("sting pool too small for requested family")
    stings = rng.sample(pool, size)
    _top, antistings = _padded(set(stings), k)
    return [Label(s, antistings) for s in stings]
