"""Bounded epoch labels that can dominate arbitrary, never-generated labels.

A label is a pair (sting, antistings): the sting is one element of the
universe X = {1..K} and the antistings are a k-subset of X, with K = k*k + 1.
Label ``a`` precedes label ``b`` when a's sting is caught in b's antistings
while b's sting avoids a's antistings.  Given any collection of at most k
labels, even mutually incomparable ones that no generator ever produced,
``next_label`` builds a label strictly above all of them.

Each label lazily caches its antistings as an int bitmask (bit ``a`` set for
antisting ``a``), so ``next_label`` searches for a free sting with a few
word operations per input label instead of rebuilding a set of up to k*k
elements.  A label that never reaches ``next_label`` never builds its mask.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Collection, Iterable, Optional, Sequence


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
    """An epoch label: sting in {1..K} plus a k-set of antistings."""

    sting: int
    antistings: frozenset[int]

    # The antistings as an int bitmask (bit ``a`` set for antisting ``a``),
    # filled in by ``next_label`` the first time the label reaches it.  A
    # plain field keeps every attribute read on the interpreter's fast path;
    # ``functools.cached_property`` or ``__getattr__`` slowed the
    # many-small-label game workload measurably.
    _mask: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def validate(self, params: LabelParams) -> None:
        K = params.universe_size
        if not 1 <= self.sting <= K:
            raise LabelError(f"sting {self.sting} outside universe 1..{K}")
        if len(self.antistings) != params.k:
            raise LabelError(
                f"antisting set has {len(self.antistings)} elements, need {params.k}"
            )
        if not all(1 <= a <= K for a in self.antistings):
            raise LabelError("antisting outside universe")


def _bitmask(elements: Collection[int], K: int) -> int:
    """Bitmask of the non-empty ``elements``, each of which must lie in 1..K."""
    top = max(elements)
    if min(elements) < 1 or top > K:
        raise LabelError(f"antisting outside universe 1..{K}")
    if top < 4096:
        # each or copies at most a few hundred bytes: cheaper per element
        # than the byte-array update below
        mask = 0
        for a in elements:
            mask |= 1 << a
        return mask
    # Or-ing would copy the growing int once per element, quadratic when the
    # elements spread over a large universe; filling a byte array and
    # converting it once stays linear.
    bits = bytearray(top // 8 + 1)
    for a in elements:
        bits[a >> 3] |= 1 << (a & 7)
    return int.from_bytes(bits, "little")


def make_label(sting: int, antistings: Iterable[int]) -> Label:
    return Label(sting, frozenset(antistings))


def precedes_b(a: Label, b: Label) -> bool:
    """Strict label order: a's sting trapped by b, b's sting free of a.

    Antisymmetric by construction; many pairs are incomparable, and a label
    never precedes itself.
    """
    return (a.sting in b.antistings) and (b.sting not in a.antistings)


def next_label(labels: Iterable[Label], params: LabelParams) -> Label:
    """Build a label strictly above every member of ``labels`` (at most k of them).

    The antisting set collects the input stings, padded with the smallest
    unused universe elements.  The sting must avoid every input antisting
    set, and one outside the new antisting set is preferred, so it is the
    lowest zero bit of ``blocked | mask(new antistings)``, where ``blocked``
    ors the inputs' cached masks with bit 0 (outside the universe).  When
    that bit lies above K, the sting falls back to the lowest zero bit of
    ``blocked`` alone, which is at most K: at most k input sets of k
    elements each leave at least one of the k*k + 1 universe elements free.
    """
    labels = list(labels)
    k = params.k
    K = params.universe_size
    if len(labels) > k:
        raise LabelError(f"next_label takes at most k={k} labels, got {len(labels)}")
    for lab in labels:
        # length/sting checks suffice to catch labels built for a different k
        if len(lab.antistings) != k or not 1 <= lab.sting <= K:
            raise LabelError(f"label {lab} invalid for k={k}")

    if not labels:
        return Label(1, frozenset(range(1, k + 1)))

    antistings = {lab.sting for lab in labels}
    for x in range(1, K + 1):
        if len(antistings) == k:
            break
        antistings.add(x)

    blocked = 1
    for lab in labels:
        mask = lab._mask
        if mask is None:
            mask = _bitmask(lab.antistings, K)
            object.__setattr__(lab, "_mask", mask)
        blocked |= mask
    new_mask = _bitmask(antistings, K)
    taken = blocked | new_mask
    sting = (~taken & (taken + 1)).bit_length() - 1
    if sting > K:
        sting = (~blocked & (blocked + 1)).bit_length() - 1
    label = Label(sting, frozenset(antistings))
    # the next epoch change reads this label's mask: keep the one built here
    object.__setattr__(label, "_mask", new_mask)
    return label


def format_label(label: Label) -> str:
    """Canonical textual form ``(s|a1,a2,...)`` with sorted antistings."""
    return "(%d|%s)" % (label.sting, ",".join(str(a) for a in sorted(label.antistings)))


def parse_label(text: str) -> Label:
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")) or "|" not in text:
        raise LabelError(f"bad label literal: {text!r}")
    sting_part, anti_part = text[1:-1].split("|", 1)
    try:
        sting = int(sting_part)
        antistings = frozenset(int(a) for a in anti_part.split(","))
    except ValueError:
        raise LabelError(f"bad label literal: {text!r}") from None
    return Label(sting, antistings)


def all_labels(params: LabelParams) -> Iterable[Label]:
    """Enumerate the whole label domain (feasible for small k only)."""
    K = params.universe_size
    universe = range(1, K + 1)
    for antistings in itertools.combinations(universe, params.k):
        fs = frozenset(antistings)
        for sting in universe:
            yield Label(sting, fs)


def random_label(rng, params: LabelParams) -> Label:
    K = params.universe_size
    return Label(
        rng.randint(1, K), frozenset(rng.sample(range(1, K + 1), params.k))
    )


def incomparable_family(
    size: int, params: LabelParams, rng=None, sting_pool: Optional[range] = None
) -> list[Label]:
    """Craft ``size`` pairwise-incomparable labels (size <= k).

    Every label's antistings contain all the family's stings, so each
    direction of the order is blocked for every pair.  ``sting_pool``
    restricts where stings are drawn from (default: the whole universe).
    """
    k = params.k
    K = params.universe_size
    if size > k:
        raise LabelError(f"at most k={k} mutually incomparable labels supported")
    pool = sting_pool if sting_pool is not None else range(1, K + 1)
    if size > len(pool):
        raise LabelError("sting pool too small for requested family")
    if rng is None:
        stings = list(pool)[:size]
    else:
        stings = rng.sample(pool, size)
    base = set(stings)
    labels = []
    for s in stings:
        antistings = set(base)
        for x in range(1, K + 1):
            if len(antistings) == k:
                break
            if x not in antistings:
                antistings.add(x)
        labels.append(Label(s, frozenset(antistings)))
    return labels


__all__: Sequence[str] = [
    "Label",
    "LabelError",
    "LabelParams",
    "all_labels",
    "format_label",
    "incomparable_family",
    "make_label",
    "next_label",
    "parse_label",
    "precedes_b",
    "random_label",
]
