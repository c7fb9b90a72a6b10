"""Finder/hider guessing game over bounded labels.

The hider keeps a secret set of at most m labels; the finder repeatedly
proposes a label and, whenever some hidden label is not below the proposal,
the hider exposes one such witness.  The finder feeds its own proposals and
the exposed witnesses into a move-to-front queue of capacity 2m and always
proposes a label dominating the whole queue.  This strategy wins within
m + 1 proposals, which the protocol's writer relies on to flush corrupted
epochs out of the system.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .labels import (
    Label,
    LabelParams,
    incomparable_family,
    precedes_b,
    random_label,
)
from .timestamps import EpochsQueue


class GameError(Exception):
    pass


@dataclass
class RoundRecord:
    round: int
    finder_label: Label
    response: Optional[Label]


@dataclass
class GameResult:
    won: bool
    winning_round: Optional[int]
    rounds_played: int
    transcript: list[RoundRecord] = field(repr=False, default_factory=list)


def finder_step(
    queue: EpochsQueue, prev_label: Optional[Label], response: Optional[Label]
) -> Label:
    """One finder move: bank the previous proposal and the hider's witness,
    then propose a label above everything remembered."""
    if prev_label is not None:
        queue.enqueue(prev_label)
    if response is not None:
        queue.enqueue(response)
    return queue.next_label()


class HiderStrategy:
    """The static hider: expose the first witness, keep the hidden set.

    Subclasses override ``pick_witness`` and ``mutate`` to change the hidden
    set after exposing; the exposed label always genuinely violates
    dominance.
    """

    name = "static"

    def __init__(self, hidden: list[Label], rng: random.Random):
        self.hidden = list(hidden)
        self.rng = rng

    def respond(self, finder_label: Label) -> Optional[Label]:
        witnesses = [h for h in self.hidden if not precedes_b(h, finder_label)]
        if not witnesses:
            return None
        exposed = self.pick_witness(witnesses)
        self.mutate(exposed, finder_label)
        return exposed

    def pick_witness(self, witnesses: list[Label]) -> Label:
        return witnesses[0]

    def mutate(self, exposed: Label, finder_label: Label) -> None:
        pass


class RandomReplaceHider(HiderStrategy):
    """Swaps the exposed label for the finder's own proposal."""

    name = "random-replace"

    def pick_witness(self, witnesses):
        return self.rng.choice(witnesses)

    def mutate(self, exposed, finder_label):
        if self.rng.random() < 0.5:
            self.hidden.remove(exposed)
            if finder_label not in self.hidden:
                self.hidden.append(finder_label)


class InsertFinderHider(HiderStrategy):
    """Always exposes, then hoards the finder's proposal in place of a victim."""

    name = "insert-finder"

    def mutate(self, exposed, finder_label):
        victim = self.rng.choice(self.hidden)
        self.hidden.remove(victim)
        if finder_label not in self.hidden:
            self.hidden.append(finder_label)


class MaxIncomparableHider(HiderStrategy):
    """Static hider whose set is a crafted pairwise-incomparable family,
    exposing the least recently exposed witness."""

    name = "max-incomparable"

    def __init__(self, hidden, rng):
        super().__init__(hidden, rng)
        self._last_exposed: dict[Label, int] = {}
        self._clock = 0

    def pick_witness(self, witnesses):
        self._clock += 1
        chosen = min(witnesses, key=lambda w: self._last_exposed.get(w, 0))
        self._last_exposed[chosen] = self._clock
        return chosen


STRATEGIES = {
    cls.name: cls
    for cls in (HiderStrategy, RandomReplaceHider, InsertFinderHider, MaxIncomparableHider)
}


def make_hider(name: str, m: int, rng: random.Random, params: LabelParams) -> HiderStrategy:
    try:
        cls = STRATEGIES[name]
    except KeyError:
        raise GameError(f"unknown hider strategy {name!r}") from None
    if cls is MaxIncomparableHider:
        hidden = incomparable_family(m, params, rng)
    else:
        hidden = [random_label(rng, params) for _ in range(m)]
    return cls(hidden, rng)


def play(
    hider: HiderStrategy,
    m: int,
    seed: int,
    params: LabelParams,
    queue_capacity: Optional[int] = None,
) -> GameResult:
    """Run one game; the finder wins at the first round the hider stays
    silent, and loses if it has not won after 4(m + 1) rounds.

    ``queue_capacity`` (1..k, default 2m) below 2m deliberately cripples the
    finder (negative control).  The finder's queue starts corrupted with
    arbitrary labels.
    """
    if m < 1:
        raise GameError("m must be >= 1")
    capacity = queue_capacity if queue_capacity is not None else 2 * m
    if not 1 <= capacity <= params.k:
        raise GameError(f"queue capacity must be in 1..{params.k}, got {capacity}")
    rng = random.Random(seed)
    queue = EpochsQueue(capacity, params)
    for _ in range(rng.randint(0, capacity)):
        queue.enqueue(random_label(rng, params))

    transcript: list[RoundRecord] = []
    prev: Optional[Label] = None
    response: Optional[Label] = None
    rounds = 4 * (m + 1)
    for rnd in range(1, rounds + 1):
        label = finder_step(queue, prev, response)
        response = hider.respond(label)
        if response is not None and precedes_b(response, label):
            raise GameError("hider exposed a dominated label")
        transcript.append(RoundRecord(rnd, label, response))
        if response is None:
            return GameResult(True, rnd, rnd, transcript)
        prev = label
    return GameResult(False, None, rounds, transcript)
