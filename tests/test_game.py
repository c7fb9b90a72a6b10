import random

import pytest

from stabreg import game
from stabreg.game import (
    GameError,
    HiderStrategy,
    STRATEGIES,
    finder_step,
    make_hider,
    play,
)
from stabreg.labels import Label, LabelParams, precedes_b, random_label
from stabreg.timestamps import EpochsQueue


def test_strategy_registry():
    assert set(STRATEGIES) == {
        "static", "random-replace", "insert-finder", "max-incomparable"
    }
    with pytest.raises(GameError):
        make_hider("bogus", 2, random.Random(0), LabelParams(4))


def test_finder_step_banks_inputs():
    params = LabelParams(4)
    rng = random.Random(3)
    queue = EpochsQueue(4, params)
    prev = random_label(rng, params)
    witness = random_label(rng, params)
    label = finder_step(queue, prev, witness)
    assert prev in queue and witness in queue
    assert precedes_b(prev, label)
    assert precedes_b(witness, label)


def test_finder_step_first_round_empty_queue():
    params = LabelParams(4)
    queue = EpochsQueue(4, params)
    label = finder_step(queue, None, None)
    assert len(queue) == 0
    label.validate(params)


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_finder_wins_within_bound(strategy, monkeypatch):
    # the proof-sketch induction: after i full rounds, while the 2i labels
    # seen so far are distinct and fit in the queue, the queue front holds
    # exactly the i proposals and i witnesses
    seen = []  # this game's proposals and witnesses
    fronts_checked = 0

    def checked_step(queue, prev_label, response):
        nonlocal fronts_checked
        if prev_label is None:  # a new game's first round
            seen.clear()
        if response is not None:
            seen.extend((prev_label, response))
        label = finder_step(queue, prev_label, response)
        if seen and len(set(seen)) == len(seen) <= queue.capacity:
            assert set(queue.entries[:len(seen)]) == set(seen)
            fronts_checked += 1
        return label

    monkeypatch.setattr(game, "finder_step", checked_step)
    m = 3
    params = LabelParams(2 * m)
    for seed in range(50):
        hider = make_hider(strategy, m, random.Random(seed + 1000), params)
        result = play(hider, m, seed=seed, params=params)
        assert result.won
        assert result.winning_round <= m + 1
    assert fronts_checked > 0


def test_win_means_all_hidden_dominated():
    m = 4
    params = LabelParams(2 * m)
    hider = make_hider("static", m, random.Random(7), params)
    result = play(hider, m, seed=7, params=params)
    assert result.won
    final = result.transcript[-1].finder_label
    for hidden in hider.hidden:
        assert precedes_b(hidden, final)


def test_transcript_shape():
    m = 2
    params = LabelParams(2 * m)
    hider = make_hider("insert-finder", m, random.Random(1), params)
    result = play(hider, m, seed=1, params=params)
    assert result.rounds_played == len(result.transcript)
    rounds = [rec.round for rec in result.transcript]
    assert rounds == list(range(1, result.rounds_played + 1))
    # every response but the last is a genuine witness
    for rec in result.transcript[:-1]:
        assert rec.response is not None
        assert not precedes_b(rec.response, rec.finder_label)
    assert result.transcript[-1].response is None


def test_deterministic_given_seed():
    m = 3
    params = LabelParams(2 * m)
    runs = []
    for _ in range(2):
        hider = make_hider("random-replace", m, random.Random(42), params)
        result = play(hider, m, seed=42, params=params)
        runs.append([(r.finder_label, r.response) for r in result.transcript])
    assert runs[0] == runs[1]


def test_undersized_queue_can_lose():
    # with only m slots the finder forgets witnesses and the crafted
    # incomparable family starves it forever
    m = 6
    params = LabelParams(2 * m)
    losses = 0
    for seed in range(30):
        hider = make_hider("max-incomparable", m, random.Random(seed), params)
        result = play(hider, m, seed=seed, params=params, queue_capacity=m)
        if not result.won or result.winning_round > m + 1:
            losses += 1
    assert losses > 0


def test_max_incomparable_exposes_the_least_recently_exposed_witness():
    # three pairwise-incomparable labels, each one's sting among the others'
    # antistings, and a proposal above none of them: all three are witnesses
    a, b, c = Label(1, (2, 3)), Label(2, (1, 3)), Label(3, (1, 2))
    above_none = Label(4, (5, 6))
    hider = STRATEGIES["max-incomparable"]([a, b, c], random.Random(0))
    assert [hider.respond(above_none) for _ in range(4)] == [a, b, c, a]
    # a proposal above b alone leaves c and a, and c was exposed longer ago
    assert precedes_b(b, Label(4, (2, 5)))
    assert hider.respond(Label(4, (2, 5))) == c


def test_rejects_bad_m():
    with pytest.raises(GameError):
        play(make_hider("static", 1, random.Random(0), LabelParams(2)), 0,
             seed=0, params=LabelParams(2))


def test_play_rejects_a_dominated_witness():
    # the hider first exposes the finder's own proposal (no label is below
    # itself), then each time the previous one, which the finder has banked
    # and so dominates
    class ExposesThePreviousProposal(HiderStrategy):
        def respond(self, finder_label):
            exposed = getattr(self, "previous", finder_label)
            self.previous = finder_label
            return exposed

    hider = ExposesThePreviousProposal([], random.Random(0))
    with pytest.raises(GameError, match="dominated"):
        play(hider, 2, seed=0, params=LabelParams(4))
