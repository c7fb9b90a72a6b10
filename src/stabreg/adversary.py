"""Corrupted starts: the register must recover from any initial configuration.

Each mode takes the ``Simulation`` whose clean processors and empty links
``Simulation.__init__`` has just built, and overwrites them, drawing only
from ``sim.rng``: a run stays a function of (scenario, seed).
``stabreg.sim.PROTOCOLS`` picks each protocol's mode table.  The oracle
protocol has plain sequence numbers and no labels, so it has only the modes
in ``ORACLE_MODES``: ``random`` starts its processors from random sequence
numbers.  The label generators are called through the ``labels`` module,
so that a tool rebinding them there sees these calls.
"""

from __future__ import annotations

from . import labels
from .protocol import QR_RESP, QW_REQ, WRITER_ID, Message
from .timestamps import Timestamp

NONE = "none"


def _random(sim) -> None:
    """Random ml, cl and values, random epochs queued, forged quorum traffic."""
    cfg, rng, procs = sim.config, sim.rng, sim.procs
    lp = sim.params.label_params

    def random_ts() -> Timestamp:
        return Timestamp(labels.random_label(rng, lp), rng.randint(0, cfg.r))

    ml = [random_ts() for _ in procs]
    # drawn for the writer too, which keeps no canceling evidence
    cl = [None if rng.random() < 0.4 else random_ts() for _ in procs]
    for _ in range(rng.randint(0, 4)):
        procs[WRITER_ID].epochs.enqueue(labels.random_label(rng, lp))
    for proc in procs:
        proc.ml = ml[proc.pid]
        proc.value = f"corrupt#{proc.pid}"
        if proc.pid != WRITER_ID:
            proc.cl = cl[proc.pid]
    # forged quorum traffic, up to each link's capacity, under nonce 0,
    # which no phase holds
    for (i, j), box in sorted(sim.links.items()):
        for slot in range(cfg.c):
            if rng.random() < 0.3:
                continue
            ts = random_ts()
            tag = f"forged#{i}.{j}.{slot}"
            if rng.random() < 0.75:
                box.append(Message(QW_REQ, 0, i, j, (ts, tag)))
            else:
                evidence = None if rng.random() < 0.5 else random_ts()
                box.append(Message(QR_RESP, 0, i, j, (ts, evidence, tag)))


def _near_wrap(sim) -> None:
    """Every replica one write short of the sequence-number bound."""
    for proc in sim.procs:
        proc.ml = Timestamp(proc.ml.epoch, sim.config.r)
        proc.value = f"corrupt#{proc.pid}"


def _hidden_epoch(sim) -> None:
    """Links full of forged writes under pairwise incomparable epochs."""
    cfg, rng = sim.config, sim.rng
    lp = sim.params.label_params
    # stings drawn from 1..k sit inside the writer's initial antisting set,
    # keeping the crafted labels incomparable to its epoch too
    family = labels.incomparable_family(
        min(len(sim.links) * cfg.c, lp.k), lp, rng, sting_pool=range(1, lp.k + 1)
    )
    idx = 0
    for (i, j), box in sorted(sim.links.items()):
        for _ in range(cfg.c):
            label = family[idx % len(family)]
            idx += 1
            ts = Timestamp(label, rng.randint(0, cfg.r))
            box.append(Message(QW_REQ, 0, i, j, (ts, f"forged#{idx}")))


def _random_seqs(sim) -> None:
    top = 10 * sim.config.writes + 10
    for proc in sim.procs:
        proc.max_seq = sim.rng.randint(0, top)
        proc.value = f"corrupt#{proc.pid}"


MODES = {
    NONE: lambda sim: None,  # the clean start
    "random": _random,
    "near-wrap": _near_wrap,
    "hidden-epoch": _hidden_epoch,
}


ORACLE_MODES = {NONE: MODES[NONE], "random": _random_seqs}
