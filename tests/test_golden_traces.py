"""Golden trace hashes: each (scenario, seed) run must stay byte-identical.

Every case hashes the trace lines and the metrics JSON of one
``run_scenario`` call.  A change that alters the RNG call order, an event,
or a metric breaks a hash; refresh them only when that change is meant.
A second hash per case covers the labels at the end of the run, which the
trace does not show: the writer's ``ml`` and epochs queue, each reader's
``ml`` and ``cl`` (the oracle protocol's sequence numbers instead).  A
change to how labels are built can keep every trace and still break it.

The module runs without pytest too (``PYTHONPATH=src python
tests/test_golden_traces.py``), so it can check interpreters that have no
test dependencies installed.  The scheduler draws only through
``random()`` and ``getrandbits``, the latter in ``random``'s own rejection
loop: written out in ``Simulation.run`` for the round shuffle, the pick of a
nonempty link and the pick of a message, and through ``sim._below`` for an
eviction and the link of a possibly null receive.  Only a corrupted start
still goes through ``random``'s pure-Python ``randint`` and ``sample``.
Event lines are written from a template to the bytes ``json.dumps`` gives
with sorted keys, so these hashes also hold the template to the encoder.

The grid adds one hash over many short runs, so that a speed-up is held to
every path a run can take and not only to the eight cases: both protocols
under every corruption mode each accepts, n = 3, 5 and 7, lossless and
lossy links, with and without a crash, a third of them audited.
"""

import hashlib
import json

from stabreg.labels import format_label
from stabreg.sim import PROTOCOLS, ScenarioConfig, Simulation, run_scenario
from stabreg.timestamps import format_timestamp

# (name, config keywords, audit, sha256 of the lines and the metrics,
#  sha256 of the final label state)
CASES = [
    ("clean-n5-c3",
     dict(n=5, seed=11, steps=100_000, writes=150, c=3),
     False,
     "e52700e59cd74c3f1ba72be9cac004b0fdd1871102077d292b3316cb5b2fd07e",
     "c9f4d10618136d0dfba74df7cf21760bf91f728d667b6db9761adb8942a869bd"),
    ("random-n3",
     dict(n=3, seed=12, steps=60_000, writes=40, r=4, corruption="random"),
     False,
     "9350441483bb858ed8fe1eb3394543f3b08b16210f4b51fd397c64687d36444f",
     "72032f420a39bea10eda4bb172d5f0edbb436a26757b93694995ec475574971e"),
    ("near-wrap-n7",
     dict(n=7, seed=13, steps=60_000, writes=25, r=3, corruption="near-wrap"),
     False,
     "b90dfde0a0b1fa11f9b6da4f4aead077abc3cbe0950242dd7879cd08d945d39e",
     "481abcfa2d5acebe72550cc9905e043f927322467d06d22dc14deade8714d978"),
    ("hidden-epoch-n5-c2",
     dict(n=5, seed=14, steps=60_000, writes=30, c=2, r=2,
          corruption="hidden-epoch"),
     False,
     "5caf2f3909996a43188b0304fad1cb037398685a4d9655f8a749da54a2ec9ed2",
     "4764545712b6e9e65df934373ffd29e6fce248f017d1dc55985b01c9aafb1177"),
    ("oracle-random-n5",
     dict(n=5, seed=15, steps=60_000, writes=40, protocol="oracle",
          corruption="random"),
     False,
     "fbd9ce22a9486f252ef70496ec91d876ff546d499df33f7a729fc82b84a54e7c",
     "1daa1e90df1d0ab7469fce880121d330cc5fa8dd68bd721e28e2aed2e91cffc9"),
    ("oracle-clean-n3",
     dict(n=3, seed=16, steps=60_000, writes=40, protocol="oracle"),
     False,
     "e0cafb82fcba971efcd89ad50623453261f2987b16b0568744d6248dbf4d9e33",
     "2283a318a151424525ce0992c23d92805e3c334268b04621ccd5db89100f8ecf"),
    ("lossy-crash-n5",
     dict(n=5, seed=17, steps=100_000, writes=100, loss_prob=0.1,
          crashes=[(300, 3), (1200, 1)]),
     False,
     "36d66d2c25a657c9372e254356816c6255616933d0628c0a34a6b51f1d2a3031",
     "8caafa3b985a3f957645b996c971ba8a626f24b0618cc24976bcef98174f9e7c"),
    ("audit-lossy-crash-n7",
     dict(n=7, seed=18, steps=80_000, writes=20, c=2, loss_prob=0.1,
          corruption="random", crashes=[(500, 6)]),
     True,
     "6ccf3418ae9e99c2fe83ee7b8e1fc1e2f47f598ea935e5c899ab694553b0b07e",
     "5e21fa2c276edadc40f0e0c885b49dffd011e91cc3d0a7ce2e7347e98ec43925"),
]


# sha256 of the lines, the metrics and the final labels of every GRID run
GRID_DIGEST = "482e807415e1be9a9e727f270d1cbb7cf939ed3204c8ec395e42b287c0381464"


def grid():
    """(config keywords, audit) of each grid run, in hash order."""
    runs = []
    for protocol, modes in sorted((name, sorted(spec[2])) for name, spec in PROTOCOLS.items()):
        for corruption in modes:
            for n in (3, 5, 7):
                for loss_prob in (0.0, 0.1):
                    for crashes in ([], [(40, n - 1)]):
                        index = len(runs)
                        runs.append((dict(n=n, seed=100 + index, steps=4000, writes=8,
                                          c=1 + index % 2, r=2, loss_prob=loss_prob,
                                          corruption=corruption, protocol=protocol,
                                          crashes=crashes),
                                     index % 3 == 0))
    return runs


def grid_digest() -> str:
    h = hashlib.sha256()
    for config_kwargs, audit in grid():
        sim = Simulation(ScenarioConfig(**config_kwargs), audit=audit)
        metrics = sim.run()
        blob = "\n".join([*sim.lines, json.dumps(metrics, sort_keys=True),
                          *final_labels(sim)]) + "\n"
        h.update(blob.encode())
    return h.hexdigest()


def run_digest(config_kwargs: dict, audit: bool) -> str:
    lines, metrics = run_scenario(ScenarioConfig(**config_kwargs), audit=audit)
    blob = "\n".join(lines) + "\n" + json.dumps(metrics, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def final_labels(sim: Simulation) -> list[str]:
    """Every processor's timestamps, and the writer's epochs newest first."""
    lines = []
    for proc in sim.procs:
        if hasattr(proc, "max_seq"):  # the oracle protocol has no labels
            lines.append(f"{proc.pid} seq {proc.max_seq}")
            continue
        lines.append(f"{proc.pid} ml {format_timestamp(proc.ml)}")
        if hasattr(proc, "epochs"):
            lines += [f"{proc.pid} epoch {format_label(label)}"
                      for label in proc.epochs.entries]
        else:
            lines.append(f"{proc.pid} cl {format_timestamp(proc.cl)}")
    return lines


def label_digest(config_kwargs: dict, audit: bool) -> str:
    sim = Simulation(ScenarioConfig(**config_kwargs), audit=audit)
    sim.run()
    blob = "\n".join(final_labels(sim))
    return hashlib.sha256(blob.encode()).hexdigest()


def test_golden_traces():
    for name, config_kwargs, audit, digest, _labels in CASES:
        assert run_digest(config_kwargs, audit) == digest, name


def test_golden_labels():
    for name, config_kwargs, audit, _digest, labels in CASES:
        assert label_digest(config_kwargs, audit) == labels, name


def test_golden_grid():
    assert grid_digest() == GRID_DIGEST


if __name__ == "__main__":
    for name, config_kwargs, audit, digest, labels in CASES:
        got = run_digest(config_kwargs, audit), label_digest(config_kwargs, audit)
        ok = got == (digest, labels)
        print(f"{'ok  ' if ok else 'FAIL'} {name} {got[0]} labels {got[1]}")
        assert ok, name
    got = grid_digest()
    print(f"{'ok  ' if got == GRID_DIGEST else 'FAIL'} grid {got}")
    assert got == GRID_DIGEST, "grid"
