"""Golden trace hashes: each (scenario, seed) run must stay byte-identical.

Every case hashes the trace lines and the metrics JSON of one
``run_scenario`` call.  A change that alters the RNG call order, an event,
or a metric breaks a hash; refresh them only when that change is meant.

The module runs without pytest too (``PYTHONPATH=src python
tests/test_golden_traces.py``), so it can check interpreters that have no
test dependencies installed.  The scheduler draws only through
``random()`` and ``getrandbits``, the latter via ``sim._below``; only a
corrupted start still goes through ``random``'s pure-Python ``randint`` and
``sample``.
"""

import hashlib
import json

from stabreg.sim import ScenarioConfig, run_scenario

# (name, config keywords, audit, sha256 of the lines and the metrics)
CASES = [
    ("clean-n5-c3",
     dict(n=5, seed=11, steps=100_000, writes=150, c=3),
     False,
     "e52700e59cd74c3f1ba72be9cac004b0fdd1871102077d292b3316cb5b2fd07e"),
    ("random-n3",
     dict(n=3, seed=12, steps=60_000, writes=40, r=4, corruption="random"),
     False,
     "9350441483bb858ed8fe1eb3394543f3b08b16210f4b51fd397c64687d36444f"),
    ("near-wrap-n7",
     dict(n=7, seed=13, steps=60_000, writes=25, r=3, corruption="near-wrap"),
     False,
     "b90dfde0a0b1fa11f9b6da4f4aead077abc3cbe0950242dd7879cd08d945d39e"),
    ("hidden-epoch-n5-c2",
     dict(n=5, seed=14, steps=60_000, writes=30, c=2, r=2,
          corruption="hidden-epoch"),
     False,
     "5caf2f3909996a43188b0304fad1cb037398685a4d9655f8a749da54a2ec9ed2"),
    ("oracle-random-n5",
     dict(n=5, seed=15, steps=60_000, writes=40, protocol="oracle",
          corruption="random"),
     False,
     "fbd9ce22a9486f252ef70496ec91d876ff546d499df33f7a729fc82b84a54e7c"),
    ("oracle-clean-n3",
     dict(n=3, seed=16, steps=60_000, writes=40, protocol="oracle"),
     False,
     "e0cafb82fcba971efcd89ad50623453261f2987b16b0568744d6248dbf4d9e33"),
    ("lossy-crash-n5",
     dict(n=5, seed=17, steps=100_000, writes=100, loss_prob=0.1,
          crashes=[(300, 3), (1200, 1)]),
     False,
     "36d66d2c25a657c9372e254356816c6255616933d0628c0a34a6b51f1d2a3031"),
    ("audit-lossy-crash-n7",
     dict(n=7, seed=18, steps=80_000, writes=20, c=2, loss_prob=0.1,
          corruption="random", crashes=[(500, 6)]),
     True,
     "6ccf3418ae9e99c2fe83ee7b8e1fc1e2f47f598ea935e5c899ab694553b0b07e"),
]


def run_digest(config_kwargs: dict, audit: bool) -> str:
    lines, metrics = run_scenario(ScenarioConfig(**config_kwargs), audit=audit)
    blob = "\n".join(lines) + "\n" + json.dumps(metrics, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def test_golden_traces():
    for name, config_kwargs, audit, digest in CASES:
        assert run_digest(config_kwargs, audit) == digest, name


if __name__ == "__main__":
    for name, config_kwargs, audit, digest in CASES:
        got = run_digest(config_kwargs, audit)
        print(f"{'ok  ' if got == digest else 'FAIL'} {name} {got}")
        assert got == digest, name
