"""Record golden.json: digests and verdicts of every workload's golden pass.

    python3 perfbench/golden.py

Run it only when a change alters the traces, metrics or verdicts on
purpose; the benchmark counts every item of a golden pass whose output
differs from golden.json as failed.
"""

from __future__ import annotations

import json
from pathlib import Path

import run
import workloads

KEPT = ("digest", "atomic_from", "winning_round")


def record() -> dict:
    golden = {}
    for name in workloads.NAMES:
        workload = workloads.make(name, run.OUT)
        sr = run.load_stabreg()
        golden_pass = next(workload.passes(0))
        entries = {}
        for item in golden_pass:
            workload.prepare(sr, item)
            reasons = workload.check(sr, item, workload.run(sr, item), {})
            if reasons:
                raise SystemExit(f"{name} {item.key}: {'; '.join(reasons)}")
            entries[item.key] = {k: item.figures[k] for k in KEPT if k in item.figures}
        golden[name] = entries
    return golden


if __name__ == "__main__":
    path = Path(__file__).parent / "golden.json"
    path.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
