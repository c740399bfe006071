#!/usr/bin/env python3
"""Regenerates ``pinned.json``: the sweep-small pins and the rip-cert deltas
for seeds 0..99 and the held-out seed.

    python3 perfbench/pin.py

The benchmark compares each call's output against these values when its
seed is pinned.  Regenerate them only at a commit whose outputs are the
intended reference, and say so in the change description.
"""

from __future__ import annotations

import json
import sys

import run  # caps BLAS threads before numpy is imported

sys.path.insert(0, str(run.SRC))

from workloads import HELD_OUT_SEED, PINNED_PATH, WORKLOADS, sweep_pin  # noqa: E402


def main() -> int:
    sweep, cert = WORKLOADS["sweep-small"], WORKLOADS["rip-cert"]
    pinned = {"sweep-small": {}, "rip-cert": {}}
    for seed in [*range(100), HELD_OUT_SEED]:
        results = sweep.call(sweep.build(seed))
        if any(r.failures for r in results):
            raise SystemExit(f"seed {seed}: sweep trials raised")
        pinned["sweep-small"][str(seed)] = sweep_pin(results)
        d6, d8, _, _ = cert.call(cert.build(seed))
        pinned["rip-cert"][str(seed)] = [d6.delta_exact, d8.delta_lower]
        print(seed, pinned["sweep-small"][str(seed)]["digest"][:12], pinned["rip-cert"][str(seed)],
              flush=True)
    PINNED_PATH.write_text(json.dumps(pinned, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
