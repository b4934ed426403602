"""Record the golden digests of the pinned seed.

    python3 perfbench/record_golden.py [workload ...]

Runs every job of every pool round of the pinned seed once, untimed,
refuses to record if any job fails its invariants, and rewrites the given
workloads' entries in perfbench/golden.json.  Goldens are meant to be
recorded once, at the commit whose outputs they pin; a later run that
differs counts as a failed job.
"""

from __future__ import annotations

import importlib
import json
import sys

from harness import GOLDEN_PATH, PINNED_SEED, TableTimer, WORKLOADS, digest, verify
from tracing import NullTracer
from worker import MODULES, execute


def record(workload):
    module = importlib.import_module(MODULES[workload])
    state = module.setup(PINNED_SEED, TableTimer())
    tr = NullTracer()
    outcomes = [execute(module, state, job, tr) for rnd in state.rounds for job in rnd]
    if verify(module, state, outcomes, None):
        bad = [(oc.job.jid, oc.error, oc.problems[:2]) for oc in outcomes if oc.failed]
        raise SystemExit(f"{workload}: {len(bad)} jobs fail their invariants: {bad[:5]}")
    return {"seed": PINNED_SEED,
            "digests": {oc.job.jid: digest(module.canonical(oc.job, oc.output))
                        for oc in outcomes}}


def main(argv):
    names = argv or list(WORKLOADS)
    data = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    for name in names:
        data[name] = record(name)
        print(f"{name}: {len(data[name]['digests'])} digests")
    GOLDEN_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
