"""Record the rows the output check compares against.

    python3 perfbench/record.py [WORKLOAD ...]

Runs every study of the named workloads (default: all) once per disk
offset, seed s standing for offset s, and stores each study's CSV, or the
error it raised, in `reference.json`.  Run it only at a commit whose
answers are trusted; the file records what that commit computed.
"""
from __future__ import annotations

import json
import sys

from run import HERE, spawn_worker
from workloads import N_OFFSETS, WORKLOADS, uses_disk


def main(argv: list[str]) -> int:
    path = HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.exists() else {}
    for workload in argv or list(WORKLOADS):
        entries = {}
        for seed in range(N_OFFSETS if uses_disk(workload) else 1):
            _, out = spawn_worker(workload, seed)
            entries[str(seed)] = [{"csv": s["csv"], "error": s["error"]}
                                  for s in out["studies"]]
            print(workload, seed, [s["error"] or "ok" for s in out["studies"]],
                  flush=True)
        reference[workload] = entries
        path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
