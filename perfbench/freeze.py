"""Write expected.json: every item's output, as the current sources give it.

    python3 perfbench/freeze.py

The stored file was made once, at the commit that added the benchmark;
the runner fails any item whose output differs from it.  Re-freezing
accepts the current outputs as correct, so it belongs only in a change
that means to alter a verdict, and that change must say so.
"""

from __future__ import annotations

import json
import sys

from run import EXPECTED, Worker
from workloads import WORKLOADS, key


def dumps(frozen: dict) -> str:
    """One item per line, so a changed verdict shows as a one-line diff."""
    blocks = []
    for workload in sorted(frozen):
        lines = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(frozen[workload].items())]
        blocks.append(f" {json.dumps(workload)}: {{\n" + ",\n".join(lines) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main() -> int:
    frozen = {}
    for workload, pairs in WORKLOADS.items():
        worker = Worker(workload, seed=0)
        try:
            outputs = {}
            for item in pairs:
                reply = worker.request(item=item)
                if "error" in reply:
                    raise SystemExit(f"{workload} {key(item)}: {reply['error']}")
                outputs[key(item)] = reply["output"]
            worker.finish()
        finally:
            worker.kill()
        frozen[workload] = outputs
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        fh.write(dumps(frozen))
    return 0


if __name__ == "__main__":
    sys.exit(main())
