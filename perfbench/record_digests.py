#!/usr/bin/env python3
"""Record the sha256 of every benchmark operation's canonical JSON output.

    python3 perfbench/record_digests.py

Runs each workload's operations once, in the seed-0 order (cold
operations one interpreter each, the session in one interpreter), and
writes perfbench/digests.json.  An output is recorded only if the
operation exits 0 and passes its second-route check; otherwise nothing is
written and the script exits 1.  Rerun it only on purpose, when an output
is meant to change.
"""

import json
import sys

from run import DIGESTS, SRC, WORKLOADS, canonical_sha256, make_ops, op_key, run_pass, second_route


def main():
    sys.path.insert(0, str(SRC))
    digests, failed = {}, False
    for workload in WORKLOADS:
        records, _, _, _ = run_pass(workload, make_ops(workload, 0), trace=False)
        for record in records:
            key = op_key(record["argv"])
            if "crash" in record or record["code"] != 0:
                print(f"FAILED {key}: {record.get('crash') or record['stderr'].strip()}")
                failed = True
                continue
            failure = second_route(record["argv"], json.loads(record["stdout"]))
            if failure is not None:
                print(f"FAILED {key}: {failure}")
                failed = True
                continue
            digests[key] = canonical_sha256(record["stdout"])
    if failed:
        return 1
    DIGESTS.write_text(json.dumps(dict(sorted(digests.items())), indent=1) + "\n")
    print(f"recorded {len(digests)} digests in {DIGESTS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
