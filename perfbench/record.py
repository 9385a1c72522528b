"""Record the expected stable-body hashes of every workload config.

    python3 perfbench/record.py

Runs each config once at the default seed and writes ``expected.json``.
The benchmark's correctness gate compares every report against these
hashes, so record them only from a commit whose reports are known good.
"""

import json
import sys

from run import import_cli
from workloads import DEFAULT_SEED, EXPECTED_PATH, WORKLOADS, body_sha256, config_docs


def main():
    cli = import_cli()
    hashes = {}
    for workload in WORKLOADS:
        hashes[workload] = []
        for doc in config_docs(workload, DEFAULT_SEED):
            report, _code = cli.run(cli.RunConfig.from_dict(doc))
            hashes[workload].append(body_sha256(report, cli.stable_body))
            print(workload, doc["model"], doc["caps"], hashes[workload][-1])
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump({"seed": DEFAULT_SEED, "sha256": hashes}, fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
