"""Record stdout digests of every job for the committed seeds.

    python3 bench/record_digests.py

Runs each deck once, refuses to record if any job fails its check, and
writes bench/digests.json.  Later runs on these seeds count any byte
change in a job's stdout as a failure.
"""

from __future__ import annotations

import json
import shutil
import sys

import decks
import run
import runner

SEEDS = range(8)


def main():
    mods = run.load_program()
    table = {}
    for workload in decks.WORKLOADS:
        table[workload] = {}
        for seed in SEEDS:
            deck = decks.build(workload, seed)
            workdir = run.OUT / f"record-{workload}-{seed}"
            state, parts = {}, []
            try:
                run.write_inputs(deck, workdir)
                for job in deck:
                    res = runner.run(mods, job)
                    problems = run.judge(job, res, state, None)
                    if problems:
                        run.report_problems(job, problems)
                        return 1
                    parts.append(run.digest(res["out"]))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            table[workload][str(seed)] = "".join(parts)
            print(f"{workload} seed {seed}: {len(deck)} jobs", flush=True)
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
