#!/usr/bin/env python3
"""Record the reference rows that ``perfbench/run.py`` checks outputs against.

Run from the repository root (takes a few minutes on 2 cores):

    python3 perfbench/make_reference.py

For every workload this runs the aligned design through ``starfd run``
with ``REF_TRIALS`` Monte-Carlo trials and writes the rows to
``perfbench/reference.json``. Closed-form rows do not depend on the trial
count or the seed, so the benchmark compares them to a tight relative
tolerance; MC rows are compared within a few combined standard errors.
Re-record only when a change is meant to move the closed forms or the MC
estimate, and say so where the change is described.
"""

from __future__ import annotations

import json
import sys

from run import HERE, STARFD, WORK, WORKLOADS, csv_rows, run_child, spec_text

REF_TRIALS = 40000
REF_SEED = 2026


def main() -> int:
    out = {"trials": REF_TRIALS, "seed": REF_SEED, "design": "aligned",
           "workloads": {}}
    for name, workload in WORKLOADS.items():
        work = WORK / f"reference-{name}"
        work.mkdir(parents=True, exist_ok=True)
        (work / "spec.txt").write_text(
            spec_text(workload, REF_SEED, designs="aligned",
                      trials=str(REF_TRIALS)), encoding="utf-8")
        run = run_child(STARFD + ["run", "spec.txt"], work, work / "run.log",
                        limit=3600.0)
        if run.code:
            print(f"error: {name}: starfd run exited {run.code}",
                  file=sys.stderr)
            return 1
        text = (work / "out.csv").read_text(encoding="utf-8")
        rows = [{"point": float(row[workload.keys["sweep_variable"]]),
                 "estimator": row["estimator"],
                 "cells": {c: float(v) for c, v in row.items()
                           if c.startswith(("R_", "sum", "stderr_")) and v}}
                for row in csv_rows(text)]
        out["workloads"][name] = rows
        print(f"{name}: {len(rows)} rows in {run.wall:.1f} s")
    (HERE / "reference.json").write_text(json.dumps(out, indent=1) + "\n",
                                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
