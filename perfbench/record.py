"""Record what the benchmark checks against into expected.json: each
workload's exit code and stdout sha256, and the exact counts of a traced run.

    python3 perfbench/record.py

Run it only at a commit whose output is known to be right; the benchmark
counts every later run that differs from these values as failed.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    recorded = {"source_sha256": run.source_sha256(), "workloads": {}}
    for workload, args in run.WORKLOADS.items():
        sample = run.run_process(run.cli_argv(args), workload)
        entry = {
            "exit_code": sample.exit_code,
            "stdout_sha256": sample.stdout_sha256,
            "stdout_bytes": sample.stdout_bytes,
        }
        if workload in run.JOBS_CHECK:
            other = run.run_process(run.cli_argv(run.JOBS_CHECK[workload]), workload)
            if not run.matches(other, entry):
                print(f"{workload}: output differs with another --jobs", file=sys.stderr)
                return 1
        _, trace = run.traced_run(workload)
        entry["counts"] = run.exact_counts(trace)
        recorded["workloads"][workload] = entry
        print(workload, json.dumps(entry), flush=True)
    (run.HERE / "expected.json").write_text(json.dumps(recorded, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
