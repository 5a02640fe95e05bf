"""Freeze the reference payloads that ``workloads.py`` checks against.

    python3 perfbench/freeze.py

Runs one pass of every workload at seed 0 with the code under ``src/`` and
writes, for each experiment that has a ``ref_key``, the digest of its
payload (header, iteration count and residual stripped) to ``refs.json``.
The references were frozen once from the code the benchmark was written
against; regenerating them from changed code would let a wrong payload pass.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run

run.load_program()
import workloads  # noqa: E402  (needs the package path set up by run)


def main():
    fx = workloads.load_fixtures(with_refs=False)
    refs = {}
    os.makedirs(run.WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(dir=run.WORK_DIR)
    try:
        for name in workloads.WORKLOADS:
            experiments = workloads.prepare(name, 0, fx, os.path.join(work, name))
            pass_dir = tempfile.mkdtemp(dir=work)
            for exp in experiments(pass_dir):
                status, out, err = workloads.invoke(exp.argv)
                if status != 0:
                    sys.exit(f"{exp.key}: exit status {status}: {err}")
                if exp.ref_key is None:
                    continue
                doc = json.loads(out)
                doc.pop("header")
                refs[exp.ref_key] = workloads.digest(doc)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(workloads.REFS_PATH, "w") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(refs)} references to {workloads.REFS_PATH}")


if __name__ == "__main__":
    main()
