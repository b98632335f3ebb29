#!/usr/bin/env python3
"""Interrupts a traced `pbw-campaign run` with jobs in flight.

    trace_interrupt.py <pbw-campaign> <work-dir>

The run sorts at p = 2048 for eight seeds on two threads, with --trace and
--trace-dir.  It gets one SIGINT as soon as the first --trace-dir stream
appears, so one job has finished, two are in flight and the rest never
start.  The run must exit 130.  Every committed row's job must then be in
the --trace file, run for run as its --trace-dir stream holds it, even
the jobs that finished after the first signal's flush; and the file must
parse: JSON on every line, run ids 0, 1, ... in file order, and each run
closed by its run_end.  Exits 0 when all of that holds.
"""

import glob
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

SPEC = """\
[sweep]
scenario = table1.sorting
p = 2048
seeds = 1, 2, 3, 4, 5, 6, 7, 8
"""


def sanitize(key):
    """The --trace-dir file name of a job's base key."""
    return re.sub(r"[^A-Za-z0-9.-]", "_", key) + ".jsonl"


def records(path):
    """A trace file's records, each without its run id."""
    out = []
    with open(path, encoding="utf-8") as f:
        for number, line in enumerate(f, 1):
            try:
                record = json.loads(line)
            except ValueError as e:
                sys.exit(f"{path}:{number}: not JSON: {e}")
            out.append(record)
    return out


def strip_run(record):
    return {k: v for k, v in record.items() if k != "run"}


def main():
    binary, work = sys.argv[1], sys.argv[2]
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    with open(os.path.join(work, "sort.spec"), "w", encoding="utf-8") as f:
        f.write(SPEC)
    cmd = [binary, "run", "sort.spec", "--out=rows.jsonl", "--threads=2",
           "--trace=trace.jsonl", "--trace-dir=td", "--quiet"]
    proc = subprocess.Popen(cmd, cwd=work, stdout=subprocess.DEVNULL)
    deadline = time.monotonic() + 120
    while not glob.glob(os.path.join(work, "td", "*.jsonl")):
        if proc.poll() is not None:
            sys.exit(f"run exited {proc.returncode} before any job finished")
        if time.monotonic() > deadline:
            proc.kill()
            sys.exit("no --trace-dir stream within 120 s")
        time.sleep(0.002)
    proc.send_signal(signal.SIGINT)
    if proc.wait(timeout=120) != 130:
        sys.exit(f"interrupted run exited {proc.returncode}, expected 130")

    traced = records(os.path.join(work, "trace.jsonl"))
    open_run = None
    next_id = 0
    for number, record in enumerate(traced, 1):
        kind, run = record.get("type"), record.get("run")
        if kind == "run":
            if open_run is not None or run != next_id:
                sys.exit(f"trace.jsonl:{number}: run {run} opens out of order")
            open_run, next_id = run, next_id + 1
        elif run != open_run:
            sys.exit(f"trace.jsonl:{number}: {kind} record outside its run")
        elif kind == "run_end":
            open_run = None
    if open_run is not None:
        sys.exit(f"trace.jsonl: run {open_run} has no run_end")
    traced = [strip_run(r) for r in traced]

    with open(os.path.join(work, "rows.jsonl"), encoding="utf-8") as f:
        keys = [json.loads(line)["key"] for line in f]
    if not keys:
        sys.exit("the interrupted run committed no row")
    for key in keys:
        base = key.rsplit("|git=", 1)[0]
        stream = [strip_run(r) for r in
                  records(os.path.join(work, "td", sanitize(base)))]
        found = any(traced[i:i + len(stream)] == stream
                    for i in range(len(traced) - len(stream) + 1))
        if not stream or not found:
            sys.exit(f"committed job {base} is missing from trace.jsonl")
    print(f"{len(keys)} committed jobs, all in trace.jsonl "
          f"({next_id} runs, {len(traced)} records)")


if __name__ == "__main__":
    main()
