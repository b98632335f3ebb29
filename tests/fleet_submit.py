#!/usr/bin/env python3
"""Drives the fleet quickstart: `serve`, one `worker`, `submit --wait --out`.

    fleet_submit.py <pbw-campaign> <work-dir>

Starts a coordinator on a free port (read from its stderr line), one
worker, and `submit <spec> --wait --out=F`.  F's rows, sorted, must equal
a local `run` of the same spec; the worker must exit 0 once the fleet
drains, and the coordinator's access log must list the requests.  Every
flag `serve`, `worker` and `submit` keep is passed once.  Exits 0 when
all of that holds.
"""

import os
import re
import shutil
import signal
import subprocess
import sys
import time

SPEC = """\
[sweep]
scenario = grid.pattern
pattern = ring, random
p = 16, 32
h = 2
rounds = 2
model = bsp-m
g = 2, 8
L = 4, 16
seeds = 1, 2
"""


def sorted_rows(path):
    with open(path, encoding="utf-8") as f:
        return sorted(line for line in f.read().splitlines() if line)


def main():
    binary, work = sys.argv[1], sys.argv[2]
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "coord"))
    spec = os.path.join(work, "fleet.spec")
    with open(spec, "w", encoding="utf-8") as f:
        f.write(SPEC)
    coord_log = os.path.join(work, "coord.log")
    access_log = os.path.join(work, "access.jsonl")
    merged = os.path.join(work, "merged.jsonl")
    local = os.path.join(work, "local.jsonl")

    with open(coord_log, "wb") as log:
        coord = subprocess.Popen(
            [binary, "serve", "--serve-port=0", "--serve-bind=127.0.0.1",
             f"--out-dir={os.path.join(work, 'coord')}", "--lease-seconds=5",
             f"--access-log={access_log}"],
            stdout=subprocess.DEVNULL, stderr=log)
    worker = None
    try:
        port = None
        deadline = time.monotonic() + 10
        while port is None and time.monotonic() < deadline:
            with open(coord_log, encoding="utf-8") as f:
                m = re.search(r"coordinator on http://[0-9.]+:(\d+)", f.read())
            if m:
                port = int(m.group(1))
            elif coord.poll() is not None:
                sys.exit(f"serve exited {coord.returncode}")
            else:
                time.sleep(0.01)
        if port is None:
            sys.exit("serve announced no port")
        endpoint = f"--coordinator=127.0.0.1:{port}"

        worker = subprocess.Popen(
            [binary, "worker", endpoint, "--worker-id=solo",
             "--poll-seconds=0.05"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        submit = subprocess.run(
            [binary, "submit", spec, endpoint, "--wait", f"--out={merged}",
             "--poll-seconds=0.05"],
            capture_output=True, text=True, timeout=60)
        if submit.returncode != 0:
            sys.exit(f"submit exited {submit.returncode}: {submit.stderr}")
        if worker.wait(timeout=20) != 0:
            sys.exit(f"worker exited {worker.returncode}")
    finally:
        if worker is not None and worker.poll() is None:
            worker.kill()
            worker.wait()
        coord.send_signal(signal.SIGTERM)
        coord.wait(timeout=20)

    run = subprocess.run(
        [binary, "run", spec, f"--out={local}", "--threads=2", "--quiet"],
        capture_output=True, text=True, timeout=60)
    if run.returncode != 0:
        sys.exit(f"run exited {run.returncode}: {run.stderr}")
    want = sorted_rows(local)
    got = sorted_rows(merged)
    if len(want) != 32:
        sys.exit(f"the local run recorded {len(want)} rows, not 32")
    if got != want:
        sys.exit(f"the merged rows ({len(got)}) differ from the local run's")
    with open(access_log, encoding="utf-8") as f:
        if not any('"/submit"' in line for line in f):
            sys.exit("the access log lists no /submit")


if __name__ == "__main__":
    main()
