#!/usr/bin/env python3
"""SIGKILLs `pbw-campaign run` at seeded delays and resumes each time.

    kill_resume.py <pbw-campaign> <work-dir> [kills] [seed]

An uninterrupted run of a small multi-shard spec gives the reference rows
and wall time.  Each of `kills` (default 20) trials then starts a fresh
run, SIGKILLs it after a seeded fraction of that wall time, and resumes it
with a second run of the same command.  The resumed results must equal the
reference's line for line once sorted (one binary, so the git field
matches too), and every manifest key must have exactly one row.  Exits 0
when every trial passes.
"""

import json
import os
import random
import subprocess
import sys
import time

SPEC = """\
[sweep]
scenario = grid.pattern
pattern = ring, random
p = 256
h = 4
rounds = 4
model = bsp-g, bsp-m
g = 2, 8
m = 8, 32
seeds = 1, 2, 3, 4
[sweep]
scenario = table1.broadcast
family = bsp, qsm
p = 256, 512
g = 4
L = 4, 16
seeds = 1, 2, 3
[sweep]
scenario = contour.map
pattern = random
p = 256
g_cells = 32
m_cells = 32
seeds = 1, 2, 3, 4
"""


def read_lines(path):
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as f:
        return f.read().splitlines()


def main():
    binary, work = sys.argv[1], sys.argv[2]
    kills = int(sys.argv[3]) if len(sys.argv) > 3 else 20
    rng = random.Random(int(sys.argv[4]) if len(sys.argv) > 4 else 1)
    os.makedirs(work, exist_ok=True)
    spec = os.path.join(work, "kill.spec")
    with open(spec, "w", encoding="utf-8") as f:
        f.write(SPEC)
    out = os.path.join(work, "kill.jsonl")
    cmd = [binary, "run", spec, f"--out={out}", "--threads=2", "--quiet"]

    def fresh():
        for path in (out, out + ".manifest"):
            if os.path.exists(path):
                os.remove(path)

    def run(kill_after=None):
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
        if kill_after is not None:
            time.sleep(kill_after)
            proc.kill()
        proc.wait()
        if kill_after is None and proc.returncode != 0:
            sys.exit(f"{' '.join(cmd)} exited {proc.returncode}")

    t0 = time.perf_counter()
    fresh()
    run()
    wall = time.perf_counter() - t0
    reference = sorted(read_lines(out))

    failures = 0
    for trial in range(kills):
        delay = rng.uniform(0.0, 1.0) * wall
        fresh()
        run(kill_after=delay)
        on_disk = len(read_lines(out + ".manifest"))
        run()
        rows = read_lines(out)
        keys = read_lines(out + ".manifest")
        row_keys = [json.loads(line)["key"] for line in rows]
        problems = []
        if sorted(rows) != reference:
            problems.append(f"{len(rows)} rows differ from the reference's {len(reference)}")
        if sorted(row_keys) != sorted(keys) or len(set(keys)) != len(keys):
            problems.append(f"{len(keys)} keys do not pair one to one with {len(rows)} rows")
        print(f"kill {trial} at {delay * 1e3:.1f} ms: {on_disk} keys on disk, "
              f"{len(rows)} after resume" + "".join(f"; FAILED: {p}" for p in problems))
        failures += bool(problems)
    print(f"{kills - failures} of {kills} kills resumed to the reference rows "
          f"in {time.perf_counter() - t0:.2f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
