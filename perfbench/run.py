"""KG-build benchmark entry point.

    python3 perfbench/run.py --workload cold_papers --seed 1 --seconds 12 --trace 0

Runs ``kgbench.py`` (the measuring process) in a session of its own,
bounds its lifetime, relays its output, and afterwards kills and waits
for every process left in that session (Ray's head and workers
included).  The deadline is the one timeout every build runs under: a
measuring process that overruns it (a hung Ray call, an actor restart
loop) is a failed run, and the result line reports it as such.  A measuring process that
exits with an error before measuring (for example because the engine
package is absent) makes this script exit with the same error and no
result line.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

DEADLINE_S = 170
REAP_TIMEOUT_S = 30


def session_pids(sid: int) -> list[int]:
    """Live (non-zombie) processes whose session id is ``sid``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        state, _ppid, _pgrp, session = stat[stat.rfind(")") + 2:].split()[:4]
        if int(session) == sid and state != "Z":
            pids.append(int(entry))
    return pids


def reap_session(sid: int) -> None:
    deadline = time.monotonic() + REAP_TIMEOUT_S
    while (pids := session_pids(sid)) and time.monotonic() < deadline:
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.2)
    if session_pids(sid):
        print(f"run.py: processes of session {sid} outlived the reap",
              file=sys.stderr)


def run(cmd: list[str], deadline: float) -> int:
    """Run ``cmd`` in a session of its own for at most ``deadline``
    seconds, relay its standard output, reap the session; returns the
    exit code for this script."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=deadline)
        timed_out = False
    except subprocess.TimeoutExpired:
        # kill the session first: a survivor holding the pipe would
        # keep the read below from ever seeing end of file
        reap_session(proc.pid)
        out, _ = proc.communicate()
        timed_out = True
    finally:
        reap_session(proc.pid)
        # what a killed measuring process could not remove (names as in
        # kgbench.py: work dir, Ray temp dir in the checkout or system temp)
        work_root = Path(__file__).resolve().parents[1] / ".bench_run"
        for path in [*work_root.glob(f"*-{proc.pid}"), work_root / f"r{proc.pid}",
                     Path(tempfile.gettempdir()) / f"kgb-ray-{proc.pid}"]:
            shutil.rmtree(path, ignore_errors=True)
    if timed_out:
        # a hung build is a failed run and fails every doc it held
        print(f"run.py: measuring process overran {deadline} s",
              file=sys.stderr)
        print(json.dumps({
            "correct": False, "attempted": 1, "failed": 1,
            "metrics": {"run_pass_share": {"value": 0.0, "unit": "share"},
                        "doc_pass_share": {"value": 0.0, "unit": "share"}}}))
        return 0
    sys.stdout.write(out)
    if proc.returncode != 0 or not out.strip():
        return proc.returncode or 1
    return 0


def main() -> int:
    # a terminated runner still reaps (SystemExit runs run()'s finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    script = Path(__file__).resolve().parent / "kgbench.py"
    return run([sys.executable, str(script), *sys.argv[1:]], DEADLINE_S)


if __name__ == "__main__":
    raise SystemExit(main())
