"""Job launcher for run.py: runs one command at a time, reports its usage.

    python3 spawner.py   (reads requests on stdin, one JSON object a line)

Request: {"argv": [...], "stdout": path, "stderr": path, "timeout": s}.
Reply:   {"wall": s, "cpu": s, "maxrss_kb": kb, "status": code, "timed_out": b}.

On Linux a child's peak-RSS count starts at the resident size of the
process that spawned it.  The benchmark client grows as it parses job
output, so it hands spawning to this process, which stays smaller than any
job.  Wall time runs from spawn to reap; CPU time and peak RSS come from
`os.wait4` on the job's own pid.
"""

import json
import os
import signal
import sys
import time


class Timeout(Exception):
    pass


def _raise(exc):
    def handler(signum, frame):
        raise exc
    return handler


def run(req: dict) -> dict:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, req["stdout"], flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, req["stderr"], flags, 0o644),
    ]
    timed_out, res = False, None
    t0 = time.perf_counter()
    pid = os.posix_spawn(req["argv"][0], req["argv"], os.environ,
                         file_actions=actions)
    signal.setitimer(signal.ITIMER_REAL, max(req["timeout"], 0.01))
    try:
        res = os.wait4(pid, 0)
    except Timeout:
        timed_out = True
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if res is None:          # timed out or interrupted: stop the job
            os.kill(pid, signal.SIGKILL)
            res = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    _, status, usage = res
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "status": os.waitstatus_to_exitcode(status),
        "timed_out": timed_out,
    }


def main() -> int:
    signal.signal(signal.SIGALRM, _raise(Timeout))
    signal.signal(signal.SIGTERM, _raise(SystemExit(143)))
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
