"""Run one command; print its exit code, wall time and its own peak RSS.

Usage: python3 -S launch.py TIMEOUT_S STDOUT_FILE STDERR_FILE -- COMMAND...

A command still running after TIMEOUT_S seconds, or when this launcher
receives SIGTERM, is killed and reported with exit code -9.

A child's ``ru_maxrss`` starts from the RSS of the process that forked
it, so a stage launched straight from the harness (which holds the
generated inputs and, when tracing, the whole in-process pipeline) would
report the harness's memory as its own. This launcher imports only the
standard library and holds nothing, so the peak it reports through
``wait4`` is the stage's.
"""
import json
import os
import signal
import subprocess
import sys
import time


def main() -> int:
    timeout, out_path, err_path, sep, *argv = sys.argv[1:]
    if sep != "--" or not argv:
        print(__doc__, file=sys.stderr)
        return 2
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        for signum in (signal.SIGALRM, signal.SIGTERM):
            signal.signal(signum, lambda *_: child.kill())
        signal.alarm(max(1, int(float(timeout))))
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        signal.alarm(0)
    child.returncode = os.waitstatus_to_exitcode(status)
    json.dump(
        {"returncode": child.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss},
        sys.stdout,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
