"""Small helper process that starts each request and reaps it with wait4.

    python3 -I -S bench/spawner.py

A child's peak RSS as reported by wait4 includes the memory of the process
that spawned it (its pages count until exec replaces them).  Spawning from
the benchmark process itself would add its own size to every request, so
requests are spawned from here instead: this process imports nothing but
``os``, ``select`` and ``time`` and stays far below the smallest request.

Protocol, one line per request on stdin, fields separated by NUL:
stdout path, stderr path, timeout in seconds, then the argv.  Answer, one
line on stdout: exit code, 1 if timed out else 0, wall seconds from spawn to
exit, peak RSS in KiB.  Requests run in the working directory and
environment this process was started with.
"""

import os
import select
import sys
import time


def run(stdout_path, stderr_path, timeout, argv):
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    try:
        pidfd = os.pidfd_open(pid)
        try:
            timed_out = not select.select([pidfd], [], [], timeout)[0]
        finally:
            os.close(pidfd)
        if timed_out:
            os.kill(pid, 9)
    finally:
        _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), timed_out, wall, usage.ru_maxrss


def main():
    for line in sys.stdin:
        stdout_path, stderr_path, timeout, *argv = line.rstrip("\n").split("\0")
        rc, timed_out, wall, maxrss = run(stdout_path, stderr_path, float(timeout), argv)
        sys.stdout.write(f"{rc} {int(timed_out)} {wall!r} {maxrss}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
