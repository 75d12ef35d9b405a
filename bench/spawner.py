"""Start the benchmark's child processes from a process that stays small.

At exec, Linux folds the peak RSS of the process a child was forked from into
the child's ``ru_maxrss``. Children started straight from the benchmark would
report the benchmark's own memory (it reads and parses their outputs), so
they are started from here instead: this process imports nothing large and
never grows.

Protocol, one JSON line per request on stdin and per reply on stdout:

    request: [[argv, ...], env, work_dir, timeout_s]
    reply:   [[exit_code, start, end, cpu_s, maxrss_kib], ...]

The argvs of one request run one after the other; child i writes its
stdout and stderr to ``work_dir/stdout{i}`` and ``work_dir/stderr{i}``.
``start`` and ``end`` are ``time.perf_counter()`` readings. A child still
running after ``timeout_s`` is killed. End of input ends the process.
"""

import json
import os
import signal
import sys
import threading
import time

_running: set[int] = set()


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _on_term(signum, frame):
    for pid in list(_running):
        _kill(pid)
    sys.exit(1)


def run(argv: list[str], env: dict, work: str, index: int, timeout_s: float) -> list:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, os.path.join(work, f"stdout{index}"), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, os.path.join(work, f"stderr{index}"), flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    _running.add(pid)
    watchdog = threading.Timer(timeout_s, _kill, (pid,))
    watchdog.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        watchdog.cancel()
        _running.discard(pid)
    end = time.perf_counter()
    return [os.waitstatus_to_exitcode(status), start, end, usage.ru_utime + usage.ru_stime, usage.ru_maxrss]


def main() -> None:
    signal.signal(signal.SIGTERM, _on_term)
    for line in sys.stdin:
        argvs, env, work, timeout_s = json.loads(line)
        replies = [run(argv, env, work, i, timeout_s) for i, argv in enumerate(argvs)]
        sys.stdout.write(json.dumps(replies) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
