"""Run a command from a small process and record the command's peak RSS.

Usage::

    python3 kronbench/spawn.py RUSAGE_JSON|- COMMAND [ARGS...]

Linux carries a process's peak resident set size across ``exec``, so a
command started straight from the benchmark would report at least the
benchmark's own peak.  Started from this small process instead, the
command's ``ru_maxrss`` is its own (or its largest child's, if larger).
Writes ``{"maxrss_kb": ...}`` to ``RUSAGE_JSON`` (unless ``-``) when the
command exits, and exits with its code.  Start it in a session of its
own, so killing the group stops the command too.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    proc = subprocess.Popen(argv)
    _pid, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if out != "-":
        with open(out, "w") as fh:
            json.dump({"maxrss_kb": usage.ru_maxrss}, fh)
    return proc.returncode if proc.returncode >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
