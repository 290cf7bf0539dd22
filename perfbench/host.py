"""Child processes of the benchmark, the host calibration loop and host facts.

Imports nothing outside the standard library: the untraced run spawns the
timed CLI calls from a process that stays small, because Linux counts the
spawning process's peak RSS into the child's `ru_maxrss`.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time

# A fresh interpreter running the checkout's CLI; the package is not
# installed, and `python -m hpsusp.cli` would add a runpy warning.
CLI = "import sys; from hpsusp.cli import main; sys.exit(main(sys.argv[1:]))"
IMPORT_CLI = "import hpsusp.cli"


def child_env(checkout: str) -> dict:
    """Environment of every child: this checkout's `src`, one BLAS thread."""
    env = dict(os.environ)
    env.update(PYTHONPATH=os.path.join(checkout, "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    return env


def run_python(code: str, args: list, env: dict, cwd: str) -> dict:
    """Run `python -c code args` to completion; wall time, peak RSS, exit code."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code, *args], env=env, cwd=cwd,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    output = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0,
            "cpu_s": usage.ru_utime + usage.ru_stime, "exit": proc.returncode,
            "output": output.decode(errors="replace")[-400:]}


def ref_s() -> float:
    """Wall time of a fixed pure-Python loop; shows host drift, report-only."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return time.perf_counter() - start


def facts() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "machine": platform.machine()}
