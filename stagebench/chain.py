"""Run the ganfs stage chain through its command line, one process per stage.

Closed loop with one client: a stage starts only after the previous one
has exited, as the run-directory lock requires anyway. Each stage is
timed from launch to exit and its peak RSS is read from the child's
rusage.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

# Pinned in every child before numpy loads; the CLI's --threads flag is
# applied too late to have an effect.
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(root):
    env = dict(os.environ)
    env.pop("GANFS_CONFIG", None)
    src = str(Path(root) / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    for var in THREAD_VARS:
        env[var] = str(THREADS)
    return env


def cli(*args):
    """argv that runs the ganfs CLI with this interpreter.

    ``sys.executable`` avoids the start-up cost of a version-manager shim.
    """
    return [sys.executable, "-m", "ganfs.cli", *args]


@dataclass
class Launch:
    label: str
    seconds: float
    returncode: int
    maxrss_mib: float
    start: float
    end: float


def launch(label, argv, env, log_path, deadline):
    """Run one child to completion; kill it if it outlives ``deadline``
    (a ``time.monotonic`` value)."""
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT, env=env)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()),
                                proc.send_signal, (signal.SIGKILL,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Launch(label, end - start, proc.returncode,
                  usage.ru_maxrss / 1024.0, start, end)


def run_chain(stages, global_args, env, log_path, deadline):
    """Launch every (label, args) stage in order; returns the launches.

    A stage that fails does not stop the chain: later stages then fail
    on missing inputs, and every failure is counted.
    """
    return [launch(label, cli(*global_args, *args), env, log_path, deadline)
            for label, args in stages]
