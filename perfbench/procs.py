"""Child processes that are always waited for.

A `Children` object owns every process the benchmark starts.  `wait` reads
the child's own resource usage (peak RSS) through wait4, and a child that
passes its time limit is killed and reaped.  `kill_all` ends whatever is
still running, together with the process group a child leads.
"""

import os
import select
import signal
import subprocess
import time


class Children:
    def __init__(self):
        self.live = set()

    def start(self, args, **popen):
        proc = subprocess.Popen(args, **popen)
        proc.pidfd = os.pidfd_open(proc.pid)
        proc.leads_group = bool(popen.get("start_new_session"))
        self.live.add(proc)
        return proc

    def wait(self, proc, timeout):
        """(exit code, peak RSS in KiB), or (None, 0) when the time limit
        passed; the child is reaped either way."""
        ready, _, _ = select.select([proc.pidfd], [], [], timeout)
        if not ready:
            self._kill(proc)
            self._reap(proc)
            return None, 0
        return self._reap(proc)

    def _reap(self, proc):
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        os.close(proc.pidfd)
        self.live.discard(proc)
        return proc.returncode, usage.ru_maxrss

    @staticmethod
    def _kill(proc, grace=2.0):
        """SIGKILL; a group leader first gets SIGTERM, sent to its whole
        group, and `grace` seconds to clean up after itself."""
        try:
            if not proc.leads_group:
                proc.kill()
                return
            os.killpg(proc.pid, signal.SIGTERM)
            ready, _, _ = select.select([proc.pidfd], [], [], grace)
            if not ready:
                os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def kill_all(self):
        for proc in list(self.live):
            self._kill(proc)
            self._reap(proc)
            if proc.leads_group:
                _wait_group_gone(proc.pid)


def _wait_group_gone(pgid, limit=5.0):
    """Wait until no process of the group is left (its orphans are reaped
    by init)."""
    deadline = time.monotonic() + limit
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)
