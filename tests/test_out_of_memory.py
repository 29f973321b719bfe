"""Running out of memory ends with exit 3 and one line on stderr.

Each run limits the address space of its child process only
(``RLIMIT_AS``), at sizes above the child's own start-up peak, so the
limits mean the same on any build of the interpreter.  ``check`` of the
qc5 manifest needs about 30 MB more than start-up on CPython 3.11; the
tighter limits stop it at different points of loading and exploration.
"""

import os
import subprocess
import sys

import pytest

from conftest import ROOT

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc/self/status"
)
resource = pytest.importorskip("resource")

ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
MB = 1 << 20
PEAK = "print(next(l.split()[1] for l in open('/proc/self/status') if l.startswith('VmPeak')))"


def start_up_peak() -> int:
    """The address space of a child that has imported the command line, in bytes."""
    probe = subprocess.run(
        [sys.executable, "-c", f"import seb.cli; {PEAK}"],
        env=ENV, capture_output=True, text=True, check=True, timeout=30,
    )
    return int(probe.stdout) * 1024


def check_qc5_within(limit: int) -> subprocess.CompletedProcess:
    def limit_the_child():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, "-m", "seb", "check", "fixtures/qc5/deployed.cfg"],
        cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=30,
        preexec_fn=limit_the_child,
    )


def test_running_out_of_memory_ends_with_exit_3_and_one_line():
    start = start_up_peak()
    codes = []
    for extra in (4, 8, 12, 16, 20, 64):
        proc = check_qc5_within(start + extra * MB)
        if proc.returncode == 0:
            assert (proc.stdout, proc.stderr) == ("Verified (13249 configurations)\n", "")
        else:
            assert (proc.returncode, proc.stderr) == (3, "error: out of memory\n"), extra
        codes.append(proc.returncode)
    assert 3 in codes
