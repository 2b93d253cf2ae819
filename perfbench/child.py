"""Fresh-process entry for one qchan command, as ``python -m qchan`` runs it.

Usage: ``python3 perfbench/child.py <qchan arguments>`` with ``src`` on
``PYTHONPATH``.  After the command, the last line on stderr is
``perfbench-child <monotonic time when import qchan finished> <ru_maxrss KiB>
<qchan.__file__>``; the parent takes interpreter start plus ``import qchan``
as that time minus its own monotonic time before the spawn.
"""

import resource
import sys
import time
import traceback

import qchan

imported = time.monotonic()

from qchan import cli  # noqa: E402 - imported after the set-up timestamp

try:
    rc = cli.main(sys.argv[1:])
except Exception:  # noqa: BLE001 - report the crash as exit 1 and still print the timing line
    traceback.print_exc()
    rc = 1
sys.stdout.flush()
maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
sys.stderr.write(f"perfbench-child {imported!r} {maxrss} {qchan.__file__}\n")
sys.exit(rc)
