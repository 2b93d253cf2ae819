"""Reference-speed probe: fixed kernels timed in a process of their own.

The benchmark's host is shared, and its speed drifts: a fixed loop runs a
fifth slower or faster from one minute to the next, and the CPU time of the
loop drifts with it, so the drift is not time spent off the CPU.  ``run.py``
times these kernels between the measured calls of a run and scales the
run's times by the median slowdown of the kernels that match the work's
threading (``ALL_CORES`` or ``ONE_CORE``) against a reference machine
(``NOMINAL_S``).  The kernels are fixed code, outside qchan, in a process
that never imports qchan, so a change to qchan cannot change them.

Parts, each about 50 ms on a 2-core x86 machine, timed in this order (BLAS
first, so that its worker threads have stopped spinning before the next
measured call starts):

* ``blas``: QR of a 512x512 complex matrix with the default BLAS threads,
  as in drawing a Haar unitary for an 8x64 Stinespring dilation;
* ``interp``: interpreter work (arithmetic, dicts, string formatting), as in
  qchan's per-row Python code;
* ``small_linalg``: numpy calls on 4x4 matrices, as in a qubit channel's
  Choi matrix and spectra.

Run as ``python3 perfbench/refspeed.py``: every line on stdin runs every
part once and answers one line of seconds per part, in ``PARTS`` order.
"""

from __future__ import annotations

import subprocess
import sys
import time

PARTS = ("blas", "interp", "small_linalg")

# Median seconds of each part over 24 runs on the machine the benchmark was
# written on (2-core x86_64 VM, Python 3.11, numpy 2.4 with scipy-openblas).
NOMINAL_S = {"blas": 0.0620, "interp": 0.0467, "small_linalg": 0.0539}

# A load on the shared host slows work on every core more than work on one,
# so a time is scaled by the kernels that use the cores as it does: the BLAS
# kernel for a scan (a worker pool and BLAS threads on every core), the
# one-thread kernels for verify and for interpreter start-up.  Over two sets
# of ten runs on a 2-core x86 VM, this choice gave a smaller spread between
# runs than scaling every time by all kernels.
ALL_CORES = ("blas",)
ONE_CORE = ("interp", "small_linalg")

PROBE_TIMEOUT_S = 30


def _interp() -> int:
    acc = 0
    table: dict[int, str] = {}
    for i in range(170_000):
        acc = (acc * 31 + i) % 1_000_003
        if i % 8 == 0:
            table[acc] = f"{acc:.6g},{i}"
    return len(table) + acc


def _small_linalg(np, mats) -> float:
    acc = 0.0
    for a in mats:
        w = np.linalg.eigvalsh(a)
        acc += float(np.trace(a @ a).real) + float(w[-1])
    return acc


def _blas(np, z) -> float:
    q, r = np.linalg.qr(z)
    return float(abs(r[0, 0]))


def serve() -> int:
    import numpy as np

    rng = np.random.default_rng(12345)
    mats = []
    for _ in range(2800):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        mats.append(g @ g.conj().T)
    z = rng.normal(size=(512, 512)) + 1j * rng.normal(size=(512, 512))
    parts = (lambda: _blas(np, z), _interp, lambda: _small_linalg(np, mats))
    for part in parts:  # warm-up: caches, lazy BLAS thread start
        part()
    for _ in sys.stdin:
        times = []
        for part in parts:
            start = time.perf_counter()
            part()
            times.append(time.perf_counter() - start)
        sys.stdout.write(" ".join(repr(t) for t in times) + "\n")
        sys.stdout.flush()
    return 0


class Probe:
    """The probe process, as a context manager; ``measure()`` times every part once."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, __file__], env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def measure(self) -> dict[str, float]:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        values = line.split()
        if len(values) != len(PARTS):
            raise RuntimeError(f"reference probe answered {line!r} (exit {self.proc.poll()})")
        return dict(zip(PARTS, map(float, values)))

    def close(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> Probe:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def slowdown(measured: dict[str, float], parts: tuple[str, ...]) -> float:
    """How much slower than the reference machine the kernels ``parts`` ran."""
    return sum(measured[p] for p in parts) / sum(NOMINAL_S[p] for p in parts)


if __name__ == "__main__":
    sys.exit(serve())
