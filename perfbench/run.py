"""Benchmark of qchan on the (map entropy, receiver entropy) plane.

Usage::

    python3 perfbench/run.py --workload scan_qubit --seed 1 --seconds 34 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 34

Each workload is a closed loop of ``qchan.cli.main([...])`` calls, one after
another from this single process, with the program's default threading
(``QCHAN_THREADS`` and the BLAS thread variables are removed from the
environment).  Call ``k`` of a run uses the qchan seed ``1000 * seed + k``.

``--trace 0`` alternates an in-process call (``items_per_s``) with the same
command in a fresh interpreter (``wall_s``, ``setup_s``, ``peak_rss_mb``);
both outputs must hash the same.  A shared host's speed can drift by a fifth
from minute to minute, so the fixed kernels of ``refspeed.py`` are timed
before every call, and the time metrics are scaled by the median slowdown of
the kernels that match the work's threading to the speed of a reference
machine; the unscaled medians and the slowdowns are kept in the result file.
``--trace 1`` alternates an untraced and a traced in-process call on the
same seed, requires byte-identical output, and reports the per-layer metrics
of ``spans.py``.  Every metric is the median over the calls of the run.

Every output passes the gate of ``gate.py``; the planted-failure self-test
runs first.  A full result with the run manifest is written to
``perfbench/results/``; the last stdout line is the JSON summary
``{"correct", "attempted", "failed", "metrics"}``.  ``--workload all`` runs
every workload untraced and traced, prints every metric, and ends with one
summary line whose metric names are prefixed by the workload.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from gate import check_scan, check_verify, planted_failure_self_test
from refspeed import ALL_CORES, ONE_CORE, Probe, slowdown
from spans import Tracer, layer_metrics, per_layer_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
RESULTS = HERE / "results"

# Thread settings the benchmark leaves at the program's defaults.
THREAD_VARS = (
    "QCHAN_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

CHILD_TIMEOUT_S = 120

# OpenBLAS worker threads keep spinning for about 2**28 cycles (0.1 s) after
# a call; the reference kernels start this long after an in-process call so
# that the program's spinning threads do not slow them.
BLAS_SETTLE_S = 0.15


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    # refspeed kernels whose slowdown scales the workload's call times.
    reference: tuple[str, ...]

    @property
    def is_scan(self) -> bool:
        return self.argv[0] == "scan"

    def option(self, flag: str) -> str:
        return self.argv[self.argv.index(flag) + 1]


# --n is sized so that one call takes about a second on a 2-core x86 machine,
# which gives 10 to 20 calls per run.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "scan_qubit",
            ("scan", "--ensemble", "random_cptp", "--dim", "2", "--q", "2", "--format", "csv", "--n", "600"),
            ALL_CORES,
        ),
        Workload(
            "scan_qudit8",
            ("scan", "--ensemble", "random_cptp", "--dim", "8", "--q", "2", "--format", "csv", "--n", "12"),
            ALL_CORES,
        ),
        Workload("verify_all", ("verify", "--suite", "all", "--n", "100"), ONE_CORE),
    )
}

END_TO_END_UNITS = {"items_per_s": "items/s", "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Which end-to-end metric and workload each layer metric should move, written
# down before any optimisation lands.  Keys are metric-name prefixes.
PREDICTIONS = {
    "zoo.sample": {"moves": "items_per_s and wall_s on scan_qudit8", "no_change_on": "scan_qubit, verify_all"},
    "channels.construct": {"moves": "items_per_s on scan_qudit8, then scan_qubit", "no_change_on": ""},
    "channels.spectra": {"moves": "items_per_s on scan_qubit", "no_change_on": "scan_qudit8"},
    "entropy": {"moves": "items_per_s on scan_qubit and verify_all", "no_change_on": "scan_qudit8"},
    "bounds.sigma1_search": {"moves": "items_per_s on verify_all", "no_change_on": "scan_qubit, scan_qudit8"},
    "bounds": {"moves": "items_per_s on scan_qubit and verify_all", "no_change_on": "scan_qudit8"},
    "separability.classify": {"moves": "items_per_s on scan_qubit", "no_change_on": "scan_qudit8"},
    "cli": {
        "moves": "items_per_s on scan_qudit8 (worker pool) and scan_qubit (serialization)",
        "no_change_on": "",
    },
    "trace": {"moves": "reported, not gated", "no_change_on": ""},
}


def prediction(metric: str) -> dict:
    """The first entry of PREDICTIONS whose key prefixes ``metric``."""
    return next(text for prefix, text in PREDICTIONS.items() if metric.startswith(prefix))


class BenchError(Exception):
    """The benchmark cannot run here; exit non-zero without a result."""


# ---------------------------------------------------------------------------
# set-up and manifest


def scrub_environment() -> dict:
    """Remove thread settings so the program runs with its defaults."""
    return {var: os.environ.pop(var, None) for var in THREAD_VARS}


def import_qchan():
    if not (SRC / "qchan" / "__init__.py").is_file():
        raise BenchError(f"no qchan sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qchan
    import qchan.cli

    if Path(qchan.__file__).resolve().parent != SRC / "qchan":
        raise BenchError(f"imported qchan from {qchan.__file__}, not from {SRC}")
    return qchan


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"missing {path}")
    spec = json.loads(path.read_text(encoding="utf-8"))
    names = {w["name"] for w in spec["workloads"]}
    if names != set(WORKLOADS):
        raise BenchError(f"BENCHMARK.json workloads {sorted(names)} differ from {sorted(WORKLOADS)}")
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if e2e != END_TO_END_UNITS:
        raise BenchError(f"BENCHMARK.json end_to_end {e2e} differs from {END_TO_END_UNITS}")
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if layer != per_layer_units():
        raise BenchError("BENCHMARK.json per_layer differs from spans.per_layer_units()")
    return spec


def git_commit() -> str | None:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports, when its library can be found."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def manifest(qchan, scrubbed: dict, args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = None
    thread_count = getattr(qchan.cli, "_thread_count", None)
    return {
        "qchan_version": getattr(qchan, "__version__", None),
        "argv": sys.argv,
        "qchan_argv": list(WORKLOADS[args.workload].argv),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "thread_env_removed": {k: v for k, v in scrubbed.items() if v is not None},
        "qchan_threads_effective": thread_count() if thread_count else None,
        "blas_threads_effective": blas_threads(),
    }


# ---------------------------------------------------------------------------
# one call


@dataclass
class Call:
    seconds: float
    rc: int
    output: bytes
    setup_s: float | None = None
    maxrss_kib: int | None = None


def call_argv(w: Workload, qseed: int, out: Path | None) -> list[str]:
    argv = list(w.argv) + ["--seed", str(qseed)]
    if w.is_scan:
        argv += ["--out", str(out)]
    return argv


def call_in_process(cli, w: Workload, qseed: int, tracer=None) -> Call:
    out = WORK / "inproc.csv"
    argv = call_argv(w, qseed, out)
    stdout = io.StringIO()
    gc.collect()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout):
        try:
            rc = tracer.run_root(cli.main, argv) if tracer else cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - a crash fails the call's items, as exit 1 would
            traceback.print_exc()
            rc = 1
    seconds = time.perf_counter() - start
    if w.is_scan:
        data = out.read_bytes() if out.exists() else b""
        out.unlink(missing_ok=True)
    else:
        data = stdout.getvalue().encode("utf-8")
    return Call(seconds, rc, data)


def call_fresh(w: Workload, qseed: int, env: dict) -> Call:
    out = WORK / "fresh.csv"
    cmd = [sys.executable, str(HERE / "child.py")] + call_argv(w, qseed, out)
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"fresh process timed out after {CHILD_TIMEOUT_S} s: {cmd}") from None
    end = time.monotonic()
    tail = stderr.decode("utf-8", "replace").rstrip("\n").rsplit("\n", 1)[-1].split(" ", 3)
    if tail[0] != "perfbench-child" or len(tail) != 4:
        raise BenchError(f"fresh process gave no timing line (exit {proc.returncode}): {stderr[-500:]!r}")
    if Path(tail[3]).resolve().parent != SRC / "qchan":
        raise BenchError(f"fresh process imported qchan from {tail[3]}, not from {SRC}")
    if w.is_scan:
        data = out.read_bytes() if out.exists() else b""
        out.unlink(missing_ok=True)
    else:
        data = stdout
    return Call(end - start, proc.returncode, data, float(tail[1]) - start, int(tail[2]))


# ---------------------------------------------------------------------------
# a run


class Run:
    def __init__(self, qchan, w: Workload, args):
        self.raw: dict[str, float] | None = None
        self.cli = qchan.cli
        self.bounds = qchan.bounds
        self.w = w
        self.args = args
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.regions: dict[str, int] = {}
        self.calls: list[dict] = []

    def qseed(self, k: int) -> int:
        return 1000 * self.args.seed + k

    def check(self, call: Call, k: int, where: str):
        if self.w.is_scan:
            n, q = int(self.w.option("--n")), float(self.w.option("--q"))
            outcome = check_scan(
                call.output, call.rc, n, q,
                self.cli.SCAN_BASE_COLUMNS, self.bounds.applicable_bound_ids(q), self.bounds.CHECK_TOL,
            )
        else:
            outcome = check_verify(call.output, call.rc)
        self.attempted += outcome.items
        self.failed += outcome.failed
        self.problems.extend(f"call {k} ({where}): {p}" for p in outcome.problems)
        for region, count in outcome.regions.items():
            self.regions[region] = self.regions.get(region, 0) + count
        return outcome

    def self_test(self) -> list[str]:
        n, q = 4, 2.0
        path = WORK / "selftest.csv"
        argv = ["scan", "--ensemble", "random_cptp", "--dim", "2", "--q", "2", "--n", str(n),
                "--seed", str(self.qseed(999)), "--out", str(path)]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.cli.main(argv)
        clean = path.read_bytes()
        path.unlink()
        problems = [] if rc == 0 else [f"self-test scan exited {rc}"]
        problems += planted_failure_self_test(
            clean, n, q, self.cli.SCAN_BASE_COLUMNS,
            self.bounds.applicable_bound_ids(q), self.bounds.CHECK_TOL,
        )
        return problems

    def untraced(self, env: dict) -> dict:
        """In-process and fresh-process calls on the same seeds, alternating.

        The reference kernels of ``refspeed.py`` run before every call and
        once after the last.  Every time metric is the median over the calls
        divided by the median slowdown of the kernels: those of the workload
        for the calls, the one-core kernels for interpreter start-up.
        """
        warm = self.qseed(998)
        call_in_process(self.cli, self.w, warm)
        call_fresh(self.w, warm, env)
        rates, walls, setups, rss, references = [], [], [], [], []
        with Probe(env) as probe:
            deadline = time.perf_counter() + self.args.seconds
            k = 0
            while k == 0 or time.perf_counter() < deadline:
                reference = [probe.measure()]
                inproc = call_in_process(self.cli, self.w, self.qseed(k))
                time.sleep(BLAS_SETTLE_S)
                reference.append(probe.measure())
                fresh = call_fresh(self.w, self.qseed(k), env)
                references.extend(reference)
                a = self.check(inproc, k, "in-process")
                b = self.check(fresh, k, "fresh process")
                if a.sha256 != b.sha256:
                    self.problems.append(f"call {k}: in-process and fresh-process outputs differ")
                rates.append(a.items / inproc.seconds)
                walls.append(fresh.seconds)
                setups.append(fresh.setup_s)
                rss.append(fresh.maxrss_kib / 1024.0)
                self.calls.append({
                    "k": k, "qseed": self.qseed(k), "items": a.items, "inproc_s": inproc.seconds,
                    "wall_s": fresh.seconds, "setup_s": fresh.setup_s, "maxrss_kib": fresh.maxrss_kib,
                    "reference_s": reference, "sha256": a.sha256, "regions": a.regions,
                })
                k += 1
            references.append(probe.measure())
        slow = statistics.median(slowdown(r, self.w.reference) for r in references)
        slow_setup = statistics.median(slowdown(r, ONE_CORE) for r in references)
        self.raw = {
            "items_per_s": statistics.median(rates),
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "slowdown": slow,
            "slowdown_setup": slow_setup,
        }
        return {
            "items_per_s": self.raw["items_per_s"] * slow,
            "wall_s": self.raw["wall_s"] / slow,
            "setup_s": self.raw["setup_s"] / slow_setup,
            "peak_rss_mb": statistics.median(rss),
        }

    def traced(self) -> dict:
        """Untraced and traced in-process calls on the same seeds, alternating."""
        tracer = Tracer()
        call_in_process(self.cli, self.w, self.qseed(998))
        per_call, plain_s, traced_s = [], [], []
        deadline = time.perf_counter() + self.args.seconds
        k = 0
        while k == 0 or time.perf_counter() < deadline:
            plain = call_in_process(self.cli, self.w, self.qseed(k))
            a = self.check(plain, k, "untraced")
            tracer.install()
            try:
                traced = call_in_process(self.cli, self.w, self.qseed(k), tracer)
            finally:
                tracer.uninstall()
            b = self.check(traced, k, "traced")
            if a.sha256 != b.sha256:
                self.problems.append(f"call {k}: traced output differs from untraced output")
            metrics = layer_metrics(tracer, a.items)
            unaccounted = metrics.pop("trace.unaccounted_s")
            if abs(unaccounted) > 1e-6 * metrics["cli.main_s"]:
                self.problems.append(f"call {k}: layer self times miss cli.main by {unaccounted:.3e} s")
            per_call.append(metrics)
            plain_s.append(plain.seconds)
            traced_s.append(traced.seconds)
            self.calls.append({
                "k": k, "qseed": self.qseed(k), "items": a.items, "untraced_s": plain.seconds,
                "traced_s": traced.seconds, "sha256": a.sha256, "layers": metrics,
            })
            k += 1
        out = {name: statistics.median(m[name] for m in per_call) for name in per_call[0]}
        out["trace.overhead_frac"] = statistics.median(traced_s) / statistics.median(plain_s) - 1.0
        return out


def run_workload(args, scrubbed: dict) -> int:
    qchan = import_qchan()
    spec = load_spec()
    w = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])

    run = Run(qchan, w, args)
    self_test = run.self_test()
    run.problems.extend(f"self-test: {p}" for p in self_test)
    metrics = run.traced() if args.trace else run.untraced(env)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    correct = not run.problems and run.failed == 0
    result = {
        "workload": w.name,
        "why": next(x["why"] for x in spec["workloads"] if x["name"] == w.name),
        "manifest": manifest(qchan, scrubbed, args),
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_frac": run.failed / run.attempted,
        "problems": run.problems,
        "self_test": "pass" if not self_test else self_test,
        "regions": run.regions,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "unscaled": run.raw,
        "predictions": {k: prediction(k) for k in metrics} if args.trace else None,
        "calls": run.calls,
    }
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print(f"workload {w.name} seed={args.seed} trace={args.trace} calls={len(run.calls)} "
          f"attempted={run.attempted} failed={run.failed} failed_frac={result['failed_frac']:.3g}")
    print(f"self-test (planted -1e-6 slack and NaN both fail): {result['self_test']}")
    for problem in run.problems[:20]:
        print(f"problem: {problem}")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"result: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": result["metrics"],
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0:
                print(f"error: {name} trace={trace} exited {proc.returncode}", file=sys.stderr)
                return proc.returncode or 1
            last = json.loads(lines[-1])
            summary["correct"] &= last["correct"]
            summary["attempted"] += last["attempted"]
            summary["failed"] += last["failed"]
            for metric, value in last["metrics"].items():
                summary["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    scrubbed = scrub_environment()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        return run_workload(args, scrubbed)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
