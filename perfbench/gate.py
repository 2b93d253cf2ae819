"""Correctness gate for ``qchan scan`` CSV output and ``qchan verify`` text.

Every check returns a :class:`Outcome`: the number of items attempted and
failed, structural problems (which make the output wrong as a whole), the
region counts of a scan, and the sha256 of the output bytes.

Failure rules, one item at a time:

* a scan row fails if any slack is non-finite or below ``-CHECK_TOL``, or
  if its region is not one of A, B, C, indeterminate;
* a verify check fails if its suite reports FAIL;
* a non-zero exit code fails every item.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field

REGIONS = ("A", "B", "C", "indeterminate")

_VERIFY_LINE = re.compile(r"^(PASS|FAIL) (\S+) checks=(\d+) worst_slack=(\S+)")
_VERIFY_SUMMARY = re.compile(r"^verify: (\d+) passed, (\d+) failed \(")


@dataclass
class Outcome:
    items: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    regions: dict[str, int] = field(default_factory=dict)
    sha256: str = ""

    @property
    def ok(self) -> bool:
        return not self.problems and self.failed == 0


def check_scan(data: bytes, rc: int, n: int, q: float, base_columns, bound_ids, check_tol: float) -> Outcome:
    """Check a scan CSV against its header, row count and per-row rules."""
    out = Outcome(items=n, sha256=hashlib.sha256(data).hexdigest())
    if rc != 0:
        out.failed = n
        out.problems.append(f"exit code {rc}")
        return out
    lines = data.decode("utf-8").splitlines()
    expected = list(base_columns) + [f"slack_{cid}" for cid in bound_ids]
    if not lines or lines[0].split(",") != expected:
        out.problems.append("header differs from SCAN_BASE_COLUMNS + slack_<id> columns")
        out.failed = n
        return out
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != n:
        out.problems.append(f"{len(rows)} rows, expected {n}")
    col = {name: i for i, name in enumerate(expected)}
    slack_cols = [col[f"slack_{cid}"] for cid in bound_ids]
    regions = {r: 0 for r in REGIONS}
    failed = 0
    for index, row in enumerate(rows):
        if len(row) != len(expected):
            out.problems.append(f"row {index}: {len(row)} cells, expected {len(expected)}")
            failed += 1
            continue
        if row[col["seed_index"]] != str(index):
            out.problems.append(f"row {index}: seed_index {row[col['seed_index']]!r}")
        if float(row[col["q"]]) != q:
            out.problems.append(f"row {index}: q {row[col['q']]!r}, expected {q!r}")
        bad = False
        for c in slack_cols:
            slack = float(row[c])
            if not math.isfinite(slack) or slack < -check_tol:
                bad = True
        region = row[col["region"]]
        if region in regions:
            regions[region] += 1
        else:
            bad = True
        failed += bad
    out.failed = min(n, failed + max(0, n - len(rows)))
    out.regions = regions
    return out


def check_verify(data: bytes, rc: int) -> Outcome:
    """Check verify output: every suite line parses, summary says 0 failed, exit 0."""
    out = Outcome(sha256=hashlib.sha256(data).hexdigest())
    lines = data.decode("utf-8").splitlines()
    suites = [m for m in map(_VERIFY_LINE.match, lines) if m]
    out.items = sum(int(m.group(3)) for m in suites)
    out.failed = sum(int(m.group(3)) for m in suites if m.group(1) == "FAIL")
    summary = _VERIFY_SUMMARY.match(lines[-1]) if lines else None
    if len(suites) != len(lines) - 1 or summary is None:
        out.problems.append("output does not parse as suite lines plus a summary")
    elif int(summary.group(2)) != 0:
        out.problems.append(f"summary reports {summary.group(2)} failed suites")
    if rc != 0:
        out.problems.append(f"exit code {rc}")
        out.failed = out.items
    return out


def planted_failure_self_test(clean: bytes, n: int, q: float, base_columns, bound_ids, check_tol: float) -> list[str]:
    """Show the scan gate can fail: plant a slack of -1e-6 and an error NaN.

    ``clean`` is a real scan output of ``n >= 3`` rows that passes the gate.
    Row 1 gets its first slack set to -1e-6, row 2 gets its last slack set to
    ``nan`` (what an ``*_error`` record turns into).  Both rows must count as
    failed, and nothing else.  Returns the problems found; empty means pass.
    """
    args = (n, q, base_columns, bound_ids, check_tol)
    problems = []
    base = check_scan(clean, 0, *args)
    if not base.ok:
        problems.append(f"clean scan does not pass the gate: {base.problems}, failed={base.failed}")
    lines = clean.decode("utf-8").splitlines()
    first_slack = len(base_columns)
    planted = [line.split(",") for line in lines]
    planted[2][first_slack] = "-1e-06"
    planted[3][-1] = "nan"
    bad = check_scan(("\n".join(",".join(r) for r in planted) + "\n").encode(), 0, *args)
    if bad.failed != 2 or bad.problems:
        problems.append(f"planted scan: failed={bad.failed} (expected 2), problems={bad.problems}")
    if check_scan(clean, 1, *args).failed != n:
        problems.append("a non-zero exit does not fail every row")
    return problems
