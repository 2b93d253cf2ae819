"""Summarize benchmark result files: median, quartiles and spread per metric.

Usage::

    python3 perfbench/summarize.py [RESULT_DIR] [--out FILE]

Reads every ``<workload>-seed<n>-trace<t>.json`` written by ``run.py``
(default directory ``perfbench/results``) and prints, per workload and
metric, the median over runs, the first and third quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread
``(q3 - q1) / median``.  End-to-end metrics are shown next to their bound
from ``BENCHMARK.json``; a spread above a third of the bound is flagged.
The unscaled medians and the reference slowdown of untraced runs are
shown beneath.  ``--out`` writes the same summary, with each run's values and one run
manifest per workload, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def stats(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else None,
        "runs": len(values),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("results", nargs="?", default=str(HERE / "results"))
    parser.add_argument("--out", default=None, help="write the summary as JSON here")
    args = parser.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs: dict[tuple[str, int], list[dict]] = {}
    for path in sorted(Path(args.results).glob("*-seed*-trace*.json")):
        result = json.loads(path.read_text(encoding="utf-8"))
        runs.setdefault((result["workload"], result["manifest"]["trace"]), []).append(result)
    if not runs:
        print(f"error: no result files in {args.results}", file=sys.stderr)
        return 2

    summary = {}
    for (workload, trace), results in sorted(runs.items()):
        results.sort(key=lambda r: r["manifest"]["seed"])
        entry = {
            "workload": workload,
            "trace": trace,
            "seeds": [r["manifest"]["seed"] for r in results],
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "regions": {},
            "manifest": results[0]["manifest"],
            "predictions": results[0]["predictions"],
            "metrics": {},
        }
        for r in results:
            for region, count in r["regions"].items():
                entry["regions"][region] = entry["regions"].get(region, 0) + count
        print(f"{workload} trace={trace} runs={len(results)} correct={entry['correct']} "
              f"attempted={entry['attempted']} failed={entry['failed']}")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            s = stats(values)
            s["unit"] = first["unit"]
            s["values"] = values
            entry["metrics"][name] = s
            note = ""
            if name in bounds:
                s["bound"] = bounds[name]
                flag = " OVER A THIRD OF BOUND" if s["spread"] is not None and s["spread"] > bounds[name] / 3 else ""
                note = f"  bound={bounds[name]}{flag}"
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {name:34s} median={s['median']:.6g} {s['unit']} "
                  f"q1={s['q1']:.6g} q3={s['q3']:.6g} spread={spread}{note}")
        if results[0].get("unscaled"):
            entry["unscaled"] = {}
            for name in results[0]["unscaled"]:
                s = stats([r["unscaled"][name] for r in results])
                entry["unscaled"][name] = s
                print(f"  unscaled {name:25s} median={s['median']:.6g} q1={s['q1']:.6g} q3={s['q3']:.6g} "
                      f"spread={s['spread']:.4f}")
        summary[f"{workload}/trace{trace}"] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
