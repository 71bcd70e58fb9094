"""Run the benchmark on several seeds per workload and summarise the spread.

    python3 perfbench/repeat.py [--runs 10] [--first-seed 1] [--workloads a,b]
                                [--seconds S] [--trace 0|1] [--out FILE]

Each run is a separate process, ``python3 perfbench/run.py``, started from
the checkout root.  For every end-to-end metric the summary gives the
median and the quartiles of the runs (``statistics.quantiles(n=4)``) and
the spread, (q3 - q1) / median, next to the metric's bound from
``BENCHMARK.json``.  The summary, with every run's info line, is printed
and, with ``--out``, written as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError("%s failed:\n%s" % (" ".join(cmd), proc.stderr))
    info, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return info["info"], result


def summarise(values):
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    doc = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            info, result = run_once(workload, seed, args.seconds, args.trace)
            runs.append({"info": info, "result": result})
            print(workload, seed, json.dumps(
                {k: round(v["value"], 6) for k, v in result["metrics"].items()}
                if not args.trace else {"correct": result["correct"]}), flush=True)
        names = list(runs[0]["result"]["metrics"])
        summary = {}
        for name in names:
            s = summarise([r["result"]["metrics"][name]["value"] for r in runs])
            if name in bounds:
                s["bound"] = bounds[name]
            summary[name] = s
        doc["workloads"][workload] = {"runs": runs, "summary": summary,
                                      "all_correct": all(r["result"]["correct"] for r in runs)}
        if not args.trace:
            for name in names:
                s = summary[name]
                print("  %-12s median %-12.6g spread %-8.4f bound %s" % (
                    name, s["median"], s.get("spread") or 0.0, s.get("bound")), flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
