#!/usr/bin/env python3
"""Steadiness and seed checks for the benchmark in BENCHMARK.json.

Run from the repository root:

  python3 perfbench/check.py spread [--runs 10] [--workloads a,b] [--first-seed 1]
      Runs each workload once per seed and prints, for every end-to-end
      metric, the median, the quartiles and the spread: the distance
      between the first and third quartile (statistics.quantiles, n=4) as
      a share of the median, next to the metric's bound. A spread above
      the bound fails, except for `setup_s`, whose median is held to its
      bound instead (`twice`); a spread above a third of it is noted.
      Also prints the median wall time of a run.

  python3 perfbench/check.py twice [--runs 10] [--workloads a,b] [--first-seed 1]
      Runs the same seeds as `spread` twice, one set after the other.
      Each set's spreads are checked as above; in addition each metric's
      median may differ between the sets by at most its bound, and the
      simulated metrics must be bit-identical seed by seed.

  python3 perfbench/check.py seeds
      Runs each workload twice with the default seed and once with the
      held-out seed. Simulated metrics (units `sim_*`, `count`, `ratio`)
      must be bit-identical between the two default-seed runs, and at
      least one per workload must differ under the held-out seed.

Raw results go to perfbench/out/. Exits non-zero when a check fails.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
OUT = ROOT / "perfbench" / "out"
DEFAULT_SEED = 2024
HELD_OUT_SEED = 7


def run(workload, seed, trace=0):
    cmd = BENCH["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace),
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}, {
        k: v["unit"] for k, v in result["metrics"].items()}, wall


def is_sim(unit):
    return unit.startswith("sim_") or unit in ("count", "ratio")


def workloads(args):
    return args.workloads.split(",") if args.workloads else [
        w["name"] for w in BENCH["workloads"]]


def one_set(w, args, tag):
    """Runs workload `w` once per seed; returns the metrics of each run."""
    runs = [run(w, args.first_seed + i) for i in range(args.runs)]
    rows = [r[0] for r in runs]
    (OUT / f"spread-{w}{tag}.json").write_text(json.dumps(rows, indent=1))
    walls = [r[2] for r in runs]
    print(f"{w}{tag}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}, "
          f"wall median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
    return rows, runs[0][1]


def check_spread(rows, bounds):
    """Prints each metric's spread; returns the medians and whether every
    spread is within its bound. As in the harness's acceptance rule, the
    spread of `setup_s` is printed but not held to its bound; its median
    is (see `twice`)."""
    ok, medians = True, {}
    for name in rows[0]:
        values = [r[name] for r in rows]
        q1, med, q3 = statistics.quantiles(values, n=4)
        medians[name] = med
        s = (q3 - q1) / med
        bound = bounds.get(name, float("nan"))
        if name == "setup_s":
            flag = " (spread not held to the bound)" if s > bound else ""
        else:
            flag = " ABOVE BOUND" if s > bound else (
                " above 1/3 bound" if s > bound / 3 else "")
            ok &= s <= bound
        print(f"  {name:<26} median {med:<14.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"spread {s:.4f} bound {bound}{flag}")
    return medians, ok


def spread(args):
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    OUT.mkdir(parents=True, exist_ok=True)
    ok = True
    for w in workloads(args):
        rows, _ = one_set(w, args, "")
        ok &= check_spread(rows, bounds)[1]
    return ok


def twice(args):
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    OUT.mkdir(parents=True, exist_ok=True)
    ok = True
    sets = {w: [] for w in workloads(args)}
    for tag in ("-a", "-b"):
        for w in sets:
            rows, units = one_set(w, args, tag)
            medians, spread_ok = check_spread(rows, bounds)
            ok &= spread_ok
            sets[w].append((rows, medians, units))
    for w, ((rows_a, med_a, units), (rows_b, med_b, _)) in sets.items():
        print(f"{w}: second set against the first")
        for name in med_a:
            drift = (med_b[name] - med_a[name]) / med_a[name]
            bound = bounds.get(name, float("nan"))
            same = all(a[name] == b[name] for a, b in zip(rows_a, rows_b))
            flag = " ABOVE BOUND" if abs(drift) > bound else ""
            if is_sim(units[name]) and not same:
                flag += " SIMULATED VALUES DIFFER"
            ok &= not flag
            print(f"  {name:<26} {med_a[name]:<14.6g} -> {med_b[name]:<14.6g} "
                  f"drift {drift:+.4f} bound {bound}{flag}")
    return ok


def seeds(_args):
    ok = True
    for w in (x["name"] for x in BENCH["workloads"]):
        a, units, _ = run(w, DEFAULT_SEED)
        b, _, _ = run(w, DEFAULT_SEED)
        c, _, _ = run(w, HELD_OUT_SEED)
        sim = [k for k in a if is_sim(units[k])]
        same = all(a[k] == b[k] for k in sim)
        differs = [k for k in sim if a[k] != c[k]]
        print(f"{w}: simulated metrics {sim}")
        print(f"  seed {DEFAULT_SEED} twice: {'bit-identical' if same else 'DIFFERENT'}")
        print(f"  seed {HELD_OUT_SEED} differs on: {differs or 'NOTHING'}")
        for k in sim:
            print(f"    {k:<26} {a[k]!r:<22} {c[k]!r}")
        ok &= same and bool(differs)
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    for mode in ("spread", "twice"):
        s = sub.add_parser(mode)
        s.add_argument("--runs", type=int, default=10)
        s.add_argument("--workloads")
        s.add_argument("--first-seed", type=int, default=1)
    sub.add_parser("seeds")
    args = p.parse_args()
    ok = {"spread": spread, "twice": twice, "seeds": seeds}[args.cmd](args)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
