#!/usr/bin/env python3
"""Run the benchmark once per seed and workload and report each metric's spread.

    python3 benchmark/spread.py [--seeds 1-10] [--trace 0,1] [--out FILE]
                                [--records DIR] [--against FILE]

Runs from the repository root, one benchmark process at a time, with
the run length BENCHMARK.json sets. For every workload and metric it
prints the median over the seeds and the quartile spread: the distance
between the first and third quartile, as statistics.quantiles(n=4)
gives them, as a share of the median. An end-to-end metric whose spread
is above a third of its bound is marked; setup_s is exempt.

--out keeps every value with the set's meta and each run's timed reps,
kernel time and machine speed. --records keeps each run's full --json
record. --against compares this set's medians with an earlier --out
file and marks every end-to-end metric that got worse by more than its
bound. Exits 1 if a run fails or is marked incorrect.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True)
        return out.stdout.strip() or None
    except OSError:
        return None


def spread(xs):
    med = statistics.median(xs)
    if len(xs) < 2 or not med:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / med


def worse_by(new, old, better):
    """How much worse `new` is than `old`, as a share of `old` (negative: better)."""
    if not old:
        return 0.0
    change = (new - old) / old
    return change if better == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--trace", default="0,1", help="0 (end-to-end), 1 (per-layer) or 0,1")
    ap.add_argument("--out")
    ap.add_argument("--against")
    ap.add_argument("--records", help="directory that keeps every run's full --json record")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    subprocess.run(["dune", "build", "--root", ".", "--cache=disabled", "--display", "quiet",
                    "./benchmark/cesrm_bench.exe"], check=True)
    exe = os.path.join("_build", "default", "benchmark", "cesrm_bench.exe")
    declared = {m["name"]: m for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    earlier = None
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)

    ok = True
    report = {}
    tmp = tempfile.TemporaryDirectory()
    for trace in args.trace.split(","):
        section_name = {"0": "end_to_end", "1": "per_layer"}[trace]
        section = report.setdefault(section_name, {})
        for name in names:
            values, runs = {}, []
            for seed in args.seeds:
                record = os.path.join(args.records or tmp.name, f"{name}.{trace}.{seed}.json")
                cmd = [exe, "--workload", name, "--seed", str(seed),
                       "--seconds", str(bench["run_seconds"]), "--trace", trace, "--json", record]
                run = subprocess.run(cmd, capture_output=True, text=True)
                last = json.loads(run.stdout.strip().splitlines()[-1]) if run.stdout.strip() else None
                if run.returncode != 0 or not last or not last["correct"]:
                    print(f"{name} seed {seed}: run failed\n{run.stderr[-2000:]}", file=sys.stderr)
                    ok = False
                    continue
                with open(record) as f:
                    full = json.load(f)
                runs.append({"seed": seed, "timed_reps": full["timed_reps"],
                             "kernel_s_median": full["machine.kernel_s"]["median"],
                             "speed_median": full["machine.speed"]["median"]})
                for metric, v in last["metrics"].items():
                    values.setdefault(metric, []).append(v["value"])
            print(f"== {name} (trace {trace}, timed reps {[r['timed_reps'] for r in runs]})")
            section[name] = {"runs": runs, "metrics": {}}
            for metric, xs in values.items():
                med, sp = statistics.median(xs), spread(xs)
                line = f"  {metric:34s} median {med:14.6g}  spread {sp:7.4f}"
                decl = declared.get(metric) if trace == "0" else None
                if decl:
                    line += f"  bound {decl['bound']:.3f}"
                    if metric != "setup_s" and sp > decl["bound"] / 3:
                        line += "  ABOVE bound/3"
                    if earlier:
                        old = earlier[section_name][name]["metrics"][metric]["median"]
                        w = worse_by(med, old, decl["better"])
                        line += f"  vs earlier {w:+.4f}" + ("  WORSE THAN BOUND" if w > decl["bound"] else "")
                print(line)
                section[name]["metrics"][metric] = {"values": xs, "median": med, "spread": sp}
    if args.out:
        meta = {"commit": git_commit(), "seeds": args.seeds, "seconds": bench["run_seconds"],
                "argv": " ".join(sys.argv), "nproc": os.cpu_count()}
        with open(args.out, "w") as f:
            json.dump({"meta": meta, **report}, f, indent=1)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
