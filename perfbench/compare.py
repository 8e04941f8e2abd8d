#!/usr/bin/env python3
"""Run the benchmark over several seeds, and compare sets of runs.

Run from the repository root:

  python3 perfbench/compare.py run OUT [--seeds 1-10] [--trace] [--against ROOT OTHER_OUT]
      Run BENCHMARK.json's command once per workload and seed, for
      run_seconds, and keep each run's standard output in
      OUT/<workload>.<seed>.out (stderr in .err). With --against, also run
      it in ROOT, a checkout of the other commit, into OTHER_OUT: the two
      sides interleave, one run each per seed and workload, and for each
      workload the side that goes first swaps from seed to seed.
  python3 perfbench/compare.py spread OUT
      Per workload and metric: median, quartiles, and the quartile spread
      as a share of the median, against a third of the metric's bound.
  python3 perfbench/compare.py compare BASE NEW
      Per workload and metric: each side's median and quartiles, and a
      verdict. NEW is "better" (or "worse") only when it wins (or loses) at
      least nine tenths of the seed-matched pairs, ties counting for
      neither, and the medians differ by more than BASE's quartile spread;
      otherwise "unresolved". The change against the bound is shown too.
  python3 perfbench/compare.py overhead UNTRACED TRACED
      Tracing overhead: the traced runs' own end-to-end figures minus the
      untraced runs', as medians per workload and metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def metric_specs():
    s = spec()
    return {m["name"]: m for m in s["end_to_end"] + s["per_layer"]}


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(args):
    s = spec()
    sides = [(ROOT, args.out)]
    if args.against:
        other_root, other_out = args.against
        sides.append((os.path.abspath(other_root), other_out))
    for _, out in sides:
        os.makedirs(out, exist_ok=True)
    for k, seed in enumerate(seeds(args.seeds)):
        for w, workload in enumerate(x["name"] for x in s["workloads"]):
            # Per workload, the side that goes first swaps from seed to seed.
            turn = (k + w) % len(sides)
            cmd = s["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(s["run_seconds"]),
                                  "--trace", "1" if args.trace else "0"]
            for root, out in sides[turn:] + sides[:turn]:
                # Each side builds into its own directory, as a fresh checkout would.
                env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(root, ".bench_build"))
                stem = os.path.join(out, f"{workload}.{seed}")
                start = time.time()
                with open(stem + ".out", "w") as o, open(stem + ".err", "w") as e:
                    code = subprocess.run(cmd, cwd=root, env=env, stdout=o, stderr=e).returncode
                print(f"{out}: {workload} seed {seed}: exit {code}, {time.time() - start:.1f}s",
                      flush=True)


def load(directory, traced_e2e=False):
    """{workload: {seed: {metric: value}}} from a directory of runs."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".out"):
            continue
        workload, seed = name[:-4].rsplit(".", 1)
        with open(os.path.join(directory, name)) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        if not lines:
            continue
        if traced_e2e:
            found = [l for l in lines if l.startswith("# traced end_to_end ")]
            if not found:
                continue
            metrics = json.loads(found[-1][len("# traced end_to_end "):])
        else:
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"warning: {name} reports incorrect output", file=sys.stderr)
            metrics = result["metrics"]
        runs.setdefault(workload, {})[int(seed)] = {k: v["value"] for k, v in metrics.items()}
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(args):
    specs = metric_specs()
    worst = 0.0
    for workload, by_seed in load(args.dir).items():
        print(f"== {workload} ({len(by_seed)} runs)")
        names = next(iter(by_seed.values())).keys()
        for name in names:
            values = [m[name] for m in by_seed.values() if m.get(name) is not None]
            q1, q2, q3 = quartiles(values)
            rel = (q3 - q1) / abs(q2) if q2 else float("inf")
            bound = specs.get(name, {}).get("bound")
            flag = ""
            if bound is not None:
                flag = "ok" if rel < bound / 3 else ("WITHIN BOUND" if rel <= bound else "TOO NOISY")
                if name != "setup_s":
                    worst = max(worst, rel / bound)
            print(f"  {name:<32} median {q2:>14.4f}  q1 {q1:>14.4f}  q3 {q3:>14.4f}"
                  f"  spread {100 * rel:6.2f}%  {'' if bound is None else f'bound {100 * bound:.0f}%'} {flag}")
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.2f}")


def better(direction, a, b):
    """+1 if b is better than a, -1 if worse, 0 on a tie."""
    if a == b:
        return 0
    return (1 if b < a else -1) if direction == "lower" else (1 if b > a else -1)


def compare(args):
    specs = metric_specs()
    base, new = load(args.base), load(args.new)
    for workload in sorted(set(base) & set(new)):
        pairs = sorted(set(base[workload]) & set(new[workload]))
        print(f"== {workload} ({len(pairs)} seed-matched pairs)")
        if not pairs:
            print("  no seed ran on both sides; run both sets with the same --seeds")
            continue
        names = [n for n in base[workload][pairs[0]] if n in new[workload][pairs[0]]]
        for name in names:
            a = [base[workload][s][name] for s in pairs]
            b = [new[workload][s][name] for s in pairs]
            a1, a2, a3 = quartiles(a)
            b1, b2, b3 = quartiles(b)
            direction = specs.get(name, {}).get("better", "lower")
            wins = sum(1 for x, y in zip(a, b) if better(direction, x, y) > 0)
            losses = sum(1 for x, y in zip(a, b) if better(direction, x, y) < 0)
            resolved = abs(b2 - a2) > (a3 - a1)
            if wins >= 0.9 * len(pairs) and resolved:
                verdict = "better"
            elif losses >= 0.9 * len(pairs) and resolved:
                verdict = "worse"
            else:
                verdict = "unresolved"
            change = (b2 - a2) / abs(a2) if a2 else float("inf")
            bound = specs.get(name, {}).get("bound")
            note = ""
            if bound is not None:
                worse_share = -change if direction == "higher" else change
                note = "beyond bound" if worse_share > bound else "within bound"
            print(f"  {name:<32} base {a2:>12.4f} [{a1:.4f}, {a3:.4f}]  new {b2:>12.4f}"
                  f" [{b1:.4f}, {b3:.4f}]  {100 * change:+7.2f}%  wins {wins}/{len(pairs)}"
                  f"  {verdict:<10} {note}")


def overhead(args):
    plain, traced = load(args.untraced), load(args.traced, traced_e2e=True)
    for workload in sorted(set(plain) & set(traced)):
        print(f"== {workload}")
        for name in next(iter(plain[workload].values())):
            a = statistics.median(m[name] for m in plain[workload].values())
            b = statistics.median(m[name] for m in traced[workload].values())
            print(f"  {name:<20} untraced {a:>14.4f}  traced {b:>14.4f}"
                  f"  overhead {b - a:>+12.4f} ({100 * (b - a) / abs(a) if a else 0:+.1f}%)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run")
    p.add_argument("out")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--against", nargs=2, metavar=("ROOT", "OTHER_OUT"))
    p.set_defaults(fn=run)
    p = sub.add_parser("spread")
    p.add_argument("dir")
    p.set_defaults(fn=spread)
    p = sub.add_parser("compare")
    p.add_argument("base")
    p.add_argument("new")
    p.set_defaults(fn=compare)
    p = sub.add_parser("overhead")
    p.add_argument("untraced")
    p.add_argument("traced")
    p.set_defaults(fn=overhead)
    args = parser.parse_args()
    args.fn(args)


if __name__ == "__main__":
    main()
