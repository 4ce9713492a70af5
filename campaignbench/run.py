#!/usr/bin/env python3
"""Campaign benchmark: run one workload and report its metrics.

Builds the benchmark binary and cmd/avd from this checkout, runs one
workload's campaigns back to back for the measuring time, checks every
campaign's fingerprint against fingerprints.json, and prints each metric
by name and unit, then one JSON object as the last line of output:

    python3 campaignbench/run.py --workload pbft-fig2 --seed 1 --seconds 22 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer metrics of a traced run. Run it from the repository root;
everything it builds and writes stays under .bench_build/.

    python3 campaignbench/run.py --workload pbft-fig2 --record 1-4

re-records the fingerprints of campaign seeds 1 to 4 after a change
that is meant to alter campaign results. See README.md.
"""

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")

REP_TIMEOUT_S = 120  # one campaign; a whole run must end within 180 s


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def go_env():
    """The go command's environment, with every cache and temporary
    directory inside .bench_build and no network."""
    dirs = {k: os.path.join(BUILD, k.lower()) for k in ("GOCACHE", "GOPATH", "TMP", "CONFIG")}
    for d in dirs.values():
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=dirs["GOCACHE"],
        GOPATH=dirs["GOPATH"],
        GOMODCACHE=os.path.join(dirs["GOPATH"], "pkg", "mod"),
        GOTMPDIR=dirs["TMP"],
        TMPDIR=dirs["TMP"],
        XDG_CONFIG_HOME=dirs["CONFIG"],
        GOENV="off",
        GOFLAGS="-mod=mod",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    return env


def build():
    """Builds the benchmark and the cmd/avd worker; False when the
    checkout cannot be built."""
    env = go_env()
    for out, pkg in (("campaignbench", "."), ("avd", "avd/cmd/avd")):
        cmd = ["go", "build", "-trimpath", "-o", os.path.join(BIN, out), pkg]
        try:
            r = subprocess.run(cmd, cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"campaignbench: {' '.join(cmd)}: {e}")
            return False
        if r.returncode != 0:
            log(f"campaignbench: {' '.join(cmd)} failed")
            return False
    return True


def wait(proc, timeout):
    """Waits for proc, killing its whole process group after timeout.
    Returns (exit status, rusage): the rusage covers the process and every
    descendant it waited for, so a supervisor's includes its shards."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, ru = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, ru
        if time.monotonic() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            _, status, ru = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            log(f"campaignbench: campaign exceeded {timeout} s and was killed")
            return proc.returncode, ru
        time.sleep(0.01)


def run_campaign(workload, seed, trace, rep_dir):
    """Runs one campaign in its own process group; returns its report
    with the process's CPU seconds and peak RSS added, or None."""
    os.makedirs(rep_dir)
    cmd = [os.path.join(BIN, "campaignbench"), "-workload", workload, "-seed", str(seed),
           "-state", rep_dir, "-worker", os.path.join(BIN, "avd")]
    if trace:
        cmd.append("-trace")
    out_path = os.path.join(rep_dir, "stdout")
    with open(out_path, "wb") as out, open(os.path.join(rep_dir, "stderr"), "wb") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, start_new_session=True)
        try:
            code, ru = wait(proc, REP_TIMEOUT_S)
        finally:
            if proc.returncode is None:
                os.killpg(proc.pid, signal.SIGKILL)
                os.wait4(proc.pid, 0)
    shutil.rmtree(os.path.join(rep_dir, "state"), ignore_errors=True)
    if code != 0:
        with open(os.path.join(rep_dir, "stderr")) as f:
            log(f"campaignbench: {workload} seed {seed} exited {code}: {f.read().strip()[-2000:]}")
        return None
    with open(out_path) as f:
        rep = json.loads(f.read().strip().splitlines()[-1])
    rep["cpu_s"] = ru.ru_utime + ru.ru_stime
    rep["maxrss_mb"] = ru.ru_maxrss / 1024  # Linux reports KiB
    return rep


def campaign_seeds(table, workload, seed):
    """Every recorded campaign seed, in the order this run's seed deals
    them. A campaign's cost depends on its explorer seed, so each run
    executes the same set and stays comparable with runs on other seeds."""
    seeds = sorted(int(s) for s in table)
    random.Random(f"{workload}:{seed}").shuffle(seeds)
    return seeds


def one_round(reps):
    """(tests, wall seconds, CPU seconds) of one campaign of each recorded
    seed, each seed's times the median of its campaigns in the run. Every
    run covers the same seeds whatever it dealt, so this stays comparable
    when a run ends part way through a second round."""
    by_seed = {}
    for r in reps:
        by_seed.setdefault(r["seed"], []).append(r)
    tests = sum(rs[0]["tests"] for rs in by_seed.values())
    wall = sum(statistics.median(r["wall_s"] for r in rs) for rs in by_seed.values())
    cpu = sum(statistics.median(r["cpu_s"] for r in rs) for rs in by_seed.values())
    return tests, wall, cpu


def check(rep, want):
    """Problems with a campaign's outputs, as messages."""
    problems = []
    for key in ("fingerprint", "tests", "degraded"):
        if rep[key] != want[key]:
            problems.append(f"{key} {rep[key]}, recorded {want[key]}")
    return problems


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record(workload, seeds, runs):
    tables = {}
    if os.path.exists(FINGERPRINTS):
        with open(FINGERPRINTS) as f:
            tables = json.load(f)
    table = {}
    for s in seeds:
        rep = run_campaign(workload, s, False, os.path.join(runs, f"record-{s}"))
        if rep is None:
            return 1
        table[str(s)] = {k: rep[k] for k in ("fingerprint", "tests", "degraded")}
        log(f"campaignbench: {workload} seed {s}: {table[str(s)]}")
    tables[workload] = table
    with open(FINGERPRINTS, "w") as f:
        json.dump(tables, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=22)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", metavar="SEEDS", help="re-record the fingerprints of these campaign seeds, as 1-4 or 1,3,5")
    args = ap.parse_args()
    # A SIGTERM unwinds like Ctrl-C, so the campaign in flight is killed
    # and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        with open(FINGERPRINTS) as f:
            tables = json.load(f)
    except (OSError, ValueError) as e:
        log(f"campaignbench: {e}")
        return 2
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        log(f"campaignbench: unknown workload {args.workload!r}")
        return 2
    if not build():
        return 2

    runs = os.path.join(BUILD, "runs", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(runs, ignore_errors=True)
    os.makedirs(runs)
    if args.record:
        return record(args.workload, parse_seeds(args.record), runs)
    table = tables.get(args.workload)
    if not table:
        log(f"campaignbench: no recorded fingerprints for {args.workload}")
        return 2

    # Closed loop: one campaign at a time, each started only after the
    # previous one ended, cycling through the dealt order until every
    # recorded campaign seed has run and the measuring time is spent.
    order = campaign_seeds(table, args.workload, args.seed)
    reps, problems = [], []
    start = time.monotonic()
    while len(reps) < len(order) or time.monotonic() - start < args.seconds:
        cs = order[len(reps) % len(order)]
        rep = run_campaign(args.workload, cs, args.trace, os.path.join(runs, f"rep-{len(reps)}"))
        if rep is None:
            problems.append(f"campaign seed {cs} failed")
            break
        problems += [f"campaign seed {cs}: {p}" for p in check(rep, table[str(cs)])]
        reps.append(rep)

    if not reps:
        for p in problems:
            log(f"campaignbench: {p}")
        return 1
    tests = sum(r["tests"] for r in reps)
    degraded = sum(r["degraded"] for r in reps)
    print(f"campaignbench: {args.workload} seed {args.seed}: {len(reps)} campaigns "
          f"(campaign seeds {', '.join(str(r['seed']) for r in reps)}), {tests} tests, "
          f"fingerprints {'match' if not problems else 'DO NOT MATCH'}")
    if args.trace:
        specs = bench["per_layer"]
        values = {}
        for m in specs:
            samples = [r["layers"][m["name"]] for r in reps if m["name"] in r.get("layers", {})]
            if len(samples) != len(reps):
                problems.append(f"traced run did not report {m['name']}")
                continue
            values[m["name"]] = statistics.median(samples)
    else:
        specs = bench["end_to_end"]
        round_tests, round_wall, round_cpu = one_round(reps)
        values = {
            "tests_per_s": round_tests / round_wall,
            "setup_s": statistics.median(s for r in reps for s in r["setup_s"]),
            "cpu_ms_per_test": round_cpu * 1000 / round_tests,
            "peak_rss_mb": statistics.median(r["maxrss_mb"] for r in reps),
            "completed_share": (tests - degraded) / tests,
        }
    for m in specs:
        if m["name"] in values:
            print(f"  {m['name']:28} {values[m['name']]:14.6g} {m['unit']}")
    if not args.trace:
        # completed_share is gated in its place: failed_share reads 0 on
        # the PBFT workloads, and a bound relative to 0 means nothing.
        print(f"  {'failed_share':28} {degraded / tests:14.6g} ratio"
              f"  ({degraded} of {tests} results errored or hung)")
    for p in problems:
        log(f"campaignbench: {p}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": tests,
        "failed": 0 if correct else tests,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in specs if m["name"] in values},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
