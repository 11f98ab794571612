#!/usr/bin/env python3
"""ITV benchmark runner.

Builds the benchmark (itvbench/CMakeLists.txt compiles the repository's src/
tree next to the benchmark program), runs one workload for --seconds of
repetitions, checks the outputs, and prints one JSON result as the last line
of stdout:

    python3 itvbench/run.py --workload vod-open --seed 1 --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 adds a
traced repetition (one Chrome-trace span per RPC, written under
.bench_build/traces/) and reports the per-layer metrics. Every result is
also kept under .bench_build/results/ for diff.py.

Each repetition is a fresh process that boots the simulated cluster, sets up
the workload and measures its windows. Sim-time metrics and message counts
are deterministic for a seed, so every repetition must report them
identically; host times (process CPU, peak RSS) are the medians over the
repetitions.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "itvbench"
BINARY = BUILD_DIR / "itvbench"
MIN_REPS = 3
# Stop starting repetitions once this much wall time is used, so a run ends
# well inside the 180 s a caller allows.
HARD_CAP_S = 140.0


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no ITV source tree under {ROOT}")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target", "itvbench"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise BenchError("build failed")


def run_rep(workload, seed, trace_out=None):
    """One repetition: a fresh process; traced when `trace_out` is given."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=HARD_CAP_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchError(f"{workload} seed {seed} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} seed {seed} printed no record")
    return json.loads(lines[-1])


# Host CPU on a shared machine drifts by tens of percent within seconds, and
# the drift hits the workload and the reference kernel (src/reference.cc,
# timed in short laps all through each repetition's window, on the same CPU)
# alike. Host times are therefore reported on the reference scale: raw CPU x
# (REFERENCE_NOMINAL_S / the repetition's median lap, per 1M events), i.e. as
# if the reference took its nominal time. README.md ("Clocks") gives each
# workload's spread across seeds with and without the scale.
REFERENCE_NOMINAL_S = 0.30


def scale(rec):
    return REFERENCE_NOMINAL_S / rec["host"]["reference_cpu_s"]


def raw_host_ms_per_sim_s(rec):
    return rec["host"]["window_cpu_s"] * 1e3 / rec["sim"]["window_sim_s"]


def host_ms_per_sim_s(rec):
    return raw_host_ms_per_sim_s(rec) * scale(rec)


def setup_s(rec):
    return rec["host"]["setup_cpu_s"] * scale(rec)


def rss_kib_per_settop(rec):
    host = rec["host"]
    return (host["rss_with_community_kib"] - host["rss_before_settops_kib"]) / rec["settops"]


def measure(workload, seed, seconds, reserve_s=0.0):
    """Repetitions until `seconds` (minus `reserve_s`) of wall time is used."""
    start = time.monotonic()
    budget = max(1.0, seconds - reserve_s)
    reps = []
    while True:
        reps.append(run_rep(workload, seed))
        elapsed = time.monotonic() - start
        per_rep = elapsed / len(reps)
        if len(reps) >= MIN_REPS and elapsed + per_rep > budget:
            break
        if elapsed + per_rep > HARD_CAP_S - 30:
            break
    return reps


def checks_for(reps, traced):
    """Output checks: the program's own plus determinism and seed checks."""
    first = reps[0]
    checks = [dict(c) for c in first["checks"]]
    same = all(r["sim"] == first["sim"] and r["ledger"] == first["ledger"] and
               r["inputs_digest"] == first["inputs_digest"] for r in reps[1:])
    checks.append({"name": "repeats_identical", "ok": same,
                   "detail": f"{len(reps)} repetitions of seed {first['seed']}"})
    checks.append({"name": "second_seed_changes_inputs",
                   "ok": first["inputs_digest"] != first["next_seed_digest"],
                   "detail": f"{first['inputs_digest']} vs {first['next_seed_digest']}"})
    if traced is not None:
        differ = sorted(k for k in set(first["sim"]) | set(traced["sim"])
                        if first["sim"].get(k) != traced["sim"].get(k))
        checks.append({"name": "traced_matches_untraced",
                       "ok": not differ and traced["ledger"] == first["ledger"],
                       "detail": ", ".join(differ[:8]) or "sim metrics and ledger equal"})
        checks.extend(dict(c) for c in traced["checks"]
                      if c["name"] == "trace_json_valid")
    for rec in reps:
        for c in rec["checks"]:
            if not c["ok"] and c not in checks:
                checks.append(dict(c))
    return checks


def derive(reps, traced):
    """Every metric the runner can report, by name."""
    sim = dict(reps[0]["sim"])
    values = dict(sim)
    host = [host_ms_per_sim_s(r) for r in reps]
    values["setup_s"] = statistics.median(setup_s(r) for r in reps)
    values["host.raw_setup_s"] = statistics.median(r["host"]["setup_cpu_s"] for r in reps)
    values["host_ms_per_sim_s"] = statistics.median(host)
    values["rss_kib_per_settop"] = statistics.median(rss_kib_per_settop(r) for r in reps)
    events = sim["sim.window_events"]
    values["sim.host_ns_per_event"] = statistics.median(
        host_ms_per_sim_s(r) * sim["window_sim_s"] * 1e6 / events
        for r in reps) if events else 0.0
    values["host.raw_ms_per_sim_s"] = statistics.median(raw_host_ms_per_sim_s(r) for r in reps)
    values["host.reference_s"] = statistics.median(r["host"]["reference_cpu_s"] for r in reps)
    values["reps"] = len(reps)
    if traced is not None:
        values["trace.overhead_host_ms_per_sim_s"] = (
            host_ms_per_sim_s(traced) - values["host_ms_per_sim_s"])
        values["trace.spans"] = traced["spans_recorded"]
        values["trace.spans_skipped"] = traced["spans_skipped"]
    return values


def print_report(workload, seed, values, reps, checks, bench):
    print(f"== itvbench {workload} seed {seed}: {len(reps)} repetitions")
    print(f"   ops attempted {reps[0]['attempted']}  failed {reps[0]['failed']}  "
          f"settops {reps[0]['settops']}  servers {reps[0]['servers']}")
    sim = reps[0]["sim"]
    print("-- end to end")
    for m in bench["end_to_end"]:
        print(f"   {m['name']:<24} {values[m['name']]:>14.6g} {m['unit']}")
    for name, base in [("ticket_mean_ms", "ticket_samples"),
                       ("ticket_p50_ms", "ticket_samples"),
                       ("ticket_p99_ms", "ticket_samples"),
                       ("picture_p50_ms", "picture_samples"),
                       ("picture_p99_ms", "picture_samples"),
                       ("open_miss_frac", "opens.attempted"),
                       ("interrupt_p50_s", "interrupt_samples"),
                       ("interrupt_p90_s", "interrupt_samples"),
                       ("viewer_lost_frac", None)]:
        extra = f"  (n={sim[base]:.0f})" if base else ""
        print(f"   {name:<24} {sim[name]:>14.6g}{extra}")
    print("-- ledger: requests per interface.method "
          "(bg per server-s | fg per open, clamped residuals marked *)")
    rows = sorted(reps[0]["ledger"],
                  key=lambda r: -(r["fg_per_open"] + r["bg_per_server_s"]))
    for row in rows[:30]:
        mark = "*" if row["fg_residual"] < 0 else " "
        print(f"   {row['method']:<38} {row['bg_per_server_s']:>10.4f} | "
              f"{row['fg_per_open']:>9.4f}{mark} (fg n={row['fg_count']}, "
              f"residual {row['fg_residual']:.1f})")
    print("-- ratios with their bases")
    for name, base in [("rpc.resolve_cache.hit_ratio", "rpc.resolve_cache.lookups"),
                       ("load.shed_ratio", "opens.attempted"),
                       ("load.sibling_retry_ok_ratio", "load.sibling_retries"),
                       ("media.open_ok_ratio", "media.mms_opens")]:
        print(f"   {name:<34} {sim[name]:.4f} of {sim[base]:.0f}")
    print("-- checks")
    for c in checks:
        print(f"   [{'ok' if c['ok'] else 'FAIL'}] {c['name']}: {c['detail']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [w["name"] for w in bench["workloads"]]
        if args.workload not in names:
            raise BenchError(f"unknown workload {args.workload}; known: {names}")
        build()
        traced = None
        if args.trace:
            # Leave room for the traced repetition (about 1.5 untraced ones).
            probe = time.monotonic()
            reps = [run_rep(args.workload, args.seed)]
            reserve = 1.5 * (time.monotonic() - probe)
            reps += measure(args.workload, args.seed,
                            args.seconds - (time.monotonic() - probe), reserve)
            trace_dir = ROOT / ".bench_build" / "traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
            traced = run_rep(args.workload, args.seed,
                             trace_dir / f"{args.workload}-seed{args.seed}.json")
        else:
            reps = measure(args.workload, args.seed, args.seconds)
        checks = checks_for(reps, traced)
        values = derive(reps, traced)
        metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
        out = {}
        for m in metrics:
            if m["name"] not in values:
                raise BenchError(f"metric {m['name']} not produced")
            out[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as err:
        log(f"itvbench: {err}")
        return 1

    print_report(args.workload, args.seed, values, reps, checks, bench)
    result = {
        "correct": all(c["ok"] for c in checks),
        "attempted": int(reps[0]["attempted"]),
        "failed": int(reps[0]["failed"]),
        "metrics": out,
    }
    results_dir = ROOT / ".bench_build" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed,
                    "trace": args.trace, "values": values, "checks": checks,
                    "ledger": reps[0]["ledger"], "result": result,
                    "reps_host": [r["host"] for r in reps]},
                   indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
