#!/usr/bin/env python3
"""prooflab-bench: build the serving benchmark and run its workloads.

Builds the benchmark binary (this directory's CMakeLists.txt, which compiles the
repository's src/) into $CARGO_TARGET_DIR or .bench_build, runs one workload
-- or all four with --workload all -- and prints every metric by name and
unit.  The last line of standard output is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics BENCHMARK.json declares (--trace 0) or its
per-layer metrics (--trace 1).  Exits 1 on any verdict mismatch or
unexpected outcome, and when the build or the binary fails.

Usage:
  python3 prooflab-bench/run.py --delta-rate R --overload-rate R
      [--workload NAME|all] [--seed N] [--seconds T] [--trace 0|1]
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

import trace_summary

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold_onboard", "warm_full", "delta_openloop", "overload")
RUN_TIMEOUT_S = 150


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def contract():
    """The metric names BENCHMARK.json declares, by mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return ([m["name"] for m in bench["end_to_end"]],
            [m["name"] for m in bench["per_layer"]])


def build():
    """Configures (once) and builds the binary; returns its path."""
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                 or os.path.join(os.getcwd(), ".bench_build"))
    build_dir = os.path.join(build_root, "prooflab-bench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    # One build at a time per build directory.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       check=True, stdout=sys.stderr)
    return build_dir


def run_binary(build_dir, args, workload):
    out_dir = os.path.join(build_dir, "runs")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{workload}-seed{args.seed}"
                                 f"-trace{args.trace}")
    result_path, trace_path = stem + ".result.json", stem + ".trace.json"
    for path in (result_path, trace_path):
        if os.path.exists(path):
            os.remove(path)
    cmd = [os.path.join(build_dir, "prooflab_bench"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--threads", str(min(4, os.cpu_count() or 1)),
           "--delta-rate", str(args.delta_rate),
           "--overload-rate", str(args.overload_rate),
           "--result", result_path]
    if args.trace:
        cmd += ["--trace-out", trace_path]
    proc = subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    if not os.path.exists(result_path):
        raise RuntimeError(f"prooflab_bench exited {proc.returncode} without a result")
    with open(result_path) as f:
        result = json.load(f)
    if args.trace:
        summary = trace_summary.summarize(trace_path)
        result["trace_summary"] = summary
        layers = result["layers"]
        layers.update(summary["metrics"])
        # The ledger's bench.serve_next total against the binary's own
        # steady-clock sum of the same calls.
        bench_ms = result["service_ms_traced_sum"]
        traced_ms = summary["serve_next_ms"]
        layers["trace.service_reconcile_frac"] = {
            "value": abs(traced_ms - bench_ms) / bench_ms if bench_ms else "n/a",
            "unit": "fraction", "n": summary["requests"]}
    return proc.returncode, result


def fmt(value):
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report(result, names):
    """Human-readable block for one workload run."""
    prov = result["provenance"]
    log_lines = [f"== {result['workload']} =="]
    log_lines.append("provenance: " + ", ".join(
        f"{k}={fmt(v)}" for k, v in prov.items()))
    log_lines.append("outcomes: attempted={} failed={} mismatches={} ".format(
        result["attempted"], result["failed"], result["mismatches"])
        + " ".join(f"{k}={v}" for k, v in result["outcomes"].items()))
    for tenant, t in result.get("tenants", {}).items():
        log_lines.append(f"tenant {tenant}: " + " ".join(
            f"{k}={fmt(v)}" for k, v in t.items()))
    section = "layers" if prov["traced"] else "e2e"
    metrics = result[section]
    log_lines.append(f"{'metric':<34} {'value':>14} {'unit':<9} {'n':>7}")
    shown = list(metrics) if not prov["traced"] else names + [
        k for k in metrics if k not in names]
    for name in shown:
        m = metrics[name]
        log_lines.append(f"{name:<34} {fmt(m['value']):>14} {m['unit']:<9} "
                         f"{m['n']:>7}")
    if prov["traced"]:
        log_lines.append(trace_summary.format_summary(result["trace_summary"]))
    if not prov["generator_valid"]:
        log_lines.append("RUN INVALID: the open-loop generator fell behind its "
                         "schedule by more than the latency limit")
    print("\n".join(log_lines), flush=True)


def contract_metrics(result, names):
    section = result["layers" if result["provenance"]["traced"] else "e2e"]
    out = {}
    for name in names:
        m = section.get(name)
        if m is None:
            raise RuntimeError(f"{result['workload']}: metric {name} missing")
        value = m["value"]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            if section is result["e2e"]:
                raise RuntimeError(f"{result['workload']}: {name} has no value "
                                   f"(n={m['n']})")
            value = 0  # a layer this workload does not exercise
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--delta-rate", type=float, required=True,
                        help="delta_openloop offered rate, requests/s")
    parser.add_argument("--overload-rate", type=float, required=True,
                        help="overload offered rate, requests/s")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        e2e_names, layer_names = contract()
        build_dir = build()
    except (OSError, ValueError, KeyError, subprocess.CalledProcessError) as e:
        log(f"prooflab-bench: set-up failed: {e}")
        return 1
    names = layer_names if args.trace else e2e_names

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics, exit_code = True, 0, 0, {}, 0
    for workload in workloads:
        try:
            code, result = run_binary(build_dir, args, workload)
            report(result, names)
            got = contract_metrics(result, names)
        except (OSError, ValueError, KeyError, RuntimeError,
                subprocess.TimeoutExpired, trace_summary.TraceError) as e:
            log(f"prooflab-bench: {workload} failed: {e}")
            return 1
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        if code != 0:
            exit_code = 1
        if len(workloads) == 1:
            metrics = got
        else:
            metrics.update({f"{workload}.{k}": v for k, v in got.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return exit_code if correct else 1


if __name__ == "__main__":
    sys.exit(main())
