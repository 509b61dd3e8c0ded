#!/usr/bin/env python3
"""End-to-end benchmark of the harmonia serving stack (see README.md).

Builds bench_e2e/ (the harmonia libraries from ../src plus the
harmonia_e2e driver) in Release into .bench_build/, then:

  run.py --workload W --seed N --seconds S --trace 0|1
      Runs one workload; the last stdout line is one JSON object with
      correct / attempted / failed / metrics (end-to-end metrics, or with
      --trace 1 the per-layer ones). Exits nonzero on a wrong answer.
  run.py set --seed N --reps R --out FILE
      Runs every workload untraced (R repetitions) and traced, and writes
      the full results as one BENCH set file.
  run.py compare A.json B.json
      One row per workload x metric: virtual and count metrics must match
      exactly, wall metrics must not worsen by more than their bound
      (unresolved when either side's quartile spread exceeds it). Exits
      nonzero on a regression or a virtual drift.
  run.py selftest smoke|determinism --binary PATH
      The ctest checks registered in CMakeLists.txt.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "bench_e2e"
SPEC_PATH = ROOT / "BENCHMARK.json"
# Every driver run must finish well inside three minutes.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def build():
    """Configures (once) and builds harmonia_e2e; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        raise RuntimeError(f"no harmonia sources at {ROOT / 'src'}: nothing to build")
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target", "harmonia_e2e",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return BUILD_DIR / "harmonia_e2e"


def run_binary(binary, workload, seed, *, seconds=0, reps=1, trace_dir=None,
               smoke=False, scratch=None):
    """Runs one workload; returns (exit code, result dict or None)."""
    scratch = scratch or BUILD_ROOT / "tmp"
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--reps={reps}", f"--scratch={scratch}"]
    if trace_dir is not None:
        cmd.append(f"--trace={trace_dir}")
    if smoke:
        cmd.append("--scale=smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if lines[:-1]:
        log("\n".join(lines[:-1]))
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    return proc.returncode, result


def contract_line(result, spec, traced):
    """The benchmark contract's result line for one run."""
    metrics = {}
    for m in spec["per_layer" if traced else "end_to_end"]:
        got = result["metrics"].get(m["name"])
        if got is None:
            raise RuntimeError(f"metric {m['name']} missing from the result")
        if got["unit"] != m["unit"]:
            raise RuntimeError(f"metric {m['name']} in {got['unit']}, declared {m['unit']}")
        metrics[m["name"]] = {"value": got["median"], "unit": m["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def cmd_run(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise RuntimeError(f"unknown workload {args.workload}; choose one of {names}")
    binary = build()
    trace_dir = BUILD_ROOT / "trace" if args.trace else None
    code, result = run_binary(binary, args.workload, args.seed, seconds=args.seconds,
                              trace_dir=trace_dir)
    if result is None:
        raise RuntimeError(f"harmonia_e2e exited {code} without a result")
    print(json.dumps(contract_line(result, spec, bool(args.trace))), flush=True)
    return 0 if code == 0 and result["correct"] else 1


def cmd_set(args):
    spec = load_spec()
    binary = build()
    trace_dir = BUILD_ROOT / "trace"
    out = {"seed": args.seed, "reps": args.reps, "workloads": {}}
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        code_u, untraced = run_binary(binary, name, args.seed, reps=args.reps)
        code_t, traced = run_binary(binary, name, args.seed, trace_dir=trace_dir)
        if untraced is None or traced is None:
            raise RuntimeError(f"{name}: harmonia_e2e exited without a result")
        ok = ok and code_u == 0 and code_t == 0
        out["workloads"][name] = {"untraced": untraced, "traced": traced}
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"wrote {args.out}")
    return 0 if ok else 1


def spread(m):
    return (m["q3"] - m["q1"]) / abs(m["median"]) if m["median"] else 0.0


def compare_metric(a, b, bound):
    """Status of one metric between two runs of one workload."""
    if a["clock"] != "wall":
        return "same" if a["median"] == b["median"] else "DRIFT"
    if bound is None:
        return "info"
    lower = a["better"] == "lower"
    worse = (b["median"] - a["median"]) if lower else (a["median"] - b["median"])
    worse_frac = worse / abs(a["median"]) if a["median"] else 0.0
    if spread(a) > bound or spread(b) > bound:
        all_better = (max(b["values"]) < min(a["values"]) if lower
                      else min(b["values"]) > max(a["values"]))
        return "better" if all_better else "unresolved"
    return "REGRESSION" if worse_frac > bound else "ok"


def cmd_compare(args):
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    with open(args.a) as f:
        set_a = json.load(f)
    with open(args.b) as f:
        set_b = json.load(f)
    bad = 0
    print(f"{'workload':<20} {'metric':<36} {'clock':<8} {'A':>14} {'B':>14} "
          f"{'B/A-1':>9}  status")
    for workload in sorted(set(set_a["workloads"]) | set(set_b["workloads"])):
        wa = set_a["workloads"].get(workload)
        wb = set_b["workloads"].get(workload)
        if wa is None or wb is None:
            print(f"{workload:<20} present in only one set")
            bad += 1
            continue
        for run, per_layer in (("untraced", False), ("traced", True)):
            ma, mb = wa[run]["metrics"], wb[run]["metrics"]
            for name in ma:
                if ma[name]["per_layer"] != per_layer or name not in mb:
                    continue
                a, b = ma[name], mb[name]
                status = compare_metric(a, b, None if per_layer else bounds.get(name))
                bad += status in ("DRIFT", "REGRESSION")
                rel = (b["median"] / a["median"] - 1.0) if a["median"] else 0.0
                print(f"{workload:<20} {name:<36} {a['clock']:<8} {a['median']:>14.6g} "
                      f"{b['median']:>14.6g} {rel:>+9.4f}  {status}")
    print(f"{bad} regression(s) or virtual drift(s)")
    return 1 if bad else 0


def cmd_selftest(args):
    spec = load_spec()
    binary = Path(args.binary).resolve()
    scratch = binary.parent / "selftest"
    failures = []
    for w in spec["workloads"]:
        name = w["name"]
        runs = []
        for traced in (False, True) if args.kind == "smoke" else (True, True):
            code, result = run_binary(binary, name, 1, smoke=True, scratch=scratch / "tmp",
                                      trace_dir=scratch / "trace" if traced else None)
            if result is None or code != 0 or not result["correct"]:
                failures.append(f"{name}: run failed (exit {code})")
                break
            runs.append(result)
        if len(runs) < 2:
            continue
        if args.kind == "smoke":
            for traced, result in zip((False, True), runs):
                declared = {m["name"]: m["unit"]
                            for m in spec["per_layer" if traced else "end_to_end"]}
                emitted = {n: m["unit"] for n, m in result["metrics"].items()
                           if m["per_layer"] == traced}
                for n, unit in declared.items():
                    if emitted.get(n) != unit:
                        failures.append(f"{name}: {n} declared in {unit}, "
                                        f"emitted {emitted.get(n, 'nothing')}")
                for n in emitted.keys() - declared.keys():
                    failures.append(f"{name}: {n} emitted but not declared")
        else:
            a, b = runs
            for n, m in a["metrics"].items():
                if m["clock"] == "wall":
                    continue
                if json.dumps(m["values"]) != json.dumps(b["metrics"][n]["values"]):
                    failures.append(f"{name}: {n} differs between two runs of seed 1")
    for f in failures:
        log(f"FAIL {f}")
    log(f"selftest {args.kind}: {'ok' if not failures else f'{len(failures)} failure(s)'}")
    return 1 if failures else 0


def main():
    argv = sys.argv[1:]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    if argv and argv[0] in ("set", "compare", "selftest"):
        sub = parser.add_subparsers(dest="cmd", required=True)
        p = sub.add_parser("set")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--reps", type=int, default=5)
        p.add_argument("--out", required=True)
        p = sub.add_parser("compare")
        p.add_argument("a")
        p.add_argument("b")
        p = sub.add_parser("selftest")
        p.add_argument("kind", choices=["smoke", "determinism"])
        p.add_argument("--binary", required=True)
        args = parser.parse_args(argv)
        handler = {"set": cmd_set, "compare": cmd_compare, "selftest": cmd_selftest}[args.cmd]
    else:
        parser.add_argument("--workload", required=True)
        parser.add_argument("--seed", type=int, default=1)
        parser.add_argument("--seconds", type=float, default=15)
        parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
        args = parser.parse_args(argv)
        handler = cmd_run
    try:
        return handler(args)
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log(f"run.py: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
