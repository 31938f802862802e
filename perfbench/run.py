"""The cklef benchmark: one workload, timed end to end or traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {powers,crosscheck,ktheory} \
        --seed N --seconds S --trace {0,1}

A pass generates the workload's inputs from the seed in one child process,
then runs every case in a fresh child of its own, one at a time (a closed
loop with one client).  Passes repeat while another one fits in ``--seconds``;
each metric is the median over passes.  Every case checks its answer against
a value known independently of the route being timed.  The last line of
standard output is one JSON object; a wrong answer makes it say
``"correct": false`` and the exit code 1.  See perfbench/README.md for the
workloads, the metrics and the layer map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

from benchtrace import self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

# Fixed for every commit, so that results stay comparable.
CAP_MB = 768  # RLIMIT_AS of each case child
CASE_TIMEOUT_S = 60
GEN_TIMEOUT_S = 60
RUN_LIMIT_S = 100  # no case starts later than this after measuring began

WORKLOADS = ("powers", "crosscheck", "ktheory")

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("answered_ratio", "ratio"),
)

LAYER_TIMES = (
    "endo.power",
    "endo.build",
    "index.counted",
    "index.series",
    "index.gamma",
    "index.polynomial",
    "index.fredholm",
    "ktheory.k_groups",
    "ktheory.k0_reduce",
    "ktheory.induced_k0",
    "ktheory.lefschetz",
    "ktheory.zeta_coeffs",
    "ktheory.zeta_fit",
    "graded.index_pairing",
    "graded.contraction",
    "graded.zeta_model",
    "cli.parse",
    "cli.render",
    "sampling.sample",
)
LAYER_COUNTS = ("endo.pairs", "index.scan_depth", "index.words", "ktheory.u_digits", "cli.doc_bytes")


class BenchError(Exception):
    """The benchmark itself could not run (not a failed case)."""


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


ENV = _env()


def spawn(args: list[str], timeout: float, log: str) -> tuple[float, int, float, bool]:
    """Run one child to completion; return (seconds alive, exit code,
    peak RSS in MiB from its own rusage, killed at the timeout)."""
    start = time.perf_counter()
    with open(log, "ab") as err:
        proc = subprocess.Popen(
            [sys.executable, *args],
            stdin=subprocess.DEVNULL,
            stdout=err,
            stderr=err,
            env=ENV,
            cwd=ROOT,
        )
    killed = threading.Event()

    def kill():
        killed.set()
        os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(timeout, kill)
    timer.start()
    # Wait without reaping, so the timer can never signal a reused pid.
    os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
    timer.cancel()
    timer.join()
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024, killed.is_set()


def _inputs_digest(workdir: str, cases: list[dict]) -> str:
    h = hashlib.sha256(json.dumps(cases, sort_keys=True).encode())
    inputs = os.path.join(workdir, "inputs")
    for name in sorted(os.listdir(inputs)):
        with open(os.path.join(inputs, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def run_pass(workload: str, seed: int, traced: bool, deadline: float) -> dict:
    workdir = os.path.join(OUT, workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    log = os.path.join(workdir, "stderr.log")
    flag = "1" if traced else "0"
    started = time.perf_counter()
    gen_s, code, _, killed = spawn(
        [os.path.join(HERE, "gen.py"), workload, str(seed), workdir, flag], GEN_TIMEOUT_S, log
    )
    if code != 0 or killed:
        raise BenchError(f"input generation failed (exit {code}); see {log}")
    with open(os.path.join(workdir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    cases = manifest["cases"]
    record = {
        "traced": traced,
        "digest": _inputs_digest(workdir, cases),
        "wall_s": 0.0,
        "setup_s": gen_s,
        "peak_rss_mb": 0.0,
        "cases": {},
        "spans": [manifest["spans"]],
        "sampling": manifest["sampling"],
    }
    for case in cases:
        cid = case["id"]
        if time.perf_counter() > deadline:
            record["cases"][cid] = {"status": "failed", "error": "not started: run limit"}
            record["wall_s"] += CASE_TIMEOUT_S
            continue
        result_path = os.path.join(workdir, f"result-{cid}.json")
        alive_s, code, rss, killed = spawn(
            [os.path.join(HERE, "case.py"), workdir, cid, flag, str(CAP_MB)], CASE_TIMEOUT_S, log
        )
        record["peak_rss_mb"] = max(record["peak_rss_mb"], rss)
        if killed or code != 0 or not os.path.exists(result_path):
            why = "timeout" if killed else f"exit {code} without a result"
            record["cases"][cid] = {"status": "failed", "error": why}
            record["wall_s"] += alive_s
            continue
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        record["wall_s"] += result["timed_s"]
        record["setup_s"] += alive_s - result["timed_s"] - result["check_s"]
        record["spans"].append(result.pop("spans"))
        result["rss_mb"] = rss
        record["cases"][cid] = result
    record["duration_s"] = time.perf_counter() - started
    return record


def layer_metrics(rec: dict) -> dict[str, float]:
    out = {f"{name}_s": 0.0 for name in LAYER_TIMES}
    for spans in rec["spans"]:
        for name, t in self_times(spans).items():
            out[f"{name}_s"] = out.get(f"{name}_s", 0.0) + t
    for name in LAYER_COUNTS:
        values = [c.get("counts", {}).get(name, 0) for c in rec["cases"].values()]
        # u_digits is the largest over the cases; the other counts add up.
        out[name] = max(values) if name == "ktheory.u_digits" else sum(values)
    s = rec["sampling"]
    out["sampling.acceptance"] = s["accepted"] / s["attempts"] if s["attempts"] else 0.0
    return out


def per_layer_units() -> dict[str, str]:
    units = {f"{name}_s": "s" for name in LAYER_TIMES}
    units["trace.overhead_s"] = "s"
    units.update({name: "count" for name in LAYER_COUNTS})
    units["sampling.acceptance"] = "ratio"
    return units


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "cklef", "__init__.py")):
        print(f"no cklef sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    # Compile the package's bytecode once, as an installed package has it;
    # a CLI user does not pay that on every run.
    code = subprocess.run([sys.executable, "-c", "import cklef"], env=ENV, cwd=ROOT).returncode
    if code != 0:
        print("cannot import cklef", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    passes: list[dict] = []
    while True:
        # A traced run alternates traced and untraced passes, so that the
        # difference of their wall times gives the tracing overhead.
        traced = trace and len(passes) % 2 == 0
        try:
            rec = run_pass(args.workload, args.seed, traced, deadline)
        except BenchError as exc:
            print(f"benchmark error: {exc}", file=sys.stderr)
            return 2
        passes.append(rec)
        elapsed = time.perf_counter() - start
        if any(c["status"] == "wrong" for c in rec["cases"].values()):
            break
        # Expect the next pass to take as long as the slowest one so far.
        expected_end = elapsed + max(r["duration_s"] for r in passes)
        if len(passes) >= (2 if trace else 1) and expected_end > args.seconds:
            break
        if expected_end > RUN_LIMIT_S:
            break

    problems = []
    first = passes[0]
    for rec in passes:
        if rec["digest"] != first["digest"]:
            problems.append("inputs differ between passes of one seed")
        for cid, case in rec["cases"].items():
            if case["status"] == "wrong":
                problems.append(f"{cid}: wrong answer: {'; '.join(case['problems'])}")
            elif case["status"] == "ok" and case["counts"] != first["cases"][cid].get("counts"):
                problems.append(f"{cid}: size counts differ between passes")
    attempted = sum(len(rec["cases"]) for rec in passes)
    failed = sum(c["status"] == "failed" for rec in passes for c in rec["cases"].values())

    if trace:
        traced = [rec for rec in passes if rec["traced"]]
        plain = [rec for rec in passes if not rec["traced"]]
        layers = [layer_metrics(rec) for rec in traced]
        values = {name: statistics.median(v[name] for v in layers) for name in layers[0]}
        values["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced)
            - statistics.median(r["wall_s"] for r in plain)
            if plain
            else 0.0
        )
        units = per_layer_units()
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in passes),
            "setup_s": statistics.median(r["setup_s"] for r in passes),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
            "answered_ratio": (attempted - failed) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "cap_mb": CAP_MB,
        "case_timeout_s": CASE_TIMEOUT_S,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "problems": problems,
        "pass_records": [
            {k: v for k, v in rec.items() if k != "spans"} for rec in passes
        ],
    }
    with open(os.path.join(OUT, f"{args.workload}-summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, default=str)

    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes, "
          f"{attempted} cases attempted, {failed} failed "
          f"(failed_ratio {failed / attempted:.4f})")
    for name, m in metrics.items():
        print(f"  {name:24s} {m['value']:>16.6f} {m['unit']}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
