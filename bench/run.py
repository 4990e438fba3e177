"""The steinerlab benchmark.

    python3 bench/run.py --workload build --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  It generates the workload's op list from
the seed, times interpreter start-up through ``import steinerlab`` several
times, then runs the op list in passes until ``--seconds`` are used up.
Each pass is a fresh interpreter, so no memoized result survives from one
pass to the next: ``bench/worker.py`` for the in-process workloads, one
``steinerlab`` process per op for ``cli``.  Every op's result is checked
against a known answer.  The last line of stdout is one JSON object with
the end-to-end metrics (``--trace 0``) or the per-layer metrics of the
traced passes (``--trace 1``); README.md in this directory lists them.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import answers
import plan
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
HASH_SEED = "0"
SETUP_PROBES = 3
PROBES_PER_PASS = 1
MIN_PASSES = 2
PROCESS_TIMEOUT_S = 150
CLI_MAIN = "import sys; from steinerlab.cli import main; sys.exit(main())"
PROBE = "import time, steinerlab; print(time.clock_gettime(time.CLOCK_MONOTONIC))"
BIG_COEFFICIENT = "1" + "0" * 5000  # above CPython's 4300-digit int/str limit

E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "ok_ratio": "ratio", "peak_rss_mib": "MiB",
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = HASH_SEED
    env.pop("STEINERLAB_MAX_GENERATORS", None)
    return env


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def setup_seconds(env) -> float:
    """Seconds from spawning an interpreter to ``import steinerlab`` done."""
    start = now()
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"import steinerlab failed:\n{proc.stderr}")
    return float(proc.stdout) - start


def load_digests() -> dict:
    return json.loads((BENCH / "digests.json").read_text())


# -- in-process passes ---------------------------------------------------------------


def worker_pass(ops, env, traced):
    """One pass in a fresh interpreter: ([[id, ms, why]], raw trace)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py")],
        input=json.dumps({"ops": ops, "trace": traced}),
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    out = json.loads(proc.stdout.splitlines()[-1])
    return out["ops"], out["trace"]


# -- cli passes --------------------------------------------------------------------


def _interval_with_duplicate_differential() -> str:
    doc = answers.complex_document(
        {0: ["0", "1"], 1: ["i"]}, {"i": {"1": 1, "0": -1}}, {"0": 1, "1": 1})
    doc["differential"].append({"generator": "i", "terms": []})
    return answers.dump(doc)


def _oriental2_with_duplicate_degrees() -> str:
    doc = answers.oriental_document(2)
    doc["degrees"].append(dict(doc["degrees"][0]))
    return answers.dump(doc)


def write_cli_inputs(cli_dir: Path) -> None:
    """The files cli ops read: shapes, a negative fixture, malformed and
    defect inputs.  All are written from the schema, not by steinerlab."""
    if cli_dir.exists():
        shutil.rmtree(cli_dir)
    (cli_dir / "a_directory").mkdir(parents=True)
    bad_version = answers.oriental_document(2)
    bad_version["format_version"] = "steinerlab/0"
    files = {
        "oriental2.json": answers.dump(answers.oriental_document(2)),
        "oriental3.json": answers.dump(answers.oriental_document(3)),
        "loop.json": answers.dump(answers.complex_document(
            {0: ["x", "y"], 1: ["e", "f"]},
            {"e": {"y": 1, "x": -1}, "f": {"x": 1, "y": -1}},
            {"x": 1, "y": 1})),
        "broken_d2.json": answers.dump(answers.complex_document(
            {0: ["v", "w"], 1: ["e"], 2: ["c"]},
            {"e": {"v": 1, "w": -1}, "c": {"e": 1}},
            {"v": 1, "w": 1})),
        "bad_version.json": answers.dump(bad_version),
        "not_json.txt": "{not json\n",
        "big_coefficient.json": answers.point_document(BIG_COEFFICIENT),
        "dup_differential.json": _interval_with_duplicate_differential(),
        "dup_degrees.json": _oriental2_with_duplicate_degrees(),
    }
    for name, text in files.items():
        (cli_dir / name).write_text(text)


def cli_call(op, env, cli_dir, trace_out=None):
    """Run one op as a steinerlab process: (seconds, exit code, stdout)."""
    if trace_out is None:
        cmd = [sys.executable, "-c", CLI_MAIN, *op["argv"]]
    else:
        cmd = [sys.executable, str(BENCH / "clitrace.py"), str(trace_out), *op["argv"]]
    stdin = (cli_dir / op["stdin"]).read_bytes() if op["stdin"] else b""
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, input=stdin, env=env, cwd=cli_dir,
                              capture_output=True, timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, None, b""
    return time.perf_counter() - start, proc.returncode, proc.stdout


def check_cli(op, code, stdout, digests):
    if code != op["expect"]:
        return f"exit {code}, want {op['expect']}"
    if op.get("stdout") == "suspended_big_point":
        want = answers.suspended_point_document(BIG_COEFFICIENT).encode("utf-8")
        return None if stdout == want else "stdout is not the suspended point"
    if code == 2:
        return None if not stdout else "usage error wrote to stdout"
    recorded = digests["cli"].get(op["id"])
    return None if recorded == answers.digest(stdout) else "stdout digest differs from the recorded one"


def cli_pass(ops, env, traced, digests):
    cli_dir = WORK / "cli"
    trace_out = WORK / "cli_trace.json" if traced else None
    results, records, latencies = [], [], []
    for op in ops:
        took, code, stdout = cli_call(op, env, cli_dir, trace_out)
        latencies.append(took)
        results.append([op["id"], took * 1000, check_cli(op, code, stdout, digests)])
        if traced:
            records.append(json.loads(trace_out.read_text()))
            trace_out.unlink()
    raw = None
    if traced:
        raw = spans.merge_raw(records)
        raw["durations"][spans.CLI_SPAN] = latencies
        raw["self_s"][spans.CLI_SPAN] = sum(latencies) - raw["root_s"]
    return results, raw


# -- the run -----------------------------------------------------------------------


def run(workload, seed, seconds, trace):
    env = child_env()
    ops = plan.generate(workload, seed)
    WORK.mkdir(exist_ok=True)
    digests = load_digests()
    if workload == "cli":
        write_cli_inputs(WORK / "cli")
        one_pass = functools.partial(cli_pass, ops, env, digests=digests)
    else:
        one_pass = functools.partial(worker_pass, ops, env)

    # A shared virtual machine can alternate, in phases of seconds, between
    # a fast mode and one up to ~1.8x slower, so every time is a best of
    # samples spread over the run: each op's minimum over the untraced
    # passes, and the minimum of the set-up probes taken between passes.
    setup = [setup_seconds(env) for _ in range(SETUP_PROBES)]
    passes = []  # (traced, results, raw)
    start = now()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append((traced, *one_pass(traced)))
        setup += [setup_seconds(env) for _ in range(PROBES_PER_PASS)]
        elapsed = now() - start
        per_pass = elapsed / len(passes)
        if len(passes) >= MIN_PASSES and elapsed + per_pass > seconds:
            break

    failures = {}
    for _, results, _ in passes:
        for op_id, _, why in results:
            if why is not None:
                failures.setdefault(op_id, why)
    best = best_latencies(p for p in passes if not p[0])
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": sys.version.split()[0], "executable": sys.executable,
        "PYTHONHASHSEED": HASH_SEED, "passes": len(passes), "ops_per_pass": len(ops),
        "latency_samples": len(best), "setup_probes": len(setup),
        "unexpected_failures": sorted(set(failures) - plan.KNOWN_DEFECTS),
        "known_defects_failing": sorted(set(failures) & plan.KNOWN_DEFECTS),
    }
    if trace:
        traced_passes = [p for p in passes if p[0]]
        per_pass = [spans.layer_metrics(raw, sum(ms for _, ms, _ in results) / 1000)
                    for _, results, raw in traced_passes]
        metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        metrics["trace.overhead_s"] = (sum(best_latencies(traced_passes).values())
                                       - sum(best.values())) / 1000
        units = per_layer_units()
    else:
        lat = list(best.values())
        metrics = {
            "setup_s": min(setup),
            "wall_s": sum(lat) / 1000,
            "op_p50_ms": statistics.median(lat),
            "op_p90_ms": statistics.quantiles(lat, n=10)[-1],
            "ok_ratio": 1 - len(failures) / len(ops),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        }
        units = E2E_UNITS
    for op_id, why in sorted(failures.items()):
        print(f"failed op {op_id}: {why}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name:48s} {value:14.6g} {units[name]}", file=sys.stderr)
    return {
        "correct": not record["unexpected_failures"],
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }, record


def best_latencies(passes) -> dict:
    """Each op's lowest latency in ms over the given passes."""
    best = {}
    for _, results, _ in passes:
        for op_id, ms, _ in results:
            best[op_id] = min(ms, best.get(op_id, ms))
    return best


def per_layer_units() -> dict:
    units = {}
    for name in spans.SPAN_NAMES:
        units.update({f"{name}.calls": "count", f"{name}.busy_s": "s", f"{name}.p50_ms": "ms"})
    for module in spans.MODULES:
        units.update({f"{module}.busy_s": "s", f"{module}.share": "ratio"})
    units.update({
        "core.gens_built": "count", "colimits.ambient_gens": "count",
        "colimits.survivors": "count", "colimits.based_ratio": "ratio",
        "io.bytes_out": "B", "io.bytes_in": "B", "trace.overhead_s": "s",
    })
    return units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=plan.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "steinerlab" / "__init__.py").is_file():
        print(f"error: no steinerlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("run-record " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
