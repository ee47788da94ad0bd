#!/usr/bin/env python3
"""opinionchain benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload cv-embedding --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``).  The workloads, metric names and units are those in
BENCHMARK.json; perfbench/README.md explains each of them.

A run sets up the workload three times, each in a fresh interpreter
that imports ``opinionchain.cli`` and writes the seeded inputs;
``setup_s`` is the median wall time of the three.  A fourth interpreter
then runs passes of the workload's CLI commands for ``--seconds`` and
reports medians.
``--trace 1`` reports the per-layer metrics of traced passes instead.
The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3
BLAS_THREADS = 1  # one process, one thread: steadier than sharing the cores
RUN_LIMIT_S = 170.0  # every child is killed by then, so a run ends within 180 s


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = threads
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(mode, args, cwd, result, log, deadline, extra=()):
    """Run worker.py to completion; return (wall seconds, result dict)."""
    cmd = [sys.executable, str(HERE / "worker.py"), mode]
    cmd += ["--workload", args.workload, "--seed", str(args.seed), "--result", str(result)]
    cmd += list(extra)
    start = perf_counter()
    with open(log, "w", encoding="utf-8") as out:
        proc = subprocess.run(
            cmd,
            cwd=cwd,
            env=child_env(),
            stdout=out,
            stderr=subprocess.STDOUT,
            timeout=max(1.0, deadline - perf_counter()),
        )
    wall = perf_counter() - start
    if proc.returncode != 0:
        tail = Path(log).read_text(encoding="utf-8", errors="replace")[-2000:]
        raise RuntimeError(f"{mode} worker exited with {proc.returncode}:\n{tail}")
    return wall, json.loads(Path(result).read_text(encoding="utf-8"))


def digest_tree(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def samples_of(passes, key, name):
    """A figure's values over the passes that have it (some commands and
    their figures come from the first pass only)."""
    return [p[key][name] for p in passes if name in p[key]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = perf_counter() + RUN_LIMIT_S

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "opinionchain" / "cli.py").is_file():
        return fail(f"no opinionchain sources under {ROOT / 'src'}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    load_at_start = os.getloadavg()
    work = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_walls, setup_parts = [], []
        digests = set()
        for i in range(SETUPS):
            cwd = work / f"setup{i}"
            cwd.mkdir()
            wall, result = run_worker(
                "setup", args, cwd, work / f"setup{i}.json", work / f"setup{i}.log", deadline
            )
            setup_walls.append(wall)
            setup_parts.append(
                f"import {result['import_s']:.3f} + inputs {result['inputs_s']:.3f}"
            )
            digests.add(digest_tree(cwd))  # after the worker has exited: not in setup_s
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        _, measured = run_worker(
            "measure", args, cwd, work / "measure.json", work / "measure.log", deadline, extra
        )
    except (RuntimeError, subprocess.TimeoutExpired, OSError, json.JSONDecodeError) as exc:
        return fail(f"{args.workload} seed {args.seed}: {exc} (kept {work})")

    failures = list(measured["failures"])
    if len(digests) != 1:
        failures.append(f"the {SETUPS} set-ups wrote different inputs from one seed")
    attempted = SETUPS + 1 + measured["attempted"]
    passes = measured["passes"]
    if not passes:
        for line in failures:
            print(f"FAILED {line}", file=sys.stderr)
        return fail(f"no pass completed (kept {work})")

    machine = {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "blas_threads": child_env()["OPENBLAS_NUM_THREADS"],
        "loadavg_at_start": load_at_start,
        **measured["machine"],
    }
    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    header = f"workload {args.workload}, seed {args.seed}, trace {args.trace}"
    print(f"{header}: {len(passes)} pass(es)")
    for wall, parts in zip(setup_walls, setup_parts):
        print(f"  set-up: {wall:.3f} s wall ({parts} s inside the process)")
    for name in sorted(passes[0]["times"]):
        samples = samples_of(passes, "times", name)
        print(
            f"  {name}: median {statistics.median(samples):.3f} s of {len(samples)}"
            f" (range {min(samples):.3f}-{max(samples):.3f})"
        )
    for name in sorted(passes[0]["extra"]):
        samples = samples_of(passes, "extra", name)
        print(f"  {name}: median {statistics.median(samples):.4f} of {len(samples)}")
    for line in failures:
        print(f"  FAILED {line}")

    values, samples = {}, {}
    if args.trace:
        layers = measured["layers"]
        for name in layers[0]["metrics"] if layers else ():
            values[name] = statistics.median(l["metrics"][name] for l in layers)
            note = layers[0]["notes"].get(name)
            samples[name] = f"{note}, " if note else ""
            samples[name] += f"median of {len(layers)} traced pass(es)"
        for target in measured["absent_hooks"]:
            print(f"  absent hook target: {target}")
    else:
        values["setup_s"] = statistics.median(setup_walls)
        samples["setup_s"] = f"median of {SETUPS} set-ups"
        values["peak_rss_mb"] = measured["peak_rss_mb"]
        samples["peak_rss_mb"] = "one process"
        for name in passes[0]["values"]:
            found = samples_of(passes, "values", name)
            values[name] = statistics.median(found)
            samples[name] = f"median of {len(found)} pass(es)"

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            return fail(f"metric {m['name']} was not measured (kept {work})")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']} = {values[m['name']]:.6g} {m['unit']} ({samples[m['name']]})")

    if not failures:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
