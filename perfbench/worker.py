"""Child process of the benchmark; run.py starts it, never a user.

    worker.py setup   --workload W --seed N --result FILE
    worker.py measure --workload W --seed N --result FILE --seconds S --trace 0|1

``setup`` imports the CLI, writes the workload's inputs into the
current directory and exits; run.py times it from the outside.
``measure`` runs passes of the workload's CLI commands in this one
process, through ``opinionchain.cli.main``, until the next pass would
end after ``--seconds``.  With ``--trace 1`` every pass is an untraced
run followed by a traced one whose outputs must be byte-identical.
Results go to ``--result`` as JSON; stdout carries the CLI's own output.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

MAX_PASSES = 64


def _machine() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


class Counter:
    """Operations attempted and the failures among them."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name, passed, detail=""):
        self.attempted += 1
        if not passed:
            self.failures.append(f"{name}: {detail}")
        return passed


def run_pass(cli, workload, tag, counter, first, tracer=None):
    """Run the workload's commands once; return (times, outcome, outs).
    Commands marked ``once`` run only when ``first`` is true."""
    outs, times = {}, {}
    ok = True
    for cmd in workload.commands():
        if cmd.once and not first:
            continue
        out = Path("passes") / tag / cmd.label
        argv = [a.format(out=out, **outs) for a in cmd.argv]
        gc.collect()
        start = perf_counter()
        try:
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc = tracer.call(f"cli.{argv[0]}", cli.main, (argv,))
        except Exception:  # a crash is a failed operation, not a dead run
            traceback.print_exc()
            rc = "an exception"
        times[cmd.label] = perf_counter() - start
        outs[cmd.label] = out
        ok &= counter.check(f"{tag} {cmd.label}", rc == 0, f"exited with {rc}")
    if not ok:
        return times, None, outs
    try:
        outcome = workload.evaluate(outs, times)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        counter.check(f"{tag} outputs readable", False, repr(exc))
        return times, None, outs
    for name, passed, detail in outcome.checks:
        counter.check(f"{tag} {name}", passed, detail)
    return times, outcome, outs


def compare_outputs(workload, reference, outs, tag, counter):
    for cmd in workload.commands():
        if cmd.label not in outs:
            continue
        for name in cmd.compare:
            same = (reference[cmd.label] / name).read_bytes() == (
                outs[cmd.label] / name
            ).read_bytes()
            counter.check(f"{tag} {cmd.label}/{name} identical to pass u0", same, "differs")


def measure(args, cli, import_s):
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    counter = Counter()
    passes, layers, absent = [], [], []
    reference = None
    start = perf_counter()
    while len(passes) < MAX_PASSES:
        n = len(passes)
        pass_start = perf_counter()
        times, outcome, outs = run_pass(cli, workload, f"u{n}", counter, n == 0)
        if outcome is None:
            break
        passes.append({"times": times, "values": outcome.values, "extra": outcome.extra})
        if reference is None:
            reference = outs
        else:
            compare_outputs(workload, reference, outs, f"u{n}", counter)
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                ttimes, toutcome, touts = run_pass(
                    cli, workload, f"t{n}", counter, n == 0, tracer
                )
            finally:
                tracer.uninstall()
            if toutcome is None:
                break
            compare_outputs(workload, reference, touts, f"t{n}", counter)
            metrics, notes = tracing.layer_metrics(tracer.spans)
            metrics["cli.import_s"] = import_s
            metrics["trace.absent_hooks"] = len(tracer.absent)
            metrics["trace.overhead_s"] = sum(ttimes.values()) - sum(times.values())
            layers.append({"metrics": metrics, "notes": notes})
            absent = tracer.absent
        # The next pass is assumed to last as long as this one, less the
        # commands marked once, which only the first pass runs.
        now = perf_counter()
        pass_times = [times, ttimes] if args.trace else [times]
        once_s = sum(
            t.get(c.label, 0.0) for t in pass_times for c in workload.commands() if c.once
        )
        if (now - start) + (now - pass_start - once_s) > args.seconds:
            break
    return {
        "attempted": counter.attempted,
        "failures": counter.failures,
        "passes": passes,
        "layers": layers,
        "absent_hooks": absent,
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "machine": _machine(),
    }


def setup(args, cli, import_s):
    from workloads import WORKLOADS

    start = perf_counter()
    WORKLOADS[args.workload](args.seed).setup()
    return {"import_s": import_s, "inputs_s": perf_counter() - start}


def main():
    start = perf_counter()
    import opinionchain.cli as cli

    import_s = perf_counter() - start
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    run = setup if args.mode == "setup" else measure
    result = run(args, cli, import_s)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
