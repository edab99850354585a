"""Run one abelint benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; abelint is imported from ``src/`` there.
One process, one client, closed loop: each problem starts when the previous
one has finished.  A run repeats one pass of problems a number of times
fixed from --seconds (see ``workloads``), checks every output exactly, and
prints each metric by name and unit; each problem's time is the slowest of
its runs (see ``slowest_times``).  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.

The traced run first times one pass untraced, then installs the wrappers
of ``tracing`` and runs the whole workload traced; ``trace_overhead`` is
the traced time of that same pass over its untraced time.  Its spans are
written to ``.perfbench-out/`` in the checkout.

Exit codes: 0 all problems correct, 1 a problem failed or a stored digest
differs, 2 abelint could not be imported from the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# A problem running longer than this is stopped and counted as failed, so
# that a stall (such as the oracle doubling its samples for minutes) shows
# as a failure instead of a hung run.
PROBLEM_GUARD_S = 60.0
# No problem starts after this many seconds, so a run always ends well
# within three minutes; problems not started are not attempted.
RUN_DEADLINE_S = 150.0
SETUP_SAMPLES = 5
WORKLOADS = ("examples_oracle", "sweep", "ladder")


class ProblemTimeout(Exception):
    """A problem exceeded the per-problem time guard."""


def _on_alarm(signum, frame):
    raise ProblemTimeout(f"exceeded the {PROBLEM_GUARD_S:g} s guard")


def run_problems(problems, deadline, tracer=None):
    """Run problems in order; one record per problem attempted."""
    records = []
    for problem in problems:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            break
        key = len(records)
        if tracer is not None:
            tracer.problem = (problem.pid, key)
        gc.collect()  # no problem pays for collecting an earlier one's garbage
        signal.setitimer(signal.ITIMER_REAL, min(PROBLEM_GUARD_S, remaining))
        start = time.perf_counter()
        record = {"pid": problem.pid, "key": key, "error": None, "info": None}
        try:
            try:
                result = problem.call()
            finally:
                record["seconds"] = time.perf_counter() - start
                signal.setitimer(signal.ITIMER_REAL, 0)
            record["info"] = problem.check(result)
        except Exception as exc:  # a failing problem is counted, the run goes on
            record["error"] = type(exc).__name__
            print(f"problem {problem.pid} failed:", file=sys.stderr)
            traceback.print_exc(limit=-3, file=sys.stderr)
        records.append(record)
    return records


def tail(times):
    """Value at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  With ten samples or fewer
    no such percentile exists and the maximum is returned.
    """
    ordered = sorted(times)
    if len(ordered) <= 10:
        return ordered[-1], 100.0, 0
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered), 10


def workload_digest(records) -> str:
    """Order-independent sha256 over (problem, exact digest) of every problem."""
    lines = sorted({f"{r['pid']} {r['info']['digest'] if r['info'] else '-'}"
                    for r in records})
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def setup_probe(args) -> float:
    """Seconds from spawning a fresh interpreter until its inputs are ready."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.split()[-1]) - start


def slowest_times(records):
    """Each problem's time: the slowest of its runs, one per pass.

    The host alternates between a quiet speed and a contended one, each
    lasting from seconds to minutes, and the contended one is the common
    state.  A mean or median over a run mixes the two in whatever share the
    run happened to get; the slowest of a problem's runs, spread over the
    whole run, is at the contended speed unless every pass fell in a quiet
    stretch.  A problem that failed in any pass has no time.
    """
    runs, failed = {}, set()
    for r in records:
        runs.setdefault(r["pid"], []).append(r["seconds"])
        if r["error"] is not None:
            failed.add(r["pid"])
    return [max(times) for pid, times in runs.items() if pid not in failed]


def end_to_end(records, passes, setup_samples):
    times = slowest_times(records)
    value, percentile, beyond = tail(times) if times else (0.0, 0.0, 0)
    metrics = {
        "problems_per_s": (len(times) / sum(times) if times else 0.0, "1/s"),
        "problem_p50_s": (statistics.median(times) if times else 0.0, "s"),
        "problem_tail_s": (value, "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }
    basis = f"slowest of {passes} runs of each of {len(times)} problems"
    notes = {
        "problems_per_s": basis,
        "problem_p50_s": basis,
        "problem_tail_s": f"p{percentile:.1f} of {len(times)} problems, "
                          f"{beyond} beyond",
        "setup_s": f"median of {len(setup_samples)}",
    }
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        import workloads
        import abelint
    except ImportError as exc:
        print(f"error: cannot import abelint from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if Path(abelint.__file__).resolve().parent.parent != ROOT / "src":
        print(f"error: abelint was imported from {abelint.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    expected = workloads.load_expected()
    passes = workloads.build(args.workload, args.seed, args.seconds, expected)
    if args.setup_only:
        print(repr(time.monotonic()))
        return 0

    deadline = time.monotonic() + RUN_DEADLINE_S
    setup_samples = [] if args.trace else \
        [setup_probe(args) for _ in range(SETUP_SAMPLES)]
    signal.signal(signal.SIGALRM, _on_alarm)
    problems = [problem for one_pass in passes for problem in one_pass]
    planned = len(problems)
    tracer = None
    if args.trace:
        import tracing
        untraced = run_problems(passes[0], deadline)
        planned += len(passes[0])
        tracer = tracing.Tracer()
        tracer.install()
        try:
            measured = run_problems(problems, deadline, tracer)
        finally:
            tracer.uninstall()
        records = untraced + measured
    else:
        measured = records = run_problems(problems, deadline)

    failed = [r for r in records if r["error"] is not None]
    digest = workload_digest(measured)
    stored = expected.get(args.workload, {}).get(str(args.seed))
    digest_ok = stored is None or stored == digest
    correct = not failed and digest_ok and len(records) == planned

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"problems attempted {len(records)} of {planned}  failed {len(failed)}")
    if failed:
        kinds = Counter(r["error"] for r in failed)
        print("failures: " + ", ".join(f"{k} x{v}" for k, v in sorted(kinds.items())))
    if stored is None:
        print(f"digest {digest}  (no stored workload digest for this seed)")
    elif digest_ok:
        print(f"digest {digest}  (matches the stored digest)")
    else:
        print(f"digest {digest}  (DIFFERS from the stored {stored})")

    if args.trace:
        overhead = sum(r["seconds"] for r in measured[:len(untraced)]) \
            / max(sum(r["seconds"] for r in untraced), 1e-9)
        done = [r for r in measured if r["info"]]
        pairs = sum(tracer.basis_monomials.get((r["pid"], r["key"]), 0)
                    * r["info"]["cycles"] for r in done)
        worst = max((r["info"]["oracle_error"] for r in done), default=0.0)
        values = tracer.metrics(len(measured), pairs, worst, overhead)
        units = tracing.metric_units()
        metrics = {name: (values[name], units[name]) for name in units}
        notes = {}
        tracer.write(ROOT / ".perfbench-out"
                     / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        metrics, notes = end_to_end(records, len(passes), setup_samples)
        print(f"{'failed_fraction':<40} {len(failed) / max(len(records), 1):.6g}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<40} {value:.6g} {unit}{note}")

    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
