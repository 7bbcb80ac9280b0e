"""Run one workload of the bpnet benchmark and print its metrics.

    python3 perfbench/run.py --workload hier-cli --seed 1 --seconds 25 --trace 0

Run from the root of a bpnet checkout.  Inputs are generated from
``--seed``; the run sets them up, then runs whole rounds of operations,
each on freshly generated inputs, until ``--seconds`` have passed.  It
sets up again at even intervals during the run; ``setup_s`` is the median
of all set-ups.  Every operation is checked against its
known answer.  Times are CPU times at a reference speed (see ``speed``).
The last line of stdout is a JSON object: with ``--trace 0`` it holds the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-ups per run; setup_s is their median
SETUPS = 9
WORKLOADS = ("hier-cli", "sim-wide", "rule-walk", "derive")
# kinds whose tail is reported next to the median
TAILED = ("validate_ms", "fmt_ms", "check_ms", "simulate_ms", "rule_step_ms", "derive_ms")


def _args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Run:
    """Samples of one measuring loop; a failed operation's sample is +inf."""

    def __init__(self, kinds):
        self.samples: dict[str, list[float]] = {k: [] for k in kinds}
        # the gauge's mark at each sample
        self.marks: dict[str, list[int]] = {k: [] for k in kinds}
        self.failed: Counter[str] = Counter()
        self.unexpected: list[str] = []
        self.rounds = 0
        self.round_ms: list[float] = []
        # measuring time, the stand-in for a percentile that is +inf
        self.elapsed_ms = 0.0

    @property
    def attempted(self) -> int:
        return sum(len(s) for s in self.samples.values())

    def at_reference_speed(self, gauge: speed.Gauge) -> None:
        """Scale every sample by the machine's speed when it was taken."""
        for kind, samples in self.samples.items():
            self.samples[kind] = [ms * gauge.scale(mark)
                                  for ms, mark in zip(samples, self.marks[kind])]


def run_round(ops, run: Run, tracer=None, gauge: speed.Gauge | None = None) -> None:
    """Time each operation and check its answer; tracing covers ``run`` only,
    and ``gauge`` measures the machine's speed between operations."""
    round_ms = 0.0
    for op in ops:
        if op.prepare is not None:
            op.prepare()
        # every operation starts from the same collector state: the young
        # generations empty and all that is alive frozen, so its collections
        # depend on its own allocations, not on the benchmark's or on
        # earlier operations' leftovers
        gc.collect()
        gc.freeze()
        if tracer is not None:
            tracer.begin()
        mark = gauge.mark() if gauge is not None else 0
        t0 = speed.clock()
        result = op.run()
        ms = (speed.clock() - t0) * 1000.0
        if tracer is not None:
            tracer.end()
        round_ms += ms
        verdict = op.check(result)
        del result
        if gauge is not None:
            gauge.after(ms)
        run.marks[op.kind].append(mark)
        if verdict is None:
            run.samples[op.kind].append(ms)
            continue
        run.samples[op.kind].append(math.inf)
        run.failed[op.kind] += 1
        status, why = verdict
        if status == "wrong" or op.known is None or op.known not in why:
            run.unexpected.append(f"{op.label}: {status}: {why}")
    run.rounds += 1
    run.round_ms.append(round_ms)
    # collect between rounds, then freeze what survives: the benchmark's own
    # objects then cost the package's collections nothing
    gc.unfreeze()
    gc.collect()
    gc.freeze()


def end_to_end(run: Run, setup_times: list[float], stats) -> tuple[dict, list[str]]:
    """The end-to-end metrics and a human-readable table of them.

    A percentile that falls on a failed operation is +inf; JSON has no
    infinity, so it is reported as the run's measured length, the longest
    time the run could have observed, and marked ``censored``.
    """
    setup_s = statistics.median(setup_times)
    metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
    table = [f"{'metric':<22}{'value':>12}  {'unit':<5}{'level':>7}{'samples':>9}{'failed':>8}"]
    table.append(f"{'setup_s':<22}{setup_s:>12.4f}  {'s':<5}{'':>7}{len(setup_times):>9}{0:>8}")

    def put(name: str, level: float, value: float, samples: list[float], failed: int):
        censored = math.isinf(value)
        if censored:
            value = run.elapsed_ms
        metrics[name] = {"value": value, "unit": "ms"}
        table.append(f"{name:<22}{value:>12.4f}  {'ms':<5}{'p' + format(level, 'g'):>7}"
                     f"{len(samples):>9}{failed:>8}{'  censored' if censored else ''}")

    for kind, samples in run.samples.items():
        failed = run.failed[kind]
        put(f"{kind}.p50", 50.0, stats.percentile(samples, 50.0), samples, failed)
        if kind in TAILED:
            level, value = stats.tail(samples)
            put(f"{kind}.tail", level, value, samples, failed)
    return metrics, table


def per_layer(tracer, traced: Run, untraced: Run, spans) -> dict:
    """Per-layer metrics, normalised per traced round."""
    rounds = traced.rounds
    calls, self_ms = tracer.self_times()
    metrics: dict[str, dict] = {}

    def put(name: str, value: float, unit: str):
        metrics[name] = {"value": value, "unit": unit}

    names = [f"{m.removeprefix('bpnet.')}.{a}" for m, a in spans.FUNCTIONS]
    names += [f"refine.rule.{kind}" for kind in spans.RULE_KINDS.values()]
    for name in names:
        put(f"{name}.calls", calls[name] / rounds, "calls/round")
        put(f"{name}.self_ms", self_ms[name] / rounds, "ms/round")
    counts = tracer.counts
    attempted = counts["refine.rule.attempted"]
    put("refine.rule.rejected_ratio",
        counts["refine.rule.rejected"] / attempted if attempted else 0.0, "ratio")
    nodes = counts["check.search.nodes"]
    put("check.search.nodes", nodes / rounds, "nodes/round")
    put("check.search.distinct_states", counts["check.search.distinct_states"] / rounds,
        "states/round")
    put("check.search.distinct_ratio",
        counts["check.search.distinct_states"] / nodes if nodes else 0.0, "ratio")
    put("sim.flatten_with_boundary.calls_per_command",
        tracer.calls_per_op("sim.flatten_with_boundary"), "calls/command")
    put("sim.simulate_greedy.rules_fired", counts["sim.simulate_greedy.rules_fired"] / rounds,
        "rules/round")
    traced_ms = statistics.median(traced.round_ms)
    plain_ms = statistics.median(untraced.round_ms)
    put("trace.overhead_ms", traced_ms - plain_ms, "ms/round")
    put("trace.overhead_pct", 100.0 * (traced_ms - plain_ms) / plain_ms, "%")
    return metrics


def main(argv: list[str] | None = None) -> int:
    args = _args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # set and dict iteration orders, and with them the work some of the
        # package's loops do, follow the hash seed: fix it so runs repeat
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    if not (ROOT / "src" / "bpnet" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        print("perfbench: src/bpnet or fixtures/ is missing; run from a bpnet checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    os.environ["BPN_COLOR"] = "never"
    import stats
    import spans
    import workloads

    scratch = ROOT / ".perfbench_work"
    work = scratch / f"{args.workload}-{os.getpid()}"
    spare = scratch / f"{args.workload}-{os.getpid()}-setup"
    # (seconds, the gauge's mark) of each set-up
    setups = []
    gauge = speed.Gauge()

    def set_up(directory: Path):
        """The fixture suite and round 0's inputs, timed."""
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        gc.collect()
        mark = gauge.mark()
        t0 = speed.clock()
        workload = workloads.Workload(args.workload, args.seed, directory)
        first = workload.round(0)
        setups.append((speed.clock() - t0, mark))
        return workload, first

    try:
        workload, first = set_up(work)
        gc.collect()
        gc.freeze()
        # every tail needs enough samples, however short the run
        per_round = Counter(op.kind for op in first)
        min_rounds = max(math.ceil(stats.MIN_TAIL_SAMPLES / per_round[k]) for k in TAILED)

        def rounds():
            """Round 0 from the set-up, then fresh rounds until time is up."""
            yield 0, first
            r = 1
            while True:
                shutil.rmtree(work / f"r{r - 1}", ignore_errors=True)
                yield r, workload.round(r)
                r += 1

        run = Run(workloads.KINDS)
        start = time.perf_counter()
        if args.trace:
            # each round runs twice on the same inputs, untraced and traced
            # in alternating order; the difference is the tracing overhead
            untraced = Run(workloads.KINDS)
            tracer = spans.Tracer(workloads.bpnet.textio.print_model)
            for r, ops in rounds():
                again = workload.round(r)
                for traced in (False, True) if r % 2 == 0 else (True, False):
                    if not traced:
                        run_round(ops, untraced)
                        continue
                    tracer.install()
                    try:
                        run_round(again, run, tracer)
                    finally:
                        tracer.uninstall()
                if time.perf_counter() - start >= args.seconds:
                    break
            tracer.dump(ROOT / ".perfbench_traces" / f"{args.workload}-seed{args.seed}.jsonl")
            metrics = per_layer(tracer, run, untraced, spans)
            for kind in run.samples:
                run.samples[kind] += untraced.samples[kind]
            run.failed += untraced.failed
            run.unexpected += untraced.unexpected
            for name, m in metrics.items():
                print(f"{name:<48}{m['value']:>14.4f}  {m['unit']}")
        else:
            # the other set-ups are spread over the run, like the samples
            next_setup = args.seconds / SETUPS
            for r, ops in rounds():
                run_round(ops, run, gauge=gauge)
                elapsed = time.perf_counter() - start
                if run.rounds >= min_rounds and elapsed >= args.seconds:
                    break
                if elapsed >= next_setup and len(setups) < SETUPS:
                    set_up(spare)
                    shutil.rmtree(spare)
                    next_setup += args.seconds / SETUPS
            run.elapsed_ms = (time.perf_counter() - start) * 1000.0
            gauge.measure()
            run.at_reference_speed(gauge)
            setup_times = [seconds * gauge.scale(mark) for seconds, mark in setups]
            metrics, table = end_to_end(run, setup_times, stats)
            print("\n".join(table))
            print(f"speed: the fixed work took {statistics.median(gauge.samples_ms):.4f} ms "
                  f"(median of {len(gauge.samples_ms)}); reference {speed.REFERENCE_MS} ms")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(spare, ignore_errors=True)
        if scratch.is_dir() and not any(scratch.iterdir()):
            scratch.rmdir()

    failed = sum(run.failed.values())
    print(f"workload {args.workload} seed {args.seed}: {run.rounds} rounds, "
          f"{failed}/{run.attempted} failed ({100.0 * failed / run.attempted:.1f}%)")
    for kind, n in sorted(run.failed.items()):
        print(f"  {kind}: {n}/{len(run.samples[kind])} failed")
    for line in run.unexpected[:10]:
        print(f"  unexpected: {line}")
    print(json.dumps({
        "correct": not run.unexpected,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
