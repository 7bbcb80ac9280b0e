"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Checks that a seed gives byte-identical inputs, that every generated model
is well-formed, that the percentile helpers handle failed operations (+inf),
and that a short run of each workload passes with and without tracing.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import statistics
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bpnet.core  # noqa: E402
import bpnet.refine  # noqa: E402
import bpnet.textio  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

SCRATCH = ROOT / ".perfbench_work" / "selftest"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _files(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


class SameSeedSameInputs(unittest.TestCase):
    def tearDown(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def test_generated_files_are_byte_identical(self):
        for name in ("hier-cli", "sim-wide"):
            trees = []
            for copy in ("a", "b"):
                work = SCRATCH / copy / name
                work.mkdir(parents=True)
                workload = workloads.Workload(name, 7, work)
                labels = [op.label for r in (0, 1) for op in workload.round(r)]
                trees.append((_files(work), labels))
            self.assertEqual(trees[0], trees[1], name)
            self.assertTrue(trees[0][0], name)

    def test_in_process_inputs_are_identical(self):
        def outcomes(seed):
            result = []
            for op in workloads.rule_walk_round(seed, 0, SCRATCH)[:60]:
                op.prepare()
                result.append(op.run())
            return result

        self.assertEqual(outcomes(3), outcomes(3))
        walks = [[bpnet.textio.print_model(m) for m in _walk_models(seed)] for seed in (3, 3)]
        self.assertEqual(walks[0], walks[1])
        pairs = [[(bpnet.textio.print_model(base), bpnet.textio.print_model(refined))
                  for base, refined in _derive_pairs(seed)] for seed in (3, 3, 4)]
        self.assertEqual(pairs[0], pairs[1])
        self.assertNotEqual(pairs[0], pairs[2])

    def test_seeds_differ(self):
        texts = {gen.model_text(gen.hier_model(random.Random(f"{s}:hier:0:0"), 100))
                 for s in range(3)}
        self.assertEqual(len(texts), 3)


def _walk_models(seed):
    """The final model of each walk of round 0, drawn twice from scratch."""
    models = []
    for i in range(4):
        rng = random.Random(f"{seed}:walk:0:{i}")
        model = bpnet.textio.parse_model(gen.model_text(gen.hier_model(rng, 100)))
        for _ in range(20):
            text = workloads.propose(model, rng, rng.choice(workloads.PROPOSALS))
            if text is not None:
                model = workloads.apply_text(model, text) or model
        models.append(model)
    return models


def _derive_pairs(seed):
    pairs = []
    for i in range(3):
        rng = random.Random(f"{seed}:derive:0:{i}")
        base = bpnet.textio.parse_model(gen.model_text(gen.derive_base(rng)))
        pairs.append((base, workloads.derive_pair(base, rng, ["unfold", "unfold"])))
    return pairs


class GeneratedModelsAreWellFormed(unittest.TestCase):
    def assertWellFormed(self, text: str, what: str):
        model = bpnet.textio.parse_model(text)
        self.assertEqual(bpnet.core.validate_model(model), [], what)
        return model

    def test_hierarchical_models_and_scripts(self):
        for seed in range(3):
            for size in (100, 400):
                rng = random.Random(f"{seed}:{size}")
                tree = gen.hier_model(rng, size)
                self.assertEqual(len(tree.processes()), size)
                model = self.assertWellFormed(gen.model_text(tree), f"hier {seed} {size}")
                names = [p.name for p in tree.processes()]
                self.assertLess(len(set(names)), len(names), "member names repeat")
                script, _ = gen.script_text(rng, tree)
                kinds = {type(s).__name__ for s in bpnet.textio.parse_script(script).steps}
                self.assertEqual(len(kinds), 6, "the script uses all six rules")
                refined, _ = bpnet.refine.apply_script(model, bpnet.textio.parse_script(script))
                self.assertEqual(bpnet.core.validate_model(refined), [])

    def test_wide_nets_and_derive_bases(self):
        for seed in range(3):
            for members in (100, 300):
                tree = gen.wide_model(random.Random(f"{seed}:{members}"), members)
                self.assertWellFormed(gen.model_text(tree), f"wide {seed} {members}")
                self.assertIsNone(tree.root.net.members[0].net)
            tree = gen.derive_base(random.Random(seed))
            self.assertWellFormed(gen.model_text(tree), f"derive base {seed}")

    def test_walks_stay_well_formed(self):
        for model in _walk_models(5):
            self.assertEqual(bpnet.core.validate_model(model), [])


class Percentiles(unittest.TestCase):
    def test_percentile_sorts_inf_last(self):
        self.assertEqual(stats.percentile([3.0, math.inf, 1.0, 2.0], 50), 2.0)
        self.assertEqual(stats.percentile([1.0, math.inf], 75), math.inf)
        self.assertEqual(stats.percentile([math.inf] * 3, 50), math.inf)

    def test_tail_level_keeps_ten_samples_beyond(self):
        self.assertIsNone(stats.tail_level(19))
        for n, level in ((20, 50), (39, 50), (40, 75), (99, 75), (100, 90), (199, 90),
                         (200, 90), (10000, 90)):
            self.assertEqual(stats.tail_level(n), level, n)
            rank = math.ceil(level / 100 * n - 1e-9)
            self.assertGreaterEqual(n - rank, stats.TAIL_BEYOND)

    def test_tail_with_failures(self):
        samples = [float(i) for i in range(30)] + [math.inf] * 10
        self.assertEqual(stats.tail(samples), (75.0, 29.0))
        self.assertEqual(stats.tail(samples + [math.inf]), (75.0, math.inf))
        with self.assertRaises(ValueError):
            stats.tail([1.0] * 19)

    def test_infinite_percentile_is_censored_at_the_run_length(self):
        result = run.Run(workloads.KINDS)
        for kind in workloads.KINDS:
            result.samples[kind] = [1.0] * 30 + [math.inf] * 15
        result.elapsed_ms = 1234.5
        metrics, _ = run.end_to_end(result, [0.5], stats)
        self.assertEqual(metrics["validate_ms.p50"]["value"], 1.0)
        self.assertEqual(metrics["validate_ms.tail"]["value"], 1234.5)
        json.dumps(metrics, allow_nan=False)


class Speed(unittest.TestCase):
    def test_gauge_times_the_fixed_work_between_operations(self):
        gauge = speed.Gauge()
        self.assertEqual(gauge.mark(), 1)
        for _ in range(3):
            gauge.after(speed.EVERY_MS / 2)
        self.assertEqual(gauge.mark(), 2)

    def test_samples_scale_by_the_timings_around_them(self):
        gauge = speed.Gauge()
        gauge.samples_ms = [speed.REFERENCE_MS * f for f in (1.0, 1.0, 2.0, 2.0, 2.0, 2.0)]
        result = run.Run(workloads.KINDS)
        result.samples[workloads.FMT] = [3.0, 3.0, math.inf]
        result.marks[workloads.FMT] = [1, 4, 4]
        result.at_reference_speed(gauge)
        near = speed.NEAR
        self.assertAlmostEqual(result.samples[workloads.FMT][0],
                               3.0 / statistics.fmean(gauge.samples_ms[max(0, 1 - near):1 + near])
                               * speed.REFERENCE_MS)
        self.assertAlmostEqual(result.samples[workloads.FMT][1], 1.5)
        self.assertEqual(result.samples[workloads.FMT][2], math.inf)


class TracedOperations(unittest.TestCase):
    def test_flatten_calls_per_command_do_not_grow_with_rounds(self):
        ops = [workloads.guarded(op)
               for op in workloads.fixture_ops({workloads.CONFLUENCE}, SCRATCH)]
        tracer = spans.Tracer(bpnet.textio.print_model)
        per_command = []
        tracer.install()
        try:
            for _ in range(3):
                traced = run.Run(workloads.KINDS)
                run.run_round(ops, traced, tracer)
                self.assertFalse(traced.unexpected, traced.unexpected)
                per_command.append(tracer.calls_per_op("sim.flatten_with_boundary"))
        finally:
            tracer.uninstall()
        self.assertGreater(per_command[0], 0)
        self.assertEqual(per_command, per_command[:1] * 3)
        self.assertEqual(len({span[4] for span in tracer.spans}), 3 * len(ops))


class SmokeRuns(unittest.TestCase):
    def _run(self, *argv, cwd=ROOT):
        return subprocess.run(list(argv), cwd=cwd, capture_output=True,
                              text=True, timeout=300)

    def test_each_workload(self):
        for workload in SPEC["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    proc = self._run(*SPEC["command"], "--workload", workload["name"],
                                     "--seed", "1", "--seconds", "1", "--trace", str(trace))
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stdout[-2000:])
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {n: m["unit"] for n, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, m in result["metrics"].items():
                        self.assertTrue(math.isfinite(m["value"]), name)
                        if key == "end_to_end":
                            self.assertGreater(m["value"], 0, name)

    def test_refuses_to_run_outside_a_checkout(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = self._run(*SPEC["command"], "--workload", "derive", "--seed", "1",
                             "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(SCRATCH, ignore_errors=True)


def tearDownModule():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    if SCRATCH.parent.is_dir() and not any(SCRATCH.parent.iterdir()):
        SCRATCH.parent.rmdir()


if __name__ == "__main__":
    unittest.main()
