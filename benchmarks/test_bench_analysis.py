"""Benchmark: the perf-lint pass and the kernel win it paid for.

Two halves, both machine-independent:

* **checker op counts** — the ``perf-*`` pass over its own fixture
  corpus and the live kernel tree, reduced to deterministic proxies for
  its runtime cost (files, AST nodes, hot roots) and its yield
  (findings per rule pre-fix, zero unsuppressed findings post-fix);
* **kernel-stress counters** — the ``kernel_stress`` workload run on
  both kernels: the lazy-deletion heap the tree shipped before this
  pass and the compacting heap it shipped after.  Event counts must be
  identical (the compaction is trace-invisible) while the heap
  high-water mark drops by an order of magnitude.

The digest is written to ``BENCH_6.json`` at the repo root for future
PRs to diff against.
"""

import ast
import json
import pathlib

from repro.analysis.cli import all_checkers
from repro.analysis.framework import Analyzer, iter_python_files
from repro.analysis.perf_rules import PerfChecker, hot_roots
from repro.prof.bench import DEFAULT_SEED, _kernel_stress_run

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURE_DIR = REPO_ROOT / "tests" / "analysis" / "fixtures" / "perf"
KERNEL_PATHS = [
    str(REPO_ROOT / "src" / "repro" / "simcore"),
    str(REPO_ROOT / "src" / "repro" / "net"),
]

SNAPSHOT_FORMAT = "repro.analysis.bench/1"


def _perf_analyzer() -> Analyzer:
    """The perf-lint pass as the CLI runs it (``--select 'perf-*'``).

    Every checker is loaded so that suppressions naming other families
    (the kernel's audited ``mem-*`` noqa comments) are recognised rather
    than reported as unknown rules.
    """
    return Analyzer(all_checkers(), select=["perf-*"])


def _lint_op_counts() -> dict:
    """Deterministic cost/yield proxies for the perf-lint pass."""
    analyzer = _perf_analyzer()
    files = iter_python_files(KERNEL_PATHS)
    ast_nodes = 0
    hot_files = 0
    hot_root_count = 0
    for path in files:
        module = analyzer.parse(path)
        ast_nodes += sum(1 for _ in ast.walk(module.tree))
        roots = hot_roots(module)
        hot_root_count += len(roots)
        if roots:
            hot_files += 1

    kernel = analyzer.run(KERNEL_PATHS)
    fixtures = _perf_analyzer().run([str(FIXTURE_DIR)])
    fixture_findings: dict[str, int] = {}
    for finding in fixtures.findings:
        fixture_findings[finding.rule] = fixture_findings.get(finding.rule, 0) + 1

    return {
        "files_checked": kernel.files_checked,
        "hot_files": hot_files,
        "hot_roots": hot_root_count,
        "ast_nodes": ast_nodes,
        "kernel_findings_unsuppressed": len(kernel.findings),
        "kernel_suppressed": kernel.suppressed,
        "fixture_findings": dict(sorted(fixture_findings.items())),
    }


def _kernel_stress_counts() -> dict:
    """The kernel_stress workload on both kernels, op counters only."""
    _, lazy = _kernel_stress_run(DEFAULT_SEED, compact_cancelled=False)
    _, compacting = _kernel_stress_run(DEFAULT_SEED, compact_cancelled=True)
    return {
        "events_scheduled": lazy.events_scheduled,
        "events_processed": lazy.events_processed,
        "messages_delivered": lazy.messages_delivered,
        "heap_high_water": {
            "lazy_deletion": lazy.heap_high_water,
            "compacting": compacting.heap_high_water,
        },
        "events_identical": (
            lazy.events_scheduled == compacting.events_scheduled
            and lazy.events_processed == compacting.events_processed
            and lazy.messages_delivered == compacting.messages_delivered
        ),
    }


def test_bench_analysis(benchmark, publish):
    lint = benchmark.pedantic(_lint_op_counts, rounds=1, iterations=1)
    stress = _kernel_stress_counts()

    # The pass pays for itself: every rule fires on the fixture corpus
    # (the pre-fix proof), and the repaired kernel is clean.
    assert set(lint["fixture_findings"]) == {
        rule.id for rule in PerfChecker.rules
    }
    assert lint["kernel_findings_unsuppressed"] == 0
    assert lint["kernel_suppressed"] >= 1  # the audited _resume try
    assert lint["hot_files"] >= 7

    # The kernel win: identical traces, an order of magnitude less heap.
    assert stress["events_identical"]
    high_water = stress["heap_high_water"]
    assert high_water["compacting"] * 10 <= high_water["lazy_deletion"]
    assert stress["events_processed"] >= 10_000  # the ~1e4-1e5 scale

    digest = {
        "format": SNAPSHOT_FORMAT,
        "bench": "repro.analysis",
        "pr": 6,
        "seed": DEFAULT_SEED,
        "perf_lint": lint,
        "kernel_stress": stress,
    }
    path = REPO_ROOT / "BENCH_6.json"
    path.write_text(json.dumps(digest, sort_keys=True, indent=2) + "\n")
    publish("bench_analysis_digest", json.dumps(digest, sort_keys=True, indent=2))

    # The digest itself is deterministic (machine-independent counts).
    assert _kernel_stress_counts() == stress
