"""CI gate: streaming telemetry is bounded and observation-only.

Runs the ``telemetry_stress`` workload (the kernel stress shape with a
span per operation, ~1.3e4 spans) twice — once retaining every span,
once through the full streaming pipeline (1-in-16 deterministic trace
sampling, bounded-buffer incremental JSONL export, path/tenant
aggregation) — and asserts the properties the telemetry layer promises:

1. **No perturbation** — the kernel's event stream (every schedule and
   step, hashed through the probe seam) is byte-identical with and
   without the pipeline attached.
2. **Bounded memory** — the sinked tracer's ``spans_retained`` high
   water stays under the exporter's buffer bound, against ~1.3e4
   records when retaining everything.
3. **Lossless export** — the incrementally written JSONL is
   byte-identical to the end-of-run ``export_jsonl`` over the same
   (sampled) span set.
4. **Complete aggregates** — the streamed per-path/per-tenant
   aggregate (counts, histograms, exclusive time) equals the replay of
   the full dump through a fresh aggregator, even though the exporter
   only saw 1 in 16 traces.

Exit status 0 when all four hold; 1 otherwise.  Artifacts land in
``results/`` (the streamed JSONL and the aggregate snapshot).
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.export import TraceDump, export_jsonl  # noqa: E402
from repro.obs.streaming import (  # noqa: E402
    AggregatingSink,
    JsonlStreamSink,
    TelemetryPipeline,
    TraceSampler,
    replay,
)
from repro.prof.bench import DEFAULT_SEED, _kernel_stress_run  # noqa: E402
from repro.simcore.probe import Probe  # noqa: E402

#: Exporter buffer bound; the retained high-water gate derives from it.
BUFFER_SIZE = 512

#: Head-based sampling rate for the gated run.
KEEP_ONE_IN = 16

#: Pinned bound on the sinked tracer's retained high-water mark: one
#: span buffer plus one mark buffer, each spilled at BUFFER_SIZE.
RETAINED_BOUND = 2 * BUFFER_SIZE


class EventStreamDigest(Probe):
    """Hashes the kernel's schedule/step stream through the probe seam."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.steps = 0

    def on_schedule(self, when: float, queue_size: int) -> None:
        self._hash.update(f"s|{when!r}|{queue_size}\n".encode())

    def on_step(self, now: float) -> None:
        self.steps += 1
        self._hash.update(f"p|{now!r}\n".encode())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def main() -> int:
    out_dir = REPO_ROOT / "results"
    out_dir.mkdir(exist_ok=True)
    failures: list[str] = []

    # Run A: retain-all reference.
    digest_a = EventStreamDigest()
    tracer_a, _ = _kernel_stress_run(
        DEFAULT_SEED, trace_spans=True, probes=(digest_a,)
    )

    # Run B: the streaming pipeline.
    digest_b = EventStreamDigest()
    stream_path = out_dir / "telemetry_stream.jsonl"
    sampler = TraceSampler(KEEP_ONE_IN, seed=DEFAULT_SEED)
    aggregator = AggregatingSink()
    exporter = JsonlStreamSink(stream_path, buffer_size=BUFFER_SIZE)
    pipeline = TelemetryPipeline(
        sampler=sampler, aggregator=aggregator, exporter=exporter
    )
    tracer_b, counters_b = _kernel_stress_run(
        DEFAULT_SEED, sink=pipeline, trace_spans=True, probes=(digest_b,)
    )
    tracer_b.close()

    # 1. The simulation itself must be byte-identical.
    if digest_a.hexdigest() != digest_b.hexdigest():
        failures.append(
            "event stream diverged under the streaming sink: "
            f"{digest_a.hexdigest()[:16]} != {digest_b.hexdigest()[:16]}"
        )

    # 2. Telemetry memory must be bounded by the exporter buffer.
    high_water = counters_b.spans_retained_high_water
    total = len(tracer_a.spans) + len(tracer_a.marks)
    if not 0 < high_water <= RETAINED_BOUND:
        failures.append(
            f"spans_retained high-water {high_water} outside (0, "
            f"{RETAINED_BOUND}] (retain-all holds {total})"
        )
    if len(tracer_b.spans) or len(tracer_b.marks):
        failures.append(
            f"sinked tracer retained {len(tracer_b.spans)} spans / "
            f"{len(tracer_b.marks)} marks; expected none"
        )

    # 3. The streamed JSONL must match export_jsonl over the kept set.
    check = TraceSampler(KEEP_ONE_IN, seed=DEFAULT_SEED)
    kept = TraceDump(
        spans=[s for s in tracer_a.spans if check.keep(s.trace_id)],
        marks=[m for m in tracer_a.marks if check.keep(m.trace_id)],
    )
    if stream_path.read_text() != export_jsonl(kept):
        failures.append(
            f"streamed JSONL differs from export_jsonl over the "
            f"{len(kept.spans)}-span sampled set"
        )

    # 4. Streamed aggregates (exclusive time included) must equal the
    # replayed ones.
    streamed = aggregator.snapshot()
    replayed = replay(tracer_a.spans, tracer_a.marks).snapshot()
    if json.dumps(streamed, sort_keys=True) != json.dumps(replayed, sort_keys=True):
        failures.append("streamed aggregate differs from the replayed one")
    aggregator.write(out_dir / "telemetry_aggregate.json")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(
            f"streaming gate ok: {digest_b.steps} kernel steps unchanged, "
            f"retained high-water {high_water}/{total} "
            f"(bound {RETAINED_BOUND}), {len(kept.spans)} of "
            f"{len(tracer_a.spans)} spans exported at 1/{KEEP_ONE_IN} "
            f"sampling, aggregates complete"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
