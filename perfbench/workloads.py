"""The benchmark's three workloads, driven through the program's public API.

``serve_edge`` and ``serve_paper`` serve one snappix_s checkpoint with a
single lane (``lanes=1``, ``max_batch_size=8``, the default 2 ms flush
deadline) from this process's main thread; ``train_pipeline`` runs the
staged SnapPix training pipeline cold.  Each workload returns its
metrics, its phases' request counts and its correctness checks; a
traced run (``trace=True``) returns per-layer metrics and the spans.

Every workload reports the same end-to-end metric names
(``END_TO_END``) so runs compare name by name; see ``README.md`` for
what each name measures on the training workload.
"""

from __future__ import annotations

import resource
import statistics
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

import repro.pretrain.pretrainer as pretrainer_module
import repro.tasks.training as training_module
from repro.ce import CodedExposureSensor
from repro.core import PipelineConfig, SnapPixSystem
from repro.data import DATASET_SPECS
from repro.nn import AdamW, Module, Tensor
from repro.runtime import ArtifactStore, build_pipeline_stages
from repro.serving import (BundleExecutor, InferenceServer, ModelRegistry,
                           RequestRejected, fresh_bundle, quantize_bundle,
                           save_servable)

from openloop import SUCCEEDED, Phase, run_burst, run_open_loop
from spans import Span, Tracer

#: End-to-end metrics (untraced run) and their units.
END_TO_END = {
    "setup_s": "s",
    "throughput_cps": "clips/s",
    "p50_ms.light": "ms",
    "p99_ms.light": "ms",
    "p50_ms.heavy": "ms",
    "p99_ms.heavy": "ms",
    "max_rate_rps": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced run) and their units.  A workload that does
#: not run a layer reports 0 for it.
PER_LAYER = {
    "serving.submit_us.p50": "us",
    "serving.run_batch_ms.p50": "ms",
    "serving.resolve_us.p50": "us",
    "serving.screen_us_per_clip": "us",
    "serving.overhead_share": "share",
    "serving.worker_busy_share": "share",
    "serving.queue_wait_ms.p50": "ms",
    "serving.queue_wait_ms.p99": "ms",
    "serving.batch_size.mean": "clips",
    "serving.deadline_flush_share": "share",
    "loadgen.lag_ms.p50": "ms",
    "loadgen.lag_ms.p99": "ms",
    "runtime.encode_us_per_clip": "us",
    "nn.forward_ms_per_batch": "ms",
    "nn.forward_us_per_clip": "us",
    "registry.load_ms": "ms",
    "runtime.stage_s.pretrain_pool": "s",
    "runtime.stage_s.pattern": "s",
    "runtime.stage_s.pretrain": "s",
    "runtime.stage_s.finetune": "s",
    "runtime.stage_s.report": "s",
    "runtime.store.hits": "count",
    "runtime.store.misses": "count",
    "nn.forward_ms_per_step": "ms",
    "nn.backward_ms_per_step": "ms",
    "nn.optim_ms_per_step": "ms",
    "ce.capture_ms_per_step": "ms",
    "trace.overhead_share": "share",
    "self_share.serving": "share",
    "self_share.registry": "share",
    "self_share.runtime": "share",
    "self_share.nn": "share",
    "self_share.ce": "share",
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    values = np.asarray(values, dtype=float)
    return float(np.percentile(values, q)) if values.size else float("nan")


class Report:
    """What one workload run measured, counted and checked."""

    def __init__(self):
        self.metrics: Dict[str, float] = {}
        self.phases: Dict[str, dict] = {}
        self.checks: Dict[str, dict] = {}
        self.details: Dict[str, object] = {}
        self.spans: List[list] = []
        self.attempted = 0
        self.failed = 0

    def phase(self, name: str, counts: dict, probe: bool = False,
              **extra) -> None:
        """Record a phase's sent/succeeded/failed/rejected counts.

        A ``probe`` phase offers more than the server may sustain on
        purpose (the rate ladder); what it loses is its measurement, not
        a failed operation.
        """
        self.phases[name] = {**counts, **extra}
        self.attempted += counts["sent"]
        if not probe:
            self.failed += counts["sent"] - counts["succeeded"]

    def check(self, name: str, ok: bool, **detail) -> None:
        """Record a correctness check; a failed one counts as a failed op."""
        self.checks[name] = {"ok": bool(ok), **detail}
        if not ok:
            self.failed += 1

    @property
    def correct(self) -> bool:
        return all(check["ok"] for check in self.checks.values())


# ----------------------------------------------------------------------
# Serving workloads
# ----------------------------------------------------------------------
SERVING = {
    # Dispatch-bound: float32 forward of a batch of 8 takes ~0.3 ms.
    # Heavy is ~40% of saturated throughput: at ~60% the p99 followed
    # the host's speed so closely that it spread by 30% between runs.
    "serve_edge": {"image_size": 16, "num_frames": 8, "quantized": False,
                   "light_rps": 3000.0, "heavy_rps": 6000.0,
                   "ladder_from_rps": 8000.0, "limit_ms": 25.0},
    # Kernel-bound: int8 forward at the paper geometry, ~10 ms a batch.
    "serve_paper": {"image_size": 112, "num_frames": 16, "quantized": True,
                    "light_rps": 200.0, "heavy_rps": 300.0,
                    "ladder_from_rps": 400.0, "limit_ms": 50.0},
}
SERVABLE = "snappix_s"
POOL_SIZE = 64
MAX_BATCH_SIZE = 8
BURST_WINDOW = 256
SETUP_REPEATS = 7
#: Rate ladder: this many fixed rates, each 5% above the previous one.
LADDER_STEPS = 24
LADDER_FACTOR = 1.05
#: Shares of --seconds spent in each measured phase; burst, light and
#: heavy are split over ``ROUNDS`` interleaved rounds.
SHARES = {"warmup": 0.04, "burst": 0.11, "light": 0.25, "heavy": 0.3,
          "ladder": 0.3}
ROUNDS = 6
#: p99 windows: at most this many, of at least this many requests each.
MAX_WINDOWS = 16
MIN_WINDOW_REQUESTS = 400


def make_pool(spec: dict, seed: int) -> np.ndarray:
    """The seeded clip pool the traffic cycles through."""
    rng = np.random.default_rng([seed, 0])
    shape = (POOL_SIZE, spec["num_frames"], spec["image_size"],
             spec["image_size"])
    if spec["quantized"]:
        return rng.integers(0, 256, size=shape, dtype=np.uint8)
    return rng.random(shape, dtype=np.float32)


def write_checkpoint(spec: dict, directory: Path) -> Path:
    bundle = fresh_bundle(SERVABLE, image_size=spec["image_size"],
                          num_frames=spec["num_frames"], seed=0)
    if spec["quantized"]:
        bundle = quantize_bundle(bundle, seed=0)
    return save_servable(directory / f"{SERVABLE}.npz", bundle.model,
                         bundle.spec, sensor=bundle.sensor, name=SERVABLE,
                         metadata=bundle.metadata)


def start_server(checkpoint: Path, first_clip: np.ndarray):
    """Checkpoint on disk -> registry -> server -> first prediction."""
    start = time.perf_counter()
    registry = ModelRegistry()
    registry.register(SERVABLE, checkpoint)
    server = InferenceServer(registry.get(SERVABLE),
                             max_batch_size=MAX_BATCH_SIZE)
    label = server.predict(first_clip).label
    return time.perf_counter() - start, server, label


def set_up(checkpoint: Path, pool: np.ndarray, report: Report, name: str):
    """Start the server ``SETUP_REPEATS`` times; keep the last one."""
    seconds, labels, server = [], [], None
    for _ in range(SETUP_REPEATS):
        if server is not None:
            server.close()
        elapsed, server, label = start_server(checkpoint, pool[0])
        seconds.append(elapsed)
        labels.append(label)
    reference = np.array([prediction.label for prediction
                          in server.predict_sequential(list(pool))])
    report.phase(name, {"sent": len(labels), "succeeded": len(labels),
                        "failed": 0, "rejected": 0})
    report.check(f"{name}.first_prediction",
                 all(label == reference[0] for label in labels),
                 labels=labels, expected=int(reference[0]))
    return server, reference, seconds


def plain_submit(server: InferenceServer, pool: np.ndarray) -> Callable:
    return lambda request, clip_index: server.submit(pool[clip_index])


def steady_p99(latencies: List[np.ndarray]) -> float:
    """Median over consecutive windows of requests of each window's p99.

    The requests of all rounds, in order, are cut into at most
    ``MAX_WINDOWS`` windows of at least ``MIN_WINDOW_REQUESTS``.  Other
    tenants of the host stall this process now and then for tens of
    milliseconds; such a stall spoils a window or two, which the median
    ignores, where a p99 over all requests jumped by 2-5x.
    """
    latency = np.concatenate(latencies)
    count = max(1, min(MAX_WINDOWS, latency.size // MIN_WINDOW_REQUESTS))
    return statistics.median(percentile(window, 99) for window
                             in np.array_split(latency, count))


def latency_summary(phase: Phase) -> dict:
    latency = phase.latencies_ms()
    lag = phase.lag_ms()
    return {"samples": int(latency.size),
            "p50_ms": percentile(latency, 50),
            "p99_ms": percentile(latency, 99),
            "steady_p99_ms": steady_p99([latency]),
            "lag_p50_ms": percentile(lag, 50),
            "lag_p99_ms": percentile(lag, 99)}


def burst_cps(phase: Phase) -> float:
    counts = phase.counts()
    wall = np.nanmax(phase.done[:phase.count]) - phase.start
    return counts["succeeded"] / wall


def finish_phase(report: Report, phase: Phase, reference: np.ndarray,
                 probe: bool = False, **extra) -> None:
    report.phase(phase.name, phase.counts(), probe=probe, **extra)
    report.check(f"{phase.name}.labels", phase.mismatches(reference) == 0,
                 mismatched=phase.mismatches(reference))


def ladder_probe_passes(phase: Phase, limit_ms: float) -> bool:
    """Steady p99 within the limit, so no backlog grows through the step.

    A lost request counts as one that missed the limit.  A backlog that
    grows through the step pushes every later window over the limit, so
    the median window fails once it has grown past the limit by the
    step's middle; a stall of the host shorter than that does not.
    """
    return steady_p99([phase.latencies_ms()]) <= limit_ms


def run_ladder(server, pool, spec, seconds, seed, report, reference):
    """Binary search over the fixed rate ladder for the highest rate passing."""
    rates = spec["ladder_from_rps"] * LADDER_FACTOR ** np.arange(LADDER_STEPS)
    probes = int(np.ceil(np.log2(LADDER_STEPS + 1)))
    step_seconds = seconds / probes
    passing, failing = -1, LADDER_STEPS
    steps = []
    while failing - passing > 1:
        index = (passing + failing) // 2
        phase = run_open_loop(f"ladder.{index}", plain_submit(server, pool),
                              float(rates[index]), step_seconds,
                              np.random.default_rng([seed, 100 + index]),
                              POOL_SIZE, RequestRejected)
        ok = ladder_probe_passes(phase, spec["limit_ms"])
        finish_phase(report, phase, reference, probe=True,
                     rate_rps=float(rates[index]), passed=ok,
                     **latency_summary(phase))
        steps.append(index)
        if ok:
            passing = index
        else:
            failing = index
    report.details["ladder_steps"] = steps
    return float(rates[passing]) if passing >= 0 else float(rates[0]) / LADDER_FACTOR


def serve(workload: str, seed: int, seconds: float, trace: bool) -> Report:
    spec = SERVING[workload]
    report = Report()
    pool = make_pool(spec, seed)
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent,
                                     prefix=".ckpt-") as directory:
        checkpoint = write_checkpoint(spec, Path(directory))
        server, reference, setup_seconds = set_up(checkpoint, pool, report,
                                                  "setup")
        try:
            if trace:
                serve_traced(server, checkpoint, pool, spec, seconds, seed,
                             report, reference)
            else:
                serve_untraced(server, pool, spec, seconds, seed, report,
                               reference, setup_seconds)
        finally:
            server.close()
    return report


def serve_untraced(server, pool, spec, seconds, seed, report, reference,
                   setup_seconds) -> None:
    """Warm up, then ``ROUNDS`` rounds of burst, light and heavy, then the
    rate ladder.  Interleaving the rounds spreads each metric over the
    whole run, so a slow stretch of the host touches every metric a
    little rather than one metric entirely."""
    submit = plain_submit(server, pool)
    run_burst("warmup", submit, SHARES["warmup"] * seconds, BURST_WINDOW,
              POOL_SIZE, RequestRejected)
    throughput = []
    latencies = {"light": [], "heavy": []}
    for round_index in range(ROUNDS):
        burst = run_burst(f"burst.{round_index}", submit,
                          SHARES["burst"] * seconds / ROUNDS, BURST_WINDOW,
                          POOL_SIZE, RequestRejected)
        throughput.append(burst_cps(burst))
        finish_phase(report, burst, reference, clips_per_s=throughput[-1])
        for level, stream in (("light", 1), ("heavy", 2)):
            phase = run_open_loop(
                f"{level}.{round_index}", submit, spec[f"{level}_rps"],
                SHARES[level] * seconds / ROUNDS,
                np.random.default_rng([seed, stream, round_index]),
                POOL_SIZE, RequestRejected)
            latencies[level].append(phase.latencies_ms())
            finish_phase(report, phase, reference,
                         rate_rps=spec[f"{level}_rps"],
                         **latency_summary(phase))
    max_rate = run_ladder(server, pool, spec, SHARES["ladder"] * seconds,
                          seed, report, reference)
    report.details["setup_seconds"] = setup_seconds
    report.details["server_stats"] = server.stats()
    report.details["samples"] = {level: int(sum(map(len, values)))
                                 for level, values in latencies.items()}
    report.metrics.update({
        "setup_s": statistics.median(setup_seconds),
        "throughput_cps": statistics.median(throughput),
        "max_rate_rps": max_rate,
        "peak_rss_mb": peak_rss_mb(),
    })
    for level, values in latencies.items():
        report.metrics[f"p50_ms.{level}"] = percentile(np.concatenate(values),
                                                       50)
        report.metrics[f"p99_ms.{level}"] = steady_p99(values)


class ServingTrace:
    """Serving-layer wrappers; links every traced request to its batch."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.next_key = 0
        self.pending: Dict[int, int] = {}
        self.submit_span: Dict[int, Span] = {}
        self.batch_of: Dict[int, Span] = {}
        self.batch_size: Dict[int, int] = {}

    def install(self) -> None:
        tracer = self.tracer
        tracer.wrap(ModelRegistry, "get", "registry.get")
        tracer.wrap(BundleExecutor, "screen_clip", "serving.screen")
        tracer.wrap(BundleExecutor, "encode", "runtime.encode")
        tracer.wrap(BundleExecutor, "forward", "nn.forward")
        tracer.replace(BundleExecutor, "run_batch", self._wrap_run_batch)

    def _wrap_run_batch(self, original):
        def run_batch(executor, clips):
            span = self.tracer.open("serving.run_batch")
            self.batch_size[id(span)] = len(clips)
            for clip in clips:
                key = self.pending.pop(id(clip), None)
                if key is not None:
                    self.batch_of[key] = span
            try:
                return original(executor, clips)
            finally:
                self.tracer.close(span)
        return run_batch

    def submitter(self, server, pool, keys: Dict[int, int]) -> Callable:
        """A submit function recording a span per request; ``keys`` maps
        the phase's request ids to trace-wide request keys."""
        def submit(request, clip_index):
            key = self.next_key
            self.next_key += 1
            keys[request] = key
            clip = pool[clip_index]
            self.pending[id(clip)] = key
            span = self.tracer.open("serving.submit", request=key)
            try:
                return server.submit(clip)
            except RequestRejected:
                # A refused clip is freed, and its id may be reused.
                del self.pending[id(clip)]
                raise
            finally:
                self.tracer.close(span)
                self.submit_span[key] = span
        return submit

    def link(self, phase: Phase, keys: Dict[int, int]) -> List[float]:
        """Add each request's queue-wait and resolve intervals; returns the
        phase's queue waits in ms."""
        waits = []
        for request, key in keys.items():
            batch = self.batch_of.get(key)
            if batch is None or phase.status[request] != SUCCEEDED:
                continue
            wait = self.tracer.record("serving.queue_wait",
                                      self.submit_span[key].end, batch.start,
                                      request=key)
            self.tracer.record("serving.resolve", batch.end,
                               phase.done[request], request=key)
            waits.append(wait.seconds * 1e3)
        return waits


def serve_traced(server_a, checkpoint, pool, spec, seconds, seed, report,
                 reference) -> None:
    """Per-layer run: alternate untraced and traced bursts, then traced
    open-loop phases.

    Server A was started before any wrapper was installed and runs the
    untraced bursts; server B is started while the wrappers are in place
    (its lane binds the traced ``run_batch``) and runs the traced phases.
    """
    tracer = Tracer()
    trace = ServingTrace(tracer)
    burst_seconds = SHARES["burst"] * seconds
    untraced_cps, traced_cps = [], []
    walls, run_batches, waits = {}, {}, {}

    def traced(server, run: Callable[[Callable], Phase]) -> Phase:
        keys: Dict[int, int] = {}
        first = len(tracer.spans)
        phase = run(trace.submitter(server, pool, keys))
        waits[phase.name] = trace.link(phase, keys)
        walls[phase.name] = np.nanmax(phase.done[:phase.count]) - phase.start
        run_batches[phase.name] = [span for span in tracer.spans[first:]
                                   if span.name == "serving.run_batch"]
        finish_phase(report, phase, reference, **latency_summary(phase))
        return phase

    run_burst("warmup", plain_submit(server_a, pool),
              SHARES["warmup"] * seconds, BURST_WINDOW, POOL_SIZE,
              RequestRejected)
    trace.install()
    try:
        setup_seconds, server_b, label = start_server(checkpoint, pool[0])
    finally:
        tracer.unwrap_all()
    report.check("traced_setup.first_prediction", label == reference[0])
    try:
        for round_index in range(2):
            burst = run_burst(f"burst.untraced.{round_index}",
                              plain_submit(server_a, pool), burst_seconds,
                              BURST_WINDOW, POOL_SIZE, RequestRejected)
            finish_phase(report, burst, reference)
            untraced_cps.append(burst_cps(burst))
            trace.install()
            try:
                burst = traced(server_b, lambda submit: run_burst(
                    f"burst.traced.{round_index}", submit, burst_seconds,
                    BURST_WINDOW, POOL_SIZE, RequestRejected))
                traced_cps.append(burst_cps(burst))
            finally:
                tracer.unwrap_all()
        trace.install()
        try:
            light = traced(server_b, lambda submit: run_open_loop(
                "light", submit, spec["light_rps"], SHARES["light"] * seconds,
                np.random.default_rng([seed, 1]), POOL_SIZE, RequestRejected))
            before = server_b.stats()
            heavy = traced(server_b, lambda submit: run_open_loop(
                "heavy", submit, spec["heavy_rps"], SHARES["heavy"] * seconds,
                np.random.default_rng([seed, 2]), POOL_SIZE, RequestRejected))
            after = server_b.stats()
        finally:
            tracer.unwrap_all()
    finally:
        server_b.close()

    bursts = [name for name in walls if name.startswith("burst")]
    every_batch = [span for spans in run_batches.values() for span in spans]
    clips = sum(trace.batch_size[id(span)] for span in every_batch)
    forward = tracer.named("nn.forward")
    screen = tracer.named("serving.screen")
    open_loop_waits = waits["light"] + waits["heavy"]
    lag = np.concatenate([light.lag_ms(), heavy.lag_ms()])
    heavy_batches = after["batches"] - before["batches"]
    heavy_clips = sum(size * (count - before["batch_size_hist"].get(size, 0))
                      for size, count in after["batch_size_hist"].items())
    self_seconds = tracer.self_seconds()
    traced_wall = sum(walls.values())
    load_ms = [span.seconds * 1e3 for span in tracer.named("registry.get")]
    report.metrics.update({
        "serving.submit_us.p50": percentile(
            [span.seconds * 1e6 for span in tracer.named("serving.submit")], 50),
        "serving.run_batch_ms.p50": percentile(
            [span.seconds * 1e3 for span in every_batch], 50),
        "serving.resolve_us.p50": percentile(
            [span.seconds * 1e6 for span in tracer.named("serving.resolve")], 50),
        "serving.screen_us_per_clip": 1e6 * sum(
            span.seconds for span in screen) / max(1, len(screen)),
        "serving.overhead_share": 1.0 - sum(
            span.seconds for name in bursts for span in run_batches[name]) / sum(
            walls[name] for name in bursts),
        "serving.worker_busy_share": sum(
            span.seconds for span in run_batches["heavy"]) / walls["heavy"],
        "serving.queue_wait_ms.p50": percentile(open_loop_waits, 50),
        "serving.queue_wait_ms.p99": percentile(open_loop_waits, 99),
        "serving.batch_size.mean": heavy_clips / max(1, heavy_batches),
        "serving.deadline_flush_share": (
            after["flushed_on_deadline"] - before["flushed_on_deadline"])
            / max(1, heavy_batches),
        "loadgen.lag_ms.p50": percentile(lag, 50),
        "loadgen.lag_ms.p99": percentile(lag, 99),
        "runtime.encode_us_per_clip": 1e6 * sum(
            span.seconds for span in tracer.named("runtime.encode")) / clips,
        "nn.forward_ms_per_batch": 1e3 * statistics.fmean(
            span.seconds for span in forward),
        "nn.forward_us_per_clip": 1e6 * sum(
            span.seconds for span in forward) / clips,
        "registry.load_ms": statistics.median(load_ms),
        "trace.overhead_share": statistics.median(untraced_cps)
            / statistics.median(traced_cps) - 1.0,
    })
    for layer in ("serving", "registry", "runtime", "nn", "ce"):
        report.metrics[f"self_share.{layer}"] = (
            self_seconds.get(layer, 0.0) / traced_wall)
    report.details.update({"untraced_burst_cps": untraced_cps,
                           "traced_burst_cps": traced_cps,
                           "traced_setup_s": setup_seconds,
                           "self_seconds": self_seconds,
                           "traced_wall_s": traced_wall})
    report.spans = tracer.rows()


# ----------------------------------------------------------------------
# Training workload
# ----------------------------------------------------------------------
TRAIN_CONFIG = {"model_variant": "s", "frame_size": 32, "num_slots": 16,
                "pretrain_clips": 768, "pretrain_epochs": 6,
                "finetune_epochs": 20, "train_clips_per_class": 32}
#: Pipeline outputs recorded per config seed; any other seed is checked
#: only for run-to-run determinism.
TRAIN_EXPECTED = {
    0: {"test_accuracy": 0.7083333333333334,
        "pattern_correlation": 0.20656502486154585,
        "pretrain_final_loss": 0.9645117117712895},
    1: {"test_accuracy": 0.7083333333333334,
        "pattern_correlation": 0.20309921915851595,
        "pretrain_final_loss": 0.962535980467995},
    2: {"test_accuracy": 0.6666666666666666,
        "pattern_correlation": 0.20639141758628915,
        "pretrain_final_loss": 0.9623541894058386},
    3: {"test_accuracy": 0.4166666666666667,
        "pattern_correlation": 0.20714220590322763,
        "pretrain_final_loss": 0.96366305090487},
    4: {"test_accuracy": 0.5833333333333334,
        "pattern_correlation": 0.20728070329809098,
        "pretrain_final_loss": 0.9634124816705784},
    5: {"test_accuracy": 0.625,
        "pattern_correlation": 0.20473226372581566,
        "pretrain_final_loss": 0.962955629453063},
    6: {"test_accuracy": 1.0,
        "pattern_correlation": 0.20533515722422405,
        "pretrain_final_loss": 0.9633340388536453},
    7: {"test_accuracy": 0.5416666666666666,
        "pattern_correlation": 0.20397378911859074,
        "pretrain_final_loss": 0.9621216226369143},
    8: {"test_accuracy": 0.3333333333333333,
        "pattern_correlation": 0.2067500715282418,
        "pretrain_final_loss": 0.9613195912291607},
    9: {"test_accuracy": 0.7916666666666666,
        "pattern_correlation": 0.20434868023613645,
        "pretrain_final_loss": 0.9636721226076285},
    10: {"test_accuracy": 0.9583333333333334,
        "pattern_correlation": 0.20467528150130157,
        "pretrain_final_loss": 0.9618618947764238},
    11: {"test_accuracy": 0.5833333333333334,
        "pattern_correlation": 0.2055236528461859,
        "pretrain_final_loss": 0.9643179830163717},
    12: {"test_accuracy": 1.0,
        "pattern_correlation": 0.20282399743733925,
        "pretrain_final_loss": 0.9621878154575825},
    13: {"test_accuracy": 0.75,
        "pattern_correlation": 0.20381851751375807,
        "pretrain_final_loss": 0.9634788402666649},
    14: {"test_accuracy": 0.3333333333333333,
        "pattern_correlation": 0.20439784133994635,
        "pretrain_final_loss": 0.9629258861144384},
    15: {"test_accuracy": 0.9583333333333334,
        "pattern_correlation": 0.20728376294963888,
        "pretrain_final_loss": 0.9617456334332625},
}
TRAIN_OUTPUTS = ("test_accuracy", "pattern_correlation", "pretrain_final_loss")
#: Stages whose optimiser steps are the "light" and "heavy" operations.
LIGHT_STAGE, HEAVY_STAGE = "finetune", "pretrain"


def train_config(seed: int) -> PipelineConfig:
    return PipelineConfig(seed=seed, **TRAIN_CONFIG)


def expected_steps(config: PipelineConfig) -> Dict[str, int]:
    """Optimiser steps per stage, fixed by the config (full batches)."""
    train_clips = (DATASET_SPECS[config.dataset].num_classes
                   * config.train_clips_per_class)
    batches = lambda clips: -(-clips // config.batch_size)  # noqa: E731
    return {"pattern": batches(config.pretrain_clips) * config.pattern_epochs,
            "pretrain": batches(config.pretrain_clips) * config.pretrain_epochs,
            "finetune": batches(train_clips) * config.finetune_epochs}


class StepClock:
    """Stamps every optimiser step with the pipeline stage running it.

    Installed in untraced runs too: one ``perf_counter`` call per step
    (steps take milliseconds) and two per stage.
    """

    def __init__(self, config: PipelineConfig):
        self.stage = ""
        self.steps: List[tuple] = []
        self.patches = Tracer()
        for stage_class in {type(stage) for stage
                            in build_pipeline_stages(config, "ar")}:
            self.patches.replace(stage_class, "run", self._wrap_stage)
        self.patches.replace(AdamW, "step", self._wrap_step)

    def _wrap_stage(self, original):
        def run(stage, *args, **kwargs):
            outer, self.stage = self.stage, stage.name
            try:
                return original(stage, *args, **kwargs)
            finally:
                self.stage = outer
        return run

    def _wrap_step(self, original):
        def step(optimizer):
            original(optimizer)
            self.steps.append((self.stage, time.perf_counter()))
        return step

    def close(self) -> None:
        self.patches.unwrap_all()

    def intervals_ms(self, stage: str, first: int = 0) -> np.ndarray:
        """Time between consecutive steps of ``stage`` (after ``first``)."""
        stamps = np.array([at for name, at in self.steps[first:]
                           if name == stage])
        return np.diff(stamps) * 1e3

    def count(self, stage: str, first: int = 0) -> int:
        return sum(1 for name, _ in self.steps[first:] if name == stage)


def run_pipeline(seed: int) -> dict:
    """One cold pipeline: fresh in-memory store, every stage computed."""
    start = time.perf_counter()
    system = SnapPixSystem(train_config(seed), store=ArtifactStore(None))
    built = time.perf_counter()
    result = system.run("ar")
    end = time.perf_counter()
    stages = {execution.stage: execution.seconds
              for execution in system.last_run.executions}
    return {"pipeline_s": end - start,
            "setup_s": built - start + stages["pretrain_pool"],
            "stage_s": stages,
            "store": system.store.stats.as_dict(),
            "outputs": {name: float(getattr(result, name))
                        for name in TRAIN_OUTPUTS}}


def train(workload: str, seed: int, seconds: float, trace: bool) -> Report:
    report = Report()
    config = train_config(seed)
    steps = expected_steps(config)
    clips_per_pipeline = config.batch_size * sum(steps.values())
    clock = StepClock(config)
    runs: List[dict] = []
    traced_runs: List[dict] = []
    tracer = Tracer()
    started = time.perf_counter()
    try:
        while True:
            # A traced run alternates untraced and traced pipelines.
            traced = trace and len(runs) > len(traced_runs)
            first_step = len(clock.steps)
            if traced:
                first_span = len(tracer.spans)
                install_training_trace(tracer)
            try:
                run = run_pipeline(seed)
            finally:
                tracer.unwrap_all()
            run["steps"] = {stage: clock.count(stage, first_step)
                            for stage in steps}
            run["light_ms"] = clock.intervals_ms(LIGHT_STAGE, first_step)
            run["heavy_ms"] = clock.intervals_ms(HEAVY_STAGE, first_step)
            if traced:
                run["spans"] = tracer.spans[first_span:]
                traced_runs.append(run)
            else:
                runs.append(run)
            name = f"pipeline.{len(runs) + len(traced_runs) - 1}"
            report.phase(name, {"sent": 1, "succeeded": 1, "failed": 0,
                                "rejected": 0},
                         traced=traced, pipeline_s=run["pipeline_s"],
                         stage_s=run["stage_s"], outputs=run["outputs"])
            report.check(f"{name}.steps", run["steps"] == steps,
                         steps=run["steps"], expected=steps)
            elapsed = time.perf_counter() - started
            typical = statistics.median(
                item["pipeline_s"] for item in runs + traced_runs)
            enough = len(traced_runs) >= 1 if trace else True
            if enough and elapsed + typical > seconds:
                break
    finally:
        clock.close()
    every = runs + traced_runs
    outputs = [run["outputs"] for run in every]
    report.check("outputs.deterministic",
                 all(output == outputs[0] for output in outputs),
                 outputs=outputs[0])
    if seed in TRAIN_EXPECTED:
        report.check("outputs.recorded", outputs[0] == TRAIN_EXPECTED[seed],
                     expected=TRAIN_EXPECTED[seed], got=outputs[0])
    report.details["clips_per_pipeline"] = clips_per_pipeline
    if trace:
        training_layers(report, runs, traced_runs, tracer, steps)
        return report
    light = [run["light_ms"] for run in runs]
    heavy = [run["heavy_ms"] for run in runs]
    trained = (LIGHT_STAGE, HEAVY_STAGE)
    report.details["samples"] = {"light": int(sum(map(len, light))),
                                 "heavy": int(sum(map(len, heavy)))}
    report.metrics.update({
        "setup_s": statistics.median(run["setup_s"] for run in runs),
        "throughput_cps": statistics.median(
            clips_per_pipeline / run["pipeline_s"] for run in runs),
        "p50_ms.light": percentile(np.concatenate(light), 50),
        "p99_ms.light": steady_p99(light),
        "p50_ms.heavy": percentile(np.concatenate(heavy), 50),
        "p99_ms.heavy": steady_p99(heavy),
        "max_rate_rps": statistics.median(
            sum(run["steps"][stage] for stage in trained)
            / sum(run["stage_s"][stage] for stage in trained)
            for run in runs),
        "peak_rss_mb": peak_rss_mb(),
    })
    return report


def install_training_trace(tracer: Tracer) -> None:
    """Spans around the model forward, backward, optimiser and CE capture."""
    tracer.wrap(Module, "__call__", "nn.forward", outermost=True)
    tracer.wrap(Tensor, "backward", "nn.backward", outermost=True)
    tracer.wrap(AdamW, "step", "nn.optim.step")
    for module in (training_module, pretrainer_module):
        tracer.wrap(module, "clip_grad_norm", "nn.optim.clip_grad_norm")
    tracer.wrap(CodedExposureSensor, "capture", "ce.capture")
    for stage_class in {type(stage) for stage
                        in build_pipeline_stages(train_config(0), "ar")}:
        tracer.wrap(stage_class, "run", f"runtime.stage.{stage_class.name}")


def _enclosing_stage(span: Span):
    parent = span.parent
    while parent is not None and not parent.name.startswith("runtime.stage."):
        parent = parent.parent
    return parent


def training_layers(report: Report, runs, traced_runs, tracer: Tracer,
                    steps: Dict[str, int]) -> None:
    """Per-layer metrics of the traced pipelines (stage times untraced)."""
    trained = steps[LIGHT_STAGE] + steps[HEAVY_STAGE]
    trained_stages = {f"runtime.stage.{LIGHT_STAGE}",
                      f"runtime.stage.{HEAVY_STAGE}"}
    per_step: Dict[str, List[float]] = {"nn.forward": [], "nn.backward": [],
                                        "nn.optim": [], "ce.capture": []}
    for run in traced_runs:
        totals = dict.fromkeys(per_step, 0.0)
        for span in run["spans"]:
            stage = _enclosing_stage(span)
            if stage is None or stage.name not in trained_stages:
                continue
            key = "nn.optim" if span.name.startswith("nn.optim") else span.name
            if key in totals:
                totals[key] += span.seconds
        for key, total in totals.items():
            per_step[key].append(1e3 * total / trained)
    self_seconds = tracer.self_seconds()
    traced_wall = sum(run["pipeline_s"] for run in traced_runs)
    untraced_s = statistics.median(run["pipeline_s"] for run in runs)
    traced_s = statistics.median(run["pipeline_s"] for run in traced_runs)
    for stage in ("pretrain_pool", "pattern", "pretrain", "finetune", "report"):
        report.metrics[f"runtime.stage_s.{stage}"] = statistics.median(
            run["stage_s"][stage] for run in runs)
    report.metrics.update({
        "runtime.store.hits": statistics.median(
            run["store"]["hits"] for run in runs),
        "runtime.store.misses": statistics.median(
            run["store"]["misses"] for run in runs),
        "nn.forward_ms_per_step": statistics.median(per_step["nn.forward"]),
        "nn.backward_ms_per_step": statistics.median(per_step["nn.backward"]),
        "nn.optim_ms_per_step": statistics.median(per_step["nn.optim"]),
        "ce.capture_ms_per_step": statistics.median(per_step["ce.capture"]),
        "trace.overhead_share": traced_s / untraced_s - 1.0,
    })
    for layer in ("serving", "registry", "runtime", "nn", "ce"):
        report.metrics[f"self_share.{layer}"] = (
            self_seconds.get(layer, 0.0) / traced_wall)
    report.details.update({"self_seconds": self_seconds,
                           "traced_wall_s": traced_wall})
    report.spans = tracer.rows()
