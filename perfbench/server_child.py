"""The serving workloads' server process.

Started by ``serving.py`` with the checkout as working directory; loads
MT-H (100 tenants, zipf shares), opens a gateway with a 256-entry cache and
serves it with a ``ReproServer`` on a loopback port.  With ``--trace 1`` it
installs the same span wrappers as the analytic workloads before set-up.

It talks to its parent over stdin/stdout, one JSON object per line, each
prefixed with ``PERFBENCH``:

* it announces ``ready`` with the port and the set-up times,
* ``mark`` starts the measured window (counters and spans are reset),
* ``collect`` answers with the window's counters and per-layer totals,
* ``stop`` shuts the server down, writes the spans and exits.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, HERE)

from repro.server import ReproServer, ServerConfig  # noqa: E402

import layers  # noqa: E402
import setup_mth  # noqa: E402
import spans  # noqa: E402
from metrics import PER_LAYER  # noqa: E402

PREFIX = "PERFBENCH "
CACHE_SIZE = 256
TENANTS = 100

#: the server's knobs, fixed here so that the environment cannot change them
CONFIG = ServerConfig(
    host="127.0.0.1",
    port=0,
    queue_depth=32,
    concurrency=8,
    workers=8,
    request_timeout=30.0,
    drain_timeout=5.0,
)


def say(message: dict) -> None:
    sys.stdout.write(PREFIX + json.dumps(message) + "\n")
    sys.stdout.flush()


def span_cost(calls: int = 20000) -> float:
    """Seconds one wrapped call adds (for the tracing-overhead estimate)."""

    class Probe:
        def call(self):
            return None

    probe = Probe()
    started = time.perf_counter()
    for _ in range(calls):
        probe.call()
    plain = time.perf_counter() - started
    scratch = spans.Tracer()
    scratch.wrap(Probe, "call", "probe")
    started = time.perf_counter()
    for _ in range(calls):
        probe.call()
    wrapped = time.perf_counter() - started
    scratch.uninstall()
    return max(0.0, (wrapped - plain) / calls)


class Window:
    """Counters of one measured window."""

    def __init__(self, server: ReproServer, backend, tracer, pauses: spans.GcPauses) -> None:
        self.server = server
        self.backend = backend
        self.tracer = tracer
        self.pauses = pauses
        self.mark()

    def mark(self) -> None:
        self.engine = layers.engine_counters(self.backend)
        self.cache = self.server.gateway.cache_stats
        self.timeouts = self.server.timeouts
        self.admission = self.server.admission_snapshot()
        self.paused = self.pauses.seconds
        if self.tracer is not None:
            self.tracer.clear()

    def collect(self) -> dict:
        engine = layers.counter_delta(self.engine, layers.engine_counters(self.backend))
        cache = self.server.gateway.cache_stats
        admission = self.server.admission_snapshot()
        hits = cache.hits - self.cache.hits
        misses = cache.misses - self.cache.misses
        totals = {
            "gateway.hits": hits,
            "gateway.misses": misses,
            "gateway.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "gateway.evictions": cache.evictions - self.cache.evictions,
            "server.shed": admission.shed - self.admission.shed,
            "server.timeouts": self.server.timeouts - self.timeouts,
            "server.peak_in_flight": admission.load.peak_in_flight,
            "server.peak_queued": admission.load.peak_queued,
        }
        if self.tracer is None:
            return totals
        recorded = list(self.tracer.spans)
        requests = sum(1 for span in recorded if span.name == "gateway.execute")
        span_sums = layers.span_totals(recorded)
        handled = layers.handling_seconds(recorded)
        per_request = max(1, requests)
        for name, value in list(span_sums.items()) + list(engine.items()):
            if not name.startswith("_"):
                totals[name] = value / per_request if PER_LAYER[name] == "ms" else value
        dml = span_sums.get("_dml", 0.0)
        totals["core.dml_ms"] = span_sums.get("core.dml_ms", 0.0) / dml if dml else 0.0
        totals["server.handle_ms"] = handled * 1000.0 / per_request
        totals["gc.pause_ms"] = (self.pauses.seconds - self.paused) * 1000.0 / per_request
        totals["trace.spans"] = len(recorded)
        totals["_requests"] = requests
        totals["_handled_s"] = handled
        return totals


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", default="")
    args = parser.parse_args()
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        spans.install(tracer)
    instance, setups, raw_setups = setup_mth.load_repeated(TENANTS, "zipf", None, tracer)
    setup_spans = list(tracer.spans) if tracer is not None else []
    # a long-running server keeps its loaded data for life: move it out of
    # the collector's generations, or every full collection rescans it and
    # stalls serving for a large fraction of a second
    gc.collect()
    gc.freeze()
    gateway = instance.middleware.gateway(cache_size=CACHE_SIZE)
    server = ReproServer(gateway, config=CONFIG)
    started = time.perf_counter()
    server.start()
    start_seconds = time.perf_counter() - started
    say(
        {
            "event": "ready",
            "port": server.address[1],
            "setup": setups,
            "raw_setup": raw_setups,
            "server_start_s": start_seconds,
        }
    )
    pauses = spans.GcPauses().install()
    window = Window(server, instance.middleware.backend, tracer, pauses)
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "mark":
                window.mark()
                say({"event": "marked"})
            elif command == "collect":
                totals = window.collect()
                if tracer is not None:
                    totals["trace.overhead_frac"] = (
                        totals["trace.spans"] * span_cost() / max(totals["_handled_s"], 1e-9)
                    )
                    totals.update(layers.setup_layers(setup_spans))
                    totals["server.start_s"] = start_seconds
                totals["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                say({"event": "collected", "totals": totals})
            elif command == "stop":
                break
    finally:
        server.stop()
        if tracer is not None:
            tracer.uninstall()
            if args.spans:
                tracer.spans[:0] = setup_spans
                tracer.dump(args.spans)
    say({"event": "stopped"})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
