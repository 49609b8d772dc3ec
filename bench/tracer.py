"""Per-module time attribution for a traced benchmark child.

Spans come only from outside the program: `install` replaces the public
entry points of each dtnsim module with wrappers, at run time, in the
traced child process. A span's self time is its duration minus the time of
the spans it encloses, so the per-layer self times plus `unattributed_s`
(the root span's own time) add up to the traced wall time.

Event callbacks are wrapped when they are scheduled and their self time
goes to the module that defined the callback (`fn.__module__`), so radio
completions and protocol beacon ticks do not land in the kernel. Code
with no span of its own (MessageId hashing and comparison, builtins such
as `sorted` and `heapq`) counts toward the layer that called it.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = (
    "sim", "radio", "protocol", "wire", "buffer", "mobility",
    "records", "traffic", "scenario", "runner", "metrics", "cli",
)

# Module that defined an event callback -> layer charged for its time.
_CALLBACK_LAYER = {
    "dtnsim.netsim": "radio",  # device-queue completions and deliveries
    "dtnsim.protocol": "protocol",
    "dtnsim.runner": "runner",  # traffic-generation lambdas
}


class Tracer:
    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.inclusive_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.peaks: defaultdict[str, int] = defaultdict(int)
        self.root_s = 0.0
        # Totals over every run the child computed, read from the RunTrace
        # and RunReport that `metrics.compute` receives and returns.
        self.packets: Counter[str] = Counter()  # "kind/outcome" -> packets
        self.drops: Counter[str] = Counter()
        self.transfers = 0
        # Child-time accumulator per open span; [0] belongs to the root.
        self._stack = [0.0]
        self._pending = 0

    @contextmanager
    def root(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.root_s += time.perf_counter() - start

    @property
    def unattributed_s(self) -> float:
        return self.root_s - self._stack[0]

    def span(self, layer, fn, count=None, inclusive=None, after=None):
        """Wrap `fn` in a span charged to `layer`.

        `count` names a call counter, `inclusive` a timer of whole-call
        durations, and `after(args, result)` runs outside the timed part.
        """
        stack, self_s, clock = self._stack, self.self_s, time.perf_counter
        counts, incl = self.counts, self.inclusive_s

        def wrapper(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - stack.pop()
                stack[-1] += elapsed
                if count:
                    counts[count] += 1
                if inclusive:
                    incl[inclusive] += elapsed
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _collect_run(self, args, report) -> None:
        for (kind, outcome), n in args[0].packet_counts.items():
            self.packets[f"{kind}/{outcome}"] += n
        self.drops.update(report.drops)
        self.transfers += report.transfers

    def counter(self, fn, count):
        """Count calls without a span, for calls that stay inside one layer."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[count] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _callback(self, kind: str, fn):
        module = getattr(fn, "__module__", None)
        layer = _CALLBACK_LAYER.get(module, module.rsplit(".", 1)[-1] if module else "sim")
        inner = self.span(layer, fn)
        counts, tracer = self.counts, self

        def event():
            counts["sim.events"] += 1
            counts[f"sim.events.{kind}"] += 1
            tracer._pending -= 1
            inner()

        return event

    def _schedule(self, orig):
        peaks, tracer = self.peaks, self

        def schedule(sim, time_us, kind, fn):
            tracer._pending += 1
            if tracer._pending > peaks["sim.pending_peak"]:
                peaks["sim.pending_peak"] = tracer._pending
            return orig(sim, time_us, kind, tracer._callback(kind, fn))

        return self.span("sim", schedule)


def _patch_method(cls, name, make):
    raw = cls.__dict__[name]
    if isinstance(raw, classmethod):
        setattr(cls, name, classmethod(make(raw.__func__)))
    else:
        setattr(cls, name, make(raw))


def _patch_function(module, name, make):
    """Replace a module function everywhere dtnsim bound it by name."""
    original = getattr(module, name)
    wrapped = make(original)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "dtnsim" or mod_name.startswith("dtnsim."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every dtnsim module."""
    from dtnsim import buffer, cli, metrics, mobility, netsim, protocol, records
    from dtnsim import runner, scenario, traffic, wire

    t = tracer

    def span(layer, **kw):
        return lambda fn: t.span(layer, fn, **kw)

    # Kernel.
    _patch_method(netsim.Simulator, "run", span("sim"))
    _patch_method(netsim.Simulator, "schedule", t._schedule)

    # Radio: device queues, range checks, per-node transport facade.
    _patch_method(netsim.RadioNetwork, "submit", span("radio", count="radio.submit_calls"))
    _patch_method(netsim.RadioNetwork, "finalize", span("radio"))
    _patch_method(netsim.RadioNetwork, "in_range", lambda fn: t.counter(fn, "radio.in_range_calls"))
    for name in ("broadcast", "unicast", "schedule"):
        _patch_method(netsim.NodeTransport, name, span("radio"))

    # Protocol state machine.
    _patch_method(
        protocol.EpidemicNode, "handle_packet", span("protocol", count="protocol.handle_packet_calls")
    )
    for name in ("start", "originate", "wrap_raw_packet", "check_connections"):
        _patch_method(protocol.EpidemicNode, name, span("protocol"))
    _patch_method(protocol.EpidemicNode, "_load_pipeline", lambda fn: t.counter(fn, "protocol.exchanges"))

    # Wire codecs, including header construction and validation.
    def count_summary_ids(args, result):
        t.counts["wire.summary_ids_decoded"] += len(result.ids)

    for cls in (
        wire.MessageTypeHeader,
        wire.DataPacketHeader,
        wire.AckHeader,
        wire.EpidemicHeader,
        wire.SummaryVectorHeader,
    ):
        _patch_method(cls, "__init__", span("wire"))
        _patch_method(cls, "encode", span("wire", count="wire.encode_calls"))
        after = count_summary_ids if cls is wire.SummaryVectorHeader else None
        _patch_method(cls, "decode", span("wire", count="wire.decode_calls", after=after))
    _patch_function(wire, "make_message_id", span("wire"))

    # Message buffer.
    def buffer_bytes(args, result):
        used = args[0].used_bytes
        if used > t.peaks["buffer.peak_bytes"]:
            t.peaks["buffer.peak_bytes"] = used

    def summary_len(args, result):
        t.counts["buffer.summary_ids"] += len(result)

    _patch_method(buffer.QueueEntry, "__init__", span("buffer"))
    _patch_method(buffer.MessageBuffer, "enqueue", span("buffer", count="buffer.enqueue_calls", after=buffer_bytes))
    _patch_method(buffer.MessageBuffer, "drop_expired", span("buffer", count="buffer.drop_expired_calls"))
    _patch_method(buffer.MessageBuffer, "summary", span("buffer", count="buffer.summary_calls", after=summary_len))
    _patch_method(buffer.MessageBuffer, "find_disjoint", span("buffer", count="buffer.find_disjoint_calls"))
    _patch_method(buffer.MessageBuffer, "get", span("buffer"))

    # Mobility.
    _patch_method(
        mobility.Trajectory,
        "position_at",
        span("mobility", count="mobility.position_at_calls", inclusive="mobility.position_at_self_s"),
    )
    _patch_function(
        mobility, "parse_ns2_trace", span("mobility", count="mobility.parse_calls", inclusive="mobility.parse_s")
    )

    # Run trace accounting.
    _patch_method(records.RunTrace, "packet_event", span("records", count="records.packet_event_calls"))
    for name in ("message_generated", "message_delivered", "transfer_completed",
                 "message_dropped", "count", "bytes_of"):
        _patch_method(records.RunTrace, name, span("records"))

    # Traffic, scenario, runner, metrics, cli.
    _patch_function(traffic, "build_schedule", span("traffic"))
    _patch_function(traffic, "generate_message", span("traffic"))
    _patch_function(scenario, "load_scenario", span("scenario", inclusive="scenario.load_s"))
    _patch_function(scenario, "with_seeds", span("scenario"))
    _patch_method(scenario.Scenario, "load_trajectories", span("scenario"))
    _patch_function(runner, "build_run", span("runner", inclusive="runner.build_run_s"))
    _patch_function(runner, "run_once", span("runner", count="runner.run_once_calls"))
    _patch_function(runner, "run_seeds", span("runner"))
    _patch_function(
        metrics, "compute", span("metrics", inclusive="metrics.compute_s", after=t._collect_run)
    )
    _patch_function(metrics, "aggregate_row", span("metrics", inclusive="metrics.aggregate_s"))
    _patch_function(metrics, "run_row", span("metrics"))
    _patch_function(metrics, "write_csv", span("metrics", inclusive="cli.write_csv_s"))
    _patch_function(cli, "main", span("cli"))
