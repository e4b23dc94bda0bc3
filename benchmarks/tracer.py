"""Layer tracing from outside the program.

The traced run replaces salsim's public functions and the methods run()
calls with timing wrappers, installed where the caller looks the name
up: engine binds solve_riccati, compose_pdu and the value codec at
import, so those are patched in salsim.engine, not in their home
modules. Coarse calls (a run, a validation, a Riccati solve, an
artifact write) are kept as spans, each with its parent; calls made
once per slot only add to their layer's counters, which keeps the
memory of a traced run flat. Everything stays in memory until the
benchmark writes it out at the end.
"""

import time

# (owner, attribute, layer name, kept as a span); owner is a dotted path
# from the salsim package, attribute a function or method on it
TARGETS = (
    ("", "sweep", "engine.sweep", True),
    ("", "run", "engine.run", True),
    ("", "summarize", "engine.summarize", True),
    ("", "load_config", "metrics.load_config", True),
    ("", "write_csv", "metrics.write_csv", True),
    ("", "render_plot", "metrics.render_plot", True),
    ("engine", "run", "engine.run", True),
    ("engine", "solve_riccati", "plant.solve_riccati", True),
    ("engine.SimConfig", "validate", "engine.validate", True),
    ("engine.SimConfig", "make_plants", "engine.make_plants", True),
    ("engine", "compose_pdu", "sal.compose_pdu", False),
    ("engine", "encode_value", "publisher.encode_value", False),
    ("engine", "decode_value", "publisher.decode_value", False),
    ("sal.DataHandler", "ingest_fresh_all", "sal.ingest_fresh_all", False),
    ("sal.DataHandler", "ingest_flagged", "sal.ingest_flagged", False),
    ("sal.DataHandler", "select_uniform", "sal.select_uniform", False),
    ("sal.DataHandler", "handle_ack", "sal.handle_ack", False),
    ("sal.DataHandler", "ingest_compound", "sal.ingest_compound", False),
    ("sal.DataHandler", "next_compound", "sal.next_compound", False),
    ("sal.DataReader", "process", "sal.DataReader.process", False),
)

# stop keeping spans past this many; their counters still add up
SPAN_LIMIT = 200_000


def resolve(api, dotted):
    owner = api
    for part in filter(None, dotted.split(".")):
        owner = getattr(owner, part)
    return owner


class LayerStats:
    __slots__ = ("calls", "total_s", "child_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.child_s = 0.0

    @property
    def self_s(self):
        return self.total_s - self.child_s


class Tracer:
    """Wraps salsim's layer boundaries while active (a context manager).

    A layer's self time is its total time minus the time of the traced
    calls it made. Spans are (name, parent span index or -1, start, end).
    """

    def __init__(self, api, targets=TARGETS, clock=time.perf_counter):
        self.api = api
        self.targets = targets
        self.clock = clock
        self.stats = {name: LayerStats() for _, _, name, _ in targets}
        self.spans = []
        # one frame per open traced call: [time of its traced children, span index]
        self._stack = [[0.0, -1]]
        self._saved = []

    def __enter__(self):
        for dotted, attr, name, keep_span in self.targets:
            owner = resolve(self.api, dotted)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, keep_span))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def wrap(self, name, fn, keep_span):
        stats = self.stats[name]
        stack = self._stack
        spans = self.spans
        clock = self.clock

        if keep_span:

            def traced(*args, **kwargs):
                parent = stack[-1]
                index = -1
                if len(spans) < SPAN_LIMIT:
                    index = len(spans)
                    spans.append(None)
                frame = [0.0, index]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    elapsed = end - start
                    parent[0] += elapsed
                    stats.calls += 1
                    stats.total_s += elapsed
                    stats.child_s += frame[0]
                    if index >= 0:
                        spans[index] = (name, parent[1], start, end)

        else:

            def traced(*args, **kwargs):
                parent = stack[-1]
                frame = [0.0, parent[1]]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    parent[0] += elapsed
                    stats.calls += 1
                    stats.total_s += elapsed
                    stats.child_s += frame[0]

        traced.__wrapped__ = fn
        return traced

    def dump(self):
        """Counters and spans as plain data, for writing out."""
        return {
            "layers": {
                name: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s}
                for name, s in self.stats.items()
            },
            "span_fields": ["name", "parent", "start_s", "end_s"],
            "spans": self.spans,
        }
