"""In-memory span recorder used by the traced run.

A span is one timed call into a layer: name, parent span, phase (``setup``
or ``pass-<n>``, the identifier shared by every span of one pass), start and
end.  Spans stay in memory and are written out once, when the run ends.
``NoTrace`` has the same interface and records nothing, so one code path
serves the untraced and the traced run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class NoTrace:
    """Pass-through recorder for untraced runs."""

    def span(self, name, check=False):
        return nullcontext()

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, n):
        pass


class Tracer:
    """Records spans and counts; ``check`` spans are verification work that
    the untraced run does not do, and are left out of the traced pass time."""

    def __init__(self):
        self.spans = []  # [name, parent, phase, check, start, end]
        self.counts = defaultdict(float)  # (phase, name) -> total
        self.phase = "setup"
        self._stack = []

    @contextmanager
    def span(self, name, check=False):
        rec = [name, self._stack[-1] if self._stack else -1, self.phase, check, 0.0, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[4] = time.perf_counter()
        try:
            yield
        finally:
            rec[5] = time.perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name, n):
        self.counts[(self.phase, name)] += n

    def wrap(self, name, fn):
        """``fn`` with every call recorded as a span called ``name``."""

        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    # -- summaries ---------------------------------------------------------

    def busy(self, phase):
        """Seconds per span name in one phase, not counting check spans nested
        inside.  Spans of one name never nest, so none is counted twice."""
        checks = defaultdict(float)  # span index -> seconds of checks inside it
        for s in self._checks(phase):
            parent = s[1]
            while parent >= 0:
                checks[parent] += s[5] - s[4]
                parent = self.spans[parent][1]
        out = defaultdict(float)
        for i, (name, _parent, ph, _check, t0, t1) in enumerate(self.spans):
            if ph == phase:
                out[name] += t1 - t0 - checks[i]
        return out

    def self_time(self, phase, name):
        """Seconds in spans called ``name`` not covered by their direct children."""
        total = 0.0
        own = {i for i, s in enumerate(self.spans) if s[2] == phase and s[0] == name}
        for i in own:
            total += self.spans[i][5] - self.spans[i][4]
        for s in self.spans:
            if s[1] in own:
                total -= s[5] - s[4]
        return total

    def calls(self, phase):
        out = defaultdict(int)
        for name, _parent, ph, *_ in self.spans:
            if ph == phase:
                out[name] += 1
        return out

    def check_seconds(self, phase):
        """Seconds in the check spans of one phase."""
        return sum(s[5] - s[4] for s in self._checks(phase))

    def _checks(self, phase):
        # Check spans never nest inside one another.
        return [s for s in self.spans if s[2] == phase and s[3]]

    def phase_counts(self, phase):
        return {name: v for (ph, name), v in self.counts.items() if ph == phase}

    def write(self, path):
        """One JSON object per line: the spans, then the counts."""
        with open(path, "w") as fh:
            for i, (name, parent, phase, check, t0, t1) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "parent": parent, "phase": phase,
                         "check": check, "start": t0, "end": t1}
                    )
                    + "\n"
                )
            for (phase, name), v in sorted(self.counts.items()):
                fh.write(json.dumps({"count": name, "phase": phase, "value": v}) + "\n")
