"""Timing at reference host speed, and in-memory spans around layer calls.

Every timed call the harness makes goes through `Tracer.span`, which always
measures the call and, when tracing is on, also records a span: name, key,
start, end and the index of the enclosing span.

The benchmark runs on shared hosts whose speed drifts by 20-40 % over tens
of seconds, the same way for every kind of work (a run that is slow is slow
on everything). A `scaled` span therefore also times a fixed yardstick just
before and just after the call, and reports the call's time scaled to the
host speed at which the yardstick takes YARDSTICK_REF_S. The raw time is
kept beside it. `Tracer.patch` wraps the
functions one ghzgap module imports from another, so calls between layers
nest under the harness's spans without changing the package. Spans stay in
memory until `dump` writes them out at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import numpy as np

#: The yardstick's time on the reference machine (2 cores, Python 3.11,
#: numpy 2.4) in its fast state.
YARDSTICK_REF_S = 0.0035
_YARDSTICK_RNG = np.random.Generator(np.random.Philox(0))


def _yardstick_once() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    for k in range(0, 300, 3):
        acc += math.comb(300, k) * math.comb(200, k % 200)
    bits = _YARDSTICK_RNG.integers(0, 2, size=(1 << 15, 8), dtype=np.uint8)
    int((bits.sum(axis=1) & 1).sum())
    return time.perf_counter() - start


def yardstick() -> float:
    """Seconds for fixed work that never touches ghzgap: a Python integer
    loop, big-integer binomials and a numpy draw-and-reduce; best of two."""
    return min(_yardstick_once(), _yardstick_once())

#: Functions that one ghzgap module calls in another, by the calling module.
#: Wrapping the calling module's reference times the callee's layer.
LAYER_BOUNDARIES = {
    "ghzgap.cli": (
        "parse_configuration",
        "gap",
        "macroscopic_report",
        "run_experiment",
        "min_trials_to_disprove",
        "minimize_bad_words",
        "minimize_bad_words_brute_force",
        "bad_word_count_naive",
        "build_manifest",
        "dumps_json",
        "dumps_csv",
    ),
    "ghzgap.experiment": (
        "sample_result_bits",
        "minimize_bad_words",
        "bad_word_count_analytic",
        "failure_probability_closed",
    ),
    "ghzgap.asymptotics": ("failure_probability_closed", "mermin_bound"),
}

#: Span keys for wrapped calls whose cost depends on an argument.
_KEYS: dict[str, Callable[..., str]] = {
    "minimize_bad_words": lambda q, *a, **k: f"q{q}",
}


class Span:
    __slots__ = ("start", "end", "host")

    @property
    def seconds(self) -> float:
        """Raw wall time."""
        return self.end - self.start

    @property
    def scaled(self) -> float:
        """Wall time at the reference host speed (raw if not scaled)."""
        return self.seconds * YARDSTICK_REF_S / self.host


def scaled_call(fn: Callable[[], Any]) -> tuple[Any, float, float]:
    """Run fn between two yardsticks: (result, raw seconds, scaled seconds)."""
    before = yardstick()
    start = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - start
    host = (before + yardstick()) / 2
    return result, raw, raw * YARDSTICK_REF_S / host


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.records: list[tuple[str, str, int, float, float]] = []
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str, key: str = "", scaled: bool = False) -> Iterator[Span]:
        """Time the enclosed call; record it as a span when tracing.

        With `scaled`, yardsticks run just outside the span and set
        `Span.host`, their mean time, from which `Span.scaled` follows.
        """
        s = Span()
        s.host = yardstick() if scaled else YARDSTICK_REF_S
        try:
            if not self.enabled:
                s.start = time.perf_counter()
                try:
                    yield s
                finally:
                    s.end = time.perf_counter()
                return
            parent = self._stack[-1] if self._stack else -1
            index = len(self.records)
            self.records.append((name, key, parent, 0.0, 0.0))
            self._stack.append(index)
            s.start = time.perf_counter()
            try:
                yield s
            finally:
                s.end = time.perf_counter()
                self._stack.pop()
                self.records[index] = (name, key, parent, s.start, s.end)
        finally:
            if scaled:
                s.host = (s.host + yardstick()) / 2

    def _wrap(self, fn: Callable) -> Callable:
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        key_of = _KEYS.get(fn.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, key_of(*args, **kwargs) if key_of else ""):
                return fn(*args, **kwargs)

        return traced

    def patch(self) -> None:
        """Wrap the layer boundaries listed in LAYER_BOUNDARIES."""
        if not self.enabled or self._patched:
            return
        for module_name, attrs in LAYER_BOUNDARIES.items():
            module = importlib.import_module(module_name)
            for attr in attrs:
                original = getattr(module, attr)
                setattr(module, attr, self._wrap(original))
                self._patched.append((module, attr, original))

    def unpatch(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def self_seconds(self, count: int) -> dict[str, float]:
        """Per-layer self time of the first `count` spans: each span's
        duration less the part its child spans cover."""
        records = self.records[:count]
        child_time = [0.0] * len(records)
        for name, _, parent, start, end in records:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, _, _, start, end) in enumerate(records):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start) - child_time[i]
        return dict(sorted(out.items()))

    def dump(self) -> dict[str, Any]:
        """Spans as columns, times in microseconds from the first span."""
        names = sorted({r[0] for r in self.records})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.records[0][3] if self.records else 0.0
        return {
            "names": names,
            "columns": ["name", "key", "parent", "start_us", "end_us"],
            "rows": [
                [index[n], k, p, round((s - t0) * 1e6, 1), round((e - t0) * 1e6, 1)]
                for n, k, p, s, e in self.records
            ],
        }
