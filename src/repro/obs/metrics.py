"""Process-wide metrics registry: counters, gauges, histograms, reservoirs.

One named instrument per metric, with optional labels (``counter.inc(
platform="ipu")``), replacing the per-module tallies that PR 1 and PR 2
each grew on their own (``CompiledPlanCache`` ints, ``ServerStats``
lists, ``RecoveryLog`` scans).  Histograms use *fixed exponential
buckets* so their memory is bounded regardless of sample count, and
:class:`Reservoir` provides bounded, seeded, deterministic percentile
estimation for latency series.

The default process registry is returned by :func:`get_registry`; tests
swap in a fresh one with :func:`set_registry` (restoring the old) so
assertions see only their own increments.

:meth:`MetricsRegistry.render_prometheus` emits the standard
``# HELP`` / ``# TYPE`` text exposition format, sorted, so dumps are
deterministic.
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError

# Label values are joined into a stable tuple key, sorted by label name.
_LabelKey = tuple


def _label_key(labels: dict) -> _LabelKey:
    # Most updates carry zero or one label: skip the sort for those.
    if not labels:
        return ()
    if len(labels) == 1:
        ((k, v),) = labels.items()
        return ((str(k), str(v)),)
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Prometheus text-format label-value escaping: ``\\``, ``"``, newline."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    """HELP lines escape backslash and newline (quotes are legal there)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_labels(key: _LabelKey) -> str:
    if not key:
        return ""
    return (
        "{"
        + ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in key)
        + "}"
    )


def exponential_buckets(start: float, factor: float, count: int) -> tuple[float, ...]:
    """``count`` bucket upper bounds: start, start*factor, ... (no +Inf)."""
    if start <= 0 or factor <= 1.0 or count < 1:
        raise ConfigError(
            f"need start > 0, factor > 1, count >= 1; got {start}, {factor}, {count}"
        )
    return tuple(start * factor**i for i in range(count))


# Default latency-style buckets: 1 us .. ~4.2 s in x2 steps (23 buckets).
DEFAULT_BUCKETS = exponential_buckets(1e-6, 2.0, 23)


@dataclass
class _Instrument:
    """Shared shape of one named metric with labelled children."""

    name: str
    help: str = ""
    unit: str = ""
    kind: str = "counter"

    def __post_init__(self) -> None:
        self._lock = threading.Lock()


class Counter(_Instrument):
    """Monotonically increasing per-labelset totals."""

    def __init__(self, name: str, help: str = "", unit: str = "") -> None:
        super().__init__(name, help, unit, kind="counter")
        self._values: dict[_LabelKey, float] = {}

    def inc(self, amount: float = 1, **labels) -> None:
        if amount < 0:
            raise ConfigError(f"counter {self.name} cannot decrease (inc {amount})")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels) -> float:
        return self._values.get(_label_key(labels), 0)

    @property
    def total(self) -> float:
        """Sum across every labelset."""
        return sum(self._values.values())

    def series(self) -> dict[_LabelKey, float]:
        return dict(self._values)


class Gauge(_Instrument):
    """A settable point-in-time value per labelset."""

    def __init__(self, name: str, help: str = "", unit: str = "") -> None:
        super().__init__(name, help, unit, kind="gauge")
        self._values: dict[_LabelKey, float] = {}

    def set(self, value: float, **labels) -> None:
        with self._lock:
            self._values[_label_key(labels)] = value

    def inc(self, amount: float = 1, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def dec(self, amount: float = 1, **labels) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels) -> float:
        return self._values.get(_label_key(labels), 0)

    def series(self) -> dict[_LabelKey, float]:
        return dict(self._values)


@dataclass
class _HistogramSeries:
    counts: list[int]
    sum: float = 0.0
    count: int = 0


class Histogram(_Instrument):
    """Fixed-exponential-bucket histogram (bounded memory, any sample count)."""

    def __init__(
        self,
        name: str,
        help: str = "",
        unit: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, unit, kind="histogram")
        if not buckets or any(b <= a for a, b in zip(buckets, buckets[1:])):
            raise ConfigError(f"histogram {name} needs strictly increasing buckets")
        self.buckets = tuple(float(b) for b in buckets)
        self._series: dict[_LabelKey, _HistogramSeries] = {}

    def _get_series(self, key: _LabelKey) -> _HistogramSeries:
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(counts=[0] * (len(self.buckets) + 1))
        return series

    def observe(self, value: float, **labels) -> None:
        key = _label_key(labels)
        # First bound >= value, as np.searchsorted(side="left") would give;
        # NaN (which bisect would put first) goes to the +Inf overflow.
        index = bisect.bisect_left(self.buckets, value) if value == value else len(self.buckets)
        with self._lock:
            series = self._get_series(key)
            series.sum += value
            series.count += 1
            series.counts[index] += 1

    def count(self, **labels) -> int:
        series = self._series.get(_label_key(labels))
        return series.count if series else 0

    def sum(self, **labels) -> float:
        series = self._series.get(_label_key(labels))
        return series.sum if series else 0.0

    def bucket_counts(self, **labels) -> list[int]:
        """Per-bucket counts (last entry is the +Inf overflow bucket)."""
        series = self._series.get(_label_key(labels))
        return list(series.counts) if series else [0] * (len(self.buckets) + 1)

    def quantile(self, q: float, **labels) -> float:
        """Upper bound of the bucket containing the ``q``-quantile sample.

        Deterministic and conservative; 0 for an empty series, and the
        last finite bucket bound for overflow samples.
        """
        series = self._series.get(_label_key(labels))
        if series is None or series.count == 0:
            return 0.0
        rank = max(1, int(np.ceil(q / 100.0 * series.count)))
        seen = 0
        for i, n in enumerate(series.counts):
            seen += n
            if seen >= rank:
                return self.buckets[min(i, len(self.buckets) - 1)]
        return self.buckets[-1]

    def series(self) -> dict[_LabelKey, _HistogramSeries]:
        return dict(self._series)


class Reservoir:
    """Bounded, seeded reservoir of samples with exact small-n percentiles.

    Algorithm R: the first ``capacity`` samples are kept verbatim (so
    percentiles are *exact* for series that fit — every current trace
    replay does); beyond that each new sample replaces a seeded-random
    slot, keeping memory constant over arbitrarily long traces.  Two runs
    feeding the same sequence produce identical state.
    """

    def __init__(self, capacity: int = 2048, seed: int = 0) -> None:
        if capacity < 1:
            raise ConfigError(f"reservoir capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._samples: list[float] = []
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def add(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        if len(self._samples) < self.capacity:
            self._samples.append(value)
        else:
            slot = int(self._rng.integers(0, self.count))
            if slot < self.capacity:
                self._samples[slot] = value

    def extend(self, values) -> None:
        for v in values:
            self.add(v)

    @property
    def samples(self) -> list[float]:
        return list(self._samples)

    @property
    def saturated(self) -> bool:
        return self.count > self.capacity

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile over the retained samples (0 if empty).

        Exact while ``count <= capacity``; an unbiased seeded estimate
        afterwards.
        """
        if not self._samples:
            return 0.0
        return float(
            np.percentile(np.asarray(self._samples, dtype=np.float64), q, method="lower")
        )

    def __len__(self) -> int:
        return len(self._samples)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Reservoir):
            return NotImplemented
        return (
            self.count == other.count
            and self.sum == other.sum
            and self._samples == other._samples
        )


class MetricsRegistry:
    """Name -> instrument map with get-or-create accessors."""

    def __init__(self) -> None:
        self._instruments: dict[str, _Instrument] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, kind, factory) -> _Instrument:
        with self._lock:
            inst = self._instruments.get(name)
            if inst is None:
                inst = self._instruments[name] = factory()
            elif not isinstance(inst, kind):
                raise ConfigError(
                    f"metric {name!r} already registered as {inst.kind}, "
                    f"not {kind.__name__.lower()}"
                )
            return inst

    def counter(self, name: str, help: str = "", unit: str = "") -> Counter:
        return self._get_or_create(name, Counter, lambda: Counter(name, help, unit))

    def gauge(self, name: str, help: str = "", unit: str = "") -> Gauge:
        return self._get_or_create(name, Gauge, lambda: Gauge(name, help, unit))

    def histogram(
        self,
        name: str,
        help: str = "",
        unit: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            name, Histogram, lambda: Histogram(name, help, unit, buckets)
        )

    # ------------------------------------------------------------------
    def names(self) -> list[str]:
        return sorted(self._instruments)

    def get(self, name: str) -> _Instrument | None:
        return self._instruments.get(name)

    def reset(self) -> None:
        """Drop every instrument (tests)."""
        with self._lock:
            self._instruments.clear()

    # ------------------------------------------------------------------
    def render_prometheus(self) -> str:
        """Sorted Prometheus text-exposition dump of every instrument.

        Byte-stable: instrument names and label sets are sorted (label
        keys alphabetically inside each set, sets lexicographically),
        and label values / HELP text are escaped per the exposition
        spec, so two registries with equal contents render identically.
        """
        lines: list[str] = []
        for name in self.names():
            inst = self._instruments[name]
            if inst.help:
                lines.append(f"# HELP {name} {_escape_help(inst.help)}")
            lines.append(f"# TYPE {name} {inst.kind}")
            if isinstance(inst, (Counter, Gauge)):
                for key in sorted(inst.series()):
                    lines.append(f"{name}{_format_labels(key)} {inst.series()[key]:g}")
            elif isinstance(inst, Histogram):
                for key in sorted(inst.series()):
                    series = inst.series()[key]
                    cumulative = 0
                    for bound, n in zip(inst.buckets, series.counts):
                        cumulative += n
                        le = _label_key({**dict(key), "le": f"{bound:g}"})
                        lines.append(f"{name}_bucket{_format_labels(le)} {cumulative}")
                    le = _label_key({**dict(key), "le": "+Inf"})
                    lines.append(f"{name}_bucket{_format_labels(le)} {series.count}")
                    lines.append(f"{name}_sum{_format_labels(key)} {series.sum:g}")
                    lines.append(f"{name}_count{_format_labels(key)} {series.count}")
        return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# Process-default registry.

_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry every instrumented module reports to."""
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install a registry (tests use a fresh one); returns the previous."""
    global _REGISTRY
    previous, _REGISTRY = _REGISTRY, registry
    return previous
