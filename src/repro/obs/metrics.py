"""The metrics registry: counters, gauges, histograms, registered sources.

Three metric kinds, all process-local:

* **counters** -- monotonically growing floats (``inc``).
* **gauges** -- last-written value (``gauge``).  The existing statistics
  objects (``SolverStatistics``, ``ExecutionStatistics``,
  ``SummaryCacheStatistics``, ``LookaheadStatistics``) register as
  *sources*: anything with an ``as_dict()`` method.  At
  collection time each source is snapshotted into gauges under its prefix,
  so the ~30 hand-threaded counters land in one registry without any of
  them changing shape.
* **histograms** -- fixed-bound bucket counts plus count/total/min/max
  (``observe``).  Per-version leg times distribute here instead of being
  averaged away.

Zero dependencies, pure JSON on export (:meth:`MetricsRegistry.collect`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["Histogram", "MetricsRegistry", "DEFAULT_BOUNDS"]

#: Default histogram bucket upper bounds -- tuned for seconds-scale
#: observations (solve times, leg times).  A value larger
#: than every bound lands in the overflow bucket.
DEFAULT_BOUNDS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    30.0,
)


class Histogram:
    """Fixed-bound bucket histogram with count/total/min/max."""

    __slots__ = ("bounds", "buckets", "count", "total", "min", "max")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BOUNDS):
        self.bounds: Tuple[float, ...] = tuple(bounds)
        # One bucket per bound plus the overflow bucket.
        self.buckets: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        position = len(self.bounds)
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                position = index
                break
        self.buckets[position] += 1
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> Optional[float]:
        """The q-quantile (``0 <= q <= 1``) estimated from the buckets.

        Exact when every observation was equal (``min == max``); otherwise
        interpolated within the bucket the quantile falls in.  The default
        bounds are log-spaced, so interpolation is geometric (log-linear)
        whenever the bucket's edges are positive -- a linear walk through,
        say, the (0.5, 1.0] bucket would systematically overestimate low
        quantiles of a long-tailed seconds distribution.  Bucket edges are
        clamped to the observed ``min``/``max``, which also bounds the
        otherwise open overflow bucket.  Returns None on an empty histogram.
        """
        if not self.count:
            return None
        if self.min == self.max:
            return self.min
        if q <= 0.0:
            return self.min
        if q >= 1.0:
            return self.max
        target = q * self.count
        cumulative = 0.0
        for index, bucket_count in enumerate(self.buckets):
            if bucket_count and cumulative + bucket_count >= target:
                lower = self.bounds[index - 1] if index > 0 else self.min
                upper = self.bounds[index] if index < len(self.bounds) else self.max
                lower = max(lower, self.min)
                upper = min(max(upper, lower), self.max)
                fraction = (target - cumulative) / bucket_count
                if lower > 0 and upper > lower:
                    value = lower * (upper / lower) ** fraction
                else:
                    value = lower + (upper - lower) * fraction
                return min(max(value, self.min), self.max)
            cumulative += bucket_count
        return self.max

    def as_dict(self) -> Dict:
        return {
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
            "count": self.count,
            "total": round(self.total, 9),
            "min": self.min,
            "max": self.max,
        }

    def merge_dict(self, data: Dict) -> bool:
        """Fold an exported histogram dict in; False when malformed."""
        try:
            bounds = tuple(data["bounds"])
            buckets = list(data["buckets"])
            count = int(data["count"])
            total = float(data["total"])
        except (KeyError, TypeError, ValueError):
            return False
        if bounds != self.bounds or len(buckets) != len(self.buckets):
            return False
        for index, value in enumerate(buckets):
            self.buckets[index] += int(value)
        self.count += count
        self.total += total
        for extreme, pick in (("min", min), ("max", max)):
            value = data.get(extreme)
            if value is None:
                continue
            current = getattr(self, extreme)
            setattr(self, extreme, value if current is None else pick(current, value))
        return True


class MetricsRegistry:
    """Counters + gauges + histograms + snapshot-on-collect sources."""

    def __init__(self):
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}
        self._sources: List[Tuple[str, object]] = []

    # -- writes ---------------------------------------------------------------

    def inc(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe(self, name: str, value: float, bounds: Sequence[float] = DEFAULT_BOUNDS) -> None:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(bounds)
        histogram.observe(value)

    def register(self, prefix: str, source: object) -> None:
        """Register a statistics source (anything with ``as_dict()``).

        Snapshotted at :meth:`collect` time under ``<prefix>.<key>``
        gauges; only scalar values are taken (nested dicts/lists -- e.g. a
        report's ``failure_reasons`` -- are skipped so the flat registry
        stays honestly typed).  Re-registering the same object under the
        same prefix is a no-op.
        """
        for existing_prefix, existing in self._sources:
            if existing is source and existing_prefix == prefix:
                return
        self._sources.append((prefix, source))

    # -- reads ----------------------------------------------------------------

    def snapshot_sources(self) -> None:
        """Pull every registered source's scalars into the gauges."""
        for prefix, source in self._sources:
            try:
                values = source.as_dict()
            except Exception:
                continue
            if not isinstance(values, dict):
                continue
            for key, value in values.items():
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    continue
                self.gauges[f"{prefix}.{key}"] = value

    def collect(self) -> Dict:
        """A pure-JSON snapshot (sources folded into the gauges)."""
        self.snapshot_sources()
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: histogram.as_dict() for name, histogram in self.histograms.items()
            },
        }
