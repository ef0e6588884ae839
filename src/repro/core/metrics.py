"""Measurement utilities shared by experiments and benches.

* :class:`TimeSeries` — values accumulated into fixed-width time buckets,
  yielding rate series ("MB/s per minute", the x-axis of Figures 5-7);
* :class:`PercentileTracker` — latency samples with avg/p99/p99.9
  summaries (Figure 8's three statistical points);
* :class:`ThroughputSampler` — periodic counter snapshots turned into
  per-interval deltas (how the paper's firmware counters become curves);
* :class:`CacheCounters` — hit/miss/eviction/invalidation accounting
  shared by the read-side caches (LSM block cache idiom, QinDB record
  cache), so ablations report hit rates the same way everywhere;
* :class:`BatchCounters` — write-batch accounting (batches issued, keys
  they carried) shared by the batched ingest path, so the A9 ablation
  reports realized batch sizes the same way at every layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError


class TimeSeries:
    """Values bucketed by time; read back as sums or rates."""

    def __init__(self, bucket_s: float = 60.0) -> None:
        if bucket_s <= 0:
            raise ConfigError(f"bucket width must be positive, got {bucket_s}")
        self.bucket_s = bucket_s
        self._buckets: Dict[int, float] = {}

    def add(self, when: float, value: float) -> None:
        """Accumulate ``value`` into the bucket containing ``when``."""
        bucket = int(when // self.bucket_s)
        self._buckets[bucket] = self._buckets.get(bucket, 0.0) + value

    def sums(self) -> List[Tuple[float, float]]:
        """(bucket_start_time, total) for every touched bucket, in order."""
        return [
            (bucket * self.bucket_s, self._buckets[bucket])
            for bucket in sorted(self._buckets)
        ]

    def rates(self) -> List[Tuple[float, float]]:
        """(bucket_start_time, total / bucket_seconds) series."""
        return [(start, total / self.bucket_s) for start, total in self.sums()]

    def rate_values(self) -> List[float]:
        """Just the rate magnitudes (for mean/stddev summaries)."""
        return [rate for _start, rate in self.rates()]


class PercentileTracker:
    """Collects samples; reports mean and arbitrary percentiles.

    Every sample is kept, so percentiles are exact — what the tier-1
    tests and the figure benches pin.  The sorted order is cached
    between queries and invalidated by the next ``add``/``extend``, so
    ``summary()`` (three percentile reads) sorts once instead of three
    times; :attr:`sort_count` witnesses it.  Bounded-memory latency
    tracking lives in :class:`repro.obs.hist.LogHistogram`.
    """

    def __init__(self) -> None:
        self._samples: List[float] = []
        self._ordered: Optional[List[float]] = None
        self._sort_count = 0
        self._sum = 0.0

    def add(self, sample: float) -> None:
        self._samples.append(sample)
        self._sum += sample
        self._ordered = None

    def extend(self, samples: Sequence[float]) -> None:
        start = len(self._samples)
        self._samples.extend(samples)
        self._ordered = None
        # Element-wise accumulation keeps the running sum bit-identical
        # to a sequence of ``add`` calls.
        for sample in self._samples[start:]:
            self._sum += sample

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def sort_count(self) -> int:
        """How many times the sample list has actually been sorted."""
        return self._sort_count

    @property
    def mean(self) -> float:
        if not self._samples:
            return 0.0
        return self._sum / len(self._samples)

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (nearest-rank on the sorted samples)."""
        if not 0.0 <= p <= 100.0:
            raise ConfigError(f"percentile must be in [0, 100], got {p}")
        if not self._samples:
            return 0.0
        if self._ordered is None:
            self._ordered = sorted(self._samples)
            self._sort_count += 1
        # The epsilon guards against float artifacts like 99.9/100*1000
        # evaluating to 999.0000000000001 (which would ceil to 1000).
        rank = max(0, math.ceil(p / 100.0 * len(self._ordered) - 1e-9) - 1)
        return self._ordered[rank]

    def summary(self) -> Dict[str, float]:
        """The paper's three statistical points (Figure 8)."""
        return {
            "avg": self.mean,
            "p99": self.percentile(99.0),
            "p999": self.percentile(99.9),
        }

    def quantiles(self) -> Dict[str, float]:
        """The serving-SLO view: median plus both tails, with count."""
        return {
            "mean": self.mean,
            "p50": self.percentile(50.0),
            "p99": self.percentile(99.0),
            "p999": self.percentile(99.9),
            "count": float(len(self)),
        }


@dataclass
class CacheCounters:
    """Hit/miss/eviction/invalidation tallies for one cache instance.

    ``hits + misses`` is the lookup count; evictions are capacity-driven
    removals, invalidations are correctness-driven ones (a compaction
    deleted the file, a GC erased the segment).  Keeping the two apart is
    what lets the ablations distinguish "the cache was too small" from
    "the write path killed the cache".
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidated: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def reset_lookups(self) -> None:
        """Zero the hit/miss tallies (per-phase measurements)."""
        self.hits = 0
        self.misses = 0

    def as_dict(self) -> Dict[str, float]:
        """Flat counter view for table/report aggregation."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidated": self.invalidated,
            "hit_rate": self.hit_rate,
        }

    def register_metrics(self, registry, prefix: str) -> None:
        """Expose live views under ``prefix.*`` in a metrics registry."""
        registry.register_many(
            prefix,
            {
                "hits": lambda: self.hits,
                "misses": lambda: self.misses,
                "evictions": lambda: self.evictions,
                "invalidated": lambda: self.invalidated,
            },
        )


@dataclass
class BatchCounters:
    """Batch-path tallies for one engine instance.

    ``batches`` counts :meth:`put_batch` calls, ``batched_puts`` the keys
    they carried; ``batched_puts / batches`` is the realized batch size.
    ``get_batches``/``batched_gets`` are the read-side mirror for
    :meth:`get_batch`.  Kept separate from the per-key counters so
    batch/single equivalence can be asserted on everything *except*
    these.
    """

    batches: int = 0
    batched_puts: int = 0
    get_batches: int = 0
    batched_gets: int = 0

    @property
    def mean_batch_size(self) -> float:
        return self.batched_puts / self.batches if self.batches else 0.0

    @property
    def mean_get_batch_size(self) -> float:
        return self.batched_gets / self.get_batches if self.get_batches else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Flat counter view for table/report aggregation."""
        return {
            "batches": self.batches,
            "batched_puts": self.batched_puts,
            "mean_batch_size": self.mean_batch_size,
            "get_batches": self.get_batches,
            "batched_gets": self.batched_gets,
            "mean_get_batch_size": self.mean_get_batch_size,
        }

    def register_metrics(self, registry, prefix: str) -> None:
        """Expose live views under ``prefix.*`` in a metrics registry."""
        registry.register_many(
            prefix,
            {
                "batches": lambda: self.batches,
                "batched_puts": lambda: self.batched_puts,
                "get_batches": lambda: self.get_batches,
                "batched_gets": lambda: self.batched_gets,
            },
        )


@dataclass
class Sample:
    """One periodic snapshot of monotonically increasing counters."""

    at: float
    values: Dict[str, float]


class ThroughputSampler:
    """Snapshots counters on an interval; yields per-interval rates.

    Counters come either from explicit dicts/callables (the historical
    API) or from a bound :class:`~repro.obs.registry.MetricsRegistry` —
    pass ``registry=`` and omit the per-call counter arguments, and every
    registered metric becomes sampleable.
    """

    def __init__(self, interval_s: float = 60.0, registry=None) -> None:
        if interval_s <= 0:
            raise ConfigError(f"interval must be positive, got {interval_s}")
        self.interval_s = interval_s
        self.registry = registry
        self._samples: List[Sample] = []
        self._next_due = 0.0

    def _read(self, counters: Optional[Dict[str, float]]) -> Dict[str, float]:
        if counters is not None:
            return dict(counters)
        if self.registry is None:
            raise ConfigError(
                "no counters given and no registry bound to the sampler"
            )
        return self.registry.collect()

    def prime(self, now: float, counters: Optional[Dict[str, float]] = None) -> None:
        """Record the baseline sample at experiment start."""
        self._samples = [Sample(now, self._read(counters))]
        self._next_due = now + self.interval_s

    def maybe_sample(
        self,
        now: float,
        read_counters: Optional[Callable[[], Dict[str, float]]] = None,
    ) -> None:
        """Take snapshots for every interval boundary passed by ``now``."""
        while now >= self._next_due:
            values = read_counters() if read_counters is not None else None
            self._samples.append(Sample(self._next_due, self._read(values)))
            self._next_due += self.interval_s

    def finalize(self, now: float, counters: Optional[Dict[str, float]] = None) -> None:
        """Record the trailing partial interval."""
        if not self._samples or now > self._samples[-1].at:
            self._samples.append(Sample(now, self._read(counters)))

    def rate_series(self, counter: str) -> List[Tuple[float, float]]:
        """(interval_start, delta/second) for one counter.

        A counter missing from a snapshot reads as 0.0 — counters can be
        registered mid-run, and their pre-registration history is zero.
        """
        series: List[Tuple[float, float]] = []
        for before, after in zip(self._samples, self._samples[1:]):
            duration = after.at - before.at
            if duration <= 0:
                continue
            delta = after.values.get(counter, 0.0) - before.values.get(counter, 0.0)
            series.append((before.at, delta / duration))
        return series

    def level_series(self, counter: str) -> List[Tuple[float, float]]:
        """(time, value) of a gauge-like counter at each snapshot."""
        return [(s.at, s.values.get(counter, 0.0)) for s in self._samples]


def mean_and_stddev(values: Sequence[float]) -> Tuple[float, float]:
    """Population mean and standard deviation (Figure 6's metric)."""
    if not values:
        return 0.0, 0.0
    mean = sum(values) / len(values)
    variance = sum((v - mean) ** 2 for v in values) / len(values)
    return mean, math.sqrt(variance)
