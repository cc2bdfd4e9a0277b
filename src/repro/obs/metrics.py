"""Thread-safe metrics registry with Prometheus-text exposition.

The fleet's telemetry core: counters, gauges, and fixed-bucket
histograms, each keyed by ``(metric name, sorted label pairs)``.  One
process holds one module-global :data:`REGISTRY`; instrumented call
sites use the module-level :func:`inc` / :func:`set_gauge` /
:func:`observe` / :func:`timer` helpers so the hot path never
constructs registry objects.

Three design constraints shape everything here:

* **Cheap when idle.**  A counter bump is a dict lookup plus a float
  add under one lock; no allocation beyond the first touch of a
  series.  Instrumented code must cost ~nothing when nobody scrapes.
* **Mergeable.**  Every worker process owns a private registry and
  periodically publishes :meth:`MetricsRegistry.snapshot` to the
  queue's shared mount (see :mod:`repro.obs.publish`).  The
  coordinator and ``repro top`` rebuild the fleet view with
  :func:`merge_snapshots`, so every aggregate must be commutative and
  associative: counters and histograms *sum*, gauges take the *max*
  (the interesting gauges — queue depth, inflight — are "how bad did
  it get" quantities).  The rule is written once, in
  :meth:`MetricsRegistry.absorb`.
* **Outside simulated time.**  Nothing in this module may be imported
  from ``sim``/``core``/``market`` scopes (the ``no-obs-in-sim`` lint
  rule enforces it), and nothing here feeds back into results — the
  byte-identity contract is indifferent to whether metrics are on.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager
from typing import Iterable, Iterator

SCHEMA_VERSION = 1

#: Default histogram bucket upper bounds, in seconds.  Spans the
#: repo's realities: sub-10ms queue filesystem ops through multi-minute
#: paper-scale cells.  Fixed (not adaptive) so snapshots from every
#: worker share bucket geometry and merge by plain vector addition.
DEFAULT_BUCKETS = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """In-process metric store; every mutation is lock-protected."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[tuple, float] = {}
        self._gauges: dict[tuple, float] = {}
        self._histograms: dict[tuple, dict] = {}

    # -- mutation ----------------------------------------------------

    def inc(self, name: str, value: float = 1.0, **labels: object) -> None:
        key = (name, _label_key(labels))
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + float(value)

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        key = (name, _label_key(labels))
        with self._lock:
            self._gauges[key] = float(value)

    def observe(self, name: str, value: float, **labels: object) -> None:
        key = (name, _label_key(labels))
        value = float(value)
        with self._lock:
            series = self._histograms.get(key)
            if series is None:
                # Last slot is the +Inf overflow bucket.
                series = self._histograms[key] = {
                    "bounds": DEFAULT_BUCKETS,
                    "counts": [0] * (len(DEFAULT_BUCKETS) + 1),
                    "sum": 0.0,
                }
            slot = len(series["bounds"])
            for index, bound in enumerate(series["bounds"]):
                if value <= bound:
                    slot = index
                    break
            series["counts"][slot] += 1
            series["sum"] += value

    @contextmanager
    def timer(self, name: str, **labels: object) -> Iterator[None]:
        """Observe the wrapped block's wall duration into a histogram.

        Monotonic clock: durations must be skew- and NTP-step-proof,
        and never touch the simulation's replayed timeline.
        """
        started = time.monotonic()
        try:
            yield
        finally:
            self.observe(name, time.monotonic() - started, **labels)

    # -- export / import ---------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-safe, deterministic copy of every series."""
        with self._lock:
            counters = [
                {"name": name, "labels": dict(labels), "value": value}
                for (name, labels), value in sorted(self._counters.items())
            ]
            gauges = [
                {"name": name, "labels": dict(labels), "value": value}
                for (name, labels), value in sorted(self._gauges.items())
            ]
            histograms = [
                {
                    "name": name,
                    "labels": dict(labels),
                    "bounds": list(series["bounds"]),
                    "counts": list(series["counts"]),
                    "sum": series["sum"],
                }
                for (name, labels), series in sorted(self._histograms.items())
            ]
        return {
            "schema": SCHEMA_VERSION,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def absorb(self, snapshot: dict) -> None:
        """Fold a snapshot into this registry: the one merge rule.

        Counters and histogram counts and sums add, and each gauge
        keeps its max.  The lock is held for the whole fold, so updates
        other threads make meanwhile are never lost.  The coordinator
        absorbs its fleet's snapshots before the queue directory is
        retired, so a post-run ``GET /metrics`` still shows fleet
        totals.
        """
        if not snapshot:
            return
        with self._lock:
            for c in snapshot.get("counters", ()):
                key = (c["name"], _label_key(c["labels"]))
                value = self._counters.get(key, 0.0) + float(c["value"])
                self._counters[key] = value
            for g in snapshot.get("gauges", ()):
                key = (g["name"], _label_key(g["labels"]))
                value = float(g["value"])
                if key not in self._gauges or value > self._gauges[key]:
                    self._gauges[key] = value
            for h in snapshot.get("histograms", ()):
                key = (h["name"], _label_key(h["labels"]))
                series = self._histograms.get(key)
                if series is None:
                    self._histograms[key] = {
                        "bounds": tuple(h["bounds"]),
                        "counts": [int(n) for n in h["counts"]],
                        "sum": float(h["sum"]),
                    }
                    continue
                series["counts"] = [
                    a + int(b) for a, b in zip(series["counts"], h["counts"])
                ]
                series["sum"] += float(h["sum"])

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


def merge_snapshots(snapshots: Iterable[dict]) -> dict:
    """Aggregate registry snapshots into one fleet-wide snapshot.

    Absorbs each into a fresh registry, so merging is order-independent
    however snapshot files happen to list on the shared mount.
    """
    registry = MetricsRegistry()
    for snapshot in snapshots:
        registry.absorb(snapshot)
    return registry.snapshot()


# -- Prometheus text exposition (format version 0.0.4) ----------------


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _labels_text(labels: dict, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = [(k, str(v)) for k, v in sorted(labels.items())] + list(extra)
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in pairs)
    return "{" + body + "}"


def _number_text(value: float) -> str:
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def prometheus_text(snapshot: dict) -> str:
    """Encode a snapshot as Prometheus text exposition format.

    Deterministic: series are emitted in sorted order with one
    ``# TYPE`` line per metric family, histogram buckets cumulative
    and capped by ``le="+Inf"``.
    """
    lines: list[str] = []
    by_family: dict[str, list[dict]] = {}
    family_type: dict[str, str] = {}
    for c in snapshot.get("counters", ()):
        by_family.setdefault(c["name"], []).append(c)
        family_type[c["name"]] = "counter"
    for g in snapshot.get("gauges", ()):
        by_family.setdefault(g["name"], []).append(g)
        family_type[g["name"]] = "gauge"
    for h in snapshot.get("histograms", ()):
        by_family.setdefault(h["name"], []).append(h)
        family_type[h["name"]] = "histogram"
    for name in sorted(by_family):
        kind = family_type[name]
        lines.append(f"# TYPE {name} {kind}")
        for series in sorted(
            by_family[name], key=lambda s: _label_key(s["labels"])
        ):
            labels = series["labels"]
            if kind in ("counter", "gauge"):
                lines.append(
                    f"{name}{_labels_text(labels)} {_number_text(series['value'])}"
                )
                continue
            cumulative = 0
            for bound, count in zip(series["bounds"], series["counts"]):
                cumulative += count
                le = _labels_text(labels, extra=(("le", _number_text(bound)),))
                lines.append(f"{name}_bucket{le} {cumulative}")
            cumulative += series["counts"][len(series["bounds"])]
            le = _labels_text(labels, extra=(("le", "+Inf"),))
            lines.append(f"{name}_bucket{le} {cumulative}")
            lines.append(
                f"{name}_sum{_labels_text(labels)} {_number_text(series['sum'])}"
            )
            lines.append(f"{name}_count{_labels_text(labels)} {cumulative}")
    return "\n".join(lines) + ("\n" if lines else "")


#: The process-global registry every instrumented call site writes to.
REGISTRY = MetricsRegistry()


def inc(name: str, value: float = 1.0, **labels: object) -> None:
    REGISTRY.inc(name, value, **labels)


def set_gauge(name: str, value: float, **labels: object) -> None:
    REGISTRY.set_gauge(name, value, **labels)


def observe(name: str, value: float, **labels: object) -> None:
    REGISTRY.observe(name, value, **labels)


def timer(name: str, **labels: object):
    return REGISTRY.timer(name, **labels)
