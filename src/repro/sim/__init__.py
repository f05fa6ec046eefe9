"""Behavioral simulation, trace storage, and signal statistics."""

from repro.sim.traces import OccurrenceArray, TraceStore
from repro.sim.statistics import ActivityStats, activity_stats, stream_activity
from repro.sim.stimulus import random_stimulus

__all__ = [
    "OccurrenceArray",
    "TraceStore",
    "ActivityStats",
    "activity_stats",
    "stream_activity",
    "random_stimulus",
]
