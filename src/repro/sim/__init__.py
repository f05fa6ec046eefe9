"""Behavioral simulation, trace storage, and signal statistics."""

from repro.sim.traces import OccurrenceArray, TraceStore
from repro.sim.statistics import stream_activity
from repro.sim.stimulus import random_stimulus

__all__ = [
    "OccurrenceArray",
    "TraceStore",
    "stream_activity",
    "random_stimulus",
]
