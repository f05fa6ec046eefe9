"""Dirty sets: what one move invalidates in a derived design point.

The paper's trace-manipulation premise (Section 2.3) is that a synthesis
step edits a *small* part of the design, so the analyses — merged unit
traces and the RT structure itself — should be patched, not recomputed
(the power estimate is a cheap sum over them and is always recomputed).
A :class:`DirtySet` is a move's declaration of exactly what it touched:
the functional units whose operation sets or modules changed, the
registers whose carrier sets changed, and any multiplexer ports it
edited directly (tree restructuring).  Everything else in the derived
point is structurally shared with its parent.

The unit-level sets are closed over the datapath by
:func:`affected_ports`: a port is dirty when its key names a dirty unit
(its driver set changes with the unit's operations) or when any of its
*sources* names one (the signal feeding it merges differently, so both
its selection statistics and its source activities change).  Moves that
re-schedule invalidate the STG itself, which invalidates every lifetime
and every port — they declare ``reschedule`` and the derivation falls
back to the full path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Port/source keys are the plain tuples of :mod:`repro.rtl.datapath`.
PortKey = tuple


@dataclass(frozen=True)
class DirtySet:
    """What a move invalidates, relative to the parent design point.

    ``fu_ids`` are units whose merged trace, energy term, datapath ports
    or delays may differ (operation set, width or module changed —
    including units the move created); ``reg_ids`` likewise for registers
    (including registers the move deleted); ``port_keys`` are multiplexer
    ports the move edits directly (tree restructuring).  ``reschedule``
    marks moves that build a new STG: every schedule-derived artifact is
    invalid and the derivation must take the full path.
    """

    fu_ids: frozenset[int] = frozenset()
    reg_ids: frozenset[int] = frozenset()
    port_keys: frozenset[PortKey] = frozenset()
    reschedule: bool = False

    @classmethod
    def for_fus(cls, *fu_ids: int) -> "DirtySet":
        return cls(fu_ids=frozenset(fu_ids))

    @classmethod
    def for_regs(cls, *reg_ids: int) -> "DirtySet":
        return cls(reg_ids=frozenset(reg_ids))

    @classmethod
    def for_ports(cls, *port_keys: PortKey) -> "DirtySet":
        return cls(port_keys=frozenset(port_keys))

    @classmethod
    def full(cls) -> "DirtySet":
        return cls(reschedule=True)

    def dirty_sources(self) -> frozenset[tuple]:
        """Source keys whose signal content or activity may have changed."""
        return (frozenset(("fu", f) for f in self.fu_ids)
                | frozenset(("reg", r) for r in self.reg_ids))


def affected_ports(parent_arch, dirty: DirtySet) -> frozenset[PortKey]:
    """Close a move's dirty set over the parent's datapath ports.

    Returns every *parent* port that cannot be shared by the derived
    architecture.  Ports of units the move created do not exist in the
    parent; the incremental builder catches them by key
    (:func:`port_key_dirty`) while re-wiring.
    """
    dirty_sources = dirty.dirty_sources()
    keys = set(dirty.port_keys)
    for key, port in parent_arch.datapath.ports.items():
        if port_key_dirty(key, dirty):
            keys.add(key)
        elif dirty_sources and any(s in dirty_sources for s in port.sources):
            keys.add(key)
    return frozenset(keys)


def port_key_dirty(key: PortKey, dirty: DirtySet) -> bool:
    """True when a port's key names a dirty unit (or is listed directly)."""
    if key in dirty.port_keys:
        return True
    if key[0] == "fu_in":
        return key[1] in dirty.fu_ids
    if key[0] == "reg_in":
        return key[1] in dirty.reg_ids
    return False
