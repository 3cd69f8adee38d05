"""The Requests Register (RR) — the issue-queue of the DRAM scheduler.

The RR holds the replenishment requests the MMA has issued but the DRAM has
not started yet, ordered by age.  Every issue period the DRAM Scheduler
Algorithm (DSA) performs the equivalent of a superscalar issue queue's
wake-up/select (Section 8.1):

* *wake-up*: every entry compares its target bank against the banks in the
  Ongoing Requests Register; entries whose bank is not locked are ready;
* *select*: the oldest ready entry is issued and the younger entries are
  compacted forward to keep age order.

This module models that structure, including per-entry skip counters and
occupancy statistics, so the analytical bounds of :mod:`repro.core.sizing`
(equations 1 and 2) can be checked against measured behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

from repro.errors import BufferOverflowError
from repro.types import ReplenishRequest


@dataclass
class RREntry:
    """One Requests Register entry: the request, its target bank and the
    bookkeeping needed to verify the reordering bounds."""

    request: ReplenishRequest
    bank: int
    enqueue_slot: int
    payload: object = None
    skips: int = 0


class RequestRegister:
    """Age-ordered issue queue with wake-up/select semantics.

    Args:
        capacity: maximum number of simultaneously pending requests; ``None``
            disables the bound (useful when *measuring* what capacity a
            configuration actually needs).
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self._entries: List[RREntry] = []
        self._peak_occupancy = 0
        self._max_skips_observed = 0
        self._issued = 0

    # ------------------------------------------------------------------ #
    # Enqueue (MMA side)
    # ------------------------------------------------------------------ #
    def push(self, request: ReplenishRequest, bank: int, slot: int,
             payload: object = None) -> RREntry:
        """Append a request at the tail (youngest position)."""
        if self.capacity is not None and len(self._entries) >= self.capacity:
            raise BufferOverflowError("Requests Register", self.capacity,
                                      len(self._entries) + 1)
        entry = RREntry(request=request, bank=bank, enqueue_slot=slot, payload=payload)
        self._entries.append(entry)
        self._peak_occupancy = max(self._peak_occupancy, len(self._entries))
        return entry

    # ------------------------------------------------------------------ #
    # Wake-up / select (DSA side)
    # ------------------------------------------------------------------ #
    def wake_up(self, locked_banks: Set[int]) -> List[bool]:
        """Return the ready vector: True for entries whose bank is free."""
        return [entry.bank not in locked_banks for entry in self._entries]

    def select(self, locked_banks: Set[int]) -> Optional[RREntry]:
        """Issue (remove and return) the oldest entry whose bank is not
        locked; count a skip for every older entry that was passed over.

        Returns ``None`` when no entry is ready (all pending requests target
        locked banks, or the register is empty).
        """
        entries = self._entries
        max_skips = self._max_skips_observed
        for index, entry in enumerate(entries):
            if entry.bank not in locked_banks:
                self._max_skips_observed = max_skips
                self._issued += 1
                return entries.pop(index)
            skips = entry.skips + 1
            entry.skips = skips
            if skips > max_skips:
                max_skips = skips
        # Nothing could be issued this period: every pending entry lost an
        # opportunity.
        self._max_skips_observed = max_skips
        return None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def occupancy(self) -> int:
        return len(self._entries)

    @property
    def policy(self) -> str:
        """Name of the selection policy (used in reports and ablations)."""
        return "oldest-ready"

    @property
    def peak_occupancy(self) -> int:
        return self._peak_occupancy

    @property
    def max_skips_observed(self) -> int:
        return self._max_skips_observed

    @property
    def issued_count(self) -> int:
        return self._issued

    def entries(self) -> List[RREntry]:
        """Snapshot of pending entries, oldest first."""
        return list(self._entries)

    def pending_banks(self) -> List[int]:
        return [entry.bank for entry in self._entries]

    def __len__(self) -> int:
        return len(self._entries)


class FIFORequestRegister(RequestRegister):
    """Ablation variant: a plain FIFO with no wake-up/select.

    Only the head of the register may be issued; if its bank is locked the
    whole register stalls for the period.  This is what a DRAM controller
    without the issue-queue mechanism would do, and it is the baseline the
    ablation benchmark compares the DSA against (the paper's argument for the
    reordering logic).
    """

    @property
    def policy(self) -> str:
        return "fifo"

    def select(self, locked_banks: Set[int]) -> Optional[RREntry]:
        if not self._entries:
            return None
        head = self._entries[0]
        if head.bank in locked_banks:
            for entry in self._entries:
                entry.skips += 1
                self._max_skips_observed = max(self._max_skips_observed, entry.skips)
            return None
        self._issued += 1
        return self._entries.pop(0)
