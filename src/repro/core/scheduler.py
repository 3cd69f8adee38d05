"""The DRAM Scheduler Subsystem (DSS) — Section 5.3 of the paper.

The DSS sits between the MMA subsystem and the banked DRAM.  The MMA issues
one block request per issue period (every ``b`` slots) under the illusion that
the DRAM access time is ``b`` slots; the DSS hides the fact that a bank is
actually busy for ``B`` slots by:

* queueing requests in the :class:`~repro.core.request_register.RequestRegister`;
* tracking in-flight accesses in the
  :class:`~repro.core.ongoing_register.OngoingRequestsRegister`;
* every issue period, running the DRAM Scheduler Algorithm (DSA): issue the
  *oldest* request whose target bank is not locked.

Because each queue's consecutive blocks live on consecutive banks of its
group (block-cyclic interleaving), a conflict-free candidate always exists
once the Requests Register is dimensioned per equation (1); the simulator
nevertheless verifies this at run time against the strict banked-DRAM timing
model, which raises on any true bank conflict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.config import CFDSConfig
from repro.core.mapping import CFDSBankMapping
from repro.core.ongoing_register import OngoingRequestsRegister
from repro.core.request_register import FIFORequestRegister, RequestRegister, RREntry
from repro.dram.dram import BankedDRAM
from repro.dram.timing import DRAMTiming
from repro.types import ReplenishRequest, TransferJob

#: ``_next_finish`` while nothing is in flight.
_NEVER = float("inf")


@dataclass
class CompletedTransfer:
    """A finished DRAM access handed back to the caller."""

    request: ReplenishRequest
    payload: object
    bank: int
    issue_slot: int
    finish_slot: int

    @property
    def total_delay_slots(self) -> int:
        """Delay from the MMA issuing the request to the data being ready."""
        return self.finish_slot - self.request.issue_slot


class DRAMSchedulerSubsystem:
    """Requests Register + Ongoing Requests Register + DSA + banked DRAM.

    Args:
        config: the CFDS parameters.
        mapping: bank mapping (defaults to the static assignment over
            ``config.num_queues`` physical queues).
        issues_per_period: how many accesses the DSA may start per issue
            period.  The head-side analysis uses 1 (one read stream); the full
            packet buffer uses 2 because its DRAM datapath must carry one read
            and one write per period (the buffer bandwidth is twice the line
            rate, which is also why the paper's sizing formulas use ``2Q``).
        dsa_policy: "oldest-ready" (the paper's wake-up/select issue queue) or
            "fifo" (the no-reordering baseline used by the ablation
            benchmark, which stalls whenever the head request's bank is busy).
    """

    def __init__(self, config: CFDSConfig,
                 mapping: Optional[CFDSBankMapping] = None,
                 issues_per_period: int = 1,
                 dsa_policy: str = "oldest-ready") -> None:
        if issues_per_period < 1:
            raise ValueError("issues_per_period must be at least 1")
        if dsa_policy not in ("oldest-ready", "fifo"):
            raise ValueError(f"unknown DSA policy {dsa_policy!r}")
        self.issues_per_period = issues_per_period
        self.dsa_policy = dsa_policy
        self.config = config
        self.mapping = mapping if mapping is not None else CFDSBankMapping(
            num_queues=config.num_queues,
            num_banks=config.num_banks,
            dram_access_slots=config.dram_access_slots,
            granularity=config.granularity)
        # The Requests Register capacity covers requests *waiting* for a
        # locked bank (Table 2).  Requests submitted in the current issue
        # period flow straight through the wake-up/select logic, but this
        # model buffers them momentarily, so allow that much headroom on top.
        rr_capacity = None
        if config.strict:
            rr_capacity = config.effective_rr_capacity + issues_per_period
        register_class = RequestRegister if dsa_policy == "oldest-ready" else FIFORequestRegister
        self.request_register = register_class(capacity=rr_capacity)
        self.ongoing = OngoingRequestsRegister(config.orr_size)
        timing = DRAMTiming(random_access_slots=config.effective_dram_random_access_slots,
                            num_banks=config.num_banks)
        self.dram = BankedDRAM(timing, strict=config.strict)
        self._granularity = config.granularity
        self._in_flight: List[Tuple[TransferJob, object]] = []
        # Earliest finish slot over *all* in-flight jobs (a non-strict bank
        # conflict serialises an access behind its predecessor, so jobs do
        # not finish in issue order): ``tick`` collects nothing before it.
        self._next_finish = _NEVER
        self._max_total_delay = 0
        self._issue_opportunities = 0
        self._stalled_periods = 0

    # ------------------------------------------------------------------ #
    # MMA side
    # ------------------------------------------------------------------ #
    def submit(self, request: ReplenishRequest, payload: object = None) -> RREntry:
        """Queue a block request for scheduling.  ``payload`` travels with the
        request and is returned on completion (the simulators use it to carry
        the cells being transferred)."""
        address = self.mapping.bank_of(request.queue, request.block_index)
        return self.request_register.push(request, address.bank,
                                          request.issue_slot, payload=payload)

    # ------------------------------------------------------------------ #
    # Per-slot operation
    # ------------------------------------------------------------------ #
    def tick(self, slot: int) -> List[CompletedTransfer]:
        """Advance one slot: collect completed accesses and, on issue-period
        boundaries, let the DSA start one new access."""
        completed = (self._collect_completed(slot)
                     if slot >= self._next_finish else [])
        if slot % self._granularity == 0:
            self._issue(slot)
        return completed

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    @property
    def max_total_delay_slots(self) -> int:
        """Largest observed request-issue to data-ready delay."""
        return self._max_total_delay

    @property
    def peak_rr_occupancy(self) -> int:
        return self.request_register.peak_occupancy

    @property
    def max_skips_observed(self) -> int:
        return self.request_register.max_skips_observed

    @property
    def in_flight_count(self) -> int:
        return len(self._in_flight)

    @property
    def pending_count(self) -> int:
        return self.request_register.occupancy()

    @property
    def stall_fraction(self) -> float:
        """Fraction of issue opportunities in which nothing could be issued
        even though requests were pending (should be zero for a correctly
        dimensioned CFDS; non-zero values show up in the ablations that break
        the interleaving or the DSA)."""
        if self._issue_opportunities == 0:
            return 0.0
        return self._stalled_periods / self._issue_opportunities

    @property
    def bank_conflicts(self) -> int:
        return self.dram.total_conflicts

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _collect_completed(self, slot: int) -> List[CompletedTransfer]:
        """Hand back the jobs finished by ``slot``; called only once the
        earliest in-flight job has finished, so ``done`` is never empty."""
        done: List[CompletedTransfer] = []
        still: List[Tuple[TransferJob, object]] = []
        next_finish = _NEVER
        for job, payload in self._in_flight:
            finish = job.finish_slot
            if finish <= slot:
                done.append(CompletedTransfer(
                    request=job.request, payload=payload, bank=job.bank,
                    issue_slot=job.start_slot, finish_slot=finish))
                delay = finish - job.request.issue_slot
                if delay > self._max_total_delay:
                    self._max_total_delay = delay
            else:
                still.append((job, payload))
                if finish < next_finish:
                    next_finish = finish
        self._in_flight = still
        self._next_finish = next_finish
        # Keep the banked-DRAM's own completion list drained as well.
        self.dram.pop_completed(slot)
        return done

    def _issue(self, slot: int) -> None:
        register = self.request_register
        if not register.occupancy():
            self.ongoing.advance()
            return
        self._issue_opportunities += 1
        locked = self.ongoing.locked_banks()
        issued_banks = []
        for _ in range(self.issues_per_period):
            entry = register.select(locked)
            if entry is None:
                break
            job = self.dram.start_access(entry.request, entry.bank, slot)
            self._in_flight.append((job, entry.payload))
            if job.finish_slot < self._next_finish:
                self._next_finish = job.finish_slot
            issued_banks.append(entry.bank)
            locked.add(entry.bank)
        if not issued_banks:
            self._stalled_periods += 1
        self.ongoing.advance(issued_banks)
