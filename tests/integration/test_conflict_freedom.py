"""Property-based tests of the conflict-freedom guarantee.

The DRAM Scheduler Subsystem must never start an access on a bank that is
still busy, whatever mix of read and write block requests the two MMAs throw
at it — that is what "Conflict-Free DRAM System" means.  The banked-DRAM
timing model raises on any true overlap, so simply running the scheduler in
strict mode is the oracle.
"""

from hypothesis import example, given, settings, strategies as st

from repro.core.config import CFDSConfig
from repro.core.ongoing_register import OngoingRequestsRegister
from repro.core.scheduler import DRAMSchedulerSubsystem
from repro.types import ReplenishRequest, TransferDirection


def _workloads(num_queues: int, periods: int):
    """Per period: an optional read queue and an optional write queue."""
    item = st.tuples(
        st.one_of(st.none(), st.integers(min_value=0, max_value=num_queues - 1)),
        st.one_of(st.none(), st.integers(min_value=0, max_value=num_queues - 1)))
    return st.lists(item, min_size=periods, max_size=periods)


class _CheckedTicks:
    """Ticks a DSS and checks, after every slot, that the DSS and its banked
    DRAM agree on what is in flight and on how much completed (the DRAM's
    completion list is drained only on slots where something finishes)."""

    def __init__(self, dss):
        self.dss = dss
        self.returned = 0

    def __call__(self, slot):
        done = self.dss.tick(slot)
        self.returned += len(done)
        dram = self.dss.dram
        assert dram.in_flight_count == self.dss.in_flight_count
        assert dram.completed_count == self.returned
        return done


class TestConflictFreedom:
    @given(_workloads(num_queues=16, periods=150))
    @settings(max_examples=40, deadline=None)
    def test_no_bank_is_ever_accessed_while_busy(self, workload):
        config = CFDSConfig(num_queues=16, dram_access_slots=8, granularity=2,
                            num_banks=32, rr_capacity=None)
        dss = DRAMSchedulerSubsystem(config, issues_per_period=2)
        tick = _CheckedTicks(dss)
        read_blocks = {q: 0 for q in range(16)}
        write_blocks = {q: 0 for q in range(16)}
        slot = 0
        for read_queue, write_queue in workload:
            if read_queue is not None:
                dss.submit(ReplenishRequest(queue=read_queue,
                                            direction=TransferDirection.READ,
                                            cells=2, issue_slot=slot,
                                            block_index=read_blocks[read_queue]))
                read_blocks[read_queue] += 1
            if write_queue is not None:
                dss.submit(ReplenishRequest(queue=write_queue,
                                            direction=TransferDirection.WRITE,
                                            cells=2, issue_slot=slot,
                                            block_index=write_blocks[write_queue]))
                write_blocks[write_queue] += 1
            for _ in range(config.granularity):
                tick(slot)
                slot += 1
        # Drain everything that is still pending.
        guard = 0
        while (dss.pending_count or dss.in_flight_count) and guard < 10_000:
            tick(slot)
            slot += 1
            guard += 1
        assert dss.bank_conflicts == 0
        assert dss.pending_count == 0
        assert tick.returned == sum(read_blocks.values()) + sum(write_blocks.values())

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1,
                    max_size=40))
    @example([0, 0, 0, 1])  # the last access finishes before the third
    @settings(max_examples=30, deadline=None)
    def test_serialised_conflicts_complete_at_their_finish_slot(self, queues):
        """Without the ORR lock (non-strict DRAM), accesses to a busy bank
        are serialised behind it and finish out of issue order; every one
        must still be handed back on exactly its finish slot."""
        config = CFDSConfig(num_queues=4, dram_access_slots=8, granularity=2,
                            num_banks=32, rr_capacity=None, strict=False)
        dss = DRAMSchedulerSubsystem(config, issues_per_period=2)
        dss.ongoing = OngoingRequestsRegister(0)
        tick = _CheckedTicks(dss)
        slot = 0
        for queue in queues:
            dss.submit(ReplenishRequest(queue=queue,
                                        direction=TransferDirection.READ,
                                        cells=2, issue_slot=slot,
                                        block_index=0))
            for _ in range(config.granularity):
                for transfer in tick(slot):
                    assert transfer.finish_slot == slot
                slot += 1
        while dss.pending_count or dss.in_flight_count:
            for transfer in tick(slot):
                assert transfer.finish_slot == slot
            slot += 1
        assert tick.returned == len(queues)
        # Back-to-back requests of one queue hit its still-busy bank.
        if any(a == b for a, b in zip(queues, queues[1:])):
            assert dss.bank_conflicts > 0

    @given(st.integers(min_value=0, max_value=15), st.integers(min_value=1, max_value=40))
    @settings(max_examples=30, deadline=None)
    def test_single_queue_burst_never_conflicts(self, queue, blocks):
        """Back-to-back blocks of one queue rotate over its group's banks and
        must schedule without conflicts (block-cyclic interleaving at work)."""
        config = CFDSConfig(num_queues=16, dram_access_slots=8, granularity=2,
                            num_banks=32, rr_capacity=None)
        dss = DRAMSchedulerSubsystem(config)
        slot = 0
        tick = _CheckedTicks(dss)
        for block in range(blocks):
            dss.submit(ReplenishRequest(queue=queue, direction=TransferDirection.READ,
                                        cells=2, issue_slot=slot, block_index=block))
            for _ in range(config.granularity):
                tick(slot)
                slot += 1
        for _ in range(200):
            tick(slot)
            slot += 1
        assert dss.bank_conflicts == 0
        assert dss.in_flight_count == 0
        assert dss.pending_count == 0


class TestInterleavingAblation:
    def test_naive_mapping_would_conflict_without_the_scheduler(self):
        """Sanity check of why the DSA matters: if requests were issued
        strictly FIFO regardless of bank state (no wake-up/select), the
        round-robin-within-a-queue pattern would hit a busy bank."""
        from repro.core.mapping import CFDSBankMapping
        from repro.dram.dram import BankedDRAM
        from repro.dram.timing import DRAMTiming
        from repro.errors import BankConflictError
        from repro.types import ReplenishRequest

        mapping = CFDSBankMapping(num_queues=16, num_banks=32,
                                  dram_access_slots=8, granularity=2)
        dram = BankedDRAM(DRAMTiming(random_access_slots=4, num_banks=32))
        # Two queues of the same group requesting the same block ordinal twice
        # in consecutive periods: FIFO issue hits the same bank while busy.
        queue_a, queue_b = 0, 8
        assert mapping.group_of(queue_a) == mapping.group_of(queue_b)
        request = ReplenishRequest(queue=queue_a, direction=TransferDirection.READ,
                                   cells=2, issue_slot=0, block_index=0)
        dram.start_access(request, mapping.bank_of(queue_a, 0).bank, 0)
        with_conflict = ReplenishRequest(queue=queue_b, direction=TransferDirection.READ,
                                         cells=2, issue_slot=2, block_index=0)
        try:
            dram.start_access(with_conflict, mapping.bank_of(queue_b, 0).bank, 2)
            conflicted = False
        except BankConflictError:
            conflicted = True
        assert conflicted
