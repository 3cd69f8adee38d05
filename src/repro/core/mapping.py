"""Block-cyclic bank/group interleaving (Figure 6 of the paper).

The ``M`` DRAM banks are organised into ``G = M / (B/b)`` groups of ``B/b``
banks.  Each (physical) queue is statically assigned to one group —
``group = queue mod G`` — and its successive blocks of ``b`` cells are placed
on the banks of that group in round-robin order — ``bank-in-group = block
ordinal mod (B/b)``.  Consequently ``B/b`` consecutive accesses to the same
queue always touch ``B/b`` distinct banks, which is what gives the DRAM
scheduler room to find conflict-free work.

The module also implements the flat address encode/decode of Figure 6 (queue
and ordinal fields packed above the ``log2(b x 64)`` zero offset bits), so the
mapping can be exercised exactly as the hardware would compute it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.constants import CELL_SIZE_BYTES, is_power_of_two
from repro.errors import ConfigurationError
from repro.types import BankAddress


@dataclass(frozen=True)
class CFDSBankMapping:
    """Mapping from (queue, block ordinal) to DRAM bank.

    Args:
        num_queues: number of physical queues sharing the DRAM.
        num_banks: total number of DRAM banks ``M``.
        dram_access_slots: the RADS granularity ``B`` (DRAM random access time
            in slots).
        granularity: the CFDS granularity ``b`` (cells per access).
        queue_capacity_blocks: how many blocks of ``b`` cells each queue's
            address range can hold; only needed for the flat address
            encode/decode helpers.
    """

    num_queues: int
    num_banks: int
    dram_access_slots: int
    granularity: int
    queue_capacity_blocks: int = 1 << 20

    def __post_init__(self) -> None:
        if self.num_queues <= 0:
            raise ConfigurationError("num_queues must be positive")
        if self.granularity <= 0:
            raise ConfigurationError("granularity must be positive")
        if self.dram_access_slots % self.granularity != 0:
            raise ConfigurationError(
                f"B ({self.dram_access_slots}) must be a multiple of b ({self.granularity})")
        banks_per_group = self.dram_access_slots // self.granularity
        if self.num_banks % banks_per_group != 0:
            raise ConfigurationError(
                f"M ({self.num_banks}) must be a multiple of B/b ({banks_per_group})")
        if self.queue_capacity_blocks <= 0:
            raise ConfigurationError("queue_capacity_blocks must be positive")
        # Derived constants for the per-request lookups (frozen instance,
        # hence object.__setattr__; not fields, so eq/hash/repr ignore them).
        num_groups = self.num_banks // banks_per_group
        object.__setattr__(self, "_banks_per_group", banks_per_group)
        object.__setattr__(self, "_num_groups", num_groups)
        object.__setattr__(self, "_addresses", tuple(
            BankAddress(group=group, bank_in_group=offset,
                        bank=group * banks_per_group + offset)
            for group in range(num_groups)
            for offset in range(banks_per_group)))

    # ------------------------------------------------------------------ #
    # Structural properties
    # ------------------------------------------------------------------ #
    @property
    def banks_per_group(self) -> int:
        """Number of banks per group, ``B/b``."""
        return self._banks_per_group

    @property
    def num_groups(self) -> int:
        """Number of groups ``G = M / (B/b)``."""
        return self._num_groups

    @property
    def queues_per_group(self) -> int:
        """Maximum number of queues mapped to one group (ceiling of Q/G)."""
        return -(-self.num_queues // self.num_groups)

    # ------------------------------------------------------------------ #
    # The mapping itself
    # ------------------------------------------------------------------ #
    def group_of(self, queue: int) -> int:
        """Group a queue is statically assigned to (low-order queue bits)."""
        if not 0 <= queue < self.num_queues:
            self._check_queue(queue)
        return queue % self._num_groups

    def bank_of(self, queue: int, block_index: int) -> BankAddress:
        """Absolute bank holding block ``block_index`` of ``queue``."""
        if not 0 <= queue < self.num_queues:
            self._check_queue(queue)
        if block_index < 0:
            raise ValueError("block_index must be non-negative")
        per_group = self._banks_per_group
        return self._addresses[(queue % self._num_groups) * per_group
                               + block_index % per_group]

    # ------------------------------------------------------------------ #
    # Flat address encode/decode (Figure 6)
    # ------------------------------------------------------------------ #
    def encode_address(self, queue: int, block_index: int) -> int:
        """Pack (queue, block ordinal) into a byte address.

        Layout, from the least significant bit upwards: ``log2(b x 64)`` zero
        offset bits, then the block ordinal within the queue, then the queue
        identifier.
        """
        self._check_queue(queue)
        if not 0 <= block_index < self.queue_capacity_blocks:
            raise ValueError(
                f"block_index {block_index} outside queue capacity "
                f"(0..{self.queue_capacity_blocks - 1})")
        offset_bits = (self.granularity * CELL_SIZE_BYTES - 1).bit_length()
        if not is_power_of_two(self.granularity * CELL_SIZE_BYTES):
            raise ConfigurationError("b x 64 bytes must be a power of two to form addresses")
        ordinal_bits = (self.queue_capacity_blocks - 1).bit_length()
        return ((queue << ordinal_bits) | block_index) << offset_bits

    def decode_address(self, address: int) -> BankAddress:
        """Recover the bank of a flat byte address built by :meth:`encode_address`."""
        if address < 0:
            raise ValueError("address must be non-negative")
        offset_bits = (self.granularity * CELL_SIZE_BYTES - 1).bit_length()
        ordinal_bits = (self.queue_capacity_blocks - 1).bit_length()
        block = address >> offset_bits
        block_index = block & ((1 << ordinal_bits) - 1)
        queue = block >> ordinal_bits
        return self.bank_of(queue, block_index)

    def decode_queue_block(self, address: int) -> tuple:
        """Recover (queue, block ordinal) from a flat byte address."""
        if address < 0:
            raise ValueError("address must be non-negative")
        offset_bits = (self.granularity * CELL_SIZE_BYTES - 1).bit_length()
        ordinal_bits = (self.queue_capacity_blocks - 1).bit_length()
        block = address >> offset_bits
        return block >> ordinal_bits, block & ((1 << ordinal_bits) - 1)

    # ------------------------------------------------------------------ #
    def _check_queue(self, queue: int) -> None:
        if not 0 <= queue < self.num_queues:
            raise ValueError(f"queue {queue} out of range (0..{self.num_queues - 1})")
