"""Crossbar fabric arbiters: per-slot ingress/egress matching policies.

A switch slot moves at most one cell out of each ingress port and at most one
cell into each egress port.  When several ingress VOQs hold cells for the
same egress, a *fabric arbiter* computes a conflict-free matching.  All
policies here are single-iteration request/grant/accept schedulers over the
same input:

* ``requesters[e]`` — the ingress ports holding cells for egress ``e`` (their
  VOQ for ``e`` is non-empty), as an integer bitmask: bit ``i`` set means
  ingress ``i`` requests egress ``e``;
* *grant* — each requested egress selects one requesting ingress;
* *accept* — each ingress holding one or more grants selects one.

Bitmasks make every selection a few integer operations: "lowest requester"
is the lowest set bit (``mask & -mask``), and "first requester at or after
pointer ``p``" is the lowest set bit of ``mask >> p``.  Python integers are
unbounded, so the protocol has no port-count limit.

The three stock policies differ only in the selection rule:

* :class:`ISLIPFabricArbiter` — iSLIP-style rotating-priority pointers, one
  grant pointer per egress and one accept pointer per ingress, advanced past
  the matched partner **only on accepted grants** (the desynchronisation rule
  that gives iSLIP its 100%-throughput behaviour under uniform traffic);
* :class:`RandomFabricArbiter` — uniformly random grant and accept draws
  from a seeded RNG (PIM-style);
* :class:`PriorityFabricArbiter` — static lowest-index-first selection;
  deterministic and starvation-prone by design (an adversarial baseline).

Every policy is work-conserving in the single-match sense: whenever any VOQ
is non-empty at least one (ingress, egress) pair is matched, which is what
guarantees the fabric flush after the arrival phase terminates.
"""

from __future__ import annotations

import abc
import random
from typing import Dict, List, Sequence, Tuple

from repro.errors import ConfigurationError

Match = Tuple[int, int]


def _set_bits(mask: int) -> List[int]:
    """The indices of ``mask``'s set bits, ascending."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


class FabricArbiter(abc.ABC):
    """Interface of every crossbar matching policy."""

    def __init__(self, num_ports: int) -> None:
        if num_ports <= 0:
            raise ConfigurationError("num_ports must be positive")
        self.num_ports = num_ports

    @abc.abstractmethod
    def match(self, slot: int, requesters: Sequence[int]) -> List[Match]:
        """Compute this slot's matching.

        Args:
            slot: the current slot number.
            requesters: per-egress bitmasks; bit ``i`` of ``requesters[e]``
                is set when ingress ``i`` has cells queued for egress ``e``
                (a zero mask means nobody requests ``e``).  A bit at or
                above ``num_ports`` raises :class:`ConfigurationError`.

        Returns:
            ``(ingress, egress)`` pairs with every ingress and every egress
            appearing at most once, each pair backed by a set request bit.
        """

    def _out_of_range(self, egress: int, mask: int) -> ConfigurationError:
        """The error for a requester bit at or above ``num_ports``."""
        return ConfigurationError(
            f"ingress {mask.bit_length() - 1} requests egress {egress}, but "
            f"the switch has only {self.num_ports} ports")


class ISLIPFabricArbiter(FabricArbiter):
    """Single-iteration iSLIP: rotating grant and accept pointers.

    Each egress grants the requesting ingress closest at-or-after its grant
    pointer; each ingress accepts the granting egress closest at-or-after its
    accept pointer.  Pointers advance one past the matched partner only when
    the grant was accepted, so under persistent contention the egress
    pointers desynchronise and the matching converges to a round-robin
    schedule with full crossbar utilisation.
    """

    def __init__(self, num_ports: int) -> None:
        super().__init__(num_ports)
        self._grant = [0] * num_ports
        self._accept = [0] * num_ports

    def match(self, slot: int, requesters: Sequence[int]) -> List[Match]:
        # Both phases pick the set bit closest at-or-after a pointer: the
        # lowest set bit of ``mask >> pointer``, or on wrap the lowest set
        # bit of ``mask``.
        n = self.num_ports
        grant = self._grant
        accept = self._accept
        grants = [0] * n  # grants[i]: bitmask of egresses granting ingress i
        for egress, mask in enumerate(requesters):
            if not mask:
                continue
            if mask >> n:
                raise self._out_of_range(egress, mask)
            pointer = grant[egress]
            high = mask >> pointer
            if high:
                ingress = pointer + (high & -high).bit_length() - 1
            else:
                ingress = (mask & -mask).bit_length() - 1
            grants[ingress] |= 1 << egress
        matches: List[Match] = []
        for ingress, mask in enumerate(grants):
            if not mask:
                continue
            pointer = accept[ingress]
            high = mask >> pointer
            if high:
                egress = pointer + (high & -high).bit_length() - 1
            else:
                egress = (mask & -mask).bit_length() - 1
            matches.append((ingress, egress))
            grant[egress] = (ingress + 1) % n
            accept[ingress] = (egress + 1) % n
        return matches


class RandomFabricArbiter(FabricArbiter):
    """PIM-style random matching: every grant and accept is a uniform draw
    from a seeded RNG, so runs are reproducible per seed.

    Draws are ``rng.choice`` over the ascending list of candidates: every
    grant by ascending egress, then every accept by ascending ingress.
    """

    def __init__(self, num_ports: int, seed: int = 0) -> None:
        super().__init__(num_ports)
        self._rng = random.Random(seed)

    def match(self, slot: int, requesters: Sequence[int]) -> List[Match]:
        n = self.num_ports
        choice = self._rng.choice
        grants: Dict[int, List[int]] = {}
        for egress, mask in enumerate(requesters):
            if not mask:
                continue
            if mask >> n:
                raise self._out_of_range(egress, mask)
            ingress = choice(_set_bits(mask))
            grants.setdefault(ingress, []).append(egress)
        return [(ingress, choice(grants[ingress]))
                for ingress in sorted(grants)]


class PriorityFabricArbiter(FabricArbiter):
    """Static priority: the lowest-index requester wins every conflict.

    Useful both as the simplest deterministic policy and as an adversarial
    baseline — under sustained contention it starves high-index ports, which
    shows up directly in the per-port latency spread of a
    :class:`~repro.switch.model.SwitchReport`.
    """

    def match(self, slot: int, requesters: Sequence[int]) -> List[Match]:
        n = self.num_ports
        # Egresses are visited in ascending order, so the first grant an
        # ingress receives is its lowest granting egress — the one it
        # accepts.
        accepted: Dict[int, int] = {}
        for egress, mask in enumerate(requesters):
            if not mask:
                continue
            if mask >> n:
                raise self._out_of_range(egress, mask)
            ingress = (mask & -mask).bit_length() - 1
            if ingress not in accepted:
                accepted[ingress] = egress
        return sorted(accepted.items())


#: Fabric arbiter factories, keyed by the type string used in switch specs.
FABRIC_TYPES: Dict[str, type] = {
    "islip": ISLIPFabricArbiter,
    "priority": PriorityFabricArbiter,
    "random": RandomFabricArbiter,
}
