"""Unit tests of the crossbar fabric arbiters."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.switch.fabric import (
    FABRIC_TYPES,
    ISLIPFabricArbiter,
    PriorityFabricArbiter,
    RandomFabricArbiter,
)

ALL_POLICIES = sorted(FABRIC_TYPES)


def _make(policy: str, num_ports: int = 4):
    cls = FABRIC_TYPES[policy]
    if policy == "random":
        return cls(num_ports, seed=7)
    return cls(num_ports)


def _masks(requests):
    """Per-ingress lists of requested egresses -> the per-egress requester
    bitmasks :meth:`FabricArbiter.match` takes (one mask per port)."""
    masks = [0] * len(requests)
    for ingress, egresses in enumerate(requests):
        for egress in egresses:
            masks[egress] |= 1 << ingress
    return masks


def _assert_valid_matching(matches, requests, num_ports):
    ingresses = [i for i, _ in matches]
    egresses = [e for _, e in matches]
    assert len(set(ingresses)) == len(ingresses), "ingress matched twice"
    assert len(set(egresses)) == len(egresses), "egress matched twice"
    for ingress, egress in matches:
        assert 0 <= ingress < num_ports
        assert egress in requests[ingress], "match not backed by a request"


class TestMatchingInvariants:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_empty_requests_match_nothing(self, policy):
        arbiter = _make(policy)
        assert arbiter.match(0, _masks([[], [], [], []])) == []

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_matching_is_conflict_free_and_backed(self, policy):
        arbiter = _make(policy)
        requests = [[0, 2], [0, 1, 3], [2], [0, 3]]
        for slot in range(50):
            matches = arbiter.match(slot, _masks(requests))
            _assert_valid_matching(matches, requests, 4)
            assert matches, "work-conserving policies must match something"

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_single_requester_always_served(self, policy):
        arbiter = _make(policy)
        for slot in range(10):
            assert arbiter.match(slot, _masks([[], [3], [], []])) == [(1, 3)]

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_full_contention_serves_exactly_one(self, policy):
        """All ingresses request only egress 0: exactly one wins per slot."""
        arbiter = _make(policy)
        requests = [[0]] * 4
        for slot in range(20):
            matches = arbiter.match(slot, _masks(requests))
            assert len(matches) == 1
            assert matches[0][1] == 0

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_out_of_range_request_rejected(self, policy):
        """A requester bit at or above the port count names an ingress the
        switch does not have."""
        arbiter = _make(policy)
        with pytest.raises(ConfigurationError, match="ingress 4"):
            arbiter.match(0, [1 << 4, 0, 0, 0])

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_rejects_non_positive_port_count(self, policy):
        with pytest.raises(ConfigurationError):
            FABRIC_TYPES[policy](0)


class TestISLIP:
    def test_pointers_rotate_under_contention(self):
        """Persistent single-egress contention is served round-robin: after
        ingress i wins, the grant pointer moves past it, so the others take
        their turns before i wins again."""
        arbiter = ISLIPFabricArbiter(4)
        requests = _masks([[0]] * 4)
        winners = [arbiter.match(slot, requests)[0][0] for slot in range(8)]
        assert sorted(winners[:4]) == [0, 1, 2, 3]
        assert winners[:4] == winners[4:]

    def test_permutation_requests_fully_matched(self):
        """A contention-free permutation must saturate the crossbar."""
        arbiter = ISLIPFabricArbiter(4)
        matches = arbiter.match(0, _masks([[1], [2], [3], [0]]))
        assert sorted(matches) == [(0, 1), (1, 2), (2, 3), (3, 0)]

    def test_pointer_not_advanced_on_unaccepted_grant(self):
        """Ingress 0 requests both egresses; both grant to it, it accepts
        egress 0 (its accept pointer starts there).  Egress 1's grant was
        not accepted, so only the accept pointer moved — next slot the same
        requests yield egress 1."""
        arbiter = ISLIPFabricArbiter(2)
        assert arbiter.match(0, _masks([[0, 1], []])) == [(0, 0)]
        assert arbiter.match(1, _masks([[0, 1], []])) == [(0, 1)]

    def test_desynchronised_pointers_reach_full_throughput(self):
        """Under all-to-all requests, iSLIP converges to N matches/slot."""
        arbiter = ISLIPFabricArbiter(4)
        requests = _masks([[0, 1, 2, 3]] * 4)
        sizes = [len(arbiter.match(slot, requests)) for slot in range(12)]
        assert max(sizes) == 4
        assert sizes[-1] == 4  # converged and stays converged


class TestPriority:
    def test_lowest_ingress_always_wins(self):
        arbiter = PriorityFabricArbiter(4)
        requests = _masks([[0], [0], [0], [0]])
        for slot in range(5):
            assert arbiter.match(slot, requests) == [(0, 0)]

    def test_lowest_egress_accepted_on_multiple_grants(self):
        arbiter = PriorityFabricArbiter(4)
        assert arbiter.match(0, _masks([[1, 2], [], [], []])) == [(0, 1)]


class TestRandom:
    def test_same_seed_same_stream(self):
        a = RandomFabricArbiter(4, seed=3)
        b = RandomFabricArbiter(4, seed=3)
        requests = _masks([[0, 1], [0, 1], [2], [0, 3]])
        for slot in range(30):
            assert a.match(slot, requests) == b.match(slot, requests)

    def test_different_seeds_diverge(self):
        a = RandomFabricArbiter(8, seed=1)
        b = RandomFabricArbiter(8, seed=2)
        requests = _masks([[0, 1, 2, 3]] * 8)
        streams = [[a.match(s, requests) for s in range(20)],
                   [b.match(s, requests) for s in range(20)]]
        assert streams[0] != streams[1]


# --------------------------------------------------------------------- #
# Differential check against the list-based arbiters
# --------------------------------------------------------------------- #
#
# The arbiters once took per-ingress ascending lists of requested egresses
# and inverted them into per-egress requester lists every slot.  These are
# those algorithms, kept verbatim in behaviour as an oracle: the bitmask
# arbiters must pick the same matches, move the same iSLIP pointers and make
# the same RNG draws in the same order.

def _requesters_by_egress(requests, num_ports):
    requesting = [[] for _ in range(num_ports)]
    for ingress, egresses in enumerate(requests):
        for egress in egresses:
            requesting[egress].append(ingress)
    return requesting


class _ListISLIP:
    def __init__(self, num_ports):
        self.num_ports = num_ports
        self.grant = [0] * num_ports
        self.accept = [0] * num_ports

    @staticmethod
    def _first_from(candidates, pointer):
        for candidate in candidates:
            if candidate >= pointer:
                return candidate
        return candidates[0]

    def match(self, requests):
        grants = {}
        for egress, requesters in enumerate(
                _requesters_by_egress(requests, self.num_ports)):
            if requesters:
                ingress = self._first_from(requesters, self.grant[egress])
                grants.setdefault(ingress, []).append(egress)
        matches = []
        for ingress in sorted(grants):
            egress = self._first_from(grants[ingress], self.accept[ingress])
            matches.append((ingress, egress))
            self.grant[egress] = (ingress + 1) % self.num_ports
            self.accept[ingress] = (egress + 1) % self.num_ports
        return matches


class _ListRandom:
    def __init__(self, num_ports, seed):
        self.num_ports = num_ports
        self.rng = random.Random(seed)

    def match(self, requests):
        grants = {}
        for egress, requesters in enumerate(
                _requesters_by_egress(requests, self.num_ports)):
            if requesters:
                ingress = self.rng.choice(requesters)
                grants.setdefault(ingress, []).append(egress)
        return [(ingress, self.rng.choice(grants[ingress]))
                for ingress in sorted(grants)]


class _ListPriority:
    def __init__(self, num_ports):
        self.num_ports = num_ports

    def match(self, requests):
        grants = {}
        for egress, requesters in enumerate(
                _requesters_by_egress(requests, self.num_ports)):
            if requesters:
                grants.setdefault(min(requesters), []).append(egress)
        return [(ingress, min(grants[ingress])) for ingress in sorted(grants)]


def _random_requests(rng, num_ports):
    """One random request matrix as per-ingress ascending egress lists.

    The density varies per matrix (all-empty, sparse, ~1/2) so single
    requesters, wrap-around pointers and full contention all occur."""
    sparsity = rng.choice((0, 1, 2, 4))
    requests = []
    for _ in range(num_ports):
        if sparsity == 0:
            requests.append([])
            continue
        row = rng.getrandbits(num_ports)
        for _ in range(sparsity - 1):
            row &= rng.getrandbits(num_ports)
        egresses = []
        while row:
            low = row & -row
            egresses.append(low.bit_length() - 1)
            row ^= low
        requests.append(egresses)
    return requests


@pytest.mark.parametrize("num_ports", [1, 2, 5, 8, 16, 70])
@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_bitmask_arbiters_match_the_list_based_oracle(policy, num_ports):
    """2000 seeded random matrices per policy and port count; 70 ports
    exercises masks wider than a 64-bit word."""
    if policy == "islip":
        arbiter, oracle = (ISLIPFabricArbiter(num_ports),
                           _ListISLIP(num_ports))
    elif policy == "random":
        arbiter, oracle = (RandomFabricArbiter(num_ports, seed=num_ports),
                           _ListRandom(num_ports, seed=num_ports))
    else:
        arbiter, oracle = (PriorityFabricArbiter(num_ports),
                           _ListPriority(num_ports))
    rng = random.Random(1000 + num_ports)
    for slot in range(2000):
        requests = _random_requests(rng, num_ports)
        assert arbiter.match(slot, _masks(requests)) == \
            oracle.match(requests), f"slot {slot}"
    if policy == "islip":
        assert arbiter._grant == oracle.grant
        assert arbiter._accept == oracle.accept
    elif policy == "random":
        assert arbiter._rng.getstate() == oracle.rng.getstate()
