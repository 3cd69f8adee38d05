"""The ``engine="numpy"`` fast path: the array RADS core plus the span kernel.

The engine name is historical; nothing here imports numpy.  The core is the
array engine's RADS core (:mod:`repro.sim.array_engine`) with one addition:
a span whose policies are all stock (ECQF head MMA, threshold tail MMA,
``RandomArbiter``) is handed to the compiled span kernel
(:mod:`repro.sim.kernel`), which resumes the Mersenne Twisters from the
``random.Random`` states and runs the exact slot loop natively.  Bernoulli
arrival windows stay *deferred* (:class:`_DeferredPlan`): the kernel draws
them from the process RNG itself, the same words ``arrivals()`` would draw.

Every span the kernel declines — shorter than ``MIN_KERNEL_SLOTS``, an
``ERR_CAP`` or strict-mode abort, a traced run, no compiler, the
``REPRO_SPAN_KERNEL=0`` kill switch, a custom policy, more than 254 queues —
runs on the inherited scalar loop, on the untouched state, at array-engine
speed.  State layout, checkpoint pickling, drain window, warmup discard and
report assembly are all shared with the array core.  **CFDS runs on the
array core** (the issue-period machinery is borrowed from the buffer object
and has no kernel yet).

Bit-identity of the resulting reports against the array and reference loops
is asserted by ``tests/sim/test_numpy_engine.py`` and the cross-engine
differential fuzzer.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Optional

from repro.errors import ConfigurationError, StaleSimulationError
from repro.obs.metrics import get_metrics
from repro.sim.array_engine import _RADSCore, _arrival_plan, build_array_core
from repro.traffic.arrivals import ArrivalProcess, BernoulliArrivals

#: 2**53 — ``Random.random()`` returns ``comb / 2**53``.
_F53 = 9007199254740992


def _gate_threshold(load: float) -> int:
    # ``load * 2**53`` is exact for any float in [0, 1] (the mantissa is
    # only shifted), so ``u < load  <=>  comb < ceil(load * 2**53)`` with
    # ``comb`` the 53-bit integer behind ``random()``.
    return math.ceil(load * float(_F53))


def _plan_bernoulli(proc, num_slots: int):
    # Kept as a named hook: the traced benchmark run wraps it as traffic.plan.
    return proc.arrivals(num_slots)


class _DeferredPlan:
    """A Bernoulli arrival plan that has not been drawn yet.

    :meth:`_NumpyRADSCore.deferred_plan` hands these out — per monolithic
    run and per streamed window alike — so the compiled span kernel can
    draw the plan natively (same words, same doubles).  When the kernel
    declines the span, :meth:`materialize` draws the window with the stock
    ``arrivals()``, advancing the process RNG exactly as the scalar run
    would at this point.
    """

    __slots__ = ("proc", "num_slots", "tint", "cum_weights", "total")

    def __init__(self, proc, num_slots: int) -> None:
        self.proc = proc
        self.num_slots = num_slots
        self.cum_weights = list(accumulate(proc.weights))
        self.total = self.cum_weights[-1] + 0.0
        self.tint = _gate_threshold(proc.load)

    def __len__(self) -> int:
        return self.num_slots

    def materialize(self):
        return _plan_bernoulli(self.proc, self.num_slots)

    def kernel_args(self):
        """The ``bern`` argument of :func:`repro.sim.kernel.run_span_kernel`."""
        return (self.proc._rng, self.tint, self.cum_weights, self.total)


# --------------------------------------------------------------------- #
# Entry points
# --------------------------------------------------------------------- #

def run_numpy(sim, num_slots: int, drain: bool = True):
    """Run ``sim`` on the numpy core — same contract as ``run_array``."""
    if num_slots < 0:
        raise ConfigurationError("num_slots must be non-negative")
    core = build_numpy_core(sim)
    plan = core.deferred_plan(num_slots)
    if plan is None:
        plan = _arrival_plan(sim, num_slots)
    if (drain and isinstance(core, _NumpyRADSCore)
            and core.run_fused(plan, num_slots)):
        return core.finish(drain=False)
    core.run_span(plan, num_slots)
    return core.finish(drain=drain)


def build_numpy_core(sim):
    """Build the numpy core for ``sim``'s buffer scheme.

    RADS gets the kernel-backed core below; CFDS gets the array core
    (span-compatible, so streaming/checkpoints behave identically).
    Raises :class:`~repro.errors.StaleSimulationError` for a stepped sim.
    """
    from repro.rads.buffer import RADSPacketBuffer

    buffer = sim.buffer
    if not isinstance(buffer, RADSPacketBuffer):
        return build_array_core(sim)
    if buffer.slot != 0 or sim.throughput.slots != 0:
        raise StaleSimulationError(
            "the numpy engine replays a run from slot 0 and requires a "
            "freshly built simulation (build a new buffer for every run)")
    obs = get_metrics()
    if obs is not None:
        obs.inc("engine.numpy.cores_built")
    return _NumpyRADSCore(sim, buffer)


# --------------------------------------------------------------------- #
# The kernel-backed RADS core
# --------------------------------------------------------------------- #

class _NumpyRADSCore(_RADSCore):
    """RADS core whose spans run on the compiled kernel when it accepts
    them, and on the inherited scalar loop otherwise.

    The kernel only writes its result back on success, so mixing kernel
    and scalar spans (checkpoints, drains, short chunks, resume on a host
    without a compiler) is seamless.
    """

    def __init__(self, sim, buffer) -> None:
        super().__init__(sim, buffer)
        self._fusable = (self.fast_random and self.fast_ecqf
                         and self.fast_tail and self.num_queues <= 254
                         and self.la_len > 0)

    # ------------------------------------------------------------------ #
    def deferred_plan(self, num_slots: int) -> Optional[_DeferredPlan]:
        """The next ``num_slots`` slots of Bernoulli arrivals, left for the
        span kernel to draw, or ``None`` when the caller must materialize
        the window itself.

        This is the only place that decides deferral, for monolithic runs
        and streamed windows alike.  A plan defers when the process is (a
        subclass of) ``BernoulliArrivals`` running the stock ``arrivals``
        and ``arrivals_slice`` (so the words the kernel draws are the words
        either call would draw, at any window start), every queue id fits a
        plan byte, some weight is positive, and the arbiter draws from a
        different ``Random`` (the scalar loop consumes a plan's words
        strictly before the arbiter's).
        """
        proc = self.sim.arrivals
        if (num_slots <= 0
                or not isinstance(proc, BernoulliArrivals)
                or type(proc).arrivals is not BernoulliArrivals.arrivals
                or (type(proc).arrivals_slice
                    is not ArrivalProcess.arrivals_slice)
                or not proc.slot_invariant
                or proc.num_queues > 254
                or proc._rng is getattr(self.sim.arbiter, "_rng", None)):
            return None
        plan = _DeferredPlan(proc, num_slots)
        return plan if plan.total > 0.0 else None

    def _kernel_accepts(self, num_slots: int) -> bool:
        from repro.sim.kernel import MIN_KERNEL_SLOTS

        return (num_slots >= MIN_KERNEL_SLOTS and self._fusable
                and self.sim.trace is None)

    def run_fused(self, plan, num_slots: int) -> bool:
        """Run the main window *and* the drain window in one kernel call.

        The drain window's length (``la_len + granularity``) is known up
        front, so the monolithic ``run_numpy`` path can hand both to the
        kernel at once and pay a single state marshal instead of two.
        ``True`` means both windows ran — the caller finishes with
        ``drain=False``; ``False`` leaves the core (and any deferred
        plan's RNG) untouched.
        """
        deferred = isinstance(plan, _DeferredPlan)
        if not ((deferred or plan is None)
                and self._kernel_accepts(num_slots)):
            return False
        from repro.sim.kernel import run_span_kernel

        self._check_not_finished()
        done = run_span_kernel(
            self, None, num_slots, main=True,
            bern=plan.kernel_args() if deferred else None,
            drain_slots=self._drain_slots())
        obs = get_metrics()
        if done and deferred and obs is not None:
            obs.inc("engine.numpy.deferred_spans")
        return done

    def run_span(self, plan, num_slots: int, main: bool = True) -> None:
        deferred = isinstance(plan, _DeferredPlan)
        obs = get_metrics()
        if obs is not None and deferred:
            obs.inc("engine.numpy.deferred_spans")
        if self._kernel_accepts(num_slots) and (
                deferred or plan is None or len(plan) >= num_slots):
            from repro.sim.kernel import run_span_kernel

            self._check_not_finished()
            if run_span_kernel(
                    self, None if deferred else plan, num_slots, main=main,
                    bern=plan.kernel_args() if deferred else None):
                return None
        if deferred:
            plan = plan.materialize()
        return super().run_span(plan, num_slots, main)
