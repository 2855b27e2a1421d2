"""Typed per-cycle event stream from the simulator core.

The :class:`Observer` is the event bus of the observability layer: the
simulator core calls its ``on_*`` hooks at each microarchitectural event —
instruction issue, CRAY-1 register-interlock stall (with the blocking
register), mapping-table busy stall (a connect's effective latency, paper
section 2.4), memory-channel structural stall, pipeline redirect
(misprediction / trap / rte / interrupt), connect-instruction map mutation,
and call/return map resets (section 4.1).

Design constraints:

* **zero overhead when disabled** — the core guards every hook behind a
  single ``observer is not None`` test, so an unobserved simulation runs the
  exact same instruction stream at the exact same speed as before the
  subsystem existed;
* **zero observer effect when enabled** — hooks only *read* simulation
  state; enabling observation never changes cycle counts, instruction
  counts, or program results (asserted by the CPI-stack property tests);
* **cheap aggregate mode** — with ``keep_events=False`` the observer updates
  online counters only and allocates no event objects, which is what the
  sweep executor uses to collect per-job CPI stacks across whole figures.

Events are plain frozen dataclasses so exporters and analyzers can pattern
match on type; external listeners may also be attached with
:meth:`Observer.subscribe`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.isa.registers import RClass

#: Stall causes attributed by the interlock logic.
STALL_RAW = "raw"        # a source/destination register write is in flight
STALL_MAP = "map"        # a mapping-table entry update is in flight

#: Redirect causes (pipeline refill penalties).
REDIRECT_MISPREDICT = "mispredict"
REDIRECT_TRAP = "trap"
REDIRECT_RTE = "rte"
REDIRECT_INTERRUPT = "interrupt"


@dataclass(frozen=True, slots=True)
class IssueEvent:
    """One instruction issued in slot *slot* of cycle *cycle*."""

    cycle: int
    pc: int
    slot: int


@dataclass(frozen=True, slots=True)
class StallEvent:
    """A zero-issue interlock stall: the instruction at *pc* could not issue
    for *duration* cycles because register (*rclass*, *index*) was busy."""

    cycle: int
    duration: int
    pc: int
    cause: str           # STALL_RAW or STALL_MAP
    rclass: RClass
    index: int
    origin: str | None   # provenance of the *blocked* instruction
    category: object     # Category of the blocked instruction


@dataclass(frozen=True, slots=True)
class MemStallEvent:
    """A memory operation at *pc* hit the per-cycle channel limit; the issue
    group ended early (slot-level structural stall, Figure 13)."""

    cycle: int
    pc: int


@dataclass(frozen=True, slots=True)
class RedirectEvent:
    """A pipeline redirect charging *penalty* refill cycles."""

    cycle: int
    pc: int
    cause: str           # REDIRECT_* constant
    penalty: int


@dataclass(frozen=True, slots=True)
class ConnectEvent:
    """A connect instruction mutated the register mapping table.

    ``updates`` is the decoded ``(rclass, which, index, phys)`` tuple list;
    ``zero_cycle`` is true when the machine forwards the new mapping to
    same-cycle consumers (0-cycle connect latency, paper Figures 5/6)."""

    cycle: int
    pc: int
    zero_cycle: bool
    updates: tuple


@dataclass(frozen=True, slots=True)
class MapResetEvent:
    """The mapping table was reset to home locations (call/return,
    section 4.1) or bypassed for a handler (trap, section 4.3)."""

    cycle: int
    pc: int
    cause: str           # "call", "ret", or "trap"


Event = (IssueEvent | StallEvent | MemStallEvent | RedirectEvent
         | ConnectEvent | MapResetEvent)


def event_to_dict(ev: Event) -> dict:
    """A plain-JSON representation of one event.

    The canonical wire form: :func:`repro.observe.export.events_jsonl` emits
    it line-by-line, and :class:`EventForwarder` ships it across process
    boundaries (simulations running in serve/sweep worker processes forward
    progress to the parent through a queue of these dicts).
    """
    if isinstance(ev, IssueEvent):
        return {"type": "issue", "cycle": ev.cycle, "pc": ev.pc,
                "slot": ev.slot}
    if isinstance(ev, StallEvent):
        return {"type": "stall", "cycle": ev.cycle, "duration": ev.duration,
                "pc": ev.pc, "cause": ev.cause,
                "reg": f"{ev.rclass.value}:{ev.index}",
                "origin": ev.origin, "category": ev.category.name}
    if isinstance(ev, MemStallEvent):
        return {"type": "mem_stall", "cycle": ev.cycle, "pc": ev.pc}
    if isinstance(ev, RedirectEvent):
        return {"type": "redirect", "cycle": ev.cycle, "pc": ev.pc,
                "cause": ev.cause, "penalty": ev.penalty}
    if isinstance(ev, ConnectEvent):
        return {"type": "connect", "cycle": ev.cycle, "pc": ev.pc,
                "zero_cycle": ev.zero_cycle,
                "updates": [[rclass.value, which, idx, phys]
                            for rclass, which, idx, phys in ev.updates]}
    if isinstance(ev, MapResetEvent):
        return {"type": "map_reset", "cycle": ev.cycle, "pc": ev.pc,
                "cause": ev.cause}
    raise TypeError(f"unknown event {ev!r}")


class EventForwarder:
    """Forwards observer events across a process boundary as plain dicts.

    Subscribe an instance to an :class:`Observer`; every *sample_every*-th
    issue event (plus every non-issue event, which are rare and
    information-dense) is converted with :func:`event_to_dict` and handed to
    *sink* — any callable taking one dict, typically a closure around a
    ``multiprocessing`` queue's ``put``.  Sampling keeps the queue traffic
    bounded on long simulations; *limit* hard-caps the total number of
    forwarded events so an adversarial program cannot flood the parent.
    """

    __slots__ = ("sink", "sample_every", "limit", "forwarded", "dropped",
                 "_issue_seen")

    def __init__(self, sink, sample_every: int = 4096,
                 limit: int = 10_000) -> None:
        self.sink = sink
        self.sample_every = max(1, sample_every)
        self.limit = limit
        self.forwarded = 0
        self.dropped = 0
        self._issue_seen = 0

    def __call__(self, event: Event) -> None:
        if isinstance(event, IssueEvent):
            self._issue_seen += 1
            if self._issue_seen % self.sample_every != 1 \
                    and self.sample_every > 1:
                return
        if self.forwarded >= self.limit:
            self.dropped += 1
            return
        self.forwarded += 1
        self.sink(event_to_dict(event))


class Observer:
    """Collects simulator events and maintains online aggregate counters."""

    __slots__ = (
        "keep_events", "limit", "events", "truncated", "_listeners",
        "issue_cycles", "instructions", "_last_issue_cycle",
        "stall_by_cause", "stall_by_origin", "stall_by_category",
        "stall_by_reg", "redirect_by_cause", "mem_slot_stalls",
        "connects", "zero_cycle_connects", "map_resets",
    )

    def __init__(self, keep_events: bool = True,
                 limit: int = 1_000_000) -> None:
        self.keep_events = keep_events
        self.limit = limit
        self.events: list[Event] = []
        self.truncated = False
        self._listeners: list = []
        # -- aggregate counters (always maintained) --
        self.issue_cycles = 0
        self.instructions = 0
        self._last_issue_cycle = -1
        self.stall_by_cause: Counter = Counter()
        self.stall_by_origin: Counter = Counter()
        self.stall_by_category: Counter = Counter()
        self.stall_by_reg: Counter = Counter()
        self.redirect_by_cause: Counter = Counter()
        self.mem_slot_stalls = 0
        self.connects = 0
        self.zero_cycle_connects = 0
        self.map_resets = 0

    # -- event plumbing --------------------------------------------------------

    def subscribe(self, listener) -> None:
        """Attach ``listener(event)``, called for every emitted event.

        Subscribing forces event-object construction even when
        ``keep_events`` is false.
        """
        self._listeners.append(listener)

    def _emit(self, event: Event) -> None:
        if self.keep_events:
            if len(self.events) < self.limit:
                self.events.append(event)
            else:
                self.truncated = True
        for listener in self._listeners:
            listener(event)

    def _wants_event(self) -> bool:
        return self.keep_events or bool(self._listeners)

    # -- hooks called by the simulator core ------------------------------------

    def on_issue(self, cycle: int, pc: int, slot: int) -> None:
        self.instructions += 1
        if cycle != self._last_issue_cycle:
            self._last_issue_cycle = cycle
            self.issue_cycles += 1
        if self._wants_event():
            self._emit(IssueEvent(cycle, pc, slot))

    def on_stall(self, cycle: int, duration: int, pc: int, cause: str,
                 rclass: RClass, index: int, origin: str | None,
                 category) -> None:
        # A subclass that records no stalls sets ``on_stall = None``: the
        # simulator then skips diagnosing the blocking register.
        self.stall_by_cause[cause] += duration
        self.stall_by_origin[origin] += duration
        self.stall_by_category[category] += duration
        self.stall_by_reg[(rclass, index)] += duration
        if self._wants_event():
            self._emit(StallEvent(cycle, duration, pc, cause, rclass, index,
                                  origin, category))

    def on_mem_stall(self, cycle: int, pc: int) -> None:
        self.mem_slot_stalls += 1
        if self._wants_event():
            self._emit(MemStallEvent(cycle, pc))

    def on_redirect(self, cycle: int, pc: int, cause: str,
                    penalty: int) -> None:
        self.redirect_by_cause[cause] += penalty
        if self._wants_event():
            self._emit(RedirectEvent(cycle, pc, cause, penalty))

    def on_connect(self, cycle: int, pc: int, zero_cycle: bool,
                   updates) -> None:
        self.connects += 1
        if zero_cycle:
            self.zero_cycle_connects += 1
        if self._wants_event():
            self._emit(ConnectEvent(cycle, pc, zero_cycle, tuple(updates)))

    def on_map_reset(self, cycle: int, pc: int, cause: str) -> None:
        self.map_resets += 1
        if self._wants_event():
            self._emit(MapResetEvent(cycle, pc, cause))

    # -- derived totals --------------------------------------------------------

    @property
    def stall_cycles(self) -> int:
        return sum(self.stall_by_cause.values())

    @property
    def redirect_cycles(self) -> int:
        return sum(self.redirect_by_cause.values())
