"""CPI-stack analysis: attribute every simulated cycle to exactly one cause.

The paper's arguments are all about *where cycles go* — connects sharing
issue slots with their consumers (section 2.4), interlock stalls from too few
registers, memory-channel contention (Figure 13).  A :class:`CPIStack`
decomposes a run's total cycles into disjoint buckets:

* ``issue``          — cycles in which at least one instruction issued;
* ``raw_interlock``  — zero-issue cycles blocked on a register write in
                       flight (the CRAY-1 interlock);
* ``map_busy``       — zero-issue cycles blocked on a mapping-table entry
                       still being updated by a connect (its effective
                       latency, Figure 12);
* ``redirect:*``     — pipeline refill cycles per cause (misprediction,
                       trap, rte, interrupt).

The decomposition is *checked*, not assumed: :meth:`validate` reconciles the
buckets bit-exactly against the independently maintained
:class:`~repro.sim.stats.SimStats` counters (``issue + zero_issue +
redirect == cycles``), so any future change to the core's cycle accounting
that the event stream misses fails loudly.

Slot-level effects that cap an issue group without emptying the cycle —
memory-channel structural stalls — are reported alongside but excluded from
the cycle identity, since those cycles still issued work.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.isa.registers import RClass
from repro.observe.events import ConnectEvent, IssueEvent, Observer
from repro.sim.stats import ReconcileError, SimStats

#: ``by_origin`` key used for instructions with no compiler-overhead tag.
PROGRAM_ORIGIN = "program"

#: Bucket order for rendering and dict export.
REDIRECT_CAUSES = ("mispredict", "trap", "rte", "interrupt")


@dataclass
class CPIStack:
    """Per-cause cycle attribution for one simulation run."""

    cycles: int
    instructions: int
    issue: int
    raw_interlock: int
    map_busy: int
    redirect_by_cause: Counter = field(default_factory=Counter)
    #: interlock-stall cycles by the *blocked* instruction's provenance
    #: (``program``/``spill``/``connect``/``callsave``/``frame``).
    stall_by_origin: Counter = field(default_factory=Counter)
    #: interlock-stall cycles by the blocked instruction's latency class.
    stall_by_category: Counter = field(default_factory=Counter)
    #: interlock-stall cycles by blocking register ``(rclass, index)``.
    stall_by_reg: Counter = field(default_factory=Counter)
    #: slot-level structural stalls (issue group capped by channel limit).
    mem_slot_stalls: int = 0
    connects: int = 0
    zero_cycle_connects: int = 0
    #: same-cycle consumers that read a mapping connected that very cycle
    #: (the dispatch-stage forwarding of paper Figures 5/6).
    zero_cycle_forwards: int = 0

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_observer(cls, observer: Observer, stats: SimStats,
                      program=None) -> "CPIStack":
        """Build the stack from a finished run and reconcile it."""
        stall_by_origin = Counter()
        for origin, n in observer.stall_by_origin.items():
            stall_by_origin[origin or PROGRAM_ORIGIN] += n
        stack = cls(
            cycles=stats.cycles,
            instructions=observer.instructions,
            issue=observer.issue_cycles,
            raw_interlock=observer.stall_by_cause.get("raw", 0),
            map_busy=observer.stall_by_cause.get("map", 0),
            redirect_by_cause=Counter(observer.redirect_by_cause),
            stall_by_origin=stall_by_origin,
            stall_by_category=Counter(observer.stall_by_category),
            stall_by_reg=Counter(observer.stall_by_reg),
            mem_slot_stalls=observer.mem_slot_stalls,
            connects=observer.connects,
            zero_cycle_connects=observer.zero_cycle_connects,
        )
        if program is not None and observer.keep_events:
            stack.zero_cycle_forwards = count_zero_cycle_forwards(
                observer.events, program)
        stack.validate(stats)
        return stack

    # -- identities -------------------------------------------------------------

    @property
    def redirect(self) -> int:
        return sum(self.redirect_by_cause.values())

    @property
    def stall(self) -> int:
        return self.raw_interlock + self.map_busy

    def total(self) -> int:
        """Sum of all attributed cycle buckets; must equal ``cycles``."""
        return self.issue + self.raw_interlock + self.map_busy + self.redirect

    def validate(self, stats: SimStats) -> None:
        """Reconcile bit-exactly against the simulator's own counters."""
        stats.reconcile()
        checks = (
            ("attributed total", self.total(), stats.cycles),
            ("issue cycles", self.issue, stats.issue_cycles),
            ("zero-issue cycles", self.stall, stats.zero_issue_cycles),
            ("redirect cycles", self.redirect, stats.redirect_cycles),
            ("instructions", self.instructions, stats.instructions),
        )
        for label, got, want in checks:
            if got != want:
                raise ReconcileError(
                    f"CPI stack does not reconcile with SimStats: "
                    f"{label} {got} != {want}"
                )

    # -- derived views ----------------------------------------------------------

    def components(self) -> dict[str, int]:
        """Ordered bucket -> cycles mapping summing exactly to ``cycles``."""
        out = {
            "issue": self.issue,
            "raw_interlock": self.raw_interlock,
            "map_busy": self.map_busy,
        }
        for cause in REDIRECT_CAUSES:
            out[f"redirect:{cause}"] = self.redirect_by_cause.get(cause, 0)
        for cause in self.redirect_by_cause:
            if cause not in REDIRECT_CAUSES:
                out[f"redirect:{cause}"] = self.redirect_by_cause[cause]
        return out

    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    def cpi_of(self, bucket: str) -> float:
        """CPI contribution of one bucket (its cycles per instruction)."""
        if not self.instructions:
            return 0.0
        return self.components().get(bucket, 0) / self.instructions

    def to_dict(self) -> dict:
        """JSON-friendly form (stored in experiment run records)."""
        return {
            "cycles": self.cycles,
            "instructions": self.instructions,
            "issue": self.issue,
            "raw_interlock": self.raw_interlock,
            "map_busy": self.map_busy,
            "redirect": dict(self.redirect_by_cause),
            "stall_by_origin": dict(self.stall_by_origin),
            "stall_by_category": {c.name: n for c, n
                                  in self.stall_by_category.items()},
            "stall_by_reg": {f"{cls.value}:{idx}": n for (cls, idx), n
                             in self.stall_by_reg.items()},
            "mem_slot_stalls": self.mem_slot_stalls,
            "connects": self.connects,
            "zero_cycle_connects": self.zero_cycle_connects,
            "zero_cycle_forwards": self.zero_cycle_forwards,
        }

    # -- rendering --------------------------------------------------------------

    def render(self) -> str:
        lines = [
            f"cycles {self.cycles}, instructions {self.instructions}, "
            f"CPI {self.cpi():.3f}",
            "cycle attribution:",
        ]
        for name, n in self.components().items():
            if n == 0 and name.startswith("redirect:"):
                continue
            pct = 100.0 * n / self.cycles if self.cycles else 0.0
            bar = "#" * int(round(pct / 2))
            lines.append(f"  {name:<20} {n:>10}  {pct:5.1f}%  {bar}")
        if self.stall:
            lines.append("interlock stalls by blocked-instruction origin:")
            for origin, n in self.stall_by_origin.most_common():
                lines.append(f"  {origin:<12} {n}")
            lines.append("interlock stalls by blocked-instruction class:")
            for cat, n in self.stall_by_category.most_common():
                lines.append(f"  {cat.value:<14} {n}")
            top = self.stall_by_reg.most_common(5)
            if top:
                regs = ", ".join(f"{cls.value}{idx} ({n})"
                                 for (cls, idx), n in top)
                lines.append(f"hottest blocking registers: {regs}")
        if self.mem_slot_stalls:
            lines.append(f"mem-channel slot stalls  {self.mem_slot_stalls} "
                         "(issue groups capped, cycles still issued)")
        if self.connects:
            lines.append(
                f"connects {self.connects} "
                f"({self.zero_cycle_connects} zero-cycle, "
                f"{self.zero_cycle_forwards} same-cycle forwards)")
        return "\n".join(lines)


def count_zero_cycle_forwards(events, program) -> int:
    """Count same-cycle consumers of a just-connected read mapping.

    A zero-cycle connect (paper Figures 5/6) lets an instruction issued later
    in the *same* cycle read through the mapping entry the connect just
    updated; this walks the event stream in issue order and counts those
    consumers.
    """
    forwards = 0
    cycle = -1
    fresh: set[tuple[RClass, int]] = set()
    for ev in events:
        if isinstance(ev, ConnectEvent):
            if ev.cycle != cycle:
                cycle = ev.cycle
                fresh.clear()
            if ev.zero_cycle:
                for rclass, which, idx, _phys in ev.updates:
                    if which == "read":
                        fresh.add((rclass, idx))
        elif isinstance(ev, IssueEvent):
            if ev.cycle != cycle:
                cycle = ev.cycle
                fresh.clear()
                continue
            if not fresh:
                continue
            instr = program.instrs[ev.pc]
            for src in instr.reg_srcs():
                if (src.cls, src.num) in fresh:
                    forwards += 1
                    break
    return forwards


def merge_cpi(dicts) -> dict | None:
    """Sum a sequence of :meth:`CPIStack.to_dict` payloads (for footers)."""
    total: dict | None = None
    for d in dicts:
        if d is None:
            continue
        if total is None:
            total = {"cycles": 0, "instructions": 0, "issue": 0,
                     "raw_interlock": 0, "map_busy": 0, "redirect": {},
                     "mem_slot_stalls": 0, "connects": 0,
                     "zero_cycle_connects": 0}
        for key in ("cycles", "instructions", "issue", "raw_interlock",
                    "map_busy", "mem_slot_stalls", "connects",
                    "zero_cycle_connects"):
            total[key] += d.get(key, 0)
        for cause, n in d.get("redirect", {}).items():
            total["redirect"][cause] = total["redirect"].get(cause, 0) + n
    return total


def stall_mix_summary(merged: dict | None) -> str:
    """One-line stall-cause composition for figure footers."""
    if not merged or not merged.get("cycles"):
        return "cpi: no data"
    cycles = merged["cycles"]
    redirect = sum(merged["redirect"].values())

    def pct(n: int) -> str:
        return f"{100.0 * n / cycles:.1f}%"

    return (
        f"cpi mix: issue {pct(merged['issue'])}, "
        f"raw {pct(merged['raw_interlock'])}, "
        f"map {pct(merged['map_busy'])}, redirect {pct(redirect)}"
    )


__all__ = [
    "CPIStack",
    "PROGRAM_ORIGIN",
    "ReconcileError",
    "count_zero_cycle_forwards",
    "merge_cpi",
    "stall_mix_summary",
]
