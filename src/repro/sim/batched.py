"""Batched lockstep gang simulator: N machine configs in one pass.

Every figure in the paper sweeps the *same compiled program* over many
machine configurations (RC models x issue widths x memory channels x
extra-decode).  The fast path (:mod:`repro.sim.fastpath`) specializes per
instruction but still pays decode, codegen, and a full value-computing run
per config.  This module exploits the key structural fact of the machine
model:

**Architectural state is timing-invariant.**  Register values, memory
contents, branch outcomes, and mapping-table contents depend only on
``(program, rc_model, int_spec, fp_spec)`` — the issue width, memory
channels, latencies, extra decode stage, and cycle budget shift *when*
things happen, never *what* happens.  (Values are computed in program
order at issue; map updates are value-independent; ``tests/test_batched.py``
and the ``batched_parity`` fuzz oracle gate this bit-exactly.)

So a gang of N configs partitions into *architectural classes* by
``(rc_model, int_spec, fp_spec)``:

* one **leader** per class (the slot with the largest cycle budget) runs the
  full fast path once, recording a ``(block, iterations)`` execution trace;
* every **follower** replays timing only — scoreboard ready times, mapping
  busy times, group packing, stalls, redirects — against the leader's
  branch outcomes, never touching a register value, and copies the leader's
  final architectural state.

Follower state (scoreboards, map busy times, stats counters) is laid out in
flat per-slot lists.

Followers accelerate hot self-loop blocks by memoizing an iteration's
timing effect, keyed on ``(map_en, map contents, clamped busy deltas,
clamped ready deltas)``: a follower computes no values, so that key fixes
the pass's timing.  Once the signature stream becomes periodic the replay
fast-forwards whole periods in O(1).  Slots that fault or exhaust their
cycle budget retire from the gang without disturbing the others; shapes the
replayer cannot prove (``mtpsw``, branch-to-fall-through, an unsupported
codegen shape, a faulting leader) delegate to per-slot
:class:`~repro.sim.fastpath.FastSimulator` runs so results are always
bit-exact.  :func:`simulate_gang` is the entry point.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass

from repro.errors import ConfigError, CycleBudgetError, SimulationError
from repro.isa.registers import RClass
from repro.rc.models import HOME, READ, RCModel, bind
from repro.sim.core import (
    K_ALU,
    K_CALL,
    K_CBR,
    K_CONNECT,
    K_HALT,
    K_JMP,
    K_LI,
    K_LOAD,
    K_MFMAP,
    K_MFPSW,
    K_MTPSW,
    K_NOP,
    K_RET,
    K_RTE,
    K_STORE,
    K_TRAP,
    SimResult,
    _SRC_IMM,
    _SRC_INT,
)
from repro.sim.fastpath import (
    FastSimulator,
    program_blocks,
)
from repro.sim.machine import MachineState
from repro.sim.stats import SimStats

__all__ = [
    "GangOutcome",
    "simulate_gang",
]

#: Instruction kinds a follower may memoize inside a self-loop block.  Mapped
#: operands are allowed: the signature carries the map contents, so the
#: timing replay stays sound under connects and automatic resets.
_GANG_MEMO_KINDS = frozenset({
    K_ALU, K_LI, K_LOAD, K_STORE, K_NOP, K_CBR, K_CONNECT, K_MFPSW, K_MFMAP,
})

#: Bound on the per-iteration signature footprint (map slots + registers).
#: Signature cost is O(slots) per iteration — still far below stepping the
#: block — so this only guards against pathological register fan-out.
_GANG_MAX_SLOTS = 512

#: Bound on the body length of a memoizable self-loop block.
_GANG_MAX_BODY = 256

#: Per-plan memo cap: a loop whose timing keeps producing new signatures
#: stops recording once its memo holds this many, and steps from then on,
#: so the memo cannot grow without bound.
_GANG_MEMO_CAP = 512

#: The moves of every model: a gang's classes differ only by model and
#: share the replay tables, so the static slot analysis covers them all.
#: ``_COPIES`` are the map copies ``(destination is read, source is read)``;
#: ``_WRITE_DSTS``/``_READ_DSTS`` the maps written after a write/read.
_COPIES = sorted({(d == READ, s == READ) for m in RCModel
                  for d, s in m.on_write + m.on_read if s != HOME})
_WRITE_DSTS = sorted({d == READ for m in RCModel for d, _s in m.on_write})
_READ_DSTS = sorted({d == READ for m in RCModel for d, _s in m.on_read})


@dataclass
class GangOutcome:
    """Per-slot result of a gang run.

    Exactly one of ``result`` / ``error`` is set.  ``ran_batched`` reports
    whether the slot was produced by the lockstep replay engine (leader or
    follower) or by a delegated per-slot fast-path run.
    """

    slot: int
    config: object
    result: SimResult | None
    error: BaseException | None
    ran_batched: bool

    @property
    def ok(self) -> bool:
        return self.error is None


# -- follower replay footprints ------------------------------------------------

class _Footprint:
    """The static timing footprint one memo layer keys and restores.

    ``op_slots`` are the map entries ``(is_int, is_read, index)`` whose
    contents, busy and ready times feed the signature; ``map_slots``
    extends them with every other entry the region can rewrite, so an
    effect snapshot restores the whole table; ``statics`` are the physical
    registers ``(is_int, phys)`` reachable without a live map entry.
    """

    __slots__ = ("idx", "op_slots", "map_slots", "statics")

    def __init__(self, idx, slots):
        self.idx = idx
        self.op_slots, self.map_slots, self.statics = slots


class _Plan(_Footprint):
    """Memoization plan for one qualifying self-loop block."""

    __slots__ = ("body",)

    def __init__(self, idx, slots, body):
        super().__init__(idx, slots)
        self.body = body


def _connect_targets(dec, ient, fent):
    """Mapping-table slots whose content can ever leave its home mapping.

    Only CONNECT writes a non-home value into a map entry; a model's moves
    write homes or copy one map into the other — hence the closure over
    ``_COPIES``.  Every slot outside this set provably holds its home
    mapping with zero busy time forever, so signatures/snapshots can skip it
    (its register timing is covered by the static ready entry for the home
    register).
    """
    targ: set = set()
    for d in dec:
        if d.kind == K_CONNECT:
            for rclass, which, idx, phys in d.updates:
                targ.add((rclass is RClass.INT, which == "read", idx))
    for is_int, is_read, idx in list(targ):
        for dst_read, src_read in _COPIES:
            if src_read == is_read:
                targ.add((is_int, dst_read, idx))
    return targ


def _block_slots(dec, body, ient, fent, targ):
    """``(op_slots, map_slots, statics)`` for a block, or ``None`` when a
    kind outside the memoizable set appears in the body.

    ``op_slots`` feed the signature (content + busy + ready of the mapped
    physical register) and cover only connect-targetable slots — untargeted
    slots always map home with no busy time, so the statics entry for the
    home register already captures their timing.  ``map_slots`` extends
    op_slots with targetable entries the block *writes* without reading —
    connect targets and the entries the models' moves rewrite after an
    access (the read-map entry of a mapped destination under models 3-4) —
    so the effect snapshot restores every table entry the block can change.
    ``statics`` are physical registers reachable without a live map entry:
    operand payloads, home locations, connect target registers.
    """
    opset: dict = {}
    cnset: dict = {}
    stat: dict = {}
    for k in body:
        d = dec[k]
        if d.kind not in _GANG_MEMO_KINDS and d.kind != K_JMP:
            return None
        for mode, payload in d.srcs:
            if mode == _SRC_IMM:
                continue
            is_int = mode == _SRC_INT
            if payload < (ient if is_int else fent):
                if (is_int, True, payload) in targ:
                    opset[(is_int, True, payload)] = True
                for dst_read in _READ_DSTS:
                    if (is_int, dst_read, payload) in targ:
                        cnset[(is_int, dst_read, payload)] = True
            stat[(is_int, payload)] = True
        if d.dest is not None:
            is_int, num = d.dest
            if num < (ient if is_int else fent):
                if (is_int, False, num) in targ:
                    opset[(is_int, False, num)] = True
                for dst_read in _WRITE_DSTS:
                    if (is_int, dst_read, num) in targ:
                        cnset[(is_int, dst_read, num)] = True
            stat[(is_int, num)] = True
        if d.kind == K_CONNECT:
            for rclass, which, idx, phys in d.updates:
                is_int = rclass is RClass.INT
                cnset[(is_int, which == "read", idx)] = True
                stat[(is_int, phys)] = True
    op_slots = tuple(opset)
    map_slots = op_slots + tuple(k for k in cnset if k not in opset)
    statics = tuple(stat)
    if len(map_slots) + len(statics) > _GANG_MAX_SLOTS:
        return None
    return op_slots, map_slots, statics


def _build_plans(dec, blocks, ient, fent, targ):
    """Memoization plans for every qualifying self-loop block."""
    plans = [None] * len(dec)
    plan_list = []
    for lead, body in blocks:
        term = dec[body[-1]]
        if term.kind != K_CBR or not term.pred_taken or term.target != lead:
            continue
        if not 2 <= len(body) <= _GANG_MAX_BODY:
            continue
        slots = _block_slots(dec, body, ient, fent, targ)
        if slots is None:
            continue
        plan = _Plan(len(plan_list), slots, tuple(body))
        plans[lead] = plan
        plan_list.append(plan)
    return plans, plan_list


class _BInfo(_Footprint):
    """Static dispatch-memo info for one non-self-loop block.

    One *dispatch* is a single pass over the block — entry fetch through the
    control transfer (or fall-through) into the next block, spanning any
    stall groups in between.  Its timing depends only on the follower's
    scoreboard / mapping-table signature at entry, the issue-group state
    carried in, and (for conditional terminators) the branch outcome from
    the leader trace, so each dispatch is memoizable as one effect keyed on
    ``(group state, outcome, slot signature)``.
    """

    __slots__ = ("term_kind", "term_target")

    def __init__(self, idx, slots, term_kind, term_target):
        super().__init__(idx, slots)
        self.term_kind = term_kind
        self.term_target = term_target


def _build_binfo(dec, blocks, ient, fent, targ, plans):
    """Dispatch-memo info for every qualifying non-self-loop block.

    Self-loop blocks are excluded: the iteration-level plans plus period
    fast-forward cover them far better, and their many-iterations-per-trace-
    entry bookkeeping does not fit the one-dispatch-per-trace-entry model.
    """
    binfo = [None] * len(dec)
    binfo_list = []
    for lead, body in blocks:
        if plans[lead] is not None or len(body) > _GANG_MAX_BODY:
            continue
        term = dec[body[-1]]
        tk = term.kind
        if (tk == K_CBR or tk == K_JMP) and term.target == lead:
            continue
        slots = _block_slots(dec, body, ient, fent, targ)
        if slots is None:
            continue
        bi = _BInfo(len(binfo_list), slots, tk,
                    term.target if (tk == K_CBR or tk == K_JMP) else None)
        binfo[lead] = bi
        binfo_list.append(bi)
    return binfo, binfo_list


class _Seg(_Footprint):
    """A periodic trace segment: ``width`` consecutive trace entries exactly
    repeated ``reps`` times starting at a fixed trace position.

    The leader trace pins control flow, so within the repetition the only
    evolving follower state is the union timing footprint of the member
    blocks — the same signature/period argument the self-loop plans use, one
    level up.  A follower crossing a macro-iteration boundary with a
    signature it has seen before fast-forwards whole periods of the segment
    in O(slots).
    """

    __slots__ = ("start", "width", "reps", "end")

    def __init__(self, idx, slots, start, width, reps):
        super().__init__(idx, slots)
        self.start = start
        self.width = width
        self.reps = reps
        self.end = start + width * reps


_SEG_MAX_WIDTH = 12
_SEG_MIN_REPS = 4


def _find_segments(tp, tn, binfo, plans):
    """Greedy left-to-right scan for exactly-repeating trace windows whose
    member blocks all have a static timing footprint (dispatch-memoizable or
    self-loop plan).  Returns ``({start_t: _Seg}, [segments])``.
    """
    n = len(tp)
    segs: dict = {}
    seg_list: list = []
    i = 0
    while i < n:
        found = None
        for w in range(1, _SEG_MAX_WIDTH + 1):
            if i + 2 * w > n:
                break
            # Scalar pre-check: almost every (position, width) pair in an
            # irregular trace fails on its first element, so reject with
            # two indexed loads before paying for four slice allocations.
            if tp[i] != tp[i + w] or tn[i] != tn[i + w]:
                continue
            if tp[i:i + w] == tp[i + w:i + 2 * w] and \
                    tn[i:i + w] == tn[i + w:i + 2 * w]:
                win_p = tp[i:i + w]
                win_n = tn[i:i + w]
                r = 2
                j = i + 2 * w
                while (j + w <= n and tp[j:j + w] == win_p
                       and tn[j:j + w] == win_n):
                    r += 1
                    j += w
                found = (w, r)
                break
        if found is not None and found[1] >= _SEG_MIN_REPS:
            w, r = found
            members = [binfo[p] or plans[p]
                       for p in dict.fromkeys(tp[i:i + w])]
            if all(b is not None for b in members):
                opset = dict.fromkeys(
                    s for b in members for s in b.op_slots)
                cnset = dict.fromkeys(
                    s for b in members for s in b.map_slots
                    if s not in opset)
                stat = dict.fromkeys(
                    s for b in members for s in b.statics)
                if len(opset) + len(cnset) + len(stat) <= _GANG_MAX_SLOTS:
                    op_slots = tuple(opset)
                    seg = _Seg(len(seg_list),
                               (op_slots, op_slots + tuple(cnset),
                                tuple(stat)), i, w, r)
                    segs[i] = seg
                    seg_list.append(seg)
                    i += w * r
                    continue
        i += 1
    return segs, seg_list


class _ReplayContext:
    """Per-class immutable inputs shared by every follower replay.

    Everything except the trace and its segment index depends only on
    ``(dec, ient, fent)`` — the gang's classes share those (they differ
    only by RC model), so callers pass the first class's ``tables`` back
    in and skip the plan/block analysis for the rest.
    """

    __slots__ = ("program", "dec", "n", "tp", "tn", "lflags", "plans",
                 "plan_list", "binfo", "binfo_list", "segs", "seg_list",
                 "trapdst", "ient", "fent", "tables")

    def __init__(self, program, dec, trace, ient, fent, tables=None):
        self.program = program
        self.dec = dec
        self.n = len(dec)
        self.tp, self.tn = trace
        if tables is None:
            blocks = program_blocks(program, dec)
            flags = bytearray(self.n)
            for lead, _body in blocks:
                flags[lead] = 1
            targ = _connect_targets(dec, ient, fent)
            plans, plan_list = _build_plans(dec, blocks, ient, fent, targ)
            binfo, binfo_list = _build_binfo(dec, blocks, ient, fent, targ,
                                             plans)
            trapdst = [program.trap_handlers.get(d.imm)
                       if d.kind == K_TRAP else None for d in dec]
            tables = (flags, plans, plan_list, binfo, binfo_list, trapdst)
        self.tables = tables
        (self.lflags, self.plans, self.plan_list, self.binfo,
         self.binfo_list, self.trapdst) = tables
        self.segs, self.seg_list = _find_segments(self.tp, self.tn,
                                                  self.binfo, self.plans)
        self.ient = ient
        self.fent = fent


def _replay_supported(dec) -> bool:
    """Static scan for shapes the trace-driven replay cannot disambiguate.

    ``mtpsw`` derives control state from a register *value* (followers never
    have values), and a conditional branch targeting its own fall-through
    reaches the same next block either way, hiding the taken/not-taken
    distinction (which still matters for mispredict/redirect accounting).
    """
    for k, d in enumerate(dec):
        if d.kind == K_MTPSW:
            return False
        if d.kind == K_CBR and d.target == k + 1:
            return False
    return True


def _bind(fp, maps, readys):
    """Footprint *fp* bound to one follower's arrays: ``(op_refs, map_refs,
    stat_refs)``.  *maps* gives ``(contents, busy)`` per ``(is_int,
    is_read)`` and *readys* the scoreboard per ``is_int``."""
    return ([(*maps[i, r], readys[i], idx) for i, r, idx in fp.op_slots],
            [(*maps[i, r], idx) for i, r, idx in fp.map_slots],
            [(readys[i], ph) for i, ph in fp.statics])


def _signature(parts, refs, cycle, map_en, sh):
    """Memo key: *parts* (the caller's control state) extended by footprint
    *refs*'s timing state at *cycle*.

    Busy and ready times are clamped to offsets from *cycle*, which live in
    ``[0, lmax]``; with ``sh = lmax.bit_length()`` an operand slot's
    ``(content, busy, ready)`` packs injectively into one int, so each slot
    costs one tuple element to build, hash and compare.
    """
    ap = parts.append
    for content, busy, ready, idx in refs[0]:
        c = content[idx]
        v = busy[idx] - cycle
        b = v if v > 0 else 0
        v = ready[c if map_en else idx] - cycle
        ap((c << sh | b) << sh | (v if v > 0 else 0))
    for ready, ph in refs[2]:
        v = ready[ph] - cycle
        ap(v if v > 0 else 0)
    return tuple(parts)


def _shift(refs, cycle, to, map_en):
    """Fast-forward footprint *refs* from *cycle* to *to*: every busy and
    ready time keeps its clamped offset.  Periodic slots keep their offsets;
    decayed (<= 0) slots stay behaviorally equivalent pinned at *to*."""
    op_refs, map_refs, stat_refs = refs
    moves = []
    for _content, busy, idx in map_refs:
        v = busy[idx] - cycle
        moves.append((busy, idx, v if v > 0 else 0))
    for content, _busy, ready, idx in op_refs:
        j = content[idx] if map_en else idx
        v = ready[j] - cycle
        moves.append((ready, j, v if v > 0 else 0))
    for ready, ph in stat_refs:
        v = ready[ph] - cycle
        moves.append((ready, ph, v if v > 0 else 0))
    for arr, j, d in moves:
        arr[j] = to + d


def _snap(map_refs):
    """The current contents of every map entry a memo effect can rewrite."""
    return tuple((content, idx, content[idx])
                 for content, _busy, idx in map_refs)


def _replay(ctx: _ReplayContext, cfg):
    """Timing-only replay of the leader trace under follower config *cfg*.

    Mirrors the reference engine's group loop (:meth:`Simulator.run`) branch
    for branch — budget check, operand interlocks, structural hazards,
    redirects, zero-issue accounting — with branch outcomes forced from the
    leader trace instead of computed values.  Returns
    ``(cycles, zero_issue, mispredicts, mem_stalls, redirects)``.
    """
    dec = ctx.dec
    n = ctx.n
    tp = ctx.tp
    tn = ctx.tn
    ntr = len(tp)
    lflags = ctx.lflags
    plans = ctx.plans
    binfo = ctx.binfo
    segs = ctx.segs
    trapdst = ctx.trapdst
    ient = ctx.ient
    fent = ctx.fent

    W = cfg.issue_width
    CH = cfg.mem_channels
    RD = cfg.redirect_penalty
    maxc = cfg.max_cycles
    CL = cfg.latency.connect
    lat = [cfg.latency.of(d.op) for d in dec]
    lmax = max(max(lat, default=0), CL, 1)
    sh = lmax.bit_length()

    # -- per-slot state (struct-of-arrays across the gang) ---------------------
    iready = [0] * cfg.int_spec.total
    fready = [0] * cfg.fp_spec.total
    imr_r = [0] * ient
    imr_w = [0] * ient
    fmr_r = [0] * fent
    fmr_w = [0] * fent
    irm = list(range(ient))
    iwm = list(range(ient))
    frm = list(range(fent))
    fwm = list(range(fent))
    home_i = range(ient)
    home_f = range(fent)
    # The model's moves over the follower's maps (updated in place).
    model = cfg.rc_model
    iwrite = bind(model.on_write, irm, iwm)
    fwrite = bind(model.on_write, frm, fwm)
    iread = bind(model.on_read, irm, iwm)
    fread = bind(model.on_read, frm, fwm)
    ra: list[int] = []
    ts: list[tuple[int, int]] = []
    map_en = True
    rc_mode = cfg.has_rc

    # -- footprints bound to this follower's arrays -----------------------------
    maps = {(True, True): (irm, imr_r), (True, False): (iwm, imr_w),
            (False, True): (frm, fmr_r), (False, False): (fwm, fmr_w)}
    readys = {True: iready, False: fready}
    prefs = []
    gates = []
    memos: list[dict] = []
    for p in ctx.plan_list:
        prefs.append(_bind(p, maps, readys))
        gates.append(maxc - (len(p.body) * (lmax + 3) + RD + 4))
        memos.append({})
    bprefs = [_bind(b, maps, readys) for b in ctx.binfo_list]
    bmemos: list[dict] = [{} for _b in ctx.binfo_list]
    sprefs = [_bind(sg, maps, readys) for sg in ctx.seg_list]
    sact = None
    sseen: dict = {}

    # -- trace cursor -----------------------------------------------------------
    t = 0
    cur_lead = tp[0]
    reps = tn[0]

    pc = ctx.program.entry
    cycle = 0
    st0 = 0  # zero-issue cycles
    st1 = 0  # mispredicts
    st2 = 0  # mem-channel stalls
    st3 = 0  # redirect cycles
    halted = False

    # -- the recorder: one memo effect at a time ---------------------------------
    # A self-loop iteration is stored at its taken back-edge, a block
    # dispatch at the next block entry; the two never overlap (dispatch
    # blocks exclude self-loops, and an iteration ends inside its block).
    # ``rec_w`` lists every busy/ready write as (array, index, rel).
    rec = None  # the memo being recorded into
    rec_key: tuple = ()
    rec_maps: list = []
    rec_c0 = rec_z0 = rec_p0 = rec_m0 = rec_r0 = 0
    rec_w: list = []

    while not halted:
        if cycle > maxc:
            raise CycleBudgetError(f"exceeded {maxc} cycles at pc={pc}")

        # -- memoized self-loop fast path -------------------------------------
        plan = plans[pc]
        if (plan is not None and rec is None and pc == cur_lead
                and reps > 1):
            pi = plan.idx
            gate = gates[pi]
            memo = memos[pi]
            refs = prefs[pi]
            seen: dict | None = {}
            while reps > 1 and cycle < gate:
                sig = _signature([map_en], refs, cycle, map_en, sh)
                e = memo.get(sig)
                if e is None:
                    if len(memo) < _GANG_MEMO_CAP:
                        rec, rec_key, rec_maps = memo, sig, refs[1]
                        rec_c0, rec_z0, rec_m0 = cycle, st0, st2
                        rec_w = []
                    break
                if seen is not None:
                    prev = seen.get(sig)
                    if prev is None:
                        seen[sig] = (reps, cycle, st0, st2)
                    else:
                        p_reps = prev[0] - reps
                        p_dc = cycle - prev[1]
                        if p_reps > 0 and p_dc > 0:
                            q = (reps - 1) // p_reps
                            cap = (gate - 1 - cycle) // p_dc
                            if cap < q:
                                q = cap
                            if q > 0:
                                _shift(refs, cycle, cycle + q * p_dc, map_en)
                                cycle += q * p_dc
                                st0 += q * (st0 - prev[2])
                                st2 += q * (st2 - prev[3])
                                reps -= q * p_reps
                        seen = None
                        continue
                # apply the recorded iteration effect
                for arr, j, rel in e[3]:
                    arr[j] = cycle + rel
                for arr, j, ph in e[4]:
                    arr[j] = ph
                st0 += e[1]
                st2 += e[2]
                cycle += e[0]
                reps -= 1

        issued = 0
        mem_used = 0
        store_seen = False
        next_cycle = cycle + 1

        while issued < W:
            if pc >= n:
                raise SimulationError(f"fell off program end at pc={pc}")
            if lflags[pc] and (pc != cur_lead or reps <= 0):
                t += 1
                if t >= ntr or tp[t] != pc:
                    raise SimulationError(
                        f"gang replay diverged from leader trace at pc={pc}")
                cur_lead = pc
                reps = tn[t]
                if rec is not None:
                    # Finalize the dispatch recorded since the previous block
                    # entry: the current fetch point is its exit state.
                    rec[rec_key] = (
                        cycle - rec_c0, st0 - rec_z0, st1 - rec_p0,
                        st2 - rec_m0, st3 - rec_r0, tuple(rec_w),
                        _snap(rec_maps), pc, issued, mem_used, store_seen)
                    rec = None
                # -- periodic trace-segment fast-forward ----------------------
                if sact is not None and t >= sact.end:
                    sact = None
                if sact is None:
                    sact = segs.get(t)
                    if sact is not None:
                        sseen = {}
                if sact is not None and (t - sact.start) % sact.width == 0:
                    refs = sprefs[sact.idx]
                    ssig = _signature([issued, mem_used, store_seen, map_en],
                                      refs, cycle, map_en, sh)
                    prev = sseen.get(ssig)
                    if prev is None:
                        sseen[ssig] = (t, cycle, st0, st1, st2, st3)
                    else:
                        p_t = t - prev[0]
                        p_dc = cycle - prev[1]
                        if p_t > 0 and p_dc > 0:
                            done = (t - sact.start) // sact.width
                            q = ((sact.reps - done - 1)
                                 // (p_t // sact.width))
                            cap = (maxc - cycle) // p_dc
                            if cap < q:
                                q = cap
                            if q > 0:
                                _shift(refs, cycle, cycle + q * p_dc, map_en)
                                t += q * p_t
                                cycle += q * p_dc
                                st0 += q * (st0 - prev[2])
                                st1 += q * (st1 - prev[3])
                                st2 += q * (st2 - prev[4])
                                st3 += q * (st3 - prev[5])
                                next_cycle = cycle + 1
                bi = binfo[pc]
                if bi is not None and rec is None:
                    bmemo = bmemos[bi.idx]
                    refs = bprefs[bi.idx]
                    if bi.term_kind == K_CBR:
                        tgt = bi.term_target
                        outcome = t + 1 < ntr and tp[t + 1] == tgt
                    else:
                        outcome = False
                    key = _signature(
                        [issued, mem_used, store_seen, map_en, outcome],
                        refs, cycle, map_en, sh)
                    e = bmemo.get(key)
                    if e is not None:
                        # Exit cycle bounds every group-start cycle inside
                        # the dispatch, so one budget check covers them all.
                        if cycle + e[0] <= maxc:
                            for arr, j, rel in e[5]:
                                arr[j] = cycle + rel
                            for arr, j, ph in e[6]:
                                arr[j] = ph
                            cycle += e[0]
                            st0 += e[1]
                            st1 += e[2]
                            st2 += e[3]
                            st3 += e[4]
                            next_cycle = cycle + 1
                            pc = e[7]
                            issued = e[8]
                            mem_used = e[9]
                            store_seen = e[10]
                            continue
                    elif len(bmemo) < _GANG_MEMO_CAP:
                        rec, rec_key, rec_maps = bmemo, key, refs[1]
                        rec_c0, rec_z0, rec_p0, rec_m0, rec_r0 = (
                            cycle, st0, st1, st2, st3)
                        rec_w = []
            d = dec[pc]
            kind = d.kind

            # ---- operand resolution through the mapping table ----
            block = 0
            for mode, payload in d.srcs:
                if mode == _SRC_INT:
                    if map_en and payload < ient:
                        r = imr_r[payload]
                        if r > cycle and r > block:
                            block = r
                        phys = irm[payload]
                    else:
                        phys = payload
                    r = iready[phys]
                    if r > cycle and r > block:
                        block = r
                elif mode != _SRC_IMM:
                    if map_en and payload < fent:
                        r = fmr_r[payload]
                        if r > cycle and r > block:
                            block = r
                        phys = frm[payload]
                    else:
                        phys = payload
                    r = fready[phys]
                    if r > cycle and r > block:
                        block = r

            dest = d.dest
            if dest is not None:
                dest_is_int, num = dest
                if dest_is_int:
                    if map_en and num < ient:
                        r = imr_w[num]
                        if r > cycle and r > block:
                            block = r
                        physd = iwm[num]
                    else:
                        physd = num
                    r = iready[physd]
                else:
                    if map_en and num < fent:
                        r = fmr_w[num]
                        if r > cycle and r > block:
                            block = r
                        physd = fwm[num]
                    else:
                        physd = num
                    r = fready[physd]
                if r > cycle and r > block:
                    block = r

            if block > cycle:
                if issued == 0:
                    next_cycle = block
                break

            # ---- structural hazards ----
            if kind == K_LOAD or kind == K_STORE:
                if mem_used >= CH:
                    st2 += 1
                    break
                if kind == K_LOAD and store_seen:
                    break
                mem_used += 1

            # ---- issue ----
            issued += 1
            if pc == cur_lead:
                reps -= 1
            if iread and map_en:
                for mode, payload in d.srcs:
                    if mode == _SRC_INT:
                        if payload < ient:
                            for dst, src in iread:
                                dst[payload] = (payload if src is None
                                                else src[payload])
                    elif mode != _SRC_IMM and payload < fent:
                        for dst, src in fread:
                            dst[payload] = (payload if src is None
                                            else src[payload])
            advance = True

            if kind == K_CBR:
                tgt = d.target
                if tgt == cur_lead:
                    taken = reps > 0
                    if rec is not None:
                        # The iteration recorded at the loop's entry ends
                        # here; the taken branch closes its last group.
                        if taken:
                            rec[rec_key] = (
                                cycle + 1 - rec_c0, st0 - rec_z0,
                                st2 - rec_m0, tuple(rec_w), _snap(rec_maps))
                        rec = None
                else:
                    taken = t + 1 < ntr and tp[t + 1] == tgt
                mispredict = taken != d.pred_taken
                if mispredict:
                    st1 += 1
                pc = tgt if taken else pc + 1
                advance = False
                if mispredict:
                    st3 += RD
                    next_cycle = cycle + 1 + RD
                    break
                if taken:
                    break
                continue
            elif kind == K_JMP:
                pc = d.target
                advance = False
                break
            elif kind == K_CALL:
                ra.append(pc + 1)
                if ient:
                    irm[:] = home_i
                    iwm[:] = home_i
                if fent:
                    frm[:] = home_f
                    fwm[:] = home_f
                pc = d.target
                advance = False
                break
            elif kind == K_RET:
                if not ra:
                    raise SimulationError("ret with empty RA stack")
                if ient:
                    irm[:] = home_i
                    iwm[:] = home_i
                if fent:
                    frm[:] = home_f
                    fwm[:] = home_f
                pc = ra.pop()
                advance = False
                break
            elif kind == K_HALT:
                halted = True
                advance = False
                break
            elif kind == K_CONNECT:
                ready_at = cycle + CL
                for rclass, which, idx, phys in d.updates:
                    is_read = which == "read"
                    if rclass is RClass.INT:
                        (irm if is_read else iwm)[idx] = phys
                        busy = imr_r if is_read else imr_w
                    else:
                        (frm if is_read else fwm)[idx] = phys
                        busy = fmr_r if is_read else fmr_w
                    busy[idx] = ready_at
                    if rec is not None:
                        rec_w.append((busy, idx, ready_at - rec_c0))
                pc += 1
                continue
            elif kind == K_TRAP:
                handler = trapdst[pc]
                if handler is None:
                    raise SimulationError(f"no handler for trap {d.imm}")
                packed = (1 if map_en else 0) | (2 if rc_mode else 0)
                ts.append((packed, pc + 1))
                map_en = False
                pc = handler
                advance = False
                st3 += RD
                next_cycle = cycle + 1 + RD
                break
            elif kind == K_RTE:
                if not ts:
                    raise SimulationError("rte with empty trap stack")
                packed, ret_pc = ts.pop()
                map_en = (packed & 1) != 0
                rc_mode = (packed & 2) != 0
                pc = ret_pc
                advance = False
                st3 += RD
                next_cycle = cycle + 1 + RD
                break
            elif kind == K_STORE:
                store_seen = True
            # K_ALU / K_LI / K_LOAD / K_MFPSW / K_MFMAP / K_NOP: value
            # production is the leader's job; only the writeback timing
            # below matters here.

            if dest is not None and kind != K_STORE and kind != K_NOP:
                wb = cycle + lat[pc]
                if dest_is_int:
                    iready[physd] = wb
                    if map_en and num < ient:
                        for dst, src in iwrite:
                            dst[num] = num if src is None else src[num]
                else:
                    fready[physd] = wb
                    if map_en and num < fent:
                        for dst, src in fwrite:
                            dst[num] = num if src is None else src[num]
                if rec is not None:
                    rec_w.append((iready if dest_is_int else fready, physd,
                                  wb - rec_c0))
            if advance:
                pc += 1

        if issued == 0:
            st0 += next_cycle - cycle
        cycle = next_cycle

    return cycle, st0, st1, st2, st3


# -- leader-state cloning -------------------------------------------------------

def _clone_state(src: MachineState, cfg) -> MachineState:
    """Follower architectural state: a deep copy of the leader's final state
    (same class, so every shape matches) bound to the follower's config."""
    dst = MachineState(cfg, None)
    dst.int_regs[:] = src.int_regs
    dst.fp_regs[:] = src.fp_regs
    dst.memory = dict(src.memory)
    dst.psw.map_enable = src.psw.map_enable
    dst.psw.rc_mode = src.psw.rc_mode
    if dst.int_table is not None:
        dst.int_table.read_map[:] = src.int_table.read_map
        dst.int_table.write_map[:] = src.int_table.write_map
    if dst.fp_table is not None:
        dst.fp_table.read_map[:] = src.fp_table.read_map
        dst.fp_table.write_map[:] = src.fp_table.write_map
    dst.ra_stack = list(src.ra_stack)
    dst.trap_stack = list(src.trap_stack)
    return dst


def _follower_stats(leader_stats: SimStats, cycles, st0, st1, st2,
                    st3) -> SimStats:
    stats = SimStats()
    stats.cycles = cycles
    stats.instructions = leader_stats.instructions
    stats.by_category = Counter(leader_stats.by_category)
    stats.by_origin = Counter(leader_stats.by_origin)
    stats.branches = leader_stats.branches
    stats.mispredicts = st1
    stats.zero_issue_cycles = st0
    stats.redirect_cycles = st3
    stats.mem_channel_stalls = st2
    return stats


# -- the gang ------------------------------------------------------------------

def simulate_gang(program, configs) -> list[GangOutcome]:
    """Simulate *program* under every config in *configs* in one pass.

    Returns one :class:`GangOutcome` per config, in input order.  Slots that
    fault or exhaust their budget carry the exception in ``outcome.error``;
    the rest of the gang is undisturbed.
    """
    configs = list(configs)
    if not configs:
        raise ConfigError("batched gang needs at least one config")
    outcomes: list[GangOutcome] = [None] * len(configs)  # type: ignore
    by_class: dict = {}
    for i, cfg in enumerate(configs):
        key = (cfg.rc_model, cfg.int_spec, cfg.fp_spec)
        by_class.setdefault(key, []).append(i)
    # Decode lists shared across class leaders, keyed on the config axes
    # decode actually reads: (latency, int_spec, fp_spec).
    shared_dec: list = []
    # Replay tables shared across classes, keyed (id(dec), ient, fent) —
    # the dec list is pinned by shared_dec, so ids stay unique.
    shared_tables: dict = {}
    for slots in by_class.values():
        _run_class(program, configs, slots, outcomes, shared_dec,
                   shared_tables)
    return outcomes


def _run_class(program, configs, slots, outcomes, shared_dec,
               shared_tables) -> None:
    """One architectural class: the leader runs generated code recording
    its trace, and every follower replays that trace timing-only."""
    lead_slot = max(slots, key=lambda s: configs[s].max_cycles)
    lcfg = configs[lead_slot]
    dkey = (lcfg.latency, lcfg.int_spec, lcfg.fp_spec)
    shared = next((d for k, d in shared_dec if k == dkey), None)
    try:
        leader = FastSimulator(program, lcfg, decoded=shared)
    except Exception as exc:
        # Decode/validation failure is a class property (it depends only
        # on the program and the register specs): every slot raises it.
        for s in slots:
            outcomes[s] = GangOutcome(s, configs[s], None, exc, True)
        return
    dec = leader._ref._decoded
    if shared is None:
        shared_dec.append((dkey, dec))
    if leader._compiled_entry is None or not _replay_supported(dec):
        _delegate_slots(program, configs, slots, outcomes)
        return
    followers = [s for s in slots if s != lead_slot]
    trace = (array("q"), array("q"))
    try:
        lres = leader._run_fast(trace=trace)
    except Exception as exc:
        outcomes[lead_slot] = GangOutcome(lead_slot, lcfg, None, exc, True)
        _delegate_slots(program, configs, followers, outcomes)
        return
    outcomes[lead_slot] = GangOutcome(lead_slot, lcfg, lres, None, True)
    if not followers:
        return
    ient = lcfg.int_spec.core if lcfg.int_spec.has_rc else 0
    fent = lcfg.fp_spec.core if lcfg.fp_spec.has_rc else 0
    tkey = (id(dec), ient, fent)
    ctx = _ReplayContext(program, dec, trace, ient, fent,
                         tables=shared_tables.get(tkey))
    shared_tables[tkey] = ctx.tables
    for s in followers:
        cfg = configs[s]
        try:
            cycles, st0, st1, st2, st3 = _replay(ctx, cfg)
        except Exception as exc:
            outcomes[s] = GangOutcome(s, cfg, None, exc, True)
            continue
        stats = _follower_stats(lres.stats, cycles, st0, st1, st2, st3)
        state = _clone_state(lres.state, cfg)
        outcomes[s] = GangOutcome(
            s, cfg, SimResult(stats=stats, state=state, halted=True,
                              engine="batched"),
            None, True)


def _delegate_slots(program, configs, slots, outcomes) -> None:
    """Run *slots* as single fast-engine runs (``ran_batched=False``)."""
    for s in slots:
        cfg = configs[s]
        try:
            res = FastSimulator(program, cfg).run()
        except Exception as exc:
            outcomes[s] = GangOutcome(s, cfg, None, exc, False)
        else:
            outcomes[s] = GangOutcome(s, cfg, res, None, False)
