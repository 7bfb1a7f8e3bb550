"""Priced programs: the simulated engine's accounting as rows, booked in
arrays.

Each booking primitive of :mod:`repro.dist.simulate` — an exchange, a
collective, a local work term — appends one row to the program being
recorded: its kind, timer key, plan, label, work bytes and overlap
bytes.  A solve books five kinds of program: ``start``, the first CG
iteration (it puts ``p <- z`` before the dot), a later one, a checkpoint
and a restore.  Each closes the same rows in every run on the same
communication record, mode, machine and preconditioner, so the numerics
keep one :class:`Program` per ``(record, comm_mode, machine, use_mg,
kind)``, priced once by :meth:`~repro.dist.bsp.BSPMachine.row_costs`:
array expressions in ``superstep_costs``' order of operations, so every
price is bit-identical to the scalar one.

A run books its plan as a **stretch** — its programs in order,
consecutive copies of one as that program ``times`` over — and
:func:`fold` books a stretch at once, faults transforming it first:

* message loss inserts each lossy exchange's retries right after it,
  counts keyed by the seed and the exchange's ordinal in the run
  (:meth:`~repro.dist.faults.FaultInjector.retry_counts`);
* a straggler or node-speed window multiplies the work (and overlap) of
  the rows it covers, which are re-priced;
* a crash cuts the stretch after its superstep, retries included, books
  the cut, notes the entry and copy it lands in and raises (the
  superstep is priced, then the failure detected); the exchanges cut
  off leave their ordinals to the survivors.

The run's modelled, wire and exposed seconds are one ``np.add.accumulate``
over the stretch's terms in booking order, from their values so far.  The
timers take each program's terms as it laid them out once
(:attr:`Program.sums`), copy after copy; a faulted stretch puts each
row's terms at its place (:attr:`Program.places`) and a lost exchange's
retries in rows inserted after its own, so nothing is sorted.  They are
plain per-key totals, added once at the run's end (:func:`book_timers`:
one accumulate down each matrix, the exposed plane skipped when no row
hides wire time), and no ``Timer`` is made: the result's registries are
built from the totals when first read.  Accumulate adds
strictly left to right, as a scalar ``+=`` would, and a padding zero
changes no total, so every total is bit-identical (``sum``, ``np.sum``
and ``math.fsum`` would not be).  The tracker and the injector take the
stretch's supersteps and fault events as blocks.  A traced run folds
its plan entry by entry, each fold emitting its rows' spans at the
program's marks.  Nothing a fold draws or lays out is kept past it.
"""

from __future__ import annotations

import copy
import itertools

import numpy as np

from repro.dist.comm import StepBlock
from repro.dist.faults import FaultEvent, losses

#: row kinds: local work, an eager or a posted exchange, a collective
LOCAL, SYNC, POSTED, COLLECTIVE = range(4)


def timer_layout(depth: int) -> tuple:
    """Every timer a solve to ``depth`` MG levels can tick, as
    ``(registry, name)`` pairs, three a key: the key's own timer
    (registry 0), then its wire seconds under ``full/<key>`` and
    ``exposed/<key>`` (registry 1).  Every program of the depth indexes
    its rows' keys in this order, so any stretch's programs agree.  The
    ``depth`` smoothers' keys come first: a sweep ticks them a term a
    colour step, every other key a few terms an iteration."""
    keys = [f"mg/L{i}/rbgs" for i in range(depth)] + [
        "cg/dot", "cg/spmv", "cg/waxpby", "fault/checkpoint",
        "fault/restore"] + [f"mg/L{i}/{step}" for i in range(depth)
                            for step in ("prolong", "restrict", "spmv")]
    return tuple(pair for key in keys for pair in (
        (0, key), (1, f"full/{key}"), (1, f"exposed/{key}")))


class Program:
    """One program's rows, priced once: ``rows`` are ``(kind, key, plan,
    label, work_bytes, overlap_bytes)``; ``marks`` are ``(row, name,
    args)`` span openings (``name`` None: a closing) before row ``row``;
    ``layout`` is the depth's :func:`timer_layout`."""

    def __init__(self, rows: list, marks: list, machine, layout: tuple):
        self.marks, self.n, self.layout = marks, len(rows), layout
        kinds, self.keys, self.plans, labels, work, overlap = (
            list(column) for column in zip(*rows))
        self.labels = np.array(labels, dtype=object)
        kind = np.array(kinds, dtype=np.int8)
        self.step, self.posted = kind != LOCAL, kind == POSTED
        h = np.array([0 if plan is None else plan.h for plan in self.plans],
                     dtype=float)
        self.lossy = ((kind == SYNC) | self.posted) & (h > 0)
        #: what may close, and be re-driven: the stretch's horizon
        self.reach = int(self.step.sum()), int(self.lossy.sum())
        work, overlap = (np.array(column, dtype=float)
                         for column in (work, overlap))
        #: per row: total, full, exposed and hidden seconds, then the
        #: work, overlap and h bytes they price
        self.table = np.array([*machine.row_costs(work, h, overlap,
                                                  self.step),
                               work, overlap, h])
        self.values = self.table[:3].copy()
        #: does a row hide wire time?  Else exposed = full - 0.0 = full
        self.hides = bool((overlap > 0.0).any())
        #: each row's timer key, as its index among the layout's keys (a
        #: small int sorts by radix)
        index = {name: k for k, (_, name) in enumerate(layout[::3])}
        self.key = np.array([index[key] for key in self.keys],
                            dtype=np.int16)
        #: the smoothers' keys, which lead the layout, then the rest
        busy = sum(name.endswith("/rbgs") for _, name in layout[::3])
        self.parts = slice(0, busy), slice(busy, len(layout) // 3)
        #: its timers' places in the layout, in the order of first ticks
        self.ticks = list(dict.fromkeys(
            3 * k + i for k, step in zip(self.key.tolist(),
                                         self.step.tolist())
            for i in (range(3) if step else range(1))))
        # how many terms each timer takes: a key's own timer the totals,
        # its full/ and exposed/ timers the wire seconds (a local row
        # adds 0.0 there, which changes no total)
        counts = np.bincount(self.key, minlength=len(layout) // 3)
        steps = np.bincount(self.key[self.step], minlength=len(counts))
        self.tally = np.stack([counts, steps, steps], axis=1).ravel()
        #: each row's place among its timers' terms: its part (1: the
        #: smoothers'), its rank among its key's rows, its column in its
        #: part, its timer key, its index among the supersteps, its h
        order = np.argsort(self.key, kind="stable")
        rank = np.empty(self.n, dtype=np.intp)
        rank[order] = np.arange(self.n) - (counts.cumsum()
                                           - counts)[self.key[order]]
        smoother = self.key < busy
        self.places = np.stack([smoother, rank, self.key - busy * ~smoother,
                                self.key, self.step.cumsum() - 1,
                                h.astype(np.intp)])
        #: its rows' terms as every timer takes them, two matrices per
        #: plane — the smoothers' timers and the rest, an accumulate
        #: costing what its matrix holds — each timer a column of its
        #: terms in booking order, zero-padded
        self.sums = tuple(np.zeros((3, counts[keyed].max(initial=0),
                                    keyed.stop - keyed.start))
                          for keyed in self.parts)
        #: per matrix, the row whose term each slot holds (padding: n)
        self.slots = tuple(np.full(sums.shape[1:], self.n)
                           for sums in self.sums)
        for sums, slots, part in zip(self.sums, self.slots,
                                     (smoother, ~smoother)):
            at = rank[part], self.places[2, part]
            sums[:, at[0], at[1]] = self.values[:, part]
            slots[at] = part.nonzero()[0]
        self.block = StepBlock([
            (plan, label, o, k == POSTED) for k, plan, label, o
            in zip(kinds, self.plans, labels, overlap) if k != LOCAL])

    def head(self, rows: int) -> "Program":
        """The program cut after its first ``rows`` rows, as a crash cuts
        a copy: its counts, ticks, supersteps' block and matrices, each
        timer keeping its first terms (the rest zeroed), are of those
        rows."""
        head = copy.copy(self)
        key, step = self.key[:rows], self.step[:rows]
        kept = np.bincount(key, minlength=self.parts[1].stop)
        steps = np.bincount(key[step], minlength=len(kept))
        head.n, head.tally = rows, np.array([kept, steps, steps]).T.ravel()
        ticked = head.tally.tolist()
        head.ticks = [i for i in self.ticks if ticked[i]]
        head.sums = tuple(np.where(slots < rows, sums, 0.0)
                          for sums, slots in zip(self.sums, self.slots))
        head.block = self.block.head(int(step.sum()))
        return head


def _cat(stretch, get, axis: int = 0) -> np.ndarray:
    """``get(program)`` of every entry of ``stretch``, copy after copy,
    along the rows' ``axis``."""
    return np.concatenate([part for p, times, _ in stretch
                           for part in [get(p)] * times], axis=axis)


def _cut(stretch: list, n: int) -> tuple:
    """``stretch`` up to its row ``n - 1``, the copy holding it cut there
    (:meth:`Program.head`), and where that row lands: its entry's index
    and the copy's; a checkpoint the crash lands on is not taken."""
    out, at = [], 0
    for entry, (p, times, note) in enumerate(stretch):
        if at + p.n * times >= n:
            copies, kept = divmod(n - at - 1, p.n)
            return out + [[p, copies, None]] * (copies > 0) + [
                [p.head(kept + 1), 1, None]], (entry, copies)
        out.append([p, times, note])
        at += p.n * times


def fold(state, stretch: list) -> None:
    """Book ``stretch`` — ``[program, times, note]`` entries, each program
    booked ``times`` over in turn (``note``: a checkpoint's iteration) —
    on the run state ``state``; see the module docstring."""
    inj, machine = state.injector, state.machine
    step = _cat(stretch, lambda p: p.step)
    n, cut, clock, slowed = len(step), None, None, False
    lost = again = np.empty(0, dtype=np.intp)
    if inj is not None:
        # each lossy exchange's retries, keyed by its ordinal in the run;
        # the superstep each row closes when a window or a crash asks
        start = inj.superstep
        if state.lossy:
            lost = _cat(stretch, lambda p: p.lossy).nonzero()[0]
            again = inj.retry_counts(len(lost), inj.exchanges)
        end = start + sum(times * p.reach[0] for p, times, _ in stretch) \
            + (int(again.sum()) if state.lossy else 0)
        crash = inj.next_crash
        fires = None if crash is None else max(crash.superstep, start)
        slowed = bool(inj.plan.stragglers or inj.plan.node_speeds)
        if slowed or (fires is not None and fires < end):
            closed = step.astype(np.intp)
            closed[lost] += again
            clock = start + closed.cumsum() - closed
        if fires is not None and fires < end:
            # the crash cuts the stretch: the exchanges after it are not
            # booked, and take their ordinals again
            at = int((step & (clock <= fires)).nonzero()[0][-1])
            (stretch, state.cut), cut = _cut(stretch, at + 1), fires
            n, step, clock, end = at + 1, step[:at + 1], clock[:at + 1], \
                fires + 1
            kept = int(lost.searchsorted(at)) + int(fires > clock[at])
            lost, again = lost[:kept], again[:kept]
        inj.exchanges += len(again)
        inj.superstep = end
        if state.lossy:
            lost, again = lost[again > 0], again[again > 0]
    # the rows' prices, then (to re-price or emit them) what they price
    table = _cat(stretch, (lambda p: p.table) if slowed or state.ctx
                 else (lambda p: p.values), axis=1)[:, :n]
    announced, changed = [], lost[:0]
    if slowed:                  # the rows the windows cover, re-priced
        factors, announced = inj.work_factors(clock)
        table[4:6] *= factors
        table[:4] = machine.row_costs(table[4], table[6], table[5], step)
        changed = (factors != 1.0).nonzero()[0]
    if len(changed) or len(lost):   # where each row's terms sit
        place, col, key, index, h, split, height = _placed(stretch, n)
    # the stream of terms in booking order: each row's, then a lost
    # exchange's retries (those before a crash landing among them)
    terms = np.concatenate(([[state.seconds], [state.comm_seconds],
                             [state.exposed_comm_seconds]], table[:3]),
                           axis=1)
    after = booked = attempt = resent = lost    # the row each retry follows
    if len(lost):
        booked = again.copy()
        if cut is not None and lost[-1] == n - 1:
            booked[-1] = cut - clock[-1]
        after = lost.repeat(booked)
        attempt = np.arange(len(after)) - (booked.cumsum() - booked).repeat(
            booked)
        resent = machine.retry_comm_times(h.take(after), attempt,
                                          inj.plan.message_loss.backoff)
        counts = np.zeros(n + 1, dtype=np.intp)
        counts[lost + 1] = booked
        terms = terms.repeat(counts + 1, axis=1)
        slots = after + np.arange(2, len(after) + 2)
        for plane in terms:
            plane[slots] = resent
    running = np.add.accumulate(terms, axis=1)
    state.seconds, state.comm_seconds, state.exposed_comm_seconds = \
        running[:, -1].tolist()
    programs, tally, parts = _laid_out(stretch)
    if len(changed) or len(lost):   # a fault transformed the terms
        # each row's at its place, each retry in a row inserted after its
        # exchange's; the parts' rows end to end, padded to one width
        width = programs[0].parts[1].stop - programs[0].parts[1].start
        extra = np.zeros(height, dtype=np.intp)
        np.maximum.at(extra, place[lost], booked)
        moved = np.arange(height) + extra.cumsum() - extra
        laid = np.zeros((3, height + int(extra.sum()), width))
        rows = moved[place] * width + col
        retries = ((moved[place[lost]] + 1).repeat(booked) + attempt) \
            * width + col[lost].repeat(booked)
        for plane, values in zip(laid.reshape(3, -1), table[:3]):
            plane[rows] = values
            plane[retries] = resent
        split += int(extra[:split].sum())
        parts = [laid[:, :split, :programs[0].parts[0].stop]], [
            laid[:, split:]]
        tally = tally + np.bincount(key[lost], booked, len(tally) // 3
                                    ).astype(np.intp).repeat(3)
        index = index[lost]
    state.terms.append((programs, tally, parts))
    synced = state.tracker.num_syncs
    state.tracker.book([(p.block, times) for p, times, _ in stretch],
                       np.array([index, booked]).T if len(lost) else ())
    taken = _checkpoints(state, stretch, after, running[0])
    if inj is not None and (len(lost) or taken or announced):
        _book_events(inj, stretch, start, step, after, lost, again,
                     announced, taken)
    if state.ctx is not None:
        _emit(state, stretch, table, after, running[0], synced, cut)
    elif cut is not None:
        inj.check_crash(cut)


def _placed(stretch: list, n: int) -> tuple:
    """:attr:`Program.places` of the stretch's first ``n`` rows, read in
    the stretch: each one's row in both parts' matrices laid copy after
    copy, the smoothers' first, its column, its timer key, its index
    among the supersteps and its h; then the smoothers' rows and all."""
    copies, sizes, low, high, steps = [], [], 0, 0, 0
    for p, times, _ in stretch:     # where each copy starts
        for _ in range(times):
            copies.append((low, high, steps))
            sizes.append(p.n)
            low, high = low + p.sums[0].shape[1], high + p.sums[1].shape[1]
            steps += p.reach[0]
    first, after, steps_ = np.array(copies).repeat(sizes, axis=0)[:n].T
    busy, rank, col, key, index, h = _cat(stretch, lambda p: p.places,
                                          axis=1)[:, :n]
    return (rank + np.where(busy, first, low + after), col, key,
            index + steps_, h, low, low + high)


def _laid_out(stretch: list) -> tuple:
    """The programs of ``stretch``, how many terms each timer takes as
    they lay them out, and its two lists of matrices: its programs'
    sums, copy after copy (zero padding changes no total)."""
    copies, parts = {}, ([], [])
    for p, times, _ in stretch:
        copies[p] = copies.get(p, 0) + times
        for q in (0, 1):
            parts[q].extend([p.sums[q]] * times)
    return list(copies), np.dot(list(copies.values()),
                                [p.tally for p in copies]), parts


def book_timers(terms: list) -> tuple:
    """The per-key totals of the terms a run's folds laid out (per fold,
    its programs, how many terms each timer takes and its matrices, see
    :func:`_laid_out`), added once, at the run's end: each timer's column
    of every fold's matrices, one accumulate down a matrix.  Returns
    ``(layout, totals, counts, ticks)``: the :func:`timer_layout`, each
    timer's total and count in its order, and each folded program's
    :attr:`Program.ticks`, once a program.  No timer is made: registries
    are built from these when read."""
    programs = list(dict.fromkeys(p for folded, _, _ in terms
                                  for p in folded))
    layout, parts = programs[0].layout, programs[0].parts
    # no row hides wire time (eager): exposed = full term by term, retries
    # too, so that plane is added once
    planes = 3 if any(p.hides for p in programs) else 2
    totals = []
    for q, keys in enumerate(parts):
        column = np.concatenate(
            [np.zeros((planes, 1, keys.stop - keys.start))]
            + [sums[:planes] for _, _, laid in terms for sums in laid[q]],
            axis=1)
        totals.append(np.add.accumulate(column, axis=1)[
            [0, 1, planes - 1], -1])
    return (layout, np.concatenate(totals, axis=1).T.ravel(),
            sum(tally for _, tally, _ in terms),
            [p.ticks for p in programs])


def _checkpoints(state, stretch, after: np.ndarray,
                 seconds: np.ndarray) -> list:
    """Account each checkpoint the stretch took — its seconds are the
    running total's step across its superstep (``after``: the row each
    retry follows), added in turn — and return ``(row, iteration)`` of
    each."""
    starts = itertools.accumulate([p.n * times for p, times, _ in stretch],
                                  initial=0)
    taken = [(row, note) for row, (_, _, note) in zip(starts, stretch)
             if note is not None]
    for row, _ in taken:
        at = row + int(after.searchsorted(row)) if len(after) else row
        seconds_ = seconds.item(at + 1) - seconds.item(at)
        state.checkpoints += 1
        state.checkpoint_seconds += seconds_
        if state.metrics is not None:
            state.metrics.checkpoint.inc(seconds_)
    return taken


def _book_events(inj, stretch, start, step, after, lost, retries,
                 announced, taken) -> None:
    """Record the stretch's fault events as one block, listed when read,
    in booking order: a straggler as the first row it slows prices, a
    loss (``lost`` rows, re-driven ``retries`` times) after its exchange,
    a checkpoint (``taken``: row, iteration) after its superstep."""
    if len(lost):
        inj.exchange_retries += int(retries.sum())

    def listed() -> list:
        rows = [at for at, _ in taken] + lost.tolist()
        closes = (start + step.cumsum().take(rows) - 1
                  + after.searchsorted(rows)).tolist()
        labels = _cat(stretch, lambda p: p.labels)[lost]
        events = [(at, 0, FaultEvent("straggler", kw["superstep"],
                                     kw["node"], {
            "factor": kw["factor"], "end_superstep": kw["end_superstep"]}))
            for at, kw in announced]
        events += [(at, 1, FaultEvent("checkpoint", step,
                                      detail={"iteration": k}))
                   for (at, k), step in zip(taken, closes)]
        events += [(at, 1, event) for at, event in zip(lost.tolist(), losses(
            closes[len(taken):], labels, retries))]
        return [event for *_, event in sorted(events, key=lambda e: e[:2])]

    heads = sorted((at, i, kind, n) for at, i, kind, n in (  # first lands
        (min([at for at, _ in announced], default=0), 0, "straggler",
         len(announced)), (lost[0] if len(lost) else 0, 1, "message_loss",
                           len(lost)),
        (taken[0][0] if taken else 0, 1, "checkpoint", len(taken))) if n)
    inj.book(listed, {kind: n for *_, kind, n in heads})


def _emit(state, stretch, table, after, seconds, synced, cut) -> None:
    """A traced fold's spans, comm events and metrics, from its booked
    rows (``after``: the row each retry follows); a crash raises inside
    the spans it cuts short."""
    tracer, m, mode = state.ctx.tracer, state.metrics, state.mode
    total, full, exposed, hidden, work, overlap, _ = table.tolist()
    first = np.arange(len(total) + 1)
    retried = np.bincount(after, minlength=len(total)).tolist()
    seconds, first = seconds.tolist(), (first + np.searchsorted(
        after, first)).tolist()
    rows, marks = [], []
    for p, times, _ in stretch:
        for _ in range(times):
            marks += [(len(rows) + row, name, args)
                      for row, name, args in p.marks]
            rows += [(p, r) for r in range(p.n)]
    # a crash unwinds the spans open at it: what comes after never runs
    rows = rows[:len(total)]
    marks = [mark for mark in marks if mark[0] < len(rows) or cut is None]
    opened, done, index = [], 0, synced
    try:
        for i in range(len(rows) + 1):
            while done < len(marks) and marks[done][0] == i:
                _, name, args = marks[done]
                if name is None:
                    span, before = opened.pop()
                    span.tick(seconds[first[i]] - before)
                    span.__exit__(None, None, None)
                else:
                    opened.append((tracer.span(name, "mg", args).__enter__(),
                                   seconds[first[i]]))
                done += 1
            if i == len(rows):
                break
            p, r = rows[i]
            if not p.step[r]:
                continue
            plan, label = p.plans[r], p.labels[r]
            extra = {"posted": bool(p.posted[r])}
            if extra["posted"]:
                extra["overlapped_work"] = float(p.table[5, r])
            _comm_event(tracer, "wait" if extra["posted"] else "sync", index,
                        plan, label, extra)
            with tracer.span(f"superstep/{p.keys[r]}", "dist") as sp:
                sp.tick(total[i])
                sp.set(h=plan.h, work_bytes=work[i], mode=mode,
                       overlapped=overlap[i] > 0, comm_full=full[i],
                       comm_exposed=exposed[i], comm_hidden=hidden[i])
            _metered(m, mode, plan.h, full[i], exposed[i], hidden[i])
            for k in range(1, retried[i] + 1):
                cost = seconds[first[i] + k + 1] - seconds[first[i] + k]
                _comm_event(tracer, "retry", index + k, plan, label,
                            {"retry_of": index})
                m.retries.inc(1, label=label)
                _metered(m, mode, plan.h, cost, cost, 0.0)
            index += 1 + retried[i]
        if cut is not None:
            state.injector.check_crash(cut)
    except BaseException as exc:
        for span, _ in reversed(opened):
            span.__exit__(type(exc), exc, exc.__traceback__)
        raise


def _comm_event(tracer, event: str, index: int, plan, label, extra) -> None:
    tracer.event(f"comm/{event}", "comm", {
        "index": index, "label": label, "h": plan.h,
        "bytes": plan.total_bytes, "messages": plan.messages, **extra})


def _metered(m, mode: str, h: int, full: float, exposed: float,
             hidden: float) -> None:
    m.supersteps.inc(1, mode=mode)
    m.h.observe(h)
    m.comm.inc(full, kind="full")
    m.comm.inc(exposed, kind="exposed")
    m.comm.inc(hidden, kind="hidden")
