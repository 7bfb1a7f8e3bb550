"""Priced programs: the simulated engine's accounting as rows, booked in
arrays.

Each booking primitive of :mod:`repro.dist.simulate` — an exchange, a
collective, a local work term — appends one row to the program being
recorded: its kind, timer key, plan, label, work bytes and overlap
bytes.  A solve books five kinds of program: ``cg_start``, the first CG
iteration (it puts ``p <- z`` before the dot), a later one, a checkpoint
and a restore.  Each closes the same rows in every run on the same
communication record, mode, machine and preconditioner, so the numerics
keep one :class:`Program` per ``(record, comm_mode, machine, use_mg,
kind)``, priced once by :meth:`~repro.dist.bsp.BSPMachine.row_costs`:
array expressions in ``superstep_costs``' order of operations, so every
price is bit-identical to the scalar one.

A run books its programs in **stretches** — every program since the
last booking, consecutive copies of one as that program ``times`` over —
and :func:`fold` books a stretch at once.  Faults are transforms of the
stretch, applied before it is booked:

* message loss inserts each lossy exchange's seeded retries right after
  it, drawn from the injector's sequential generator in exchange order
  (:meth:`~repro.dist.faults.FaultInjector.retry_counts`);
* a straggler or node-speed window multiplies the work (and overlap) of
  the rows it covers, which are re-priced;
* a crash cuts the stretch after its superstep, retries included, and
  raises once the cut is booked: the superstep is priced, then the
  failure detected.

The run's modelled, wire and exposed seconds are then one
``np.add.accumulate`` over the stretch's terms in booking order, from
their values so far.  Each program also keeps its terms laid out for the
timers (:func:`_matrices`); a stretch no fault transformed lays out its
programs' copy after copy (a cut copy keeps each timer's first terms),
any other sorts its own terms, and the run's timers tick from every
fold's layout when they are read: one accumulate down each matrix.
Accumulate adds strictly left to right, as a scalar ``+=`` would, and a
padding zero changes no total (``x + 0.0`` is ``x``), so every total is
bit-identical; ``sum`` and ``np.sum`` add pairwise and ``math.fsum``
rounds once, so all three would not be.  The tracker takes the
stretch's programs' supersteps as :class:`~repro.dist.comm.StepBlock`
copies.  A traced run books the same rows, then emits their
``superstep/*`` and ``mg/L*`` spans, opened and closed at the program's
marks.  Nothing a fold draws is kept past it.
"""

from __future__ import annotations

import numpy as np

from repro.dist.comm import StepBlock

#: row kinds: local work, an eager or a posted exchange, a collective
LOCAL, SYNC, POSTED, COLLECTIVE = range(4)


def timer_layout(depth: int) -> tuple:
    """Every timer a solve to ``depth`` MG levels can tick, as
    ``(registry, name)`` pairs, three a key: the key's own timer
    (registry 0), then its wire seconds under ``full/<key>`` and
    ``exposed/<key>`` (registry 1).  Every program of the depth indexes
    its rows' keys in this order, so any stretch's programs agree.  The
    ``depth`` smoothers' keys come first: a sweep ticks them a term a
    colour step, every other key a few terms an iteration (see
    :func:`_matrices`)."""
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
        #: its rows' terms as every timer takes them (see _matrices)
        self.tally, self.sums = _matrices(self, self.values, self.key,
                                          self.step)
        self.block = StepBlock([
            (plan, label, o, k == POSTED) for k, plan, label, o
            in zip(kinds, self.plans, labels, overlap) if k != LOCAL])


def _cat(stretch, get, axis: int = 0) -> np.ndarray:
    """``get(program)`` of every entry of ``stretch``, copy after copy,
    along the rows' ``axis``."""
    return np.concatenate([part for p, times, _ in stretch
                           for part in [get(p)] * times], axis=axis)


def _cut(stretch: list, n: int) -> tuple:
    """``stretch`` up to the copy holding its row ``n - 1`` — a checkpoint
    the crash lands on is not taken — and how many rows of that copy
    are kept."""
    out, at = [], 0
    for p, times, note in stretch:
        if at + p.n * times >= n:
            copies, kept = divmod(n - at - 1, p.n)
            out.append([p, copies + 1, None])
            return out, kept + 1
        out.append([p, times, note])
        at += p.n * times


def fold(state, stretch: list) -> None:
    """Book ``stretch`` — ``[program, times, note]`` entries, each program
    booked ``times`` over in turn (``note``: a checkpoint's iteration) —
    on the run state ``state``; see the module docstring."""
    inj, machine = state.injector, state.machine
    step = _cat(stretch, lambda p: p.step)
    retried = cut = clock = tail = None
    lossy = drawn = np.empty(0, dtype=np.intp)
    if inj is not None:
        # each lossy exchange's retries, drawn in exchange order, and the
        # crash that cuts the stretch: the exchanges after it give their
        # draws back
        start, retried = inj.superstep, np.zeros(len(step), dtype=np.intp)
        if state.lossy:
            lossy = np.flatnonzero(_cat(stretch, lambda p: p.lossy))
            retried[lossy] = drawn = inj.retry_counts(len(lossy))
        closed = step + retried             # the supersteps each row closes
        clock = start + closed.cumsum() - closed
        crash = inj.next_crash
        fires = None if crash is None else max(crash.superstep, start)
        if fires is not None and fires < clock[-1] + closed[-1]:
            at = int(np.flatnonzero(step & (clock <= fires))[-1])
            kept = int(np.searchsorted(lossy, at)) + int(fires > clock[at])
            if kept < len(drawn):
                inj.unwind(drawn[kept:])
            lossy, drawn = lossy[:kept], drawn[:kept]
            retried[at] = fires - clock[at]
            (stretch, tail), cut = _cut(stretch, at + 1), fires
            retried, clock, step = (retried[:at + 1], clock[:at + 1],
                                    step[:at + 1])
            closed = step + retried
    # the rows' prices, then (to re-price or emit them) what they price
    n = len(step)
    slowed = inj is not None and bool(inj.plan.stragglers
                                      or inj.plan.node_speeds)
    table = _cat(stretch, (lambda p: p.table) if slowed or state.lossy
                 or state.ctx else (lambda p: p.values), axis=1)[:, :n]
    announced = []
    if slowed:                  # the rows the windows cover, re-priced
        factors, announced = inj.work_factors(clock)
        table[4:6] *= factors
        table[:4] = machine.row_costs(table[4], table[6], table[5], step)
    # the stream of terms in booking order: each row's, each retry's
    # right after its exchange's and the retries before it
    values, keys = table[:3], _cat(stretch, lambda p: p.key)[:n]
    first, wired = np.arange(n + 1), step
    if retried is not None and retried.any():
        span = retried + 1
        first[1:] = span.cumsum()
        rows = np.repeat(np.arange(n), span)
        again = np.arange(len(rows)) - first[rows]
        resent = again.nonzero()[0]
        values = values[:, rows]
        values[:, resent] = machine.retry_comm_times(
            table[6, rows[resent]], again[resent] - 1,
            inj.plan.message_loss.backoff)
        keys, wired = keys[rows], step[rows]
    running = np.add.accumulate(np.concatenate(
        [[[state.seconds], [state.comm_seconds],
          [state.exposed_comm_seconds]], values], axis=1), axis=1)
    state.seconds, state.comm_seconds, state.exposed_comm_seconds = \
        running[:, -1].tolist()
    if slowed or len(keys) > n:     # a fault transformed the terms
        tally, sums = _matrices(stretch[0][0], values, keys, wired)
        laid = tally, ([sums[0]], [sums[1]])
    else:
        laid = _laid_out(stretch, tail)
    state.terms.append((list({id(p): p for p, _, _ in stretch}.values()),
                        *laid))
    synced = state.tracker.num_syncs
    _book_steps(state.tracker, stretch, retried, step, tail)
    taken = _checkpoints(state, stretch, first, running[0])
    if inj is not None:
        inj.superstep = int(clock[-1] + closed[-1])
        _book_events(inj, stretch, clock, lossy, drawn, announced,
                     [(at, int(clock[at]), k) for at, k in taken])
    if state.ctx is not None:
        _emit(state, stretch, table, first, running[0], retried, synced,
              cut)
    elif cut is not None:
        inj.check_crash(cut)


def _matrices(p, values: np.ndarray, keys: np.ndarray,
              wired: np.ndarray) -> tuple:
    """Terms laid out for the timers of ``p``'s layout: ``values`` (rows:
    total, full and exposed seconds) of terms on ``keys``, ``wired`` the
    ones closing a superstep.  A key's own timer takes the totals, its
    ``full/`` and ``exposed/`` timers the wire seconds, a local term
    adding 0.0 there, which changes no total.  Returns how many terms
    each timer takes, and two matrices per plane — the smoothers' timers
    and the rest, an accumulate costing what its matrix holds — each
    timer a column of its terms in booking order, zero-padded."""
    counts = np.bincount(keys, minlength=p.parts[1].stop)
    steps = np.bincount(keys[wired], minlength=len(counts))
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    rank = np.arange(len(keys)) - (counts.cumsum() - counts)[ranked]
    # both matrices in one buffer a plane: each term's cell is its rank
    # times its matrix's width plus its column, past the first matrix
    # for the rest's
    (busy, rest), height = p.parts, counts[p.parts[0]].max(initial=0)
    split = height * busy.stop
    width = np.where(ranked < rest.start, busy.stop, rest.stop - rest.start)
    buf = np.zeros((3, split + counts[rest].max(initial=0)
                    * (rest.stop - rest.start)))
    buf[:, rank * width + ranked + (ranked >= rest.start) * (
        split - rest.start)] = values[:, order]
    return np.stack([counts, steps, steps], axis=1).ravel(), (
        buf[:, :split].reshape(3, height, busy.stop),
        buf[:, split:].reshape(3, -1, rest.stop - rest.start))


def _laid_out(stretch: list, tail) -> tuple:
    """How many terms each timer takes in a stretch no fault transformed,
    and its two lists of matrices: its programs' :func:`_matrices`, copy
    after copy (zero padding changes no total); with ``tail``, only that
    many rows of the last copy."""
    copies, tally, parts = {}, 0, ([], [])
    for e, (p, times, _) in enumerate(stretch):
        cut = tail is not None and e + 1 == len(stretch)
        copies[p] = copies.get(p, 0) + times - cut
        for q in (0, 1):
            parts[q].extend([p.sums[q]] * (times - cut))
        if cut:     # the copy the crash cuts: each timer's first terms
            kept = np.bincount(p.key[:tail], minlength=p.parts[1].stop)
            steps = np.bincount(p.key[:tail][p.step[:tail]],
                                minlength=len(kept))
            tally = np.stack([kept, steps, steps], axis=1).ravel()
            for q, keyed in enumerate(p.parts):
                sums = p.sums[q]
                parts[q].append(np.where(np.arange(sums.shape[1])[:, None]
                                         < kept[keyed], sums, 0.0))
    for p, n in copies.items():
        tally = tally + n * p.tally
    return tally, parts


def book_timers(state) -> None:
    """Tick the run's timers with the terms its folds laid out since they
    were last read (``state.terms``: per fold, its programs, how many
    terms each timer takes and its matrices, see :func:`_laid_out`): each
    timer's column of every fold's matrices under its total so far, one
    accumulate down the rows a matrix.  The timers are made in the order
    of their first ticks."""
    terms, state.terms = state.terms, []
    layout = terms[0][0][0].layout
    registries = state.registries
    timers = [registries[r].timers.get(name) for r, name in layout]
    tally = 0
    for programs, ticked, _ in terms:
        tally = tally + ticked
        fresh = {i for i in np.flatnonzero(ticked).tolist()
                 if timers[i] is None}
        for p in programs if fresh else ():
            for i in p.ticks:       # the new ones, in first-tick order
                if i in fresh and timers[i] is None:
                    r, name = layout[i]
                    timers[i] = registries[r].get(name)
    init = np.reshape([0.0 if t is None else t.total for t in timers],
                      (-1, 3)).T[:, None]
    totals = []
    for q, keys in enumerate(terms[0][0][0].parts):
        column = np.concatenate([init[:, :, keys]] + [
            sums for _, _, parts in terms for sums in parts[q]], axis=1)
        totals.append(np.add.accumulate(column, axis=1)[:, -1])
    totals = np.concatenate(totals, axis=1)
    for timer, total, n in zip(timers, totals.T.ravel().tolist(),
                               tally.tolist()):
        if n:
            timer.total, timer.count = total, timer.count + n


def _book_steps(tracker, stretch, retried, step, tail=None) -> None:
    """The stretch's supersteps to the tracker, each lossy row followed by
    the retries it booked; with ``tail``, only that many rows of the
    last copy."""
    blocks = [(p.block, times) for p, times, _ in stretch]
    if tail is not None:        # the copy the crash cuts, up to the crash
        p, times, _ = stretch[-1]
        blocks[-1:] = [(p.block, times - 1)] * (times > 1) + [
            (p.block.head(int(p.step[:tail].sum())), 1)]
    again = ()
    if retried is not None and retried.any():
        rows = np.flatnonzero(retried)
        again = np.stack([(step.cumsum() - 1)[rows], retried[rows]], 1)
    tracker.book(blocks, again)


def _checkpoints(state, stretch, first: np.ndarray,
                 seconds: np.ndarray) -> list:
    """Account each checkpoint the stretch took — its seconds are the
    running total's step across its superstep — and return ``(row,
    iteration)`` of each."""
    taken, at = [], 0
    for p, times, note in stretch:
        if note is not None:
            delta = float(seconds[first[at] + 1] - seconds[first[at]])
            state.checkpoints += 1
            state.checkpoint_seconds += delta
            if state.metrics is not None:
                state.metrics.checkpoint.inc(delta)
            taken.append((at, note))
        at += p.n * times
    return taken


def _book_events(inj, stretch, clock, lossy, drawn, announced,
                 checkpoints) -> None:
    """Record the stretch's fault events in booking order: a straggler as
    the first row it slows prices, a loss after its exchange, a
    checkpoint after its superstep.  Losses in a row stay one block."""
    lost = np.flatnonzero(drawn)
    rows = lossy[lost]
    labels = _cat(stretch, lambda p: p.labels)[rows] if len(rows) else rows
    others = sorted([(at, 0, i, "straggler", kw)
                     for i, (at, kw) in enumerate(announced)]
                    + [(at, 1, 0, "checkpoint",
                        {"superstep": step, "iteration": k})
                       for at, step, k in checkpoints])
    done = 0
    for at, _, _, kind, kw in others + [(len(clock), 0, 0, None, None)]:
        upto = int(np.searchsorted(rows, at)) if len(rows) else 0
        if upto > done:
            inj.book_losses(clock[rows[done:upto]], labels[done:upto],
                            drawn[lost[done:upto]])
        done = upto
        if kind is not None:
            kw = dict(kw)
            inj.record(kind, kw.pop("superstep"), **kw)


def _emit(state, stretch, table, first, seconds, retried, synced,
          cut) -> None:
    """A traced fold's spans, comm events and metrics, from its booked
    rows; a crash raises inside the spans it cuts short."""
    tracer, m, mode = state.ctx.tracer, state.metrics, state.mode
    total, full, exposed, hidden, work, overlap, _ = table.tolist()
    seconds, first = seconds.tolist(), first.tolist()
    rows, marks = [], []
    for p, times, _ in stretch:
        for _ in range(times):
            marks += [(len(rows) + row, name, args)
                      for row, name, args in p.marks]
            rows += [(p, r) for r in range(p.n)]
    # a crash unwinds the spans open at it: what comes after never runs
    rows = rows[:len(total)]
    marks = [mark for mark in marks if mark[0] < len(rows) or cut is None]
    retried = [0] * len(rows) if retried is None else retried.tolist()
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
