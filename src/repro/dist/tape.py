"""Superstep tapes: one CG iteration's accounting as the pricing walk of
:mod:`repro.dist.simulate` booked it, compiled to be booked again in
arrays.

An iteration closes the same supersteps at the same prices in every run
on the same communication record, mode, machine and preconditioner, so
the engine records the first one it walks as a :class:`Tape` and books
the tape for every later one.  Closing compiles the recording:

* its supersteps become one :class:`~repro.dist.comm.StepBlock`, which
  the tracker takes as one entry and expands only when read;
* each running sum the walk adds to becomes one row of its terms in
  booking order, zero-padded: the run's modelled, full and exposed
  seconds in one matrix, a tick's terms in the tick's column; every
  timer's total in another, a term's column its rank in the row (the
  rows are far shorter, and an accumulate costs what its matrix holds),
  the rows in the order of the timers' names, so that tapes ticking the
  same timers lay their sums out alike.

A run books what it replays — iterations, and the cut of one up to a
crash — in **stretches**: every replay since the last walked
superstep, one copy of a tape each, consecutive copies of one tape as
that tape replayed ``times`` times.  :func:`fold` books a stretch at
once, before anything reads the totals, the tracker or the injector's
clock.  For each run of tapes laid out alike (the first iteration's and
the later ones' are) it lays every copy's matrices side by side, writes
the run's totals into column 0 and runs one ``np.add.accumulate`` per
matrix.  Accumulate adds strictly left to right, as the walk's ``+=``
did, and a padding zero changes no total
(``x + 0.0`` is ``x``), so every total is bit-identical; ``sum`` and
``np.sum`` add pairwise and ``math.fsum`` rounds once, so all three
would not be.  The tracker takes a tape's copies as one block booked
that many times.

Under message loss the copies first draw the seeded retries of every
exchange as one block
(:meth:`~repro.dist.faults.FaultInjector.draw_retries`).  A retry adds
its price right after its exchange's term in each of the exchange's six
sums, so each retry drawn inserts its terms there, moving the rest of
each row right: a column of its own in the run's totals, and in the
timers' a term in each of its exchange's rows, a row growing by the
retries that landed in it and the matrix by the most any row took.
Nothing a fold lays out or draws is kept past it.
"""

from __future__ import annotations

import copy
import itertools
from types import SimpleNamespace

import numpy as np

from repro.dist.comm import CommTracker, StepBlock


class Tape:
    """One CG iteration's accounting as the pricing walk booked it —
    every tick in booking order, a superstep's with its step and whether
    it was an exchange — for :func:`fold` to book again.  Read only once
    closed: the numerics keep it for every run that prices the iteration
    alike."""

    def __init__(self, tracker: CommTracker):
        self.ticks: list = []           # (key, seconds, *wire), in order
        self.marked = set()             # tracker indices of the exchanges
        self._first = tracker.num_syncs

    def close(self, tracker: CommTracker) -> "Tape":
        """End the recording: pair each superstep's tick with its step."""
        steps = iter(tracker.supersteps[self._first:])
        for i, (key, seconds, *wire) in enumerate(self.ticks):
            if wire:                    # (full, exposed): a superstep's
                s = next(steps)
                wire = (*wire, f"full/{key}", f"exposed/{key}",
                        (s.plan, s.label, s.overlapped_work, s.posted),
                        s.index in self.marked)
            self.ticks[i] = key, seconds, wire or None
        return self._compile(self.ticks)

    def upto(self, steps: int) -> "Tape":
        """The recording cut after its ``steps``-th superstep: what the
        walk books before a crash at that superstep fires (compiled once
        per cut)."""
        cut = self._cuts.get(steps)
        if cut is None:
            ends = [i for i, (_, _, wire) in enumerate(self.ticks) if wire]
            cut = self._cuts[steps] = copy.copy(self)._compile(
                self.ticks[:ends[steps - 1] + 1])
        return cut

    def _compile(self, ticks: list) -> "Tape":
        self.ticks, self._cuts = ticks, {}
        # each registry's timers in the walk's order of first ticks: a
        # registry's sums over its timers add in creation order
        self.keys = (list(dict.fromkeys(key for key, _, _ in ticks)),
                     list(dict.fromkeys(name for _, _, wire in ticks
                                        if wire for name in wire[2:4])))
        #: the timers, one row each, in the order of their names
        self.names = tuple(sorted([(0, key) for key in self.keys[0]]
                                  + [(1, key) for key in self.keys[1]]))
        row = {key: i for i, (_, key) in enumerate(self.names)}
        ranks = [0] * len(row)            # each timer's terms so far
        terms = [], []                    # (row, column, value) per part
        steps, lossy = [], []
        for tick, (key, seconds, wire) in enumerate(ticks, 1):
            # the run's totals: every tick's terms in its own column
            terms[0].append((0, tick, seconds))
            timed = [(row[key], seconds)]
            if wire is not None:
                full, exposed, full_key, exposed_key, step, exchange = wire
                terms[0].extend([(1, tick, full), (2, tick, exposed)])
                timed += [(row[full_key], full), (row[exposed_key], exposed)]
            # the timers: a term's column its rank in its row
            for r, value in timed:
                ranks[r] += 1
                terms[1].append((r, ranks[r], value))
            if wire is None:
                continue
            if exchange and step[0].h > 0:      # may be lost and re-driven
                lossy.append((len(steps), step[1], step[0].h,
                              [r for r, _ in timed],
                              [tick] + [ranks[r] for r, _ in timed]))
            steps.append(step)
        self.sums = []                      # column 0 left for the totals
        for part, height, width in zip(terms, (3, len(ranks)),
                                       (len(ticks), max(ranks))):
            rows, at, values = map(np.array, zip(*part))
            self.sums.append(np.zeros((height, width + 1)))
            self.sums[-1][rows, at] = values
        self.counts = np.array(ranks)       # each timer's ticks
        self.steps, self.block = len(steps), StepBlock(steps)
        self.exchanges = sum(wire[5] for _, _, wire in ticks if wire)
        self.lossy = None
        if lossy:   # per exchange: its timers' rows, its terms' next columns
            offsets, labels, hs, rows, at = zip(*lossy)
            self.lossy = SimpleNamespace(
                offsets=np.array(offsets), labels=labels, h=np.array(hs),
                rows=np.array(rows), after=np.array(at) + 1)
        #: the width of the matrix each column of ``lossy.after`` indexes
        self.widths = np.repeat([sums.shape[1] for sums in self.sums],
                                (1, 3))
        return self


def fold(run, stretch: list) -> None:
    """Book ``stretch`` — ``[tape, times]`` pairs, each tape replayed
    ``times`` times in turn — on ``run``'s state: for each run of tapes
    laid out alike, one left-to-right accumulate per matrix, from the
    run's totals over every copy's terms side by side, adds every term in
    the walk's order, so totals stay bit-identical; each tape's
    supersteps go to the tracker as its copies of one block.  Under
    message loss the exchanges of all the copies draw their seeded
    retries as one block first, and each retry's terms land right after
    its exchange's."""
    for _, part in itertools.groupby(stretch, lambda pair: pair[0].names):
        _fold(run, list(part))


def _fold(run, part: list) -> None:
    """Book ``part``, ``[tape, times]`` pairs of tapes laid out alike."""
    state, first = run._state, part[0][0]
    timers = state.folded.get(first.names)
    if timers is None:                  # resolved once per run and layout
        made = {(p, key): registry.get(key) for p, (registry, keys) in
                enumerate(zip((state.timers, state.comm_timers),
                              first.keys)) for key in keys}
        timers = state.folded[first.names] = [made[name]
                                              for name in first.names]
    # every copy's matrices side by side, each with its own (zero) column 0
    sums = [np.concatenate([tape.sums[p] for tape, times in part
                            for _ in range(times)], axis=1) for p in (0, 1)]
    counts = sum(tape.counts * times for tape, times in part)
    steps = sum(tape.steps * times for tape, times in part)
    retried = [()] * len(part)
    if state.lossy:
        counts, retried, again = _retried(run, part, sums, counts)
        steps += again
    sums[0][:, 0] = (state.seconds, state.comm_seconds,
                     state.exposed_comm_seconds)
    sums[1][:, 0] = [timer.total for timer in timers]
    running, timed = (np.add.accumulate(terms, axis=1)[:, -1].tolist()
                      for terms in sums)
    state.seconds, state.comm_seconds, state.exposed_comm_seconds = running
    for timer, total, n in zip(timers, timed, counts.tolist()):
        timer.total, timer.count = total, timer.count + n
    for (tape, times), again in zip(part, retried):
        state.tracker.book(tape.block, again, times)
    if state.injector is not None:
        state.injector.superstep += steps


def _retried(run, part: list, sums: list, counts: np.ndarray) -> tuple:
    """Draw the retries of every lossy exchange of every copy in ``part``
    as one block and insert each retry's terms into ``sums``, the copies'
    matrices, right after its exchange's; return the timers' tick
    counts, per tape the ``(row, retries)`` pairs the tracker books, and
    the retries drawn."""
    inj = run._state.injector
    # every lossy exchange of every copy, in turn: its superstep from the
    # first, label and h, its timers' rows, and the next columns of its
    # terms (the totals' one, then its timers')
    offsets, labels, hs, rows, after, starts = [], [], [], [], [], []
    step, base = 0, np.zeros(4, dtype=np.intp)
    for tape, times in part:
        one, widths = tape.lossy, tape.widths
        starts.append(step)
        if one is not None:
            copies = np.arange(times)[:, None]
            offsets.append((one.offsets + (step + tape.steps * copies))
                           .ravel())
            labels += one.labels * times
            hs += [one.h] * times
            rows += [one.rows] * times
            after.append((one.after + base + widths * copies[:, :, None])
                         .reshape(-1, 4))
        step, base = step + times * tape.steps, base + times * widths
    if not offsets:
        return counts, [()] * len(part), 0
    offsets, hs, rows, after = map(np.concatenate,
                                   (offsets, hs, rows, after))
    lost, n = inj.draw_retries(inj.superstep + offsets, labels)
    if not lost.size:
        return counts, [()] * len(part), 0
    which = np.repeat(lost, n)          # each retry's exchange
    drawn = len(which)
    costs = run.machine.retry_comm_times(
        hs[which], np.arange(drawn) - np.repeat(n.cumsum() - n, n),
        inj.plan.message_loss.backoff)
    rows, after = rows[which], after[which]
    # a retry's terms go after its exchange's and the retries before it:
    # a column of its own in the run's totals, and in its exchange's
    # timers' rows after the retries of that timer key before it
    sums[0] = _columns_inserted(sums[0], after[:, 0] + np.arange(drawn),
                                costs)
    sums[1] = _inserted(sums[1], rows, after[:, 1:] + _ranks(
        rows[:, 0])[:, None], costs[:, None])
    counts = counts + np.bincount(rows.ravel(), minlength=len(counts))
    # per tape, its lossy rows counted from its first superstep
    pairs = np.empty((len(lost), 2), dtype=np.intp)
    pairs[:, 0], pairs[:, 1] = offsets[lost], n
    cuts = np.searchsorted(pairs[:, 0], starts).tolist() + [len(lost)]
    retried = []
    for start, a, b in zip(starts, cuts, cuts[1:]):
        pairs[a:b, 0] -= start
        retried.append(pairs[a:b])
    return counts, retried, drawn


def _ranks(keys: np.ndarray) -> np.ndarray:
    """Each entry's count of the entries before it with its key."""
    order = np.argsort(keys, kind="stable")
    grouped = keys[order]
    ranks = np.empty_like(order)
    ranks[order] = np.arange(len(keys)) - np.searchsorted(grouped, grouped)
    return ranks


def _columns_inserted(terms: np.ndarray, slots: np.ndarray,
                      values: np.ndarray) -> np.ndarray:
    """``terms`` with a column of ``values[i]`` at column ``slots[i]``
    (in the result), the columns after each moved right."""
    height, width = terms.shape
    kept = np.ones(width + len(slots), dtype=bool)
    kept[slots] = False
    out = np.empty((height, len(kept)))
    out[:, kept] = terms
    out[:, slots] = values
    return out


def _inserted(terms: np.ndarray, rows: np.ndarray, slots: np.ndarray,
              values: np.ndarray) -> np.ndarray:
    """``terms`` with ``values`` at columns ``slots`` of rows ``rows`` (the
    values broadcast to them) and the terms after each moved right, the
    rows zero-padded to the longest: only the drawn retries lengthen an
    accumulate."""
    height, width = terms.shape
    extra = np.bincount(rows.ravel(), minlength=height)
    pad = extra.max()
    kept = np.empty((height, width + pad), dtype=bool)
    kept[:, :width] = True
    kept[:, width:] = np.arange(pad) < extra[:, None]
    at = rows * (width + pad) + slots
    kept.ravel()[at] = False
    out = np.zeros(kept.shape)
    out[kept] = terms.ravel()
    out.ravel()[at] = values
    return out
