"""Superstep tapes: one CG iteration's accounting as the pricing walk of
:mod:`repro.dist.simulate` booked it, compiled to be booked again in
arrays.

An iteration closes the same supersteps at the same prices in every run
on the same communication record, mode, machine and preconditioner, so
the engine records the first one it walks as a :class:`Tape` and folds
the tape for every later one.  Closing compiles the recording:

* its supersteps become one :class:`~repro.dist.comm.StepBlock`, which
  the tracker takes as one entry and expands only when read;
* each running sum the walk adds to becomes one row of its terms in
  booking order, a term's column its rank in the row: the run's
  modelled, full and exposed seconds in one matrix, every timer's total
  in another (their rows are far shorter, and an accumulate costs what
  its matrix holds).

:meth:`Tape.fold` writes the run's totals into column 0 and runs one
``np.add.accumulate`` per matrix.  Accumulate adds strictly left to
right, as the walk's ``+=`` did, and a padding zero changes no total
(``x + 0.0`` is ``x``), so every total is bit-identical; ``sum`` and
``np.sum`` add pairwise and ``math.fsum`` rounds once, so all three
would not be.

Under message loss a fold first draws every exchange's seeded retries
as one block (:meth:`~repro.dist.faults.FaultInjector.draw_retries`).
A retry adds its price right after its exchange's term in each of the
exchange's six sums, so a lossy fold books from matrices that leave
``max_retries`` zero columns after every exchange's terms (built once
per tape and cap) and writes each retry into its exchange's gap.  A
clean fold keeps the gapless matrices: gaps lengthen every accumulate.
"""

from __future__ import annotations

import copy
from types import SimpleNamespace

import numpy as np

from repro.dist.comm import CommTracker, StepBlock


class Tape:
    """One CG iteration's accounting as the pricing walk booked it —
    every tick in booking order, a superstep's with its step and whether
    it was an exchange — for :meth:`fold` to book again.  Read only once
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
        self.ticks, self._cuts, self._gapped = ticks, {}, {}
        # each registry's timers in the walk's order of first ticks: a
        # registry's sums over its timers add in creation order
        self.keys = (list(dict.fromkeys(key for key, _, _ in ticks)),
                     list(dict.fromkeys(name for _, _, wire in ticks
                                        if wire for name in wire[2:4])))
        row = {key: i for i, key in enumerate(self.keys[0] + self.keys[1])}
        ranks = [0] * 3, [0] * len(row)   # terms so far, per part and row
        terms = [], []                    # (row, rank, value) per part
        steps, lossy = [], []
        for key, seconds, wire in ticks:
            # (part, row, value): the run's totals, then the timers
            sums = [(0, 0, seconds), (1, row[key], seconds)]
            if wire is not None:
                full, exposed, full_key, exposed_key, step, exchange = wire
                sums = [sums[0], (0, 1, full), (0, 2, exposed), sums[1],
                        (1, row[full_key], full),
                        (1, row[exposed_key], exposed)]
            at = []
            for part, r, value in sums:
                ranks[part][r] += 1
                at.append(ranks[part][r])
                terms[part].append((r, at[-1], value))
            if wire is None:
                continue
            if exchange and step[0].h > 0:      # may be lost and re-driven
                lossy.append((len(steps), step[1], step[0].h,
                              [r for _, r, _ in sums], at))
            steps.append(step)
        self.parts = [(tuple(map(np.array, zip(*part))), (len(n), max(n) + 1))
                      for part, n in zip(terms, ranks)]
        self.sums = self._matrices(self.parts)
        self.counts = ranks[1]              # each timer's ticks
        self.steps, self.block = len(steps), StepBlock(steps)
        self.exchanges = sum(wire[5] for _, _, wire in ticks if wire)
        self.lossy = None
        if lossy:
            offsets, labels, hs, rows, at = zip(*lossy)
            self.lossy = SimpleNamespace(
                offsets=np.array(offsets), labels=labels, h=np.array(hs),
                rows=np.array(rows), at=np.array(at))
        return self

    def fold(self, run) -> None:
        """Book the recorded iteration once more on ``run``'s state: one
        left-to-right accumulate per matrix from the run's totals adds
        every term in the walk's order, so totals stay bit-identical; the
        supersteps go to the tracker as one block.  Under message loss
        the exchanges draw their seeded retries as one block first, and
        each retry's terms land right after its exchange's."""
        state = run._state
        inj, timers = state.injector, state.folded.get(self)
        if timers is None:              # resolved once per run and tape
            timers = state.folded[self] = [
                registry.get(key) for registry, keys in zip(
                    (state.timers, state.comm_timers), self.keys)
                for key in keys]
        sums, counts, retried = None, self.counts, []
        if state.lossy and self.lossy is not None:
            sums, counts, retried = self._retried(run)
        if sums is None:
            sums = [terms.copy() for terms in self.sums]
        sums[0][:, 0] = (state.seconds, state.comm_seconds,
                         state.exposed_comm_seconds)
        sums[1][:, 0] = [timer.total for timer in timers]
        (state.seconds, state.comm_seconds, state.exposed_comm_seconds), \
            totals = (np.add.accumulate(terms, axis=1)[:, -1].tolist()
                      for terms in sums)
        for timer, total, n in zip(timers, totals, counts):
            timer.total, timer.count = total, timer.count + n
        state.tracker.book(self.block, retried)
        if inj is not None:
            inj.superstep += self.steps + sum(n for _, n in retried)

    def _retried(self, run) -> tuple:
        """Draw the retries of the tape's exchanges on ``run``'s injector:
        the sums' matrices with each retry's terms in its exchange's gap
        (None if nothing was lost), the timers' tick counts, and the
        ``(row, retries)`` the tracker books."""
        inj, lossy = run._state.injector, self.lossy
        lost, n = inj.draw_retries(inj.superstep + lossy.offsets,
                                   lossy.labels)
        if not lost.size:
            return None, self.counts, []
        loss = inj.plan.message_loss
        attempt = np.arange(n.sum()) - np.repeat(n.cumsum() - n, n)
        costs = np.array([[run.machine.retry_comm_time(h, j, loss.backoff)]
                          for h, j in zip(np.repeat(lossy.h[lost], n).tolist(),
                                          attempt.tolist())])
        sums, slots = self._gaps(loss.max_retries)
        sums = [terms.copy() for terms in sums]
        rows = np.repeat(lossy.rows[lost], n, axis=0)
        cols = np.repeat(slots[lost], n, axis=0) + attempt[:, None]
        for p, terms in enumerate(sums):    # a retry's three sums per part
            terms[rows[:, 3 * p:3 * p + 3], cols[:, 3 * p:3 * p + 3]] = costs
        counts = np.bincount(rows[:, 3:].ravel(), minlength=len(self.counts))
        return (sums, (counts + self.counts).tolist(),
                list(zip(lossy.offsets[lost].tolist(), n.tolist())))

    def _gaps(self, cap: int) -> tuple:
        """The sums' matrices with ``cap`` zero columns after each lossy
        exchange's terms, and per exchange and sum the first of them:
        where a lossy fold writes its retries (built once per cap)."""
        gaps = self._gapped.get(cap)
        if gaps is None:
            parts, slots = [], []
            for p, ((rows, ranks, values), (height, width)) in enumerate(
                    self.parts):
                mine = slice(3 * p, 3 * p + 3)
                at_rows, at = self.lossy.rows[:, mine], self.lossy.at[:, mine]
                # a term moves right by the gaps before it in its row
                shift = np.zeros((height, width + 1), dtype=np.intp)
                shift[at_rows, at + 1] = cap
                shift = shift.cumsum(axis=1)
                parts.append(((rows, ranks + shift[rows, ranks], values),
                              (height, width + shift[:, -1].max())))
                slots.append(at + shift[at_rows, at] + 1)
            gaps = self._gapped[cap] = (self._matrices(parts),
                                        np.hstack(slots))
        return gaps

    @staticmethod
    def _matrices(parts) -> list:
        """Each part's terms as a zero-padded matrix, a term at ``(row,
        rank)``."""
        sums = []
        for (rows, ranks, values), shape in parts:
            sums.append(np.zeros(shape))
            sums[-1][rows, ranks] = values
        return sums
