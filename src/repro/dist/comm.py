"""Message accounting for the simulated distributed backends.

A :class:`CommTracker` stands in for the network: simulated executors
:meth:`send` point-to-point messages (or use the collective helpers) and
close each BSP superstep with :meth:`sync`.  Nothing is transmitted —
the tracker only records who moved how many bytes — but the accounting
follows BSP conventions:

* a self-send is free (it is a local copy);
* empty messages are elided (no zero-byte packets on the wire);
* the **h-relation** of a superstep is the largest per-node traffic,
  ``max over nodes of max(sent, received)`` — the quantity the BSP cost
  model charges for.

Labels attach semantics to the trace: sends and syncs can be tagged
(``"spmv"``, ``"rbgs_mxv"``, ``"halo"``, ...) so experiments can ask
"how many supersteps did the smoother cost" without re-running.

Split-phase supersteps
----------------------

Real halo exchanges are posted asynchronously and waited on after some
independent local work (``MPI_Isend``/``MPI_Wait``).  The tracker
models that with :meth:`post` / :meth:`wait`: ``post`` turns the sends
recorded so far into an in-flight :class:`InFlightExchange`, local
compute performed while it is outstanding is tagged onto the handle
with :meth:`InFlightExchange.overlap`, and ``wait`` closes it into a
:class:`SuperstepStats` whose ``overlapped_work`` the BSP model can
hide behind the wire time.  ``sync`` remains the eager path and is
exactly ``wait(post())`` with nothing overlapped.

Exchange plans
--------------

A solver closes the same few patterns thousands of times (a level's
SpMV halo, one halo per colour, an allgather, ...).  :meth:`freeze`
turns the sends recorded so far — through the ordinary :meth:`send`
API, so elision and rank checks have one definition — into a read-only
:class:`ExchangePlan`; :meth:`replay` makes it the pending superstep in
O(1): no per-message call, no allocation, ``h`` computed once.  A plan
is valid for the node count it was recorded on and nothing else.

Booked blocks
-------------

A run that books a recorded stretch again closes the same supersteps
in the same order.  :meth:`CommTracker.book` takes them as one
:class:`StepBlock` — frozen rows whose byte and label counts are
computed once — booked once or ``times`` over in a row, plus the
re-drives of its lossy rows as ``(row, retries)`` pairs: the counts
move at once (a block's times its copies, the re-drives' in arrays),
and the rows become :class:`SuperstepStats` only when
:attr:`CommTracker.supersteps` is read.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.util.errors import InvalidValue

#: Recognised communication modes for executors and simulated runs.
COMM_MODES = ("eager", "overlap")

#: Environment variable forcing a communication mode globally
#: (mirrors ``REPRO_SUBSTRATE``): truthy values select split-phase
#: overlapped exchanges everywhere a mode is not pinned explicitly.
OVERLAP_ENV = "REPRO_OVERLAP"

_TRUTHY = ("1", "true", "on", "yes", "overlap")
_FALSY = ("", "0", "false", "off", "no", "eager")


def resolve_comm_mode(mode: Optional[str] = None) -> str:
    """Resolve an explicit mode, the ``REPRO_OVERLAP`` force, or eager.

    Precedence mirrors the substrate registry: an explicit ``mode``
    wins, otherwise the environment force applies, otherwise the
    default-compatible ``"eager"``.
    """
    if mode is not None:
        if mode not in COMM_MODES:
            raise InvalidValue(
                f"unknown comm mode {mode!r}, expected one of {COMM_MODES}"
            )
        return mode
    raw = os.environ.get(OVERLAP_ENV, "").strip().lower()
    if raw in _TRUTHY:
        return "overlap"
    if raw in _FALSY:
        return "eager"
    raise InvalidValue(
        f"unrecognised {OVERLAP_ENV}={raw!r}: use 1/0, on/off, "
        f"overlap/eager"
    )


@dataclass(frozen=True, eq=False)
class ExchangePlan:
    """One static exchange pattern: read-only per-node byte counts,
    their totals computed once however often the plan is replayed."""

    sent: np.ndarray           # bytes sent per node
    received: np.ndarray       # bytes received per node
    messages: int              # point-to-point messages (self/empty elided)

    def __post_init__(self):
        self.sent.flags.writeable = self.received.flags.writeable = False

    @cached_property
    def total_bytes(self) -> int:
        return int(self.sent.sum())

    @cached_property
    def h(self) -> int:
        """The h-relation: the busiest node's traffic in either direction."""
        return int(max(self.sent.max(), self.received.max()))


@dataclass
class SuperstepStats:
    """The closed ledger of one BSP superstep."""

    index: int
    plan: ExchangePlan         # what moved (shared with every replay of it)
    label: Optional[str] = None
    #: Local-compute bytes tagged as running while this exchange was in
    #: flight (only split-phase supersteps carry a nonzero value); the
    #: BSP model may hide wire time behind them.
    overlapped_work: float = 0.0
    #: True when the superstep was closed by ``post``/``wait`` rather
    #: than an eager ``sync``.
    posted: bool = False
    #: index of the superstep this one re-drives (fault injection: a
    #: lost exchange is resent as an extra superstep); None normally.
    retry_of: Optional[int] = None

    sent = property(lambda self: self.plan.sent)
    received = property(lambda self: self.plan.received)
    messages = property(lambda self: self.plan.messages)
    total_bytes = property(lambda self: self.plan.total_bytes)
    h = property(lambda self: self.plan.h)


class StepBlock:
    """Closed supersteps to book again as one: their ``(plan, label,
    overlapped_work, posted)`` rows, and what they add to a tracker's
    bytes and label counts, computed once however often it is booked."""

    def __init__(self, rows: Sequence[tuple]):
        self.rows = tuple(rows)
        labels = [row[1] for row in self.rows]
        self.row_bytes = np.array([row[0].total_bytes for row in self.rows],
                                  dtype=np.int64)
        # each row's label as its index in ``labels`` (None: the last)
        self.labels = list(dict.fromkeys(label for label in labels
                                         if label is not None))
        index = {label: i for i, label in enumerate(self.labels)}
        self.row_labels = np.array([index.get(label, len(self.labels))
                                    for label in labels], dtype=np.intp)

    def head(self, k: int) -> "StepBlock":
        """The block of the first ``k`` rows (a crash cuts a copy)."""
        head = StepBlock.__new__(StepBlock)
        head.rows, head.labels = self.rows[:k], self.labels
        head.row_bytes, head.row_labels = (self.row_bytes[:k],
                                           self.row_labels[:k])
        return head

    @cached_property
    def total_bytes(self) -> int:
        return int(self.row_bytes.sum())

    @cached_property
    def label_syncs(self) -> Dict[str, int]:
        syncs = np.bincount(self.row_labels, minlength=len(self.labels) + 1)
        return {label: n for label, n in zip(self.labels, syncs.tolist())
                if n}

    @cached_property
    def label_bytes(self) -> Dict[str, int]:
        """Bytes per label; a label that moved nothing gains no entry."""
        moved = np.bincount(self.row_labels, weights=self.row_bytes,
                            minlength=len(self.labels) + 1)
        return {label: int(b) for label, b in zip(self.labels,
                                                  moved.tolist()) if b}


def _expand(first: int, blocks: list,
            retried: Sequence[Tuple[int, int]]) -> Iterator[SuperstepStats]:
    """``blocks``' rows, each ``(block, times)`` ``times`` over in turn, as
    supersteps from index ``first``, superstep ``at`` (counted over all
    of them) of each ``(at, n)`` in ``retried`` followed by its ``n``
    re-drives."""
    again, index, at = dict(_pairs(retried).tolist()), first, 0
    for block, times in blocks:
        for row in block.rows * times:
            yield SuperstepStats(index, *row)
            for k in range(1, again.get(at, 0) + 1):
                yield SuperstepStats(index + k, *row[:2], retry_of=index)
            index += 1 + again.get(at, 0)
            at += 1


def _pairs(retried) -> np.ndarray:
    """``(at, n)`` pairs, a sequence or an array, as an ``(m, 2)`` array."""
    return np.asarray(retried, dtype=np.intp).reshape(-1, 2)


@dataclass(eq=False)
class InFlightExchange:
    """A posted, not-yet-waited exchange (the ``MPI_Request`` analogue)."""

    plan: ExchangePlan
    label: Optional[str] = None
    overlapped_work: float = 0.0
    closed: bool = field(default=False, repr=False)

    def overlap(self, work_bytes: float) -> "InFlightExchange":
        """Tag ``work_bytes`` of local compute as overlapping this
        exchange's flight time (accumulates across calls)."""
        if work_bytes < 0:
            raise InvalidValue(f"negative overlapped work: {work_bytes}")
        if self.closed:
            raise InvalidValue("cannot overlap work on a waited exchange")
        self.overlapped_work += float(work_bytes)
        return self


class CommTracker:
    """Records sends and supersteps for ``nprocs`` simulated nodes.

    Supports use as a context manager — ``with CommTracker(p) as t:`` —
    which verifies on exit that no posted exchange was left un-waited
    (a leaked ``wait`` is a deadlock in a real runtime).

    Trace events go to the :mod:`repro.obs` context active at
    construction (or :meth:`reset`): no superstep reads the environment.
    A booked :class:`StepBlock` emits none (untraced runs book them).

    ``num_syncs``, ``total_bytes`` and the label counts are running
    counts; what :meth:`book` took adds its bytes and label counts, and
    expands into :attr:`supersteps`, only when they are read.
    """

    def __init__(self, nprocs: int):
        if nprocs < 1:
            raise InvalidValue(f"need at least one process, got {nprocs}")
        self.nprocs = nprocs
        zero = np.zeros(nprocs, dtype=np.int64)
        self._empty = ExchangePlan(zero, zero, 0)
        self.reset()

    def reset(self) -> None:
        """Forget everything: supersteps, labels, pending sends and
        in-flight exchanges — the tracker is as freshly constructed."""
        self._steps: List[SuperstepStats] = []
        # closed since a block was booked, not yet expanded: supersteps
        # and (first index, blocks, retried) entries, in order
        self._booked: list = []
        #: closed supersteps, kept as each closes
        self.num_syncs = 0
        self._total_bytes = 0
        self._label_bytes: Dict[str, int] = {}
        self._label_syncs: Dict[str, int] = {}
        # booked (blocks, retried) whose bytes and labels are not counted
        self._uncounted: list = []
        self._in_flight: List[InFlightExchange] = []
        # the pending superstep: a frozen plan (nothing yet, or exactly
        # one replay) until a send thaws it into writable accumulators
        self._plan: Optional[ExchangePlan] = self._empty
        self._obs = obs.current()

    def _thaw(self) -> None:
        plan, self._plan = self._plan, None
        self._sent = plan.sent.copy()
        self._received = plan.received.copy()
        self._messages = plan.messages

    # --- context manager ----------------------------------------------------
    def __enter__(self) -> "CommTracker":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None and self._in_flight:
            raise InvalidValue(
                f"{len(self._in_flight)} posted exchange(s) never waited on"
            )
        return False

    # --- point-to-point -----------------------------------------------------
    def send(self, src: int, dst: int, nbytes: int,
             label: Optional[str] = None) -> None:
        """Record ``nbytes`` moving from node ``src`` to node ``dst``."""
        if not (0 <= src < self.nprocs) or not (0 <= dst < self.nprocs):
            raise InvalidValue(
                f"rank out of range: {src}->{dst} with {self.nprocs} procs"
            )
        if nbytes < 0:
            raise InvalidValue(f"negative message size: {nbytes}")
        if src == dst or nbytes == 0:
            return
        if self._plan is not None:
            self._thaw()
        self._sent[src] += nbytes
        self._received[dst] += nbytes
        self._messages += 1
        if label is not None:
            self._label_bytes[label] = self._label_bytes.get(label, 0) + nbytes

    # --- collectives --------------------------------------------------------
    def broadcast(self, root: int, nbytes: int,
                  label: Optional[str] = None) -> None:
        """``root`` sends ``nbytes`` to every other node."""
        for dst in range(self.nprocs):
            self.send(root, dst, nbytes, label=label)

    def allgather(self, sizes, label: Optional[str] = None) -> None:
        """Every node sends its share to every other node.

        ``sizes[k]`` is the number of bytes node ``k`` contributes; after
        the superstep every node holds all shares (the ALP backend's
        vector replication before each ``mxv``).
        """
        sizes = np.asarray(sizes)
        if sizes.shape[0] != self.nprocs:
            raise InvalidValue(
                f"allgather needs one share per node: got {sizes.shape[0]}, "
                f"expected {self.nprocs}"
            )
        for src in range(self.nprocs):
            nbytes = int(sizes[src])
            for dst in range(self.nprocs):
                self.send(src, dst, nbytes, label=label)

    def allreduce_scalar(self, nbytes: int = 8,
                         label: Optional[str] = None) -> None:
        """All-to-all exchange of one scalar (CG's dot products)."""
        self.allgather([nbytes] * self.nprocs, label=label)

    # --- exchange plans -----------------------------------------------------
    def freeze(self) -> ExchangePlan:
        """Take the sends recorded so far as a read-only plan; the
        pending superstep restarts empty.  Labels are given at
        :meth:`replay`, so one pattern serves every label it runs under."""
        plan = self._plan
        if plan is None:
            plan = ExchangePlan(self._sent, self._received, self._messages)
        self._plan = self._empty
        return plan

    def replay(self, plan: ExchangePlan, label: Optional[str] = None) -> None:
        """Record every message of ``plan`` at once, as if re-sent."""
        if plan.sent.shape[0] != self.nprocs:
            raise InvalidValue(f"plan recorded on {plan.sent.shape[0]} "
                               f"nodes replayed on {self.nprocs}")
        if self._plan is self._empty:
            self._plan = plan
        else:
            if self._plan is not None:
                self._thaw()
            self._sent += plan.sent
            self._received += plan.received
            self._messages += plan.messages
        if label is not None and plan.messages:
            self._label_bytes[label] = (self._label_bytes.get(label, 0)
                                        + plan.total_bytes)

    def _close(self, event: str, plan: ExchangePlan, label: Optional[str],
               **extra) -> SuperstepStats:
        """Append ``plan`` as the next closed superstep."""
        stats = SuperstepStats(self.num_syncs, plan, label, **extra)
        # behind any block not yet expanded, so the order holds
        (self._booked or self._steps).append(stats)
        self.num_syncs += 1
        self._total_bytes += plan.total_bytes
        if label is not None:
            self._label_syncs[label] = self._label_syncs.get(label, 0) + 1
        if self._obs is not None:
            self._obs.tracer.event(f"comm/{event}", "comm", {
                "index": stats.index, "label": label, "h": stats.h,
                "bytes": stats.total_bytes, "messages": stats.messages,
                **extra})
        return stats

    # --- split-phase supersteps ---------------------------------------------
    def post(self, label: Optional[str] = None) -> InFlightExchange:
        """Turn the sends recorded so far into an in-flight exchange.

        Sends recorded afterwards belong to the *next* exchange (or the
        next eager superstep).  The exchange stays open — accumulating
        overlapped-work tags — until :meth:`wait` closes it.
        """
        handle = InFlightExchange(self.freeze(), label)
        self._in_flight.append(handle)
        return handle

    def wait(self, handle: Optional[InFlightExchange] = None,
             label: Optional[str] = None) -> SuperstepStats:
        """Close a posted exchange into a superstep (FIFO by default).

        The barrier semantics are unchanged — one ``wait`` is one
        superstep boundary — but the returned stats carry the work
        tagged onto the handle while it was in flight, which the BSP
        model may hide behind the wire time.
        """
        if handle is None:
            if not self._in_flight:
                raise InvalidValue("wait() with no posted exchange")
            handle = self._in_flight[0]
        if handle.closed:
            raise InvalidValue("exchange already waited on")
        try:
            self._in_flight.remove(handle)
        except ValueError:
            raise InvalidValue("handle does not belong to this tracker")
        handle.closed = True
        return self._close(
            "wait", handle.plan, label if label is not None else handle.label,
            posted=True, overlapped_work=handle.overlapped_work)

    @property
    def in_flight(self) -> int:
        """Number of posted exchanges not yet waited on."""
        return len(self._in_flight)

    # --- eager supersteps ---------------------------------------------------
    def sync(self, label: Optional[str] = None) -> SuperstepStats:
        """Close the current superstep and return its statistics."""
        return self._close("sync", self.freeze(), label, posted=False)

    # --- fault-injected retries ----------------------------------------------
    def retry(self, stats: SuperstepStats,
              label: Optional[str] = None) -> SuperstepStats:
        """Re-drive a closed superstep's messages as an extra superstep.

        The fault model prices a lost exchange as a full resend: the
        retry moves the same bytes between the same nodes, closes its
        own barrier, and carries ``retry_of`` pointing at the original
        so traces can separate first deliveries from re-deliveries.
        Nothing is overlapped — a retry is pure exposed wire time.
        """
        label = label if label is not None else stats.label
        if label is not None:
            self._label_bytes[label] = (self._label_bytes.get(label, 0)
                                        + stats.total_bytes)
        return self._close("retry", stats.plan, label, retry_of=stats.index)

    # --- booked blocks -------------------------------------------------------
    def book(self, blocks: Sequence[Tuple[StepBlock, int]],
             retried: Sequence[Tuple[int, int]] = ()) -> None:
        """Close each ``(block, times)`` of ``blocks`` in turn, its rows
        ``times`` over, superstep ``at`` (counted over all of them) of
        each ``(at, n)`` in ``retried`` re-driven ``n`` times right after
        it as :meth:`retry` re-drives it.  The syncs count now; the bytes
        and labels when read, the rows expand into :attr:`supersteps`
        when that is."""
        blocks, retried = list(blocks), _pairs(retried) if len(retried) else ()
        self._booked.append((self.num_syncs, blocks, retried))
        self._uncounted.append((blocks, retried))
        self.num_syncs += sum(times * len(block.rows)
                              for block, times in blocks)
        if len(retried):
            self.num_syncs += int(retried[:, 1].sum())

    def _count(self) -> None:
        """Add the bytes and label counts of what was booked unread."""
        uncounted, self._uncounted = self._uncounted, []
        for blocks, retried in uncounted:
            for block, times in blocks:
                self._total_bytes += times * block.total_bytes
                for counts, grown in ((self._label_bytes, block.label_bytes),
                                      (self._label_syncs,
                                       block.label_syncs)):
                    for label, n in grown.items():
                        counts[label] = counts.get(label, 0) + times * n
            if not len(retried):
                continue
            at, n = retried.T
            # each superstep's label, as an index into the blocks' labels
            # laid end to end (None closing each block's), and its bytes
            labels, codes, moved = [], [], []
            for block, times in blocks:
                codes.append(np.tile(block.row_labels + len(labels), times))
                moved.append(np.tile(block.row_bytes, times))
                labels += block.labels + [None]
            codes = np.concatenate(codes)[at]
            moved = np.concatenate(moved)[at] * n
            self._total_bytes += int(moved.sum())
            grown = zip(labels, np.bincount(codes, weights=n).tolist(),
                        np.bincount(codes, weights=moved).tolist())
            for label, syncs, nbytes in grown:
                if syncs and label is not None:
                    self._label_bytes[label] = (
                        self._label_bytes.get(label, 0) + int(nbytes))
                    self._label_syncs[label] = (
                        self._label_syncs.get(label, 0) + int(syncs))

    @property
    def total_bytes(self) -> int:
        """Bytes every closed superstep moved."""
        self._count()
        return self._total_bytes

    @property
    def label_bytes(self) -> Dict[str, int]:
        """Bytes moved per label."""
        self._count()
        return self._label_bytes

    @property
    def label_syncs(self) -> Dict[str, int]:
        """Closed supersteps per label."""
        self._count()
        return self._label_syncs

    @property
    def supersteps(self) -> List[SuperstepStats]:
        """Every closed superstep, in order (booked blocks expanded)."""
        if self._booked:
            booked, self._booked = self._booked, []
            for entry in booked:
                if isinstance(entry, SuperstepStats):
                    self._steps.append(entry)
                else:
                    self._steps.extend(_expand(*entry))
        return self._steps

    # --- aggregates ---------------------------------------------------------
    @property
    def total_h(self) -> int:
        return sum(s.h for s in self.supersteps)

    def max_send_per_node(self) -> int:
        """The largest per-node send volume of any single superstep."""
        if not self.supersteps:
            return 0
        return int(max(s.sent.max() for s in self.supersteps))
