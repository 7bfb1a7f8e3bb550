"""First-class fault model for the simulated distributed solver.

The paper's story is CG+MG on capability-scale machines, where
stragglers, heterogeneous nodes, lost messages and outright node
failures are the steady state.  This module makes those scenarios a
declarative, *deterministic* input to the simulated runs:

* a :class:`FaultPlan` — JSON-loadable and schema-validated — declares
  **stragglers** (transient or permanent per-node slowdown windows),
  **heterogeneous node speeds**, **message loss** on exchanges
  (priced as bounded retry/backoff supersteps) and **node crashes** at
  a given superstep, plus the checkpoint cadence recovery relies on;

* a :class:`FaultInjector` executes the plan against one run: it
  tracks which nodes are alive, scales the BSP work term so the
  max-over-nodes superstep price reflects the laggard, keys each lossy
  exchange's retry count by the seed and the exchange's ordinal (same
  seed → identical injected events, bit for bit), and raises
  :class:`NodeCrash` when a planned failure reaches its superstep.

Recovery itself lives in :mod:`repro.dist.simulate`: the engine
checkpoints CG state every ``checkpoint.interval`` iterations (priced
as a gather superstep), and on a crash rolls back to the last
checkpoint, repartitions the problem onto the survivors with the
existing partitioners, and resumes — so a crashed run completes with a
correct residual and an honest time-to-solution.

Faults change **pricing and the execution path only** — never the
numerics: every fault-free run is bit-identical to a run constructed
with ``faults=None``, and a recovered run's residual history equals
the clean run's exactly (CG state is global; partitioning only decides
who communicates what).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

import numpy as np

from repro.util.errors import InvalidValue


class NodeCrash(Exception):
    """Control-flow signal: a planned node failure reached its superstep.

    Raised by :meth:`FaultInjector.check_crash` out of the pricing
    engine; caught by ``run_cg``, which rolls back and
    repartitions.  Deliberately *not* an :class:`InvalidValue` — a
    crash is a simulated event, not a caller mistake.
    """

    def __init__(self, node: int, superstep: int):
        super().__init__(f"node {node} crashed at superstep {superstep}")
        self.node = node
        self.superstep = superstep


# ---------------------------------------------------------------------------
# the declarative plan
# ---------------------------------------------------------------------------

def _require_keys(doc: Mapping[str, Any], allowed: Sequence[str],
                  where: str) -> None:
    if not isinstance(doc, Mapping):
        raise InvalidValue(f"{where} must be an object, got {type(doc).__name__}")
    unknown = set(doc) - set(allowed)
    if unknown:
        raise InvalidValue(
            f"unknown key(s) {sorted(unknown)} in {where}; "
            f"allowed: {sorted(allowed)}"
        )


def _as_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidValue(f"{where} must be an integer, got {value!r}")
    return value


def _section(doc: Mapping[str, Any], key: str, kind: type) -> Any:
    """``doc[key]``, empty when absent, which must be a ``kind``."""
    value = doc.get(key, kind())
    if not isinstance(value, kind):
        raise InvalidValue(f"{key} must be a {kind.__name__}, got {value!r}")
    return value


def _as_number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidValue(f"{where} must be a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class Straggler:
    """One node running slow: its work term is scaled by ``factor``
    for every superstep in ``[start_superstep, end_superstep)``
    (``end_superstep=None`` makes the slowdown permanent)."""

    node: int
    factor: float
    start_superstep: int = 0
    end_superstep: Optional[int] = None

    def __post_init__(self):
        if self.node < 0:
            raise InvalidValue(f"straggler node must be >= 0, got {self.node}")
        if not 1.0 <= self.factor < math.inf:
            raise InvalidValue(
                f"straggler factor must be a finite number >= 1 "
                f"(a slowdown), got {self.factor}"
            )
        if self.start_superstep < 0:
            raise InvalidValue(
                f"start_superstep must be >= 0, got {self.start_superstep}")
        if (self.end_superstep is not None
                and self.end_superstep <= self.start_superstep):
            raise InvalidValue(
                f"straggler window [{self.start_superstep}, "
                f"{self.end_superstep}) is empty"
            )

    def active_at(self, superstep):
        """Is the window open at ``superstep`` (an int, or each of an
        array's)?"""
        return (self.start_superstep <= superstep) & (
            self.end_superstep is None or superstep < self.end_superstep)


@dataclass(frozen=True)
class MessageLoss:
    """Lossy exchanges: each closed exchange superstep independently
    loses its messages with probability ``rate``; every loss is re-driven
    as an extra retry superstep (full wire time plus an exponential
    ``backoff``-seconds delay), at most ``max_retries`` times."""

    rate: float
    max_retries: int = 3
    backoff: float = 2e-5

    def __post_init__(self):
        if not (0.0 <= self.rate < 1.0):
            raise InvalidValue(
                f"message-loss rate must lie in [0, 1), got {self.rate}")
        if self.max_retries < 1:
            raise InvalidValue(
                f"max_retries must be >= 1, got {self.max_retries}")
        if not 0 <= self.backoff < math.inf:
            raise InvalidValue(
                f"backoff must be a finite number >= 0, got {self.backoff}")


@dataclass(frozen=True)
class Crash:
    """Node ``node`` fails permanently at superstep ``superstep``."""

    node: int
    superstep: int

    def __post_init__(self):
        if self.node < 0:
            raise InvalidValue(f"crash node must be >= 0, got {self.node}")
        if self.superstep < 0:
            raise InvalidValue(
                f"crash superstep must be >= 0, got {self.superstep}")


@dataclass(frozen=True)
class Checkpoint:
    """Snapshot CG state every ``interval`` iterations.

    Each snapshot is priced as a gather superstep (every node ships its
    share of the three CG vectors to node 0, which persists them to
    stable storage) — the overhead a crashed run's recovery amortises.
    """

    interval: int

    def __post_init__(self):
        if self.interval < 1:
            raise InvalidValue(
                f"checkpoint interval must be >= 1, got {self.interval}")


_PLAN_KEYS = ("seed", "stragglers", "node_speeds", "message_loss",
              "crashes", "checkpoint")


@dataclass(frozen=True)
class FaultPlan:
    """The declarative fault scenario one resilient run executes.

    ``node_speeds`` maps node id -> relative speed (1.0 = the machine
    baseline; 0.5 = half speed).  All node ids refer to the *initial*
    rank numbering; after a crash the survivors keep their original
    ids for fault-plan purposes, so a straggler stays a straggler
    across a repartition.
    """

    seed: int = 0
    stragglers: Tuple[Straggler, ...] = ()
    node_speeds: Mapping[int, float] = field(default_factory=dict)
    message_loss: Optional[MessageLoss] = None
    crashes: Tuple[Crash, ...] = ()
    checkpoint: Optional[Checkpoint] = None

    def __post_init__(self):
        if self.seed < 0:
            raise InvalidValue(f"seed must be >= 0, got {self.seed}")
        for node, speed in self.node_speeds.items():
            if node < 0:
                raise InvalidValue(f"node_speeds node must be >= 0, got {node}")
            if not 0 < speed < math.inf:
                raise InvalidValue(f"node_speeds[{node}] must be a finite "
                                   f"positive number, got {speed}")

    def active(self) -> bool:
        """Does this plan change the run at all?  An empty plan keeps
        the engine on the bit-identical fault-free path."""
        return bool(self.stragglers or self.node_speeds or self.crashes
                    or self.message_loss is not None
                    or self.checkpoint is not None)

    def validate_for(self, nprocs: int) -> None:
        """Check every node reference fits a run of ``nprocs`` nodes and
        that the planned crashes leave at least one survivor."""
        for st in self.stragglers:
            if st.node >= nprocs:
                raise InvalidValue(
                    f"straggler node {st.node} out of range for "
                    f"{nprocs} nodes")
        for node in self.node_speeds:
            if node >= nprocs:
                raise InvalidValue(
                    f"node_speeds node {node} out of range for "
                    f"{nprocs} nodes")
        crashed = set()
        for crash in self.crashes:
            if crash.node >= nprocs:
                raise InvalidValue(
                    f"crash node {crash.node} out of range for "
                    f"{nprocs} nodes")
            crashed.add(crash.node)
        if len(crashed) >= nprocs:
            raise InvalidValue(
                f"plan crashes all {nprocs} nodes — no survivors to "
                f"recover onto")

    # --- (de)serialisation ---------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"seed": self.seed}
        if self.stragglers:
            doc["stragglers"] = [
                {k: v for k, v in (
                    ("node", st.node), ("factor", st.factor),
                    ("start_superstep", st.start_superstep),
                    ("end_superstep", st.end_superstep),
                ) if v is not None}
                for st in self.stragglers
            ]
        if self.node_speeds:
            doc["node_speeds"] = {str(k): v
                                  for k, v in sorted(self.node_speeds.items())}
        if self.message_loss is not None:
            ml = self.message_loss
            doc["message_loss"] = {"rate": ml.rate,
                                   "max_retries": ml.max_retries,
                                   "backoff": ml.backoff}
        if self.crashes:
            doc["crashes"] = [{"node": c.node, "superstep": c.superstep}
                              for c in self.crashes]
        if self.checkpoint is not None:
            doc["checkpoint"] = {"interval": self.checkpoint.interval}
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "FaultPlan":
        _require_keys(doc, _PLAN_KEYS, "fault plan")
        stragglers = []
        for i, st in enumerate(_section(doc, "stragglers", list)):
            where = f"stragglers[{i}]"
            _require_keys(st, ("node", "factor", "start_superstep",
                               "end_superstep"), where)
            end = st.get("end_superstep")
            stragglers.append(Straggler(
                node=_as_int(st.get("node"), f"{where}.node"),
                factor=_as_number(st.get("factor"), f"{where}.factor"),
                start_superstep=_as_int(st.get("start_superstep", 0),
                                        f"{where}.start_superstep"),
                end_superstep=(None if end is None else
                               _as_int(end, f"{where}.end_superstep")),
            ))
        speeds: Dict[int, float] = {}
        for key, value in _section(doc, "node_speeds", dict).items():
            try:
                node = int(key)
            except (TypeError, ValueError):
                raise InvalidValue(
                    f"node_speeds key {key!r} is not a node id")
            if node in speeds:
                raise InvalidValue(f"node_speeds names node {node} twice")
            speeds[node] = _as_number(value, f"node_speeds[{key}]")
        loss = None
        if doc.get("message_loss") is not None:
            ml = doc["message_loss"]
            _require_keys(ml, ("rate", "max_retries", "backoff"),
                          "message_loss")
            loss = MessageLoss(
                rate=_as_number(ml.get("rate"), "message_loss.rate"),
                max_retries=_as_int(ml.get("max_retries", 3),
                                    "message_loss.max_retries"),
                backoff=_as_number(ml.get("backoff", 2e-5),
                                   "message_loss.backoff"),
            )
        crashes = []
        for i, c in enumerate(_section(doc, "crashes", list)):
            where = f"crashes[{i}]"
            _require_keys(c, ("node", "superstep"), where)
            crashes.append(Crash(
                node=_as_int(c.get("node"), f"{where}.node"),
                superstep=_as_int(c.get("superstep"), f"{where}.superstep"),
            ))
        checkpoint = None
        if doc.get("checkpoint") is not None:
            ck = doc["checkpoint"]
            _require_keys(ck, ("interval",), "checkpoint")
            checkpoint = Checkpoint(
                interval=_as_int(ck.get("interval"), "checkpoint.interval"))
        return cls(
            seed=_as_int(doc.get("seed", 0), "seed"),
            stragglers=tuple(stragglers),
            node_speeds=speeds,
            message_loss=loss,
            crashes=tuple(crashes),
            checkpoint=checkpoint,
        )

    @classmethod
    def from_json(cls, path: str) -> "FaultPlan":
        """Load and schema-validate a plan file; every failure mode —
        missing file, unparsable JSON, schema violation — raises
        :class:`InvalidValue` with a one-line message."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise InvalidValue(f"cannot read fault plan {path!r}: {exc}")
        except json.JSONDecodeError as exc:
            raise InvalidValue(f"fault plan {path!r} is not valid JSON: {exc}")
        return cls.from_dict(doc)


# ---------------------------------------------------------------------------
# events and the injector
# ---------------------------------------------------------------------------

@dataclass
class FaultEvent:
    """One injected fault, as it landed in the run."""

    kind: str                      # straggler | node_speeds | message_loss
    superstep: int                 # | crash | checkpoint | recovery
    node: Optional[int] = None
    detail: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"kind": self.kind, "superstep": self.superstep}
        if self.node is not None:
            doc["node"] = self.node
        if self.detail:
            doc["detail"] = dict(self.detail)
        return doc


@functools.lru_cache(maxsize=None)
def _lowest(rate: float, cap: int) -> np.ndarray:
    """The words under which an exchange is re-driven ``k`` or more times,
    for ``k`` from ``cap`` down to 1: the lowest ``rate**k`` of the
    64-bit range (read only: it is shared)."""
    words = np.array([int(rate ** k * 2.0 ** 64) for k in range(cap, 0, -1)],
                     dtype=np.uint64)
    words.flags.writeable = False
    return words


def losses(supersteps, labels: Sequence[Optional[str]],
           retries: np.ndarray) -> List[FaultEvent]:
    """The message-loss events of the exchanges closing at superstep
    ``supersteps[i]``, each re-driven ``retries[i]`` times."""
    return [FaultEvent("message_loss", step,
                       detail={"label": label, "retries": n})
            for step, label, n in zip(np.asarray(supersteps).tolist(),
                                      labels, retries.tolist())]


class FaultInjector:
    """Executes one :class:`FaultPlan` against one resilient run.

    Nothing is drawn in sequence: a lossy exchange's retries are a pure
    function of ``plan.seed`` and its ordinal among the run's lossy
    exchanges (:meth:`retry_counts`), so the same plan against the same
    run yields byte-identical events and pricing however it is booked.
    The injector survives recovery: the survivor run keeps using it, so
    superstep numbering, the ordinals, the alive set and the event log
    are continuous across repartitions.
    """

    def __init__(self, plan: FaultPlan, nprocs: int):
        plan.validate_for(nprocs)
        self.plan = plan
        self.nprocs = nprocs
        self.alive = set(range(nprocs))
        self.superstep = 0            # next superstep index to be priced
        self.exchanges = 0            # lossy ones booked: the next's ordinal
        self._events: List[FaultEvent] = []
        # since a block was booked: events and blocks (what lists
        # theirs), in order
        self._booked: list = []
        self._counts: Dict[str, int] = {}   # events recorded, per kind
        self.recoveries = 0
        self.exchange_retries = 0
        self._pending_crashes = sorted(plan.crashes,
                                       key=lambda c: c.superstep)
        self._mentioned = ({st.node for st in plan.stragglers}
                           | set(plan.node_speeds))
        self._announced: set = set()
        #: optional callback fired on every recorded event — the engine
        #: hangs trace events and metric increments off it
        self.on_event = None

    # --- bookkeeping ---------------------------------------------------------
    @property
    def alive_count(self) -> int:
        return len(self.alive)

    def record(self, kind: str, superstep: int,
               node: Optional[int] = None, **detail: Any) -> FaultEvent:
        event = FaultEvent(kind=kind, superstep=superstep, node=node,
                           detail=detail)
        # behind any block not yet listed, so the order holds
        (self._booked or self._events).append(event)
        self._counted(kind, 1)
        if self.on_event is not None:
            self.on_event(event)
        return event

    def _counted(self, kind: str, n: int) -> None:
        self._counts[kind] = self._counts.get(kind, 0) + n

    @property
    def events(self) -> List[FaultEvent]:
        """Every recorded event, in order (booked blocks listed)."""
        if self._booked:
            booked, self._booked = self._booked, []
            for entry in booked:
                if isinstance(entry, FaultEvent):
                    self._events.append(entry)
                else:
                    self._events.extend(entry())
        return self._events

    def book(self, events: Callable[[], List[FaultEvent]],
             counts: Mapping[str, int]) -> None:
        """Record a block of events, listed by ``events()`` when
        :attr:`events` is read (now, one by one through :meth:`record`,
        when :attr:`on_event` is set); ``counts``: how many of each kind,
        in the order the kinds first land."""
        if self.on_event is not None:
            for event in events():
                self.record(event.kind, event.superstep, event.node,
                            **event.detail)
            return
        self._booked.append(events)
        for kind, n in counts.items():
            self._counted(kind, n)

    def announce_speeds(self) -> None:
        """Record the heterogeneous-speed assignment (once per run)."""
        if self.plan.node_speeds:
            self.record("node_speeds", 0, speeds={
                str(k): v for k, v in sorted(self.plan.node_speeds.items())})

    def injected_counts(self) -> Dict[str, int]:
        """Recorded events per kind, in the order each kind first landed."""
        return dict(self._counts)

    @property
    def next_crash(self) -> Optional[Crash]:
        """The planned crash that fires next: the first pending one (a
        dead node's are dropped as it dies; it fires at the first
        superstep from its own)."""
        return self._pending_crashes[0] if self._pending_crashes else None

    def work_factors(self, supersteps: np.ndarray) -> Tuple[np.ndarray, list]:
        """The multiplier on the BSP work term at each of ``supersteps``,
        and the stragglers it slows for the first time.

        The work term is already the max-over-nodes byte count, so the
        honest degraded price is the *slowest* surviving node's factor:
        ``max over alive n of (straggler factors of n at s) / speed(n)``
        (1.0 for every node the plan does not mention), one array
        expression per node in that order of operations.  A straggler
        first active at ``supersteps[i]`` is announced as ``(i, event
        keywords)``, once per run.
        """
        ones = np.ones(len(supersteps))
        candidates = [ones] if self.alive - self._mentioned else []
        announced = []
        for node in self._mentioned & self.alive:
            f = ones
            for idx, st in enumerate(self.plan.stragglers):
                if st.node != node:
                    continue
                active = st.active_at(supersteps)
                f = np.where(active, f * st.factor, f)
                if idx not in self._announced and active.any():
                    self._announced.add(idx)
                    at = int(active.argmax())
                    announced.append((at, dict(
                        superstep=int(supersteps[at]), node=node,
                        factor=st.factor, end_superstep=st.end_superstep)))
            candidates.append(f / self.plan.node_speeds.get(node, 1.0))
        return np.maximum.reduce(candidates), announced

    def retry_counts(self, m: int, first: int = 0) -> np.ndarray:
        """How often each of the ``m`` lossy exchanges from ordinal
        ``first`` (among the run's, in booking order) is re-driven.

        Each attempt is lost with probability ``rate``, up to
        ``max_retries`` resends (delivery is never abandoned, only
        priced): ``k`` retries with probability ``rate**k * (1 - rate)``
        below the cap, the cap with ``rate**max_retries``.  Exchange
        ``e`` reads one uniform 64-bit word, output ``e`` of SplitMix64
        (Steele et al., OOPSLA'14) seeded with the plan's seed: a
        counter-based draw (Salmon et al., SC'11), so blocks of exchanges
        draw in any order and a crash cut gives nothing back."""
        loss = self.plan.message_loss
        words = np.arange(first + 1, first + m + 1, dtype=np.uint64)
        words *= np.uint64(0x9E3779B97F4A7C15)
        words += np.uint64(self.plan.seed % 2 ** 64)
        for shift, factor in ((30, 0xBF58476D1CE4E5B9),
                              (27, 0x94D049BB133111EB)):
            words ^= words >> np.uint64(shift)
            words *= np.uint64(factor)
        words ^= words >> np.uint64(31)
        return loss.max_retries - _lowest(loss.rate, loss.max_retries
                                          ).searchsorted(words, side="right")

    def check_crash(self, superstep: int) -> None:
        """Raise :class:`NodeCrash` when a planned failure is due.

        Crashes are detected at the superstep barrier — the superstep
        itself is already priced — and each planned crash fires at most
        once (a node's later ones are dropped when it dies).
        """
        crash = self.next_crash
        if crash is not None and crash.superstep <= superstep:
            self.alive.discard(crash.node)
            self._pending_crashes = [c for c in self._pending_crashes
                                     if c.node in self.alive]
            self.record("crash", superstep, node=crash.node,
                        planned_superstep=crash.superstep,
                        survivors=len(self.alive))
            raise NodeCrash(crash.node, superstep)
