"""CommTracker: sends, supersteps, h-relations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dist.bsp import ARM_CLUSTER_NODE
from repro.dist.comm import CommTracker, StepBlock
from repro.dist.tape import LOCAL, POSTED, SYNC, Program, timer_layout
from repro.util.errors import InvalidValue

#: the timers a two-level solve ticks (see ``repro.dist.tape``)
LAYOUT = timer_layout(2)


class TestSend:
    def test_basic_send(self):
        t = CommTracker(3)
        t.send(0, 1, 100)
        stats = t.sync()
        assert stats.sent[0] == 100 and stats.received[1] == 100
        assert stats.messages == 1

    def test_self_send_free(self):
        t = CommTracker(2)
        t.send(0, 0, 1000)
        assert t.sync().total_bytes == 0

    def test_empty_message_elided(self):
        t = CommTracker(2)
        t.send(0, 1, 0)
        assert t.sync().messages == 0

    def test_out_of_range(self):
        t = CommTracker(2)
        with pytest.raises(InvalidValue):
            t.send(0, 2, 10)
        with pytest.raises(InvalidValue):
            t.send(-1, 0, 10)

    def test_negative_bytes(self):
        t = CommTracker(2)
        with pytest.raises(InvalidValue):
            t.send(0, 1, -5)

    def test_zero_procs_rejected(self):
        with pytest.raises(InvalidValue):
            CommTracker(0)


class TestCollectives:
    def test_broadcast(self):
        t = CommTracker(4)
        t.broadcast(1, 10)
        stats = t.sync()
        assert stats.sent[1] == 30  # 3 receivers
        assert stats.received[0] == 10

    def test_allgather(self):
        t = CommTracker(3)
        t.allgather(np.array([10, 20, 30]))
        stats = t.sync()
        np.testing.assert_array_equal(stats.sent, [20, 40, 60])
        # everyone receives everyone else's share
        np.testing.assert_array_equal(stats.received, [50, 40, 30])

    def test_allgather_size_check(self):
        t = CommTracker(3)
        with pytest.raises(InvalidValue):
            t.allgather(np.array([1, 2]))

    def test_allreduce_scalar(self):
        t = CommTracker(4)
        t.allreduce_scalar()
        stats = t.sync()
        assert stats.sent[0] == 24  # 8 bytes to 3 peers


class TestSupersteps:
    def test_h_relation(self):
        t = CommTracker(3)
        t.send(0, 1, 100)
        t.send(2, 1, 50)
        stats = t.sync()
        # node 1 receives 150 — that's the h
        assert stats.h == 150

    def test_sync_resets(self):
        t = CommTracker(2)
        t.send(0, 1, 10)
        t.sync()
        stats2 = t.sync()
        assert stats2.total_bytes == 0 and stats2.index == 1

    def test_label_accounting(self):
        t = CommTracker(2)
        t.send(0, 1, 10, label="halo")
        t.sync(label="halo")
        t.send(0, 1, 20, label="spmv")
        t.sync(label="spmv")
        assert t.label_bytes == {"halo": 10, "spmv": 20}
        assert t.label_syncs == {"halo": 1, "spmv": 1}

    def test_totals(self):
        t = CommTracker(2)
        t.send(0, 1, 10)
        t.sync()
        t.send(1, 0, 30)
        t.sync()
        assert t.total_bytes == 40
        assert t.num_syncs == 2
        assert t.total_h == 40
        assert t.max_send_per_node() == 30

    def test_empty_tracker(self):
        t = CommTracker(2)
        assert t.max_send_per_node() == 0
        assert t.total_h == 0


class TestSplitPhase:
    def test_post_wait_equals_sync(self):
        """wait(post()) with no overlap is an eager superstep."""
        t = CommTracker(3)
        t.send(0, 1, 100)
        h = t.post(label="halo")
        stats = t.wait(h)
        assert stats.h == 100 and stats.label == "halo"
        assert stats.posted and stats.overlapped_work == 0.0
        assert t.label_syncs == {"halo": 1}

    def test_sends_after_post_belong_to_next_superstep(self):
        t = CommTracker(2)
        t.send(0, 1, 10)
        h = t.post()
        t.send(0, 1, 99)          # lands in the *next* exchange
        assert t.wait(h).total_bytes == 10
        assert t.sync().total_bytes == 99

    def test_overlap_tagging_accumulates(self):
        t = CommTracker(2)
        t.send(0, 1, 10)
        h = t.post()
        h.overlap(100.0).overlap(50.0)
        assert t.wait(h).overlapped_work == 150.0

    def test_wait_fifo_default(self):
        t = CommTracker(2)
        t.send(0, 1, 1)
        first = t.post(label="a")
        t.send(0, 1, 2)
        t.post(label="b")
        stats = t.wait()          # FIFO: the "a" exchange
        assert stats.label == "a" and stats.total_bytes == 1
        assert first.closed and t.in_flight == 1
        t.wait()

    def test_wait_out_of_order(self):
        """Handles are compared by identity, never by their arrays."""
        t = CommTracker(3)
        t.send(0, 1, 5)
        first = t.post(label="a")
        t.send(1, 2, 7)
        second = t.post(label="b")
        assert t.wait(second).total_bytes == 7
        assert t.wait(first).total_bytes == 5
        assert [s.label for s in t.supersteps] == ["b", "a"]

    def test_wait_errors(self):
        t = CommTracker(2)
        with pytest.raises(InvalidValue):
            t.wait()              # nothing posted
        h = t.post()
        t.wait(h)
        with pytest.raises(InvalidValue):
            t.wait(h)             # double wait
        with pytest.raises(InvalidValue):
            h.overlap(10.0)       # overlap after wait
        other = CommTracker(2).post()
        with pytest.raises(InvalidValue):
            t.wait(other)         # foreign handle

    def test_negative_overlap_rejected(self):
        t = CommTracker(2)
        h = t.post()
        with pytest.raises(InvalidValue):
            h.overlap(-1.0)
        t.wait(h)


@st.composite
def send_lists(draw):
    """``(nprocs, label, [(src, dst, nbytes), ...])`` with self-sends,
    zero-byte messages and repeated pairs all likely."""
    nprocs = draw(st.integers(1, 9))
    rank = st.integers(0, nprocs - 1)
    sends = draw(st.lists(
        st.tuples(rank, rank, st.sampled_from([0, 0, 8, 24, 1000])),
        max_size=30))
    return nprocs, draw(st.sampled_from([None, "halo"])), sends


def _stats_fields(stats):
    return (stats.sent.tolist(), stats.received.tolist(), stats.messages,
            stats.h, stats.total_bytes, stats.overlapped_work, stats.posted,
            stats.label, stats.retry_of)


def _aggregates(t):
    return (t.label_bytes, t.label_syncs, t.total_bytes, t.total_h,
            t.num_syncs)


class TestExchangePlans:
    """A plan is the sends it was recorded from: replaying it and
    issuing them are indistinguishable once the superstep is closed."""

    @staticmethod
    def _trackers(nprocs, label, sends):
        """One tracker with the sends issued, one with their recorded
        plan replayed — both with the superstep still open."""
        spelled, replayed, scratch = (CommTracker(nprocs) for _ in range(3))
        for src, dst, nbytes in sends:
            spelled.send(src, dst, nbytes, label=label)
            scratch.send(src, dst, nbytes)
        replayed.replay(scratch.freeze(), label=label)
        return spelled, replayed

    @given(send_lists())
    @settings(max_examples=150, deadline=None)
    def test_replay_then_sync_equals_the_sends(self, case):
        _, label, _ = case
        spelled, replayed = self._trackers(*case)
        a, b = spelled.sync(label=label), replayed.sync(label=label)
        assert _stats_fields(a) == _stats_fields(b)
        assert _aggregates(spelled) == _aggregates(replayed)
        # a lost exchange re-drives the same bytes either way
        ra, rb = spelled.retry(a), replayed.retry(b)
        assert _stats_fields(ra) == _stats_fields(rb)
        assert ra.retry_of == a.index and ra.total_bytes == a.total_bytes
        assert _aggregates(spelled) == _aggregates(replayed)

    @given(send_lists(), st.sampled_from([0.0, 64.0]))
    @settings(max_examples=150, deadline=None)
    def test_replay_then_post_wait_equals_the_sends(self, case, work):
        _, label, _ = case
        spelled, replayed = self._trackers(*case)
        stats = []
        for t in (spelled, replayed):
            handle = t.post(label=label)
            if work:
                handle.overlap(work)
            stats.append(t.wait(handle))
        assert _stats_fields(stats[0]) == _stats_fields(stats[1])
        assert stats[1].posted and stats[1].overlapped_work == work
        assert _aggregates(spelled) == _aggregates(replayed)

    def test_plans_are_read_only_and_shared_without_copies(self):
        scratch = CommTracker(3)
        scratch.send(0, 1, 100)
        scratch.send(2, 1, 50)
        plan = scratch.freeze()
        assert (plan.messages, plan.total_bytes, plan.h) == (2, 150, 150)
        for array in (plan.sent, plan.received):
            with pytest.raises(ValueError):
                array[0] = 1
        t = CommTracker(3)
        t.replay(plan)
        first = t.sync()
        t.replay(plan)
        second = t.sync()
        assert first.sent is plan.sent and second.received is plan.received
        # the recording tracker starts its next superstep from nothing
        assert scratch.sync().total_bytes == 0

    def test_send_after_replay_never_writes_into_the_plan(self):
        scratch = CommTracker(3)
        scratch.send(0, 1, 100)
        plan = scratch.freeze()
        sent, received = plan.sent.copy(), plan.received.copy()
        t, spelled = CommTracker(3), CommTracker(3)
        t.replay(plan, label="halo")
        t.send(1, 2, 7, label="halo")
        spelled.send(0, 1, 100, label="halo")
        spelled.send(1, 2, 7, label="halo")
        assert (_stats_fields(t.sync(label="halo"))
                == _stats_fields(spelled.sync(label="halo")))
        assert _aggregates(t) == _aggregates(spelled)
        np.testing.assert_array_equal(plan.sent, sent)
        np.testing.assert_array_equal(plan.received, received)
        assert (plan.messages, plan.total_bytes, plan.h) == (1, 100, 100)

    def test_replays_accumulate_on_pending_sends_and_on_each_other(self):
        scratch = CommTracker(2)
        scratch.send(0, 1, 10)
        plan = scratch.freeze()
        t = CommTracker(2)
        t.send(1, 0, 5)
        t.replay(plan)
        t.replay(plan)
        stats = t.sync()
        assert stats.sent.tolist() == [20, 5] and stats.messages == 3
        assert (plan.sent.tolist(), plan.messages) == ([10, 0], 1)

    def test_plan_from_another_node_count_is_rejected(self):
        plan = CommTracker(4).freeze()
        with pytest.raises(InvalidValue, match="4 nodes replayed on 3"):
            CommTracker(3).replay(plan)


@st.composite
def step_rows(draw):
    """``(plans, rows, retried)``: a block's ``(plan, label,
    overlapped_work, posted)`` rows over three plans (one moving nothing),
    and ``(at, n)`` re-drives of some rows, as a lossy fold books them."""
    scratch = CommTracker(3)
    plans = []
    for src, nbytes in ((0, 8), (1, 0), (2, 24)):
        scratch.send(src, (src + 1) % 3, nbytes)
        plans.append(scratch.freeze())
    rows = draw(st.lists(st.tuples(
        st.sampled_from(plans), st.sampled_from([None, "halo", "dot"]),
        st.sampled_from([0.0, 16.0]), st.booleans()), min_size=1,
        max_size=12))
    rows = [(plan, label, work if posted else 0.0, posted)
            for plan, label, work, posted in rows]
    again = draw(st.dictionaries(st.integers(0, len(rows) - 1),
                                 st.integers(1, 3)))
    return plans, rows, sorted(again.items())


class TestBookedBlocks:
    """A booked block reads as its supersteps closed one by one, whatever
    closes before and after it."""

    @staticmethod
    def _walk(t, rows, retried):
        """Close ``rows`` in turn on ``t``, re-driving them as ``retried``
        says."""
        again = dict(retried)
        for at, (plan, label, work, posted) in enumerate(rows):
            t.replay(plan, label=label)
            if posted:
                stats = t.wait(t.post(label=label).overlap(work))
            else:
                stats = t.sync(label=label)
            for _ in range(again.get(at, 0)):
                t.retry(stats, label=label)

    @staticmethod
    def _read(t):
        return ([(s.index, *_stats_fields(s)) for s in t.supersteps],
                _aggregates(t))

    @given(step_rows())
    @settings(max_examples=100, deadline=None)
    def test_a_block_among_syncs_and_retries_reads_as_closed_in_turn(
            self, case):
        plans, rows, retried = case
        walked, booked = CommTracker(3), CommTracker(3)
        for t in (walked, booked):
            t.replay(plans[2], label="dot")
            t.retry(t.sync(label="dot"))
        self._walk(walked, rows, retried)
        booked.book([(StepBlock(rows), 1)], retried)
        for t in (walked, booked):
            t.replay(plans[0], label="halo")
            t.retry(t.sync(label="halo"))
        # the running counts move before anything expands
        assert (booked.num_syncs, booked.total_bytes) == (
            walked.num_syncs, walked.total_bytes)
        assert self._read(booked) == self._read(walked)

    @given(step_rows(), st.integers(1, 4), st.data())
    @settings(max_examples=100, deadline=None)
    def test_a_block_booked_k_times_reads_as_k_blocks_closed_in_turn(
            self, case, k, data):
        """``k`` copies of a block, then another block, booked as one:
        the re-drives one array, a superstep counted over all of them, as
        a stretch of replays books them."""
        plans, rows, _ = case
        other = rows[::-1]
        total = k * len(rows) + len(other)
        again = sorted(data.draw(st.dictionaries(
            st.integers(0, total - 1), st.integers(1, 3))).items())
        walked, booked = CommTracker(3), CommTracker(3)
        parts = [(copy * len(rows), rows) for copy in range(k)]
        for first, part in parts + [(k * len(rows), other)]:
            self._walk(walked, part, [(at - first, n) for at, n in again
                                      if first <= at < first + len(part)])
        booked.book([(StepBlock(rows), k), (StepBlock(other), 1)],
                    np.array(again, dtype=np.intp).reshape(-1, 2))
        # the running counts move before anything expands
        assert (booked.num_syncs, booked.total_bytes, booked.label_bytes,
                booked.label_syncs) == (walked.num_syncs, walked.total_bytes,
                                        walked.label_bytes, walked.label_syncs)
        assert self._read(booked) == self._read(walked)

    @given(step_rows(), st.data())
    @settings(max_examples=50, deadline=None)
    def test_a_head_books_as_the_block_of_its_rows(self, case, data):
        """A crash cuts a copy short: the program's head books, retries
        and all, as the program of its first rows — its block, counts,
        first ticks, places and timer totals — however often it is cut."""
        _, steps, retried = case
        keys = [name for _, name in LAYOUT[::3]]
        rows = []
        for plan, label, o, posted in steps:
            if data.draw(st.booleans()):
                rows.append((LOCAL, data.draw(st.sampled_from(keys)), None,
                             None, data.draw(st.sampled_from([8.0, 64.0])),
                             0.0))
            rows.append((POSTED if posted else SYNC,
                         data.draw(st.sampled_from(keys)), plan, label,
                         data.draw(st.sampled_from([0.0, 32.0])), o))
        program = Program(rows, [], ARM_CLUSTER_NODE, LAYOUT)
        for _ in range(2):
            k = data.draw(st.integers(1, len(rows)))
            head = program.head(k)
            cut = Program(rows[:k], [], ARM_CLUSTER_NODE, LAYOUT)
            kept = [(at, n) for at, n in retried if at < cut.reach[0]]
            booked, whole = CommTracker(3), CommTracker(3)
            booked.book([(head.block, 1)], kept)
            whole.book([(cut.block, 1)], kept)
            assert (booked.num_syncs, booked.total_bytes, booked.label_bytes,
                    booked.label_syncs) == (whole.num_syncs, whole.total_bytes,
                                            whole.label_bytes,
                                            whole.label_syncs)
            assert self._read(booked) == self._read(whole)
            assert head.n == k and program.n == len(rows)
            assert np.array_equal(head.tally, cut.tally)
            assert head.ticks == cut.ticks
            assert np.array_equal(head.places[:, :k], cut.places)
            for laid, sums in zip(head.sums, cut.sums):
                height = sums.shape[1]
                assert np.array_equal(laid[:, :height], sums)
                assert not laid[:, height:].any()
                totals = [np.add.accumulate(np.concatenate(
                    [np.zeros((3, 1, m.shape[2])), m], axis=1),
                    axis=1)[:, -1] for m in (laid, sums)]
                assert totals[0].tobytes() == totals[1].tobytes()

    def test_blocks_booked_back_to_back_and_read_between(self):
        scratch = CommTracker(3)
        scratch.send(0, 2, 40)
        plan = scratch.freeze()
        rows = [(plan, "spmv", 0.0, False), (plan, None, 8.0, True),
                (plan, "halo", 0.0, True)]
        block = StepBlock(rows)
        walked, booked = CommTracker(3), CommTracker(3)
        for retried in ([(0, 2)], [], [(1, 1), (2, 3)]):
            self._walk(walked, rows, retried)
            booked.book([(block, 1)], retried)
            if not retried:         # a read expands what was booked so far
                assert self._read(booked) == self._read(walked)
        assert self._read(booked) == self._read(walked)
        assert booked.num_syncs == 3 * len(rows) + 6


class TestResetAndContext:
    def test_reset_forgets_everything(self):
        t = CommTracker(2)
        t.send(0, 1, 10, label="x")
        t.sync(label="x")
        t.send(0, 1, 20)
        t.post()
        t.reset()
        assert t.num_syncs == 0 and t.total_bytes == 0
        assert t.label_bytes == {} and t.label_syncs == {}
        assert t.in_flight == 0
        assert t.sync().total_bytes == 0   # pending sends cleared too

    def test_context_manager_clean_exit(self):
        with CommTracker(2) as t:
            t.send(0, 1, 10)
            t.wait(t.post())
        assert t.num_syncs == 1

    def test_context_manager_flags_leaked_exchange(self):
        with pytest.raises(InvalidValue):
            with CommTracker(2) as t:
                t.send(0, 1, 10)
                t.post()          # never waited: a simulated deadlock

    def test_context_manager_does_not_mask_errors(self):
        with pytest.raises(RuntimeError):
            with CommTracker(2) as t:
                t.post()
                raise RuntimeError("boom")


class TestResolveCommMode:
    def test_explicit_wins(self, monkeypatch):
        from repro.dist.comm import resolve_comm_mode
        monkeypatch.setenv("REPRO_OVERLAP", "1")
        assert resolve_comm_mode("eager") == "eager"

    def test_env_force(self, monkeypatch):
        from repro.dist.comm import resolve_comm_mode
        for raw, expect in (("1", "overlap"), ("on", "overlap"),
                            ("overlap", "overlap"), ("0", "eager"),
                            ("", "eager"), ("eager", "eager")):
            monkeypatch.setenv("REPRO_OVERLAP", raw)
            assert resolve_comm_mode() == expect

    def test_default_eager(self, monkeypatch):
        from repro.dist.comm import resolve_comm_mode
        monkeypatch.delenv("REPRO_OVERLAP", raising=False)
        assert resolve_comm_mode() == "eager"

    def test_garbage_rejected(self, monkeypatch):
        from repro.dist.comm import resolve_comm_mode
        monkeypatch.setenv("REPRO_OVERLAP", "sometimes")
        with pytest.raises(InvalidValue):
            resolve_comm_mode()
        with pytest.raises(InvalidValue):
            resolve_comm_mode("async")
