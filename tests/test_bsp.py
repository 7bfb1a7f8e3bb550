"""BSP cost model."""

import dataclasses

import numpy as np
import pytest

from repro.dist.bsp import (
    ARM_CLUSTER_NODE,
    BSPMachine,
    X86_NODE,
    bsp_time,
    tracker_comm_time,
    tracker_exposed_comm_time,
)
from repro.dist.comm import CommTracker
from repro.util.errors import InvalidValue


class TestMachine:
    def test_superstep_time_components(self):
        m = BSPMachine("toy", mem_bandwidth=100.0, net_bandwidth=10.0,
                       latency=1.0)
        # 200 work bytes / 100 + 50 h bytes / 10 + 1 = 2 + 5 + 1
        assert m.superstep_time(200, 50) == pytest.approx(8.0)

    def test_zero_comm_still_costs_latency(self):
        m = BSPMachine("toy", 100.0, 10.0, 0.5)
        assert m.superstep_time(0, 0) == 0.5

    def test_invalid_rates(self):
        with pytest.raises(InvalidValue):
            BSPMachine("bad", 0.0, 1.0, 0.0)
        with pytest.raises(InvalidValue):
            BSPMachine("bad", 1.0, 1.0, -1.0)

    def test_presets_sane(self):
        assert ARM_CLUSTER_NODE.mem_bandwidth > X86_NODE.mem_bandwidth
        assert ARM_CLUSTER_NODE.net_bandwidth == X86_NODE.net_bandwidth


class TestBspTime:
    def test_accumulates(self):
        t = CommTracker(2)
        t.send(0, 1, 100)
        t.sync()
        t.send(1, 0, 200)
        t.sync()
        m = BSPMachine("toy", 1000.0, 100.0, 0.0)
        total = bsp_time(m, t.supersteps, [500.0, 1000.0])
        # (500/1000 + 100/100) + (1000/1000 + 200/100)
        assert total == pytest.approx(0.5 + 1.0 + 1.0 + 2.0)

    def test_tracker_comm_time(self):
        t = CommTracker(2)
        t.send(0, 1, 100)
        t.sync()
        m = BSPMachine("toy", 1000.0, 100.0, 0.25)
        assert tracker_comm_time(m, t) == pytest.approx(1.0 + 0.25)


class TestOverlapPricing:
    M = BSPMachine("toy", mem_bandwidth=100.0, net_bandwidth=10.0,
                   latency=1.0)

    def test_no_overlap_is_the_eager_sum(self):
        assert self.M.superstep_time(200, 50, 0.0) == pytest.approx(8.0)

    def test_full_overlap_is_max_of_work_and_comm(self):
        # work 200B -> 2s; comm 50B/10 + 1 = 6s; fully-overlapped work
        # hides min(2, 6) = 2s of wire time: total max(2, 6) = 6s
        assert self.M.superstep_time(200, 50, 200) == pytest.approx(6.0)
        # comm-bound the other way: work 800B -> 8s > comm 6s
        assert self.M.superstep_time(800, 50, 800) == pytest.approx(8.0)

    def test_partial_overlap(self):
        # only 100B (1s) of the 200B work overlaps: hides 1s of 6s comm
        assert self.M.superstep_time(200, 50, 100) == pytest.approx(7.0)

    def test_efficiency_scales_the_hiding(self):
        assert dataclasses.replace(self.M, overlap_efficiency=0.5
                                   ).superstep_time(200, 50, 100) \
            == pytest.approx(7.5)
        assert dataclasses.replace(self.M, overlap_efficiency=0.0
                                   ).superstep_time(200, 50, 100) \
            == pytest.approx(8.0)

    def test_machine_level_efficiency_default(self):
        half = BSPMachine("half", 100.0, 10.0, 1.0, overlap_efficiency=0.5)
        assert half.superstep_time(200, 50, 100) == pytest.approx(7.5)

    def test_exposed_and_hidden_partition_comm_time(self):
        comm = self.M.comm_time(50)
        hidden = self.M.hidden_comm_time(50, 100)
        exposed = self.M.exposed_comm_time(50, 100)
        assert comm == pytest.approx(6.0)
        assert hidden + exposed == pytest.approx(comm)
        assert hidden == pytest.approx(1.0)

    def test_latency_is_hideable(self):
        # a zero-byte superstep still costs L eagerly, but a posted one
        # fully hides behind enough overlapped compute
        assert self.M.superstep_time(0, 0, 0) == pytest.approx(1.0)
        assert self.M.superstep_time(0, 0, 1000) == pytest.approx(0.0)

    def test_invalid_efficiency(self):
        with pytest.raises(InvalidValue):
            BSPMachine("bad", 1.0, 1.0, 0.0, overlap_efficiency=1.5)
        with pytest.raises(InvalidValue):
            dataclasses.replace(self.M, overlap_efficiency=-0.1)

    def test_presets_default_full_efficiency(self):
        assert X86_NODE.overlap_efficiency == 1.0
        assert ARM_CLUSTER_NODE.overlap_efficiency == 1.0

    def test_bsp_time_uses_overlap_tags(self):
        t = CommTracker(2)
        t.send(0, 1, 100)
        t.wait(t.post().overlap(500.0))     # 0.5s hides 0.5s of 2s comm
        m = BSPMachine("toy", 1000.0, 100.0, 1.0)
        overlapped = bsp_time(m, t.supersteps, [500.0])
        eager = bsp_time(m, t.supersteps, [500.0], use_overlap=False)
        assert eager == pytest.approx(0.5 + 1.0 + 1.0)
        assert overlapped == pytest.approx(eager - 0.5)

    def test_tracker_exposed_comm_time(self):
        t = CommTracker(2)
        t.send(0, 1, 100)
        t.wait(t.post().overlap(500.0))
        t.send(1, 0, 100)
        t.sync()                            # eager: nothing hidden
        m = BSPMachine("toy", 1000.0, 100.0, 1.0)
        assert tracker_comm_time(m, t) == pytest.approx(4.0)
        assert tracker_exposed_comm_time(m, t) == pytest.approx(3.5)
