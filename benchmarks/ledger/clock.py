"""The ledger's clock: CPU seconds, not wall-clock.

The program is single-threaded and never sleeps, so on an idle host the
CPU seconds of a call equal its wall-clock.  On the shared VMs this
benchmark runs on they do not: the hypervisor steals 20-40 % of a busy
vCPU in bursts, wall-clock medians wobble +-20 % between processes, and
process CPU time (which the guest kernel accounts net of steal) does
not.  Every duration the ledger reports is therefore
``time.process_time`` of this process plus the CPU time of the child
processes it waited for; blocking waits (sleeps, socket polls) are
invisible to it by construction.  Trace files keep wall-clock start/end
beside the CPU duration.
"""

from __future__ import annotations

import os
import time


def cpu() -> float:
    """CPU seconds (user + system) of this process and its reaped
    children, all threads."""
    t = os.times()
    return time.process_time() + t.children_user + t.children_system
