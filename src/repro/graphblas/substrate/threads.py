"""``REPRO_THREADS``: the switch for the shared-memory parallel lane.

Every other fast lane (``REPRO_JIT``, ``REPRO_FUSED``) is
single-threaded; this module owns the toggle that arms the *parallel*
(``numba.prange``) variants of those lanes:

* unset or ``REPRO_THREADS=1`` — serial;
* ``REPRO_THREADS=N`` — exactly ``N`` threads wherever a parallel
  kernel exists;
* ``REPRO_THREADS=0`` (or ``off``/``no``/``false``) — alias of 1, the
  kill switch spelling the other lanes use.

The count depends on that variable and nothing else: no machine
profile, operator size or core count is consulted.  Like the other
switches, the environment is read per call so tests can flip the lane
without reimporting.

Bit-exactness is a property of the kernels, not of this switch: every
parallel variant partitions *rows* across threads and keeps each row's
left-to-right accumulation (each output element is written by exactly
one thread with unchanged per-row arithmetic), so any count produces
byte-identical results.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.util.errors import InvalidValue

#: The environment toggle: unset / ``0`` / ``1`` / ``N``.
ENV_VAR = "REPRO_THREADS"

#: Values meaning "parallel lane off" (mirrors the other kill switches).
_OFF = ("0", "off", "no", "false")


def raw() -> str:
    return os.environ.get(ENV_VAR, "").strip().lower()


def enabled() -> bool:
    """False only under the kill switch (``REPRO_THREADS=0``)."""
    return raw() not in _OFF


def requested() -> Optional[int]:
    """The thread count the environment asks for, ``None`` when unset.

    The kill switch and ``1`` both read as 1; anything else that is not
    a positive integer raises :class:`InvalidValue` (manifest capture
    catches it).
    """
    value = raw()
    if not value:
        return None
    if value in _OFF:
        return 1
    try:
        count = int(value)
    except ValueError:
        raise InvalidValue(
            f"{ENV_VAR} must be 0, 1 or a thread count, got {value!r}"
        ) from None
    if count < 1:
        raise InvalidValue(
            f"{ENV_VAR} thread count must be >= 1, got {count}"
        )
    return count


def resolve() -> int:
    """The thread count of the parallel lane: the request, else 1."""
    return requested() or 1


def lane_name() -> str:
    """Which kernel lane a float64 hot loop runs on right now:
    ``numpy`` / ``jit`` / ``jit-parallel`` — the span attribute
    ``obs diff`` uses to attribute serial-vs-parallel movement."""
    from repro.graphblas.substrate import jit  # avoid import cycle

    if not jit.available():
        return "numpy"
    if jit.parallel_available() and resolve() > 1:
        return "jit-parallel"
    return "jit"
