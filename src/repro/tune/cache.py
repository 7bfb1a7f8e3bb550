"""Profile persistence: the ``REPRO_TUNE_CACHE`` directory.

One machine profile lives at ``$REPRO_TUNE_CACHE/machine_profile.json``
(default ``~/.cache/repro/tune``).  :func:`current_profile` is the
soft accessor every automatic consumer uses — unpinned simulated runs,
``REPRO_THREADS=auto``, the driver's ``--profile`` report — and it
*never raises*: a missing, corrupt, schema-incompatible or stale file
simply yields ``None`` so callers fall back to their uncalibrated
behaviour without warning noise.  :func:`load_profile` is the strict
accessor for explicit CLI/tooling use and raises with a real message.

Staleness: a profile older than ``max_age_seconds`` (argument, or the
``REPRO_TUNE_MAX_AGE`` environment variable) is treated as absent by
:func:`current_profile` — machines drift, and a months-old measurement
silently mis-pricing every run is worse than no measurement.
"""

from __future__ import annotations

import os
import time
from typing import Optional, Tuple

from repro.tune.profile import MachineProfile
from repro.util.errors import InvalidValue

#: Environment variable pointing at the cache directory.
ENV_VAR = "REPRO_TUNE_CACHE"

#: Optional staleness bound (seconds) applied by :func:`current_profile`.
MAX_AGE_ENV_VAR = "REPRO_TUNE_MAX_AGE"

#: File name of the cached profile inside the cache directory.
PROFILE_FILENAME = "machine_profile.json"

# memo for current_profile(): (path, mtime_ns, size) -> MachineProfile
_memo_key: Optional[Tuple[str, int, int]] = None
_memo_profile: Optional[MachineProfile] = None


def cache_dir() -> str:
    """The active cache directory (not created until a save)."""
    env = os.environ.get(ENV_VAR, "").strip()
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro", "tune")


def profile_path() -> str:
    """Where the cached profile lives under the active cache dir."""
    return os.path.join(cache_dir(), PROFILE_FILENAME)


def invalidate() -> None:
    """Drop the in-process memo (after an external write/clear)."""
    global _memo_key, _memo_profile
    _memo_key = None
    _memo_profile = None


def save_profile(profile: MachineProfile,
                 path: Optional[str] = None) -> str:
    """Persist ``profile`` to ``path`` (default: the cache location)."""
    if path is None:
        path = profile_path()
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    profile.save(path)
    invalidate()
    return path


def load_profile(path: Optional[str] = None) -> MachineProfile:
    """Load a profile, raising on absence or schema mismatch."""
    if path is None:
        path = profile_path()
    if not os.path.exists(path):
        raise InvalidValue(
            f"no machine profile at {path}; run "
            f"`python -m repro.tune measure` first"
        )
    return MachineProfile.load(path)


def clear(path: Optional[str] = None) -> bool:
    """Remove the cached profile; True if a file was deleted."""
    if path is None:
        path = profile_path()
    invalidate()
    if os.path.exists(path):
        os.remove(path)
        return True
    return False


def _max_age(max_age_seconds: Optional[float]) -> Optional[float]:
    if max_age_seconds is not None:
        return max_age_seconds
    raw = os.environ.get(MAX_AGE_ENV_VAR, "").strip()
    if not raw:
        return None
    try:
        return float(raw)
    except ValueError:
        return None    # a malformed bound must not break the soft path


def current_profile(
    max_age_seconds: Optional[float] = None,
) -> Optional[MachineProfile]:
    """The cached profile, or ``None`` — never raises.

    Memoised per (path, mtime, size) so repeated consumers do not
    re-read and re-parse the JSON; the memo invalidates itself
    when the file changes or ``REPRO_TUNE_CACHE`` points elsewhere.
    """
    global _memo_key, _memo_profile
    path = profile_path()
    try:
        stat = os.stat(path)
    except OSError:
        return None
    key = (path, stat.st_mtime_ns, stat.st_size)
    if key == _memo_key:
        profile = _memo_profile
    else:
        try:
            profile = MachineProfile.load(path)
        except (InvalidValue, OSError):
            # memoise the failure too: an unreadable file must not be
            # re-parsed by every consumer
            profile = None
        _memo_key = key
        _memo_profile = profile
    if profile is None:
        return None
    bound = _max_age(max_age_seconds)
    if bound is not None and time.time() - profile.created_at > bound:
        return None
    return profile
