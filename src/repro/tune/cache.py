"""Profile persistence: the ``REPRO_TUNE_CACHE`` directory.

One machine profile lives at ``$REPRO_TUNE_CACHE/machine_profile.json``
(default ``~/.cache/repro/tune``).  :func:`current_profile` is the
soft accessor of the two reporting consumers — the driver's
``--profile`` section and manifest provenance — and it *never raises*:
a missing, corrupt or schema-incompatible file simply yields ``None``.
Nothing reads the cache to change a result: pricing and kernel lanes
take a profile only as an argument.  :func:`load_profile` is the strict
accessor for explicit CLI/tooling use and raises with a real message.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

from repro.tune.profile import MachineProfile
from repro.util.errors import InvalidValue

#: Environment variable pointing at the cache directory.
ENV_VAR = "REPRO_TUNE_CACHE"

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


def current_profile() -> Optional[MachineProfile]:
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
    if key != _memo_key:
        try:
            profile = MachineProfile.load(path)
        except (InvalidValue, OSError):
            # memoise the failure too: an unreadable file must not be
            # re-parsed by every consumer
            profile = None
        _memo_key = key
        _memo_profile = profile
    return _memo_profile
