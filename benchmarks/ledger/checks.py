"""Failure accounting: every output check is counted, failures named."""

from __future__ import annotations

from typing import List


class Checks:
    """Tally of output checks feeding ``attempted`` / ``failed``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    @property
    def failed(self) -> int:
        return len(self.failures)
