"""Wall times scaled to a reference host speed, and the samples behind setup_s.

The benchmark runs on a few cores of a shared host whose speed drifts, by
up to about 1.5x within a minute, for every process on it alike: the same
command can take 0.6 s in one run and 0.9 s in the next. Medians within a
run do not remove drift between runs, so the gauge measures it. Between
operations it times a reference task from ``reference_task.py``, a fixed
task like the workload's own operations that calls no lagspec code, and
reports each operation's wall time as

    wall * nominal / mean(reference time just before it, just after it)

that is, the time the operation would take on a host on which the
reference task takes ``nominal`` seconds, its median on the VM the bounds
were set on. A slower host stretches both times and cancels; a slower
program stretches only the operation's and shows in full. Raw wall times
are reported beside the scaled ones.

The gauge also takes the cold-import samples behind ``setup_s``, spread
evenly over a run's planned work and scaled the same way. Time spent on
reference and set-up samples is outside every operation's timing.
"""

from __future__ import annotations

import time

# Reference samples come in groups. A group is due once this much time has
# passed since the last one: the host's speed changes within seconds, so an
# operation is scaled by samples taken as close to it as the run's length
# allows.
REFERENCE_EVERY_S = 3.0
# A group runs the task for at least this share of the time since the last
# group (and at least once), so that the samples' own jitter (about 10% per
# sample) averages out over long gaps too, at a bounded cost.
REFERENCE_SHARE = 0.25


class Gauge:
    """Reference samples, set-up samples, and the scaling of operation times.

    ``reference`` and ``setup`` are callables returning seconds, and
    ``nominal`` the reference task's seconds at the reporting speed. With
    ``reference`` None (the traced run) nothing is sampled and ``scaled``
    returns wall times unchanged.

    A workload calls ``token()`` just before each operation, ``between()``
    after it, ``finish()`` after its last one, and then ``scaled(wall,
    token)`` for each operation. An operation is scaled by the mean of the
    nearest group before it and the mean of the nearest group after it.
    """

    def __init__(self, reference=None, nominal: float = 1.0, setup=None,
                 setup_count: int = 0):
        self._reference = reference
        self.nominal = nominal
        self._setup = setup
        self.setup_count = setup_count if reference is not None else 0
        self.groups = []  # reference-task seconds, one list per group
        self.setup_samples = []  # (wall seconds, token)
        self._last_group = 0.0
        self._issued = 0  # the last token handed out

    @property
    def enabled(self) -> bool:
        return self._reference is not None

    @property
    def refs(self) -> list:
        return [r for group in self.groups for r in group]

    def _take_group(self) -> None:
        since = time.perf_counter() - self._last_group if self.groups else REFERENCE_EVERY_S
        group = [self._reference()]
        while sum(group) < REFERENCE_SHARE * since:
            group.append(self._reference())
        self.groups.append(group)
        self._last_group = time.perf_counter()

    def token(self) -> int:
        """Index of the reference group that will follow the next operation."""
        if self.enabled and not self.groups:
            self._take_group()
        self._issued = len(self.groups)
        return self._issued

    def between(self, progress: float) -> None:
        """Sample as due, with ``progress`` the share of the planned work done.

        A set-up sample is followed at once by a reference group.
        """
        if not self.enabled:
            return
        due = time.perf_counter() - self._last_group >= REFERENCE_EVERY_S
        while len(self.setup_samples) < min(self.setup_count, self.setup_count * progress):
            self.setup_samples.append((self._setup(), len(self.groups)))
            due = True
        if due:
            self._take_group()

    def finish(self) -> None:
        """Take the set-up samples still missing and a closing reference group."""
        self.between(1.0)
        if self.enabled and len(self.groups) <= self._issued:
            self._take_group()

    def scaled(self, wall: float, token: int) -> float:
        if not self.enabled:
            return wall
        before, after = self.groups[token - 1], self.groups[token]
        speed = (sum(before) / len(before) + sum(after) / len(after)) / 2.0
        return wall * self.nominal / speed

    def setup_times(self) -> list:
        return [self.scaled(w, t) for w, t in self.setup_samples]
