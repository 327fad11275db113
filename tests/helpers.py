"""Shared test fixtures and builders."""

from repro.grid import (
    AccuracyModel,
    Architecture,
    GridNode,
    JobRequirements,
    NodeProfile,
    OperatingSystem,
)
from repro.scheduling import FCFSScheduler
from repro.sim import Simulator
from repro.types import HOUR
from repro.workload import Job

LINUX_AMD64 = NodeProfile(
    architecture=Architecture.AMD64,
    memory_gb=8,
    disk_gb=8,
    os=OperatingSystem.LINUX,
)

SMALL_REQS = JobRequirements(
    architecture=Architecture.AMD64,
    memory_gb=2,
    disk_gb=2,
    os=OperatingSystem.LINUX,
)


def make_job(job_id=1, ert=1 * HOUR, deadline=None, submit_time=0.0, priority=0,
             requirements=SMALL_REQS, not_before=None):
    return Job(
        job_id=job_id,
        requirements=requirements,
        ert=ert,
        deadline=deadline,
        submit_time=submit_time,
        priority=priority,
        not_before=not_before,
    )


def make_node(
    node_id=0,
    sim=None,
    profile=LINUX_AMD64,
    performance_index=1.0,
    scheduler=None,
    accuracy=None,
):
    sim = sim if sim is not None else Simulator(seed=0)
    scheduler = scheduler if scheduler is not None else FCFSScheduler()
    accuracy = accuracy if accuracy is not None else AccuracyModel(epsilon=0.0)
    node = GridNode(
        node_id=node_id,
        sim=sim,
        profile=profile,
        performance_index=performance_index,
        scheduler=scheduler,
        accuracy=accuracy,
    )
    return sim, node


class TwoGenerations:
    """Reference model of :class:`repro.overlay.SeenCache`, stated over the
    window's first-seen ids instead of two sets: they are cut into blocks
    of ``capacity``, and the window remembers the last full block plus the
    one being filled.  A forgotten id that comes back is first-seen again.
    """

    def __init__(self, capacity):
        self.capacity = capacity
        self.first_seen = 0  # first-seen ids so far
        self.index = {}  # id -> its (latest) first-seen number

    def _oldest_remembered(self):
        n = self.first_seen
        return max(n - n % self.capacity - self.capacity, 0)

    def __contains__(self, key):
        index = self.index.get(key)
        return index is not None and index >= self._oldest_remembered()

    def __len__(self):
        return self.first_seen - self._oldest_remembered()

    def seen_before(self, key):
        if key in self:
            return True
        self.index[key] = self.first_seen
        self.first_seen += 1
        return False


def reference_can_host(node, job):
    """Reference model of :meth:`repro.grid.GridNode.can_host`, spelled
    field by field and in the order the protocol agent once checked it:
    scheduler family, then advance reservations, then the profile."""
    scheduler = node.scheduler
    if (job.deadline is not None) != (scheduler.kind == "deadline"):
        return False
    if job.not_before is not None and not scheduler.supports_reservations:
        return False
    profile, wanted = node.profile, job.requirements
    return (
        profile.architecture == wanted.architecture
        and profile.os == wanted.os
        and profile.memory_gb >= wanted.memory_gb
        and profile.disk_gb >= wanted.disk_gb
    )
