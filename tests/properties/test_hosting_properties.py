"""Property test of the hosting rule, ``GridNode.can_host``."""

from hypothesis import given
from hypothesis import strategies as st

from repro.grid import Architecture, JobRequirements, NodeProfile, OperatingSystem
from repro.grid.profiles import CAPACITY_CHOICES
from repro.scheduling import SCHEDULER_FACTORIES
from repro.sim import Simulator
from repro.types import HOUR

from ..helpers import make_job, make_node, reference_can_host

SIM = Simulator(seed=0)

architectures = st.sampled_from(list(Architecture))
systems = st.sampled_from(list(OperatingSystem))
capacities = st.sampled_from(CAPACITY_CHOICES)
profiles = st.builds(
    NodeProfile,
    architecture=architectures,
    memory_gb=capacities,
    disk_gb=capacities,
    os=systems,
)
requirements = st.builds(
    JobRequirements,
    architecture=architectures,
    memory_gb=capacities,
    disk_gb=capacities,
    os=systems,
)


@given(
    profiles,
    st.sampled_from(sorted(SCHEDULER_FACTORIES)),
    requirements,
    st.booleans(),
    st.booleans(),
)
def test_can_host_is_the_reference_rule(
    profile, policy, wanted, has_deadline, reserved
):
    _, node = make_node(
        sim=SIM, profile=profile, scheduler=SCHEDULER_FACTORIES[policy]()
    )
    job = make_job(
        1,
        requirements=wanted,
        deadline=4 * HOUR if has_deadline else None,
        not_before=HOUR if reserved else None,
    )
    assert node.can_host(job) == reference_can_host(node, job)
