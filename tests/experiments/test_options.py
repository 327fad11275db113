"""Tests for the consolidated RunOptions spec."""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    RunOptions,
    ScenarioScale,
    get_scenario,
    run,
)

TINY = ScenarioScale.tiny()


def test_defaults_produce_empty_spec_options():
    # The empty-options payload must be byte-identical to a bare call,
    # so unset fields never leak into cache keys or golden summaries.
    assert RunOptions().spec_options() == {}


def test_spec_options_excludes_only_unset_fields():
    options = RunOptions(failsafe=False, probe_interval=300.0)
    assert options.spec_options() == {
        "failsafe": False,  # an explicit False is set, not unset
        "probe_interval": 300.0,
    }


def test_mechanics_never_join_spec_options():
    # How a run executes is an argument of run / run_batch; RunOptions
    # holds only what joins the cache key, so every field is a spec option.
    with pytest.raises(TypeError):
        RunOptions(parallel=4)
    names = [f.name for f in dataclasses.fields(RunOptions)]
    assert len(names) == 11
    all_set = RunOptions(**{name: () for name in names})
    assert list(all_set.spec_options()) == names


def test_options_are_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        RunOptions().failsafe = True


def test_policies_normalize_to_tuple():
    assert RunOptions(policies=["FCFS"]).policies == ("FCFS",)


def test_engine_rejects_inapplicable_options():
    # RunOptions guards names; the engine still guards applicability.
    with pytest.raises(ConfigurationError):
        run(
            get_scenario("Mixed"),
            TINY,
            seed=0,
            options=RunOptions(failsafe=True),
        )
