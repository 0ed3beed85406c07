"""Malformed service knobs raise, typed, at construction.

Service knobs are the caller's code: a word, float, out-of-range value
or a cap below its base raises
:class:`~repro.errors.ServiceConfigError` from the
:class:`~repro.service.ServiceConfig` constructor — never a silently
truncated value.
"""

from __future__ import annotations

import pytest

from repro.errors import ServiceConfigError
from repro.service import ConnectionBroker, ServiceConfig, build_mesh_fleet


@pytest.mark.parametrize(
    "kwargs,error",
    [
        ({"shards": 0}, ServiceConfigError),
        ({"shards": 2.5}, ServiceConfigError),
        ({"shards": "three"}, ServiceConfigError),
        ({"max_retries": -1}, ServiceConfigError),
        (
            {"backoff_base_cycles": 100, "backoff_cap_cycles": 10},
            ServiceConfigError,
        ),
        ({"nonexistent_knob": 1}, TypeError),
    ],
    ids=[
        "zero",
        "float",
        "string",
        "negative",
        "cap-below-base",
        "unknown",
    ],
)
def test_programmatic_knobs_raise(kwargs, error):
    with pytest.raises(error):
        ServiceConfig(**kwargs)


def test_constructor_validates_directly():
    with pytest.raises(ServiceConfigError):
        ServiceConfig(shards=0)
    with pytest.raises(ServiceConfigError):
        ServiceConfig(timeout_cycles=2.5)  # type: ignore[arg-type]


def test_broker_defaults_ignore_the_environment(monkeypatch):
    monkeypatch.setenv("REPRO_SERVICE_RETRIES", "9")
    broker = ConnectionBroker(build_mesh_fleet(1), seed=0)
    assert broker.config == ServiceConfig()
