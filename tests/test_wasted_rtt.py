"""§5 wasted-round-trip accounting.

A false index hit (bloom) and an offline holder (churn) both cost one
LAN connection setup before the request escalates to the proxy/origin
path.  These events were previously counted but never priced, so
``total_service_time`` understated the workload cost and the paper's
communication fraction was slightly inflated.
"""

import pytest

from repro.consistency import FixedTTLPolicy
from repro.core import Organization, SimulationConfig, simulate

BAPS = Organization.BROWSERS_AWARE_PROXY


def wasted_events(result) -> int:
    return result.index_false_hits + result.holder_unavailable


def test_offline_holders_charge_a_setup_each(small_trace):
    config = SimulationConfig.relative(small_trace, proxy_frac=0.1).with_(
        holder_availability=0.5, availability_seed=7
    )
    r = simulate(small_trace, BAPS, config)
    assert r.holder_unavailable > 0
    assert r.index_false_hits == 0  # the exact index never false-hits
    assert r.overhead.wasted_round_trip_time == pytest.approx(
        r.holder_unavailable * config.lan.connection_setup
    )


def test_bloom_false_hits_charge_a_setup_each(small_trace):
    config = SimulationConfig.relative(small_trace, proxy_frac=0.1).with_(
        index_kind="bloom"
    )
    r = simulate(small_trace, BAPS, config)
    assert r.index_false_hits > 0
    assert r.overhead.wasted_round_trip_time == pytest.approx(
        wasted_events(r) * config.lan.connection_setup
    )


def test_coherent_path_charges_wasted_round_trips(small_trace):
    """Coherence changes the kernel's escalation (a changed copy goes
    straight to the origin); wasted round trips must still be priced
    the same way as without it."""
    config = SimulationConfig.relative(small_trace, proxy_frac=0.1).with_(
        holder_availability=0.5,
        index_kind="bloom",
        consistency=FixedTTLPolicy(3600.0),
    )
    r = simulate(small_trace, BAPS, config)
    assert r.holder_unavailable > 0 and r.index_false_hits > 0
    assert r.overhead.wasted_round_trip_time == pytest.approx(
        wasted_events(r) * config.lan.connection_setup
    )


def test_wasted_time_is_in_total_service_time(small_trace):
    config = SimulationConfig.relative(small_trace, proxy_frac=0.1).with_(
        holder_availability=0.5, availability_seed=7
    )
    r = simulate(small_trace, BAPS, config)
    o = r.overhead
    without = (
        o.local_hit_time
        + o.proxy_hit_time
        + o.remote_storage_time
        + o.remote_communication_time
        + o.origin_miss_time
        + o.security_time
        + o.validation_time
    )
    assert o.wasted_round_trip_time > 0
    assert o.total_service_time == pytest.approx(
        without + o.wasted_round_trip_time
    )


def test_no_wasted_events_means_no_wasted_time(small_trace):
    config = SimulationConfig.relative(small_trace, proxy_frac=0.1)
    r = simulate(small_trace, BAPS, config)
    assert wasted_events(r) == 0
    assert r.overhead.wasted_round_trip_time == 0.0
