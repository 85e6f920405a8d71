"""Each workload's output check must fail on a corrupted result.

Runs every workload on small inputs, checks that the genuine output
passes, then moves one hit to a miss or changes one byte count and
checks that the oracle comparison catches it.  Run from the repository root::

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent / "tools"), str(HERE)]

import workloads  # noqa: E402
from repro.core.events import HitLocation  # noqa: E402
from repro.core.policies import Organization  # noqa: E402

SEED = 7
HIT_LOCATIONS = (HitLocation.LOCAL_BROWSER, HitLocation.PROXY, HitLocation.REMOTE_BROWSER)


def move_hit_to_miss(result):
    result = copy.deepcopy(result)
    loc = next(loc for loc in HIT_LOCATIONS if result.by_location[loc].hits)
    result.by_location[loc].hits -= 1
    result.by_location[HitLocation.ORIGIN].misses += 1
    return result


def change_byte_count(result):
    result = copy.deepcopy(result)
    loc = next(loc for loc in HIT_LOCATIONS if result.by_location[loc].hits)
    result.by_location[loc].hit_bytes += 1
    return result


CORRUPTIONS = (move_hit_to_miss, change_byte_count)


def run_once(workload):
    inputs = workload.setup(SEED)
    output = workload.unit(inputs)
    return output, workload.oracle(inputs)


@pytest.fixture(scope="module")
def paper_sweep():
    workload = workloads.PaperSweep(n_requests=1_500, workers=0)
    return (workload, *run_once(workload))


@pytest.fixture(scope="module")
def stream_clients():
    workload = workloads.StreamClients(n_requests=4_000)
    return (workload, *run_once(workload))


@pytest.fixture(scope="module")
def federated_digest():
    workload = workloads.FederatedDigest(n_requests=600)
    return (workload, *run_once(workload))


@pytest.fixture(scope="module")
def mrc_sizing():
    workload = workloads.MrcSizing(n_requests=8_000, workers=0)
    return (workload, *run_once(workload))


@pytest.mark.parametrize("corrupt", CORRUPTIONS)
def test_paper_sweep_check_catches_a_corrupted_cell(paper_sweep, corrupt):
    workload, sweep, oracle = paper_sweep
    assert workload.check(sweep, oracle).failed == 0
    key = (Organization.BROWSERS_AWARE_PROXY, 0.05)
    bad = copy.deepcopy(sweep)
    bad.results[key] = corrupt(bad.results[key])
    check = workload.check(bad, oracle)
    assert check.failed == 1
    assert "browsers-aware-proxy-server@0.05" in check.problems[0]


@pytest.mark.parametrize("corrupt", CORRUPTIONS)
def test_stream_check_catches_a_corrupted_result(stream_clients, corrupt):
    workload, result, oracle = stream_clients
    assert workload.check(result, oracle).failed == 0
    assert workload.check(corrupt(result), oracle).failed == 1


@pytest.mark.parametrize("corrupt", CORRUPTIONS)
def test_federated_check_catches_a_corrupted_result(federated_digest, corrupt):
    workload, result, oracle = federated_digest
    assert result.interproxy_hits > 0, "the small federated run must exercise digests"
    assert workload.check(result, oracle).failed == 0
    assert workload.check(corrupt(result), oracle).failed == 1


@pytest.mark.parametrize("corrupt", CORRUPTIONS)
def test_federated_check_catches_a_broken_single_proxy_anchor(federated_digest, corrupt):
    workload, result, oracle = federated_digest
    bad = copy.copy(oracle)
    bad.single_proxy = corrupt(oracle.single_proxy)
    check = workload.check(result, bad)
    assert check.failed == 1
    assert "n_proxies=1 vs plain" in check.problems[0]


def _corrupt_mrc(analysis, fraction: float, move_hit: bool):
    """Move one proxy-tier hit to the all-miss class, or add one byte to
    its hit bytes, at *fraction* of a copy of *analysis*."""
    analysis = copy.deepcopy(analysis)
    f = analysis.grid.index_of(fraction)
    bits = next(b for b in range(8) if b & 2 and analysis.counts[f][b])
    if move_hit:
        analysis.counts[f][bits] -= 1
        analysis.counts[f][0] += 1
    else:
        analysis.hit_bytes[f][bits] += 1
    return analysis


@pytest.mark.parametrize("move_hit", (True, False))
def test_mrc_check_catches_a_corrupted_exact_cell(mrc_sizing, move_hit):
    workload, output, replay = mrc_sizing
    assert workload.check(output, replay).failed == 0
    bad = copy.deepcopy(output)
    bad.full = _corrupt_mrc(output.full, 0.10, move_hit)
    check = workload.check(bad, replay)
    assert check.failed >= 1
    assert any("proxy-cache-only@0.1: MRC not bit-exact" in p for p in check.problems)


def test_mrc_check_catches_a_sampled_pass_out_of_bounds(mrc_sizing):
    workload, output, replay = mrc_sizing
    assert workload.check(output, replay).failed == 0
    bad = copy.deepcopy(output)
    f = bad.sampled.grid.index_of(0.20)
    counts = bad.sampled.counts[f]
    # every sampled request becomes a miss at 20%: far outside any bound
    counts[0] = sum(counts)
    counts[1:] = [0] * 7
    check = workload.check(bad, replay)
    assert check.failed >= 1
    assert all("@0.2: sampled error" in p for p in check.problems)
