"""The scenario suite's behavioural gates (docs/workloads.md section 4).

Every on/off twin the suite ships makes one headline claim -- serve
handoff cuts the gateway-chaos tail, the overload controller beats
open loop, the estimate valve dominates the blind byte valve -- and
each claim is stated here once, at quick scale over seeds 0-2, beside
the per-scenario report contract (schema-valid verdict, fairness,
organic migrations).

Each ``(scenario, seed)`` runs once per session; determinism (the only
reason to run one twice) is tests/test_workloads_determinism.py's job.
The same cached runs are held to ``tests/data/golden_scenario_digests.json``:
one sha256 per ``(scenario, seed)`` of the payload ``repro scenarios
--out`` writes, so any edit that moves a number in any report fails
here.  Seed 0 runs once more with fast-forward forced off, which must
not move a number either.
"""

import functools
import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.config import DataCyclotronConfig
from repro.core.ring import DataCyclotron
from repro.metrics.slo import validate_verdict
from repro.workloads.suite import SCENARIOS, run_scenario, scenario_names

SEEDS = (0, 1, 2)
GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_scenario_digests.json").read_text()
)

scenario = functools.cache(run_scenario)
by_seed = pytest.mark.parametrize("seed", SEEDS)


def test_suite_has_at_least_four_scenarios():
    assert len(scenario_names()) >= 4
    assert "gateway-chaos" in SCENARIOS


def test_golden_covers_every_scenario_and_seed():
    assert set(GOLDEN) == {f"{n}/{s}" for n in scenario_names() for s in SEEDS}


@by_seed
@pytest.mark.parametrize("name", scenario_names())
def test_scenario_payload_matches_its_golden_digest(name, seed):
    payload = json.dumps(scenario(name, seed), sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == GOLDEN[f"{name}/{seed}"]


# the front-door ring is built with fast-forward off already
FAST_FORWARD_PINNED_OFF = {"frontdoor", "mixed-engine-overload"}


@pytest.mark.parametrize("name", scenario_names())
def test_fast_forward_off_leaves_the_scenario_unchanged(name, monkeypatch):
    expected = scenario(name, 0)
    was_on = []
    init = DataCyclotron.__init__

    def classic(self, config=None, *args, **kwargs):
        config = config if config is not None else DataCyclotronConfig()
        was_on.append(config.fast_forward)
        init(self, replace(config, fast_forward=False), *args, **kwargs)

    monkeypatch.setattr(DataCyclotron, "__init__", classic)
    assert run_scenario(name, 0) == expected
    assert was_on, "the scenario must build a ring"
    assert any(was_on) == (name not in FAST_FORWARD_PINNED_OFF)


@by_seed
@pytest.mark.parametrize("name", scenario_names())
def test_every_scenario_emits_a_schema_valid_verdict(name, seed):
    verdict = scenario(name, seed)["verdict"]
    validate_verdict(verdict)  # raises on drift
    for key in ("p50", "p99", "p999"):
        assert verdict["latency"][key] >= 0.0
    assert verdict["queries"] > 0


@by_seed
def test_serve_handoff_cuts_the_gateway_chaos_p999_tail(seed):
    result = scenario("gateway-chaos", seed)
    extras = result["extras"]
    assert extras["serves_handed_off"] >= 1, "the crash must strand a serve"
    assert extras["p999_handoff_on"] < extras["p999_handoff_off"]
    # both variants still save every query -- the handoff moves the
    # tail, resilience guarantees the completions
    assert result["verdict"]["failed"] == 0
    assert extras["handoff_off_verdict"]["failed"] == 0


def assert_brownout_spares_the_protected_tier_and_releases(extras):
    shed = extras["shed_fraction_by_tier"]
    tiers = sorted(shed)
    assert shed[tiers[-1]] < shed[tiers[0]]
    # hysteresis releases the brownout once the flood drains
    assert extras["final_level_on"] == 0


@by_seed
def test_overload_controller_beats_open_loop(seed):
    extras = scenario("overload", seed)["extras"]
    assert extras["p999_controller_on"] < extras["p999_controller_off"]
    assert extras["goodput_on"] > extras["goodput_off"]  # protected tier
    assert_brownout_spares_the_protected_tier_and_releases(extras)
    assert extras["max_shed_level"] >= 1
    # the retry budget caps attempt amplification: controller-off
    # re-dispatches freely, controller-on must not
    assert extras["attempts_on"] < extras["attempts_off"]


@by_seed
def test_split_under_load_splits_the_ring_within_no_harm_bounds(seed):
    extras = scenario("split-under-load", seed)["extras"]
    assert extras["ring_splits_on"] >= 1, "the burst must trigger a ring split"
    assert extras["p999_controller_on"] <= 1.15 * extras["p999_controller_off"]
    assert extras["goodput_on"] >= 0.9 * extras["goodput_off"]
    assert_brownout_spares_the_protected_tier_and_releases(extras)


@by_seed
def test_estimate_valve_dominates_the_blind_byte_valve(seed):
    extras = scenario("frontdoor", seed)["extras"]
    # the burst must be the >= 3x-capacity overload the scenario advertises
    assert extras["capacity_ratio_burst"] >= 3.0
    assert extras["p999_estimate_on"] < extras["p999_estimate_off"]
    assert extras["goodput_on"] > extras["goodput_off"]  # protected tier


@by_seed
def test_mixed_engine_overload_meets_every_engine_class_slo(seed):
    result = scenario("mixed-engine-overload", seed)
    verdict = result["verdict"]
    assert verdict["ok"]
    for engine, section in verdict["engine_classes"].items():
        assert all(section["passed"].values()), (engine, section["passed"])
    extras = result["extras"]
    assert extras["p999_estimate_on"] < extras["p999_estimate_off"]


def test_multi_tenant_verdict_reports_fairness():
    verdict = scenario("multi-tenant", 0)["verdict"]
    assert len(verdict["tenants"]) == 4
    fairness = verdict["fairness"]
    assert 0.0 < fairness["mean_latency_jain"] <= 1.0
    assert 0.0 < fairness["p99_jain"] <= 1.0


def test_locality_shift_triggers_organic_migrations():
    extras = scenario("locality-shift", 0)["extras"]
    assert extras["cross_ring_requests"] > 0
    assert extras["migrations_started"] > 0
    assert extras["fragments_migrated"] > 0
