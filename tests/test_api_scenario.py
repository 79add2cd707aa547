"""Tests for the scenario registry and the declarative scenario specs."""

from dataclasses import replace

import pytest

from repro.api import (
    ScenarioNotFound,
    ScenarioSpec,
    TestSession,
    get_scenario,
    register_scenario,
    scenario_names,
    unregister_scenario,
)
from repro.api.scenarios import (
    TABLE1_DESCRIPTIONS,
    TABLE1_KEYS,
    resolve_scenario_or_letter,
    table1,
    table1_scenario,
)
from repro.clocking import (
    enhanced_cpf_procedures,
    external_clock_procedures,
    simple_cpf_procedures,
    stuck_at_procedures,
)
from repro.logic import Logic


def _dummy_procedures(prepared):
    return stuck_at_procedures(["clk"], max_pulses=2)


class TestRegistry:
    def test_builtin_scenarios_registered(self):
        names = scenario_names()
        for key in TABLE1_KEYS:
            assert f"table1-{key}" in names

    def test_at_least_four_extended_scenarios(self):
        assert len(scenario_names(tag="extended")) >= 4

    def test_duplicate_registration_raises(self):
        spec = ScenarioSpec(
            name="test-duplicate", description="x", procedures=_dummy_procedures
        )
        register_scenario(spec)
        try:
            with pytest.raises(ValueError, match="test-duplicate.*already registered"):
                register_scenario(spec)
            # Explicit replacement is allowed.
            register_scenario(replace(spec, description="y"), replace_existing=True)
            assert get_scenario("test-duplicate").description == "y"
        finally:
            unregister_scenario("test-duplicate")

    def test_unknown_scenario_lists_available_names(self):
        with pytest.raises(ScenarioNotFound) as excinfo:
            get_scenario("no-such-scenario")
        message = str(excinfo.value)
        assert "no-such-scenario" in message
        assert "table1-a" in message  # the error enumerates what exists

    def test_unknown_scenario_is_a_key_error(self):
        with pytest.raises(KeyError):
            get_scenario("no-such-scenario")

    def test_unregister_is_idempotent(self):
        unregister_scenario("never-registered")  # must not raise


class TestScenarioSpec:
    def test_rejects_unknown_fault_model(self):
        with pytest.raises(ValueError, match="fault model"):
            ScenarioSpec(
                name="bad", description="x", procedures=_dummy_procedures,
                fault_model="iddq",
            )

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError, match="name"):
            ScenarioSpec(name="", description="x", procedures=_dummy_procedures)

    def test_row_key_prefers_legacy_key(self):
        spec = ScenarioSpec(
            name="x", description="d", procedures=_dummy_procedures, legacy_key="a"
        )
        assert spec.row_key == "a"
        assert replace(spec, legacy_key=None).row_key == "x"

    def test_with_overrides_returns_modified_copy(self):
        session = TestSession.for_soc(1, seed=3).add_scenario("table1-c", edt_channels=3)
        (tweaked,) = session.queued_scenarios
        assert tweaked.edt_channels == 3
        assert get_scenario("table1-c").edt_channels is None  # original untouched


class TestBuiltinSetupsMatchLegacy:
    """Every built-in scenario's TestSetup equals the paper's experiment.

    The expected values replicate the original hand-coded per-letter setups
    literally, so this anchors the registry specs and the letter shorthand
    against the original behaviour.
    """

    def _expected_procedures(self, key, prepared):
        functional = prepared.functional_domain_names
        all_domains = prepared.all_domain_names
        return {
            "a": stuck_at_procedures(all_domains, max_pulses=2),
            "b": external_clock_procedures(all_domains, max_pulses=4),
            "c": simple_cpf_procedures(functional),
            "d": enhanced_cpf_procedures(functional, max_pulses=4, inter_domain=True),
            "e": external_clock_procedures(functional, max_pulses=4, name_prefix="extc"),
        }[key]

    EXPECTED_FLAGS = {
        #      observe_pos, hold_pis, constrain_scan_enable
        "a": (True, False, False),
        "b": (True, False, False),
        "c": (False, True, True),
        "d": (False, True, True),
        "e": (False, True, True),
    }

    @pytest.mark.parametrize("key", TABLE1_KEYS)
    def test_setup_fields(self, key, tiny_prepared, cheap_options):
        setup = table1_scenario(key).build_setup(tiny_prepared, cheap_options)
        observe_pos, hold_pis, constrain_se = self.EXPECTED_FLAGS[key]

        assert setup.name == f"({key}) {TABLE1_DESCRIPTIONS[key]}"
        expected = self._expected_procedures(key, tiny_prepared)
        assert [p.name for p in setup.procedures] == [p.name for p in expected]
        assert [p.pulses for p in setup.procedures] == [p.pulses for p in expected]
        assert setup.observe_pos is observe_pos
        assert setup.hold_pis is hold_pis
        assert setup.pin_constraints == {tiny_prepared.soc.reset_net: Logic.ZERO}
        assert setup.scan_enable_net == tiny_prepared.scan_enable_net
        assert setup.constrain_scan_enable is constrain_se
        assert setup.options is cheap_options

    @pytest.mark.parametrize("key", TABLE1_KEYS)
    def test_shim_matches_registry(self, key, tiny_prepared, cheap_options):
        """The experiment-letter shorthand the campaign and diagnosis front
        doors accept builds the registered ``table1-*`` setup."""
        via_shim = resolve_scenario_or_letter(key.upper()).build_setup(
            tiny_prepared, cheap_options
        )
        via_api = get_scenario(f"table1-{key}").build_setup(tiny_prepared, cheap_options)
        assert via_shim.name == via_api.name
        assert [p.name for p in via_shim.procedures] == [p.name for p in via_api.procedures]
        assert via_shim.observe_pos == via_api.observe_pos
        assert via_shim.hold_pis == via_api.hold_pis
        assert via_shim.pin_constraints == via_api.pin_constraints
        assert via_shim.constrain_scan_enable == via_api.constrain_scan_enable

    def test_unknown_experiment_key_raises(self):
        with pytest.raises(KeyError, match="'z'"):
            resolve_scenario_or_letter("z")


class TestTable1Accessors:
    def test_table1_returns_five_in_paper_order(self):
        specs = table1()
        assert [spec.legacy_key for spec in specs] == list(TABLE1_KEYS)
        assert all(spec.name == f"table1-{spec.legacy_key}" for spec in specs)

    def test_table1_scenario_rejects_unknown_letter(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            table1_scenario("q")

    def test_fault_models(self):
        assert table1_scenario("a").fault_model == "stuck-at"
        for key in "bcde":
            assert table1_scenario(key).fault_model == "transition"
