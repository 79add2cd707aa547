"""Tests for DesignSpec, the design registry, design preparation, and
design-fingerprint / cache-key stability."""

import os
import subprocess
import sys

import pytest

from repro.api import (
    DesignNotFound,
    DesignSpec,
    DomainSpec,
    TestSession,
    design_names,
    get_design,
    prepare_design,
    prepare_from_spec,
    register_design,
    unregister_design,
)
from repro.circuits import two_domain_crossing
from repro.dft import EdtConfig
from repro.engine import campaign_cell_key, design_fingerprint, design_spec_fingerprint
from repro.netlist.verilog import write_verilog


@pytest.fixture(scope="module")
def rich_spec():
    """A spec exercising every JSON-relevant field class."""
    return DesignSpec(
        name="rich",
        description="all fields set",
        size=1,
        seed=99,
        extra_domains=(100.0, 37.5),
        inter_domain_factor=2.0,
        num_chains=5,
        edt=EdtConfig(input_channels=3, lfsr_length=24),
        occ_style="enhanced",
        trigger_latency=4,
        tags=("unit", "rich"),
    )


class TestDesignSpecSerialization:
    def test_json_round_trip_is_lossless(self, rich_spec):
        restored = DesignSpec.from_json(rich_spec.to_json())
        assert restored == rich_spec
        assert restored.fingerprint == rich_spec.fingerprint

    def test_round_trip_with_custom_netlist(self):
        spec = DesignSpec(
            name="custom",
            netlist_verilog=write_verilog(two_domain_crossing(width=4)),
            num_chains=2,
            domains=(
                DomainSpec("a", "clk_a", 150.0),
                DomainSpec("b", "clk_b", 75.0),
            ),
        )
        restored = DesignSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.domains[0] == DomainSpec("a", "clk_a", 150.0)

    def test_from_dict_normalizes_lists(self, rich_spec):
        import json

        payload = json.loads(rich_spec.to_json())
        assert isinstance(payload["extra_domains"], list)
        restored = DesignSpec.from_dict(payload)
        assert restored.extra_domains == (100.0, 37.5)
        assert restored.tags == ("unit", "rich")

    def test_validation_rejects_bad_specs(self):
        with pytest.raises(ValueError, match="non-empty name"):
            DesignSpec(name="")
        with pytest.raises(ValueError, match="size"):
            DesignSpec(name="x", size=0)
        with pytest.raises(ValueError, match="OCC style"):
            DesignSpec(name="x", occ_style="fancy")
        with pytest.raises(ValueError, match="describe its domains"):
            DesignSpec(name="x", netlist_verilog="module m(); endmodule")


class TestDesignRegistry:
    def test_builtins_are_registered(self):
        names = design_names()
        for expected in (
            "table1-soc", "tiny", "wide-edt", "many-domain", "interdomain-heavy"
        ):
            assert expected in names

    def test_lookup_unknown_lists_available(self):
        with pytest.raises(DesignNotFound, match="available designs:.*table1-soc"):
            get_design("nope")

    def test_tag_filter(self):
        assert "table1-soc" in design_names(tag="paper")
        assert "table1-soc" not in design_names(tag="variant")
        assert set(design_names(tag="variant")) >= {"tiny", "wide-edt"}

    def test_duplicate_registration_rejected(self):
        spec = DesignSpec(name="dup-test")
        register_design(spec)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_design(spec)
            register_design(spec.with_overrides(seed=1), replace_existing=True)
            assert get_design("dup-test").seed == 1
        finally:
            unregister_design("dup-test")
        with pytest.raises(DesignNotFound):
            get_design("dup-test")

    def test_table1_soc_matches_legacy_defaults(self):
        spec = get_design("table1-soc")
        assert (spec.size, spec.seed, spec.num_chains) == (2, 2005, 6)


class TestFingerprintStability:
    def test_equal_specs_share_fingerprints(self, rich_spec):
        clone = DesignSpec.from_json(rich_spec.to_json())
        assert design_spec_fingerprint(clone) == design_spec_fingerprint(rich_spec)

    def test_fingerprint_is_stable_across_processes(self):
        """Same spec -> same engine-cache key in a fresh interpreter."""
        spec = get_design("wide-edt")
        code = (
            "from repro.api import get_design\n"
            "from repro.engine import design_spec_fingerprint\n"
            "print(design_spec_fingerprint(get_design('wide-edt')))\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        child = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=env, check=True,
        )
        assert child.stdout.strip() == design_spec_fingerprint(spec)

    def test_changed_edt_width_changes_cache_key(self):
        base = get_design("wide-edt")
        widened = base.with_overrides(edt=EdtConfig(input_channels=8))
        scenario = "dummy-scenario"
        key_base = campaign_cell_key(design_spec_fingerprint(base), scenario)
        key_wide = campaign_cell_key(design_spec_fingerprint(widened), scenario)
        assert key_base != key_wide
        # and an unchanged spec reproduces the identical key
        assert key_base == campaign_cell_key(
            design_spec_fingerprint(base.with_overrides()), scenario
        )

    def test_structural_knobs_change_fingerprint(self):
        base = get_design("tiny")
        assert design_spec_fingerprint(base) != design_spec_fingerprint(
            base.with_overrides(num_chains=5)
        )
        assert design_spec_fingerprint(base) != design_spec_fingerprint(
            base.with_overrides(occ_style="enhanced")
        )


class TestDesignPreparation:
    def test_pipeline_matches_legacy_prepare_design(self):
        """``prepare_from_spec`` and the ad-hoc ``prepare_design`` knobs
        build the same model."""
        spec = DesignSpec(name="adhoc", size=1, seed=11, num_chains=4)
        via_pipeline = prepare_from_spec(spec)
        via_legacy = prepare_design(size=1, seed=11, num_chains=4)
        assert design_fingerprint(via_pipeline.model) == design_fingerprint(
            via_legacy.model
        )
        assert via_pipeline.scan.num_chains == via_legacy.scan.num_chains

    def test_stage_names_and_timings(self):
        prepared = prepare_from_spec("tiny")
        assert list(prepared.build_seconds) == ["build", "scan", "clocking", "model"]
        assert prepared.spec is not None and prepared.spec.name == "tiny"

    def test_variant_families_build(self):
        many = prepare_from_spec("many-domain")
        assert many.functional_domain_names == ["fast", "slow", "aux0", "aux1"]
        assert many.occ.enhanced
        wide = prepare_from_spec("wide-edt")
        assert wide.scan.num_chains == 12
        assert wide.edt is not None
        assert wide.edt.decompressor.num_channels == 4
        heavy = prepare_from_spec("interdomain-heavy")
        # 4x the cross-domain cloud of the same-size tiny design
        tiny = prepare_from_spec("tiny")
        assert len(heavy.netlist.gates) > len(tiny.netlist.gates)

    def test_fractional_inter_domain_factor_builds(self):
        """Sub-unity factors shrink the cross cloud without crashing."""
        prepared = prepare_from_spec(
            DesignSpec(name="thin-cross", size=1, num_chains=4,
                       inter_domain_factor=0.2)
        )
        assert prepared.model is not None
        with pytest.raises(ValueError, match="inter_domain_factor"):
            prepare_from_spec(
                DesignSpec(name="bad-cross", size=1, inter_domain_factor=0.0)
            )

    def test_custom_netlist_design_prepares(self):
        spec = DesignSpec(
            name="custom-xing",
            netlist_verilog=write_verilog(two_domain_crossing(width=4)),
            num_chains=2,
            domains=(
                DomainSpec("a", "clk_a", 150.0),
                DomainSpec("b", "clk_b", 75.0),
            ),
        )
        prepared = prepare_from_spec(spec)
        assert prepared.all_domain_names == ["a", "b"]
        assert prepared.scan.num_chains == 2
        assert prepared.domain_map.summary()["a"]
        # the dangling reset input keeps constrain_reset scenarios satisfiable
        assert spec.reset_net in prepared.netlist.inputs


class TestSessionForDesign:
    def test_session_builds_registered_design(self, cheap_options):
        session = TestSession.for_design("tiny", options=cheap_options)
        assert session.prepared.scan.num_chains == 4
        assert session.design_spec.name == "tiny"

    def test_structural_builders_override_the_spec(self, cheap_options):
        session = TestSession.for_design("tiny", options=cheap_options).with_chains(5)
        assert session.design_spec.num_chains == 5
        assert session.prepared.scan.num_chains == 5

    def test_design_session_runs_scenarios(self, cheap_options):
        report = (
            TestSession.for_design("tiny", options=cheap_options)
            .add_scenario("table1-a")
            .run()
        )
        assert report["a"].pattern_count > 0
        assert report.session["design_spec"] == "tiny"
