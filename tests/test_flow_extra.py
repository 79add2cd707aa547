"""Tests for the Table 1 delay-test flow on a session and the figure-level
waveform helpers."""

from repro.clocking import figure2_waveform
from repro.core import format_table1


class TestDelayTestFlow:
    """The delay-test flow end to end: the shared Table 1 session on ``tiny``."""

    def test_run_single_experiment_and_cache(self, table1_tiny):
        session, _ = table1_tiny
        first = session.result_of("table1-a")
        assert session.artifacts["table1-a"].result is first
        assert first.coverage.detected > 0

    def test_run_all_reuses_cached_results(self, table1_tiny):
        """The report's rows are the session's kept raw results."""
        session, report = table1_tiny
        assert report.scenarios() == [f"table1-{key}" for key in "abcde"]
        for key in "abcde":
            raw = session.result_of(f"table1-{key}")
            assert report[key].pattern_count == raw.pattern_count
            assert report[key].test_coverage == raw.coverage.test_coverage

    def test_table_formatting_from_flow(self, table1_tiny):
        session, report = table1_tiny
        table = report.table()
        assert "Stuck-at" in table
        assert "%" in table
        results = {key: session.result_of(f"table1-{key}") for key in "abcde"}
        assert table == format_table1(results)


class TestFigure2Waveform:
    def test_waveform_has_per_domain_bursts(self, tiny_prepared):
        domains = tiny_prepared.soc.functional_domains
        waveform = figure2_waveform(domains, shift_cycles=4, pulses_per_domain=2)
        assert "scan_clk" in waveform.signals()
        assert "scan_en" in waveform.signals()
        for domain in domains:
            assert waveform[f"clk_{domain.name}"].count_pulses() == 2

    def test_scan_enable_frames_the_capture_window(self, tiny_prepared):
        domains = tiny_prepared.soc.functional_domains
        waveform = figure2_waveform(domains, shift_cycles=4)
        scan_en = waveform["scan_en"]
        fall = scan_en.falling_edges()[0]
        rise = scan_en.rising_edges()[0]
        assert fall < rise
        for domain in domains:
            for pulse in waveform[f"clk_{domain.name}"].pulses():
                assert fall < pulse.start < rise

    def test_pulse_spacing_tracks_frequency(self, tiny_prepared):
        domains = sorted(tiny_prepared.soc.functional_domains, key=lambda d: d.frequency_mhz)
        waveform = figure2_waveform(domains)
        slow, fast = domains[0], domains[-1]
        slow_edges = waveform[f"clk_{slow.name}"].rising_edges()
        fast_edges = waveform[f"clk_{fast.name}"].rising_edges()
        assert (fast_edges[1] - fast_edges[0]) < (slow_edges[1] - slow_edges[0])

    def test_ascii_rendering_works(self, tiny_prepared):
        domains = tiny_prepared.soc.functional_domains
        waveform = figure2_waveform(domains)
        art = waveform.to_ascii(width=60)
        assert len(art.splitlines()) == len(waveform.signals())
