"""Declarative design specifications, the design registry, and design
preparation.

A :class:`DesignSpec` captures everything that defines a device under
test — SOC geometry (size, seed, clock-domain and PLL layout), the scan
architecture, the EDT compression contract, the OCC style — as a frozen,
JSON-round-trippable value.  Designs
are *named buildable configurations*, exactly mirroring what
:class:`~repro.api.scenario.ScenarioSpec` did for the scenario axis:
registering one makes it runnable by name through
:class:`~repro.api.session.TestSession` and :class:`~repro.api.campaign.Campaign`
without any call site learning a new code path.

Preparation (:func:`prepare_from_spec`) runs the fixed sequence ``build ->
scan -> clocking -> model``, each step timed into
``PreparedDesign.build_seconds`` and traced as a ``design:<step>`` span.
The result is a :class:`PreparedDesign`, the *ATPG view* every scenario
executes against.  :func:`prepare_design` (the ad-hoc
``size``/``seed``/``num_chains`` knobs, used by ``TestSession.for_soc``) is a
thin wrapper over :func:`prepare_from_spec`, and :func:`instrument_soc`
produces the Figure 1 top level with one CPF per functional clock domain.

Because a spec is plain data, its content fingerprint
(:func:`repro.engine.cache.design_spec_fingerprint`) identifies the design
*without building it* — the campaign runner keys its per-cell engine-cache
entries on that, which is what makes interrupted design×scenario sweeps
resumable at cache speed.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.circuits.soc import SocDesign, build_soc
from repro.clocking.cpf import InsertedCpf, insert_cpf
from repro.clocking.domains import ClockDomain, ClockDomainMap
from repro.clocking.occ import OccController
from repro.clocking.pll import Pll
from repro.dft.edt import EdtArchitecture, EdtConfig
from repro.dft.scan import ScanArchitecture, insert_scan
from repro.netlist.netlist import Netlist
from repro.netlist.verilog import read_verilog
from repro.obs.telemetry import active_tracer
from repro.records import JsonRecord
from repro.simulation.model import CircuitModel, build_model


class DesignNotFound(KeyError):
    """Raised when a design name is not in the registry."""


@dataclass(frozen=True)
class DomainSpec(JsonRecord):
    """Declarative description of one clock domain (JSON-safe).

    Used by custom-netlist designs to describe their clock layout; the
    generated SOC derives its domains from the generator parameters instead.
    """

    name: str
    clock_net: str
    frequency_mhz: float
    pll_output: str | None = None

    def to_clock_domain(self) -> ClockDomain:
        return ClockDomain(
            name=self.name,
            clock_net=self.clock_net,
            frequency_mhz=self.frequency_mhz,
            pll_output=self.pll_output,
        )


@dataclass(frozen=True)
class DesignSpec(JsonRecord):
    """One named, declarative device-under-test configuration.

    Attributes:
        name: Registry key ("table1-soc", "wide-edt", ...).
        description: Human-readable configuration summary.
        size: SOC generator scale factor.
        seed: SOC generator RNG seed.
        fast_mhz / slow_mhz: Frequencies of the two paper domains.
        extra_domains: Frequencies of additional functional domains
            (``aux0``, ``aux1``, ... — the many-domain design families).
        inter_domain_factor: Scale of the fast<->slow cross-domain cloud
            (1.0 reproduces the paper surrogate).
        nonscan_per_domain / ram_address_bits / ram_width: Generator knobs.
        pll_reference_mhz: External reference clock frequency.
        num_chains: Balanced scan chains to stitch.
        edt: Optional declarative EDT compression contract; when set, the
            prepared design carries a default :class:`EdtArchitecture` that
            the session's compression step uses for scenarios that do not
            pin their own channel count.
        occ_style: CPF/OCC flavour — "simple" (fixed two-pulse) or
            "enhanced" (programmable pulse count/delay).
        trigger_latency: PLL cycles between trigger and first at-speed pulse.
        reset_net: Name of the system reset primary input.
        hier_cores: When positive, the build step runs the *hierarchical*
            SOC generator (:func:`repro.circuits.hier_soc.build_hier_soc`)
            with this many repeated core instances instead of the flat
            generator — the ``hier-soc-*`` scaling families.
        hier_core_gates: Combinational gates per hierarchical core.
        hier_core_kinds: Unique core types among the instances.
        netlist_verilog: Optional structural-Verilog source; when set the
            build step parses it instead of running the SOC generator, and
            ``domains`` must describe its clock layout.
        netlist_bench: Optional ISCAS/ITC-style ``.bench`` source
            (:mod:`repro.netlist.bench`); same contract as
            ``netlist_verilog`` — external netlists enter the registry
            through either seam.
        domains: Clock layout of a custom netlist (ignored for generated SOCs).
        test_domain: Domain treated as the test controller of a custom
            netlist (excluded from at-speed clocking); None == all domains
            functional.
        tags: Free-form labels ("paper", "variant", ...) for filtering.
    """

    nested = {"edt": EdtConfig, "domains": DomainSpec}

    name: str
    description: str = ""
    # Generated-SOC geometry
    size: int = 2
    seed: int = 2005
    fast_mhz: float = 150.0
    slow_mhz: float = 75.0
    extra_domains: tuple[float, ...] = ()
    inter_domain_factor: float = 1.0
    nonscan_per_domain: int = 3
    ram_address_bits: int = 3
    ram_width: int = 4
    pll_reference_mhz: float = 25.0
    # Scan / DFT
    num_chains: int = 6
    edt: EdtConfig | None = None
    # Clocking / OCC
    occ_style: str = "simple"
    trigger_latency: int = 3
    reset_net: str = "reset"
    # Hierarchical SOC generator (overrides the flat generator when > 0)
    hier_cores: int = 0
    hier_core_gates: int = 160
    hier_core_kinds: int = 3
    # Custom netlist source (overrides the generators)
    netlist_verilog: str | None = None
    netlist_bench: str | None = None
    domains: tuple[DomainSpec, ...] = ()
    test_domain: str | None = None
    tags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a design needs a non-empty name")
        if self.size < 1:
            raise ValueError("size must be at least 1")
        if self.num_chains < 1:
            raise ValueError("num_chains must be at least 1")
        if self.occ_style not in OccController.STYLES:
            raise ValueError(
                f"unknown OCC style {self.occ_style!r} "
                f"(expected one of {OccController.STYLES})"
            )
        if self.netlist_verilog is not None and self.netlist_bench is not None:
            raise ValueError(
                "netlist_verilog and netlist_bench are mutually exclusive"
            )
        custom_netlist = self.netlist_verilog is not None or self.netlist_bench is not None
        if custom_netlist and not self.domains:
            raise ValueError("a custom-netlist design must describe its domains")
        if self.hier_cores < 0:
            raise ValueError("hier_cores must be non-negative")
        if self.hier_cores:
            if custom_netlist:
                raise ValueError(
                    "hier_cores and a custom netlist source are mutually exclusive"
                )
            if not 1 <= self.hier_core_kinds <= self.hier_cores:
                raise ValueError("hier_core_kinds must be in 1..hier_cores")
            if self.hier_core_gates < 8:
                raise ValueError("hier_core_gates must be at least 8")
        # Callers may pass lists; normalize to the frozen tuples the
        # fingerprint and equality semantics expect.
        for fname in ("extra_domains", "domains", "tags"):
            value = getattr(self, fname)
            if isinstance(value, list):
                object.__setattr__(self, fname, tuple(value))

    # ------------------------------------------------------------------ identity
    @property
    def fingerprint(self) -> str:
        """Content digest of the spec (stable across processes/sessions)."""
        from repro.engine.cache import design_spec_fingerprint

        return design_spec_fingerprint(self)

    # ------------------------------------------------------------------ building
    def prepare(self) -> "PreparedDesign":
        """Build the design -> :class:`PreparedDesign`."""
        return prepare_from_spec(self)

    # -------------------------------------------------------------------- sizing
    def size_estimate(self) -> dict[str, object]:
        """A cheap, build-free size estimate of the design.

        Returns a dict with ``family`` (which build path the spec takes),
        approximate ``gates`` and ``flops`` counts, and ``exact: False`` —
        use :meth:`gate_count` for the exact (and much more expensive)
        number.  Campaign reports surface this so that scaling runs show
        design sizes without materializing every family member.
        """
        if self.netlist_bench is not None:
            statements = sum(
                1 for line in self.netlist_bench.splitlines() if "=" in line
            )
            return {
                "family": "bench",
                "gates": statements,
                "flops": self.netlist_bench.count("DFF"),
                "exact": False,
            }
        if self.netlist_verilog is not None:
            statements = self.netlist_verilog.count(";")
            return {
                "family": "verilog",
                "gates": statements,
                "flops": self.netlist_verilog.count("DFF"),
                "exact": False,
            }
        if self.hier_cores > 0:
            from repro.circuits.hier_soc import CORE_WIDTH

            return {
                "family": "hier-soc",
                "cores": self.hier_cores,
                "core_kinds": self.hier_core_kinds,
                "gates": self.hier_cores * self.hier_core_gates + 40,
                "flops": self.hier_cores * 2 * CORE_WIDTH + 30,
                "exact": False,
            }
        size = self.size
        idf = self.inter_domain_factor
        aux = len(self.extra_domains)
        return {
            "family": "table1-soc",
            "gates": int(62 * size * size + (49 + 5 * idf + 11 * aux) * size),
            "flops": int(12 * size * size + 10 * size),
            "exact": False,
        }

    def gate_count(self) -> int:
        """The exact pre-scan gate count (builds the netlist; expensive)."""
        return len(_build_soc(self).netlist.gates)


# --------------------------------------------------------------------------
# The prepared design (the ATPG view)
# --------------------------------------------------------------------------
@dataclass
class PreparedDesign:
    """The ATPG view of the device under test."""

    soc: SocDesign
    netlist: Netlist
    scan: ScanArchitecture
    model: CircuitModel
    domain_map: ClockDomainMap
    occ: OccController
    scan_enable_net: str = "scan_en"
    scan_clock_net: str = "scan_clk"
    test_mode_net: str = "test_mode"
    #: The design's default EDT architecture (from ``DesignSpec.edt``); used
    #: by the compression step for scenarios without an explicit channel
    #: count.  None for designs without a declared compression contract.
    edt: EdtArchitecture | None = None
    #: The declarative spec this design was built from (None for ad-hoc or
    #: externally constructed designs) — campaigns key their cache on it.
    spec: "DesignSpec | None" = None
    #: Per-step wall time of the preparation that built this view.
    build_seconds: dict = field(default_factory=dict, repr=False, compare=False)
    # instrument_soc memoisation, keyed by the ``enhanced`` flag.
    _instrument_cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def functional_domain_names(self) -> list[str]:
        return [d.name for d in self.soc.functional_domains]

    @property
    def all_domain_names(self) -> list[str]:
        return [d.name for d in self.soc.domains]

    def __getstate__(self) -> dict:
        """Pickle without the instrument memo.

        The cache holds whole instrumented netlist copies; shipping it to
        process-backend campaign/scenario workers would multiply the payload
        for state any worker can (and should) rebuild lazily.
        """
        state = dict(self.__dict__)
        state["_instrument_cache"] = {}
        return state


def instrument_soc(
    prepared: PreparedDesign,
    enhanced: bool = False,
    refresh: bool = False,
) -> tuple[Netlist, list[InsertedCpf]]:
    """Produce the Figure 1 top level: the SOC with one CPF per domain.

    The returned netlist is a copy of the prepared (scan-inserted) netlist
    with the functional clock domains re-clocked from CPF outputs; the raw
    PLL clocks, the external scan clock, scan enable and test mode become the
    block's clock-control interface.

    The result is memoised on the prepared design (per ``enhanced`` flavour),
    so repeated structural reports are free; callers that intend to mutate
    the returned netlist should ``copy()`` it first.

    Args:
        prepared: The prepared design.
        enhanced: Insert enhanced (programmable) CPFs instead of the simple
            two-pulse blocks.
        refresh: Rebuild (and recache) even when a memoised result exists —
            for callers that need a private netlist to mutate, or that are
            timing the real insertion work.

    Returns:
        ``(instrumented netlist, inserted CPF records)``.
    """
    cached = None if refresh else prepared._instrument_cache.get(bool(enhanced))
    if cached is not None:
        return cached
    top = prepared.netlist.copy(name=f"{prepared.netlist.name}_with_cpf")
    if prepared.scan_clock_net not in top.inputs:
        top.add_input(prepared.scan_clock_net)
    top.declare_clock(prepared.scan_clock_net)
    if prepared.test_mode_net not in top.inputs:
        top.add_input(prepared.test_mode_net)
    inserted: list[InsertedCpf] = []
    for domain in prepared.soc.functional_domains:
        record = insert_cpf(
            top,
            domain_name=domain.name,
            pll_clk_net=domain.clock_net,
            scan_clk_net=prepared.scan_clock_net,
            scan_en_net=prepared.scan_enable_net,
            test_mode_net=prepared.test_mode_net,
            enhanced=enhanced,
        )
        inserted.append(record)
    result = (top, inserted)
    prepared._instrument_cache[bool(enhanced)] = result
    return result


# --------------------------------------------------------------------------
# Preparation
# --------------------------------------------------------------------------
@contextmanager
def timed_step(
    seconds: dict[str, float], kind: str, name: str, **attrs: object
) -> Iterator[None]:
    """Time one step of a fixed pipeline: a ``<kind>:<name>`` span on the
    ambient tracer, and the step's wall time into ``seconds[name]``."""
    started = time.perf_counter()
    with active_tracer().span(f"{kind}:{name}", **attrs):
        yield
    seconds[name] = time.perf_counter() - started


def prepare_from_spec(
    spec: "DesignSpec | str", soc: SocDesign | None = None
) -> PreparedDesign:
    """Build a (possibly registered) design spec into a :class:`PreparedDesign`.

    Runs ``build -> scan -> clocking -> model``.  A caller-built ``soc``
    replaces the build step's generator; the result then advertises no
    declarative identity (``spec=None``), since the spec does not describe
    that SOC.
    """
    spec = resolve_design(spec)
    seconds: dict[str, float] = {}
    external = soc is not None
    with timed_step(seconds, "design", "build", design=spec.name):
        if soc is None:
            soc = _build_soc(spec)
    with timed_step(seconds, "design", "scan", design=spec.name):
        netlist, scan = insert_scan(
            soc.netlist,
            num_chains=spec.num_chains,
            scan_enable_net="scan_en",
            group_by_clock=True,
            in_place=True,
        )
        edt = spec.edt.build(scan) if spec.edt is not None else None
    with timed_step(seconds, "design", "clocking", design=spec.name):
        domain_map = ClockDomainMap.from_netlist(netlist, soc.domains)
        occ = OccController.for_domains(
            [d.name for d in soc.functional_domains],
            style=spec.occ_style,
            trigger_latency=spec.trigger_latency,
        )
    with timed_step(seconds, "design", "model", design=spec.name):
        model = build_model(netlist)
    return PreparedDesign(
        soc=soc,
        netlist=netlist,
        scan=scan,
        model=model,
        domain_map=domain_map,
        occ=occ,
        edt=edt,
        spec=None if external else spec,
        build_seconds=seconds,
    )


def _build_soc(spec: DesignSpec) -> SocDesign:
    """The device under test a spec describes: parsed external netlist,
    hierarchical or flat SOC generator."""
    if spec.netlist_bench is not None:
        return _soc_from_bench(spec)
    if spec.netlist_verilog is not None:
        return _soc_from_verilog(spec)
    if spec.hier_cores > 0:
        from repro.circuits.hier_soc import build_hier_soc

        return build_hier_soc(
            num_cores=spec.hier_cores,
            core_gates=spec.hier_core_gates,
            core_kinds=spec.hier_core_kinds,
            seed=spec.seed,
            fast_mhz=spec.fast_mhz,
            slow_mhz=spec.slow_mhz,
            pll_reference_mhz=spec.pll_reference_mhz,
            name=spec.name.replace("-", "_"),
        )
    return build_soc(
        size=spec.size,
        seed=spec.seed,
        fast_mhz=spec.fast_mhz,
        slow_mhz=spec.slow_mhz,
        nonscan_per_domain=spec.nonscan_per_domain,
        ram_address_bits=spec.ram_address_bits,
        ram_width=spec.ram_width,
        extra_domains=spec.extra_domains,
        inter_domain_factor=spec.inter_domain_factor,
        pll_reference_mhz=spec.pll_reference_mhz,
    )


def _soc_from_verilog(spec: DesignSpec) -> SocDesign:
    """Wrap a parsed structural-Verilog netlist in SocDesign metadata."""
    return _wrap_external_netlist(spec, read_verilog(spec.netlist_verilog or ""))


def _soc_from_bench(spec: DesignSpec) -> SocDesign:
    """Wrap a parsed ISCAS/ITC ``.bench`` netlist in SocDesign metadata.

    The ``.bench`` dialect carries no clock net; flops attach to the first
    declared domain's clock (the single-domain assumption of the suites).
    """
    from repro.netlist.bench import read_bench

    clock = spec.domains[0].clock_net if spec.domains else "clk"
    netlist = read_bench(
        spec.netlist_bench or "",
        name=spec.name.replace("-", "_"),
        clock=clock,
    )
    return _wrap_external_netlist(spec, netlist)


def _wrap_external_netlist(spec: DesignSpec, netlist: Netlist) -> SocDesign:
    """Shared SocDesign wrapping for externally-sourced netlists."""
    for domain in spec.domains:
        if domain.clock_net not in netlist.inputs:
            netlist.add_input(domain.clock_net)
        netlist.declare_clock(domain.clock_net)
    # The at-speed scenarios constrain the reset inactive; give netlists
    # without one a dangling input so those constraints stay satisfiable.
    if spec.reset_net not in netlist.inputs:
        netlist.add_input(spec.reset_net)
    domains = [d.to_clock_domain() for d in spec.domains]
    pll = Pll(reference_mhz=spec.pll_reference_mhz)
    for domain in spec.domains:
        if domain.pll_output is not None:
            pll.add_output(domain.pll_output, domain.frequency_mhz)
    test_domain = spec.test_domain or ""
    test_clock_net = ""
    if spec.test_domain is not None:
        test_clock_net = next(
            d.clock_net for d in spec.domains if d.name == spec.test_domain
        )
    return SocDesign(
        netlist=netlist,
        domains=domains,
        pll=pll,
        reset_net=spec.reset_net,
        test_clock_net=test_clock_net,
        test_clock_domain=test_domain,
        ram_names=sorted(netlist.rams),
        nonscan_flops=sorted(f.name for f in netlist.flops.values() if not f.scannable),
        io_inputs=[
            net
            for net in netlist.inputs
            if net != spec.reset_net and net not in {d.clock_net for d in spec.domains}
        ],
        io_outputs=list(netlist.outputs),
    )


def prepare_design(
    size: int = 2,
    seed: int = 2005,
    num_chains: int = 6,
    soc: SocDesign | None = None,
) -> PreparedDesign:
    """Build the synthetic SOC (or take a given one) and insert scan.

    The ad-hoc equivalent of a registered spec: the knobs become an
    unregistered :class:`DesignSpec` run through :func:`prepare_from_spec`
    (the geometry is ignored when a caller-built ``soc`` is passed in).

    Args:
        size: SOC size factor (ignored when ``soc`` is given).
        seed: SOC generator seed (ignored when ``soc`` is given).
        num_chains: Number of balanced scan chains to stitch.
        soc: Optionally, an externally constructed SOC design.
    """
    spec = DesignSpec(name="adhoc", size=size, seed=seed, num_chains=num_chains)
    return prepare_from_spec(spec, soc=soc)


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------
_REGISTRY: dict[str, DesignSpec] = {}


def register_design(spec: DesignSpec, *, replace_existing: bool = False) -> DesignSpec:
    """Register a design under its name; returns the spec for chaining."""
    if spec.name in _REGISTRY and not replace_existing:
        raise ValueError(
            f"design {spec.name!r} is already registered; pass "
            f"replace_existing=True to overwrite it"
        )
    _REGISTRY[spec.name] = spec
    return spec


def unregister_design(name: str) -> None:
    """Remove a design from the registry (no-op when absent)."""
    _REGISTRY.pop(name, None)


def get_design(name: str) -> DesignSpec:
    """Look up a registered design by name.

    Raises:
        DesignNotFound: With the list of available names in the message.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        available = ", ".join(sorted(_REGISTRY)) or "<registry is empty>"
        raise DesignNotFound(
            f"unknown design {name!r}; available designs: {available}"
        ) from None


def design_names(*, tag: str | None = None) -> list[str]:
    """Sorted names of all registered designs (optionally filtered by tag)."""
    if tag is None:
        return sorted(_REGISTRY)
    return sorted(name for name, spec in _REGISTRY.items() if tag in spec.tags)


def resolve_design(spec_or_name: "DesignSpec | str") -> DesignSpec:
    """Accept either a spec object or a registered name."""
    if isinstance(spec_or_name, DesignSpec):
        return spec_or_name
    return get_design(spec_or_name)


# ------------------------------------------------------------------ built-ins
#: The paper's SoC surrogate, byte-identical to the :func:`prepare_design`
#: defaults (Table 1 rows depend on this).
TABLE1_SOC = register_design(
    DesignSpec(
        name="table1-soc",
        description="Paper SoC surrogate: 2 domains (150/75 MHz), 6 chains",
        size=2,
        seed=2005,
        num_chains=6,
        tags=("paper",),
    )
)

#: Unit-test scale instance of the same family.
TINY = register_design(
    DesignSpec(
        name="tiny",
        description="Unit-test SoC: size 1, 4 chains",
        size=1,
        seed=2005,
        num_chains=4,
        tags=("variant", "small"),
    )
)

#: Wide EDT: many short chains behind a 4-channel decompressor.
WIDE_EDT = register_design(
    DesignSpec(
        name="wide-edt",
        description="Wide-EDT SoC: 12 chains behind a 4-channel EDT",
        size=1,
        seed=2005,
        num_chains=12,
        edt=EdtConfig(input_channels=4),
        tags=("variant", "compression"),
    )
)

#: Many-domain: two auxiliary functional domains beyond the paper's pair.
MANY_DOMAIN = register_design(
    DesignSpec(
        name="many-domain",
        description="Four functional domains (150/75/100/37.5 MHz), 8 chains",
        size=1,
        seed=2005,
        num_chains=8,
        extra_domains=(100.0, 37.5),
        occ_style="enhanced",
        tags=("variant", "multi-domain"),
    )
)

#: Inter-domain-heavy: 4x the cross-domain logic of the paper surrogate.
INTERDOMAIN_HEAVY = register_design(
    DesignSpec(
        name="interdomain-heavy",
        description="4x inter-domain logic between the fast and slow domains",
        size=1,
        seed=2005,
        num_chains=6,
        inter_domain_factor=4.0,
        occ_style="enhanced",
        tags=("variant", "inter-domain"),
    )
)
