"""Random pattern generation and X-filling.

ATPG flows start with a cheap random phase: random scan loads and input
vectors are fault-simulated with fault dropping, and only the patterns that
detect new faults are kept.  The deterministic (PODEM) phase then only has to
handle the random-pattern-resistant faults.  The same RNG utilities also
perform the final X-fill of deterministic patterns before they are exported.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.clocking.named_capture import NamedCaptureProcedure
from repro.patterns.pattern import TestPattern
from repro.logic import Logic


def derive_rng(seed: int, stream: str | None = None) -> random.Random:
    """A deterministic RNG for one (seed, stream) pair.

    Every consumer of randomness in the ATPG flow derives its generator
    here, which is what makes runs **bit-reproducible across engine
    and executor backends**: fault simulation itself consumes no
    randomness, so as long as the random phase and the X-fill draw from a
    generator seeded purely by value (never by object identity, wall clock
    or worker id), serial, compiled and process-pool runs produce the
    same patterns and therefore the same coverage.

    ``stream=None`` is the classic single-stream generator (bit-compatible
    with the pre-engine flow, which called ``random.Random(seed)``
    directly); named streams give independent, order-insensitive sequences.
    """
    if stream is None:
        return random.Random(seed)
    return random.Random(f"{seed}/{stream}")


def random_values(names: Sequence[str], rng: random.Random) -> dict[str, Logic]:
    """A random 0/1 value per name."""
    return {name: (Logic.ONE if rng.random() < 0.5 else Logic.ZERO) for name in names}


def random_pattern(
    procedure: NamedCaptureProcedure,
    scan_flops: Sequence[str],
    free_inputs: Sequence[str],
    rng: random.Random,
    hold_pis: bool = True,
    observe_pos: bool = True,
) -> TestPattern:
    """Build one fully-specified random pattern for a capture procedure.

    Args:
        procedure: Capture procedure the pattern will use.
        scan_flops: Names of the scan flip-flops to load.
        free_inputs: Primary inputs the tester may drive (unconstrained ones).
        rng: Random source.
        hold_pis: Use the same input vector for every frame.
        observe_pos: Whether the pattern's primary outputs will be strobed.

    Returns:
        A fully specified :class:`TestPattern`.
    """
    scan_load = random_values(scan_flops, rng)
    if hold_pis:
        vector = random_values(free_inputs, rng)
        frames = [dict(vector) for _ in range(procedure.num_frames)]
    else:
        frames = [random_values(free_inputs, rng) for _ in range(procedure.num_frames)]
    return TestPattern(
        procedure=procedure,
        scan_load=scan_load,
        pi_frames=frames,
        observe_pos=observe_pos,
        target_faults=["random"],
        cube_scan_load={},
    )


def random_pattern_batch(
    procedures: Sequence[NamedCaptureProcedure],
    scan_flops: Sequence[str],
    free_inputs: Sequence[str],
    count: int,
    rng: random.Random,
    hold_pis: bool = True,
    observe_pos: bool = True,
) -> list[TestPattern]:
    """A batch of random patterns cycling round-robin over the procedures."""
    batch: list[TestPattern] = []
    for index in range(count):
        procedure = procedures[index % len(procedures)]
        batch.append(
            random_pattern(
                procedure,
                scan_flops,
                free_inputs,
                rng,
                hold_pis=hold_pis,
                observe_pos=observe_pos,
            )
        )
    return batch


def fill_pattern(pattern: TestPattern, rng: random.Random, fill: str = "random") -> TestPattern:
    """Replace unspecified (X) bits of a pattern.

    Args:
        pattern: Possibly partially-specified pattern.
        rng: Random source used for ``fill="random"``.
        fill: ``"random"``, ``"zero"`` or ``"one"``.

    Returns:
        A fully specified copy.
    """
    if fill == "zero":
        return pattern.filled(value=Logic.ZERO)
    if fill == "one":
        return pattern.filled(value=Logic.ONE)
    return pattern.filled(rng=rng)
