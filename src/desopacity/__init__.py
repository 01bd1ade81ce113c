"""Opacity verification for partially observed discrete-event systems."""

from importlib import resources

from .automata import (
    Des,
    Event,
    EventTable,
    Projection,
    accessible,
    is_deterministic,
    make_events,
    mask_of,
    observer,
    product_successors,
    project,
    states_of,
)
from .desfile import DesFormatError, parse_des, serialize_des
from .oracle import (
    GeneratorParams,
    OracleBounds,
    random_des,
    simulate_observation,
    strong_violation_search,
    validate_weak_witness,
    weak_violation_search,
)
from .strong import (
    ReductionResult,
    is_normal,
    normalize,
    reduce_to_weak,
    strong_to_weak,
    verify_strong,
)
from .weak import (
    INFINITE,
    KBound,
    Verdict,
    VerifyStats,
    Witness,
    bounded_bfs,
    compute_seeds,
    verify_weak,
)

__version__ = "0.1.0"


def load_fixture(name: str) -> Des:
    """Load one of the bundled example systems (e.g. ``"fig5"``)."""
    path = resources.files(__package__) / "fixtures" / f"{name}.des"
    return parse_des(path.read_text())
