"""Scenario cells and the declarative cartesian grid over them.

A :class:`Scenario` pins every input of one simulated HPT run: the
workload, the approach (SpotTune or a single-spot baseline), theta,
the revocation predictor, the checkpoint policy, and the root seed
that generates the market traces.  Varying ``seed`` is how the grid
sweeps market regimes: each seed draws an independent synthetic
twelve-day price history for every market in the pool.

The fields are deliberately JSON scalars so a scenario fingerprints
and round-trips losslessly — the fingerprint keys the on-disk result
cache.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, fields
from typing import Any, Iterable, Iterator, Mapping, Optional, Sequence

#: Bump when the Scenario schema or summary shape changes; stale cache
#: entries from older schemas are then never confused for current ones.
#: v2: vectorised market generation (different float association in the
#: latent price path), so cached summaries from the loop generator must
#: not be replayed against the new one.
#: v3: streaming executor + co-located predictor-bank cache — the cache
#: root now reserves the ``banks/`` subdirectory and trained-predictor
#: cells may be computed from a cached bank, so pre-bank-cache caches
#: are not resumed against this layout.
#: v4: ``mcnt`` (parallel-selection count, paper Table I) became a
#: first-class scenario field — every fingerprint payload changed — and
#: the cache root now also reserves the ``queue/`` subdirectory for the
#: distributed task broker.
SCHEMA_VERSION = 4

APPROACHES = ("spottune", "single_spot")
PREDICTOR_KINDS = ("revpred", "tributary", "oracle", "constant")

#: Axis order for the cartesian product — fixed so a grid enumerates
#: in the same order on every run.
_AXIS_ORDER = (
    "approach",
    "workload",
    "theta",
    "mcnt",
    "predictor",
    "instance",
    "checkpoint_policy",
    "reschedule_after",
    "refund_enabled",
    "seed",
    "scale",
)


@dataclass(frozen=True)
class Scenario:
    """One cell of the evaluation grid.

    ``theta``, ``predictor`` and ``checkpoint_policy`` only matter for
    the ``spottune`` approach; ``instance`` only for ``single_spot``.
    Irrelevant fields are normalised in ``__post_init__`` so two specs
    that describe the same run share one fingerprint.
    """

    workload: str
    approach: str = "spottune"
    theta: float = 0.7
    predictor: str = "oracle"
    instance: Optional[str] = None
    checkpoint_policy: str = "notice"
    #: Forced VM recycle age (Algorithm 1 line 31); huge values ablate
    #: hourly recycling.
    reschedule_after: float = 3600.0
    #: The provider's first-hour refund rule; False ablates it.
    refund_enabled: bool = True
    #: How many top models the run finally selects (paper Table I);
    #: consulted by both approaches, so it is never normalised away.
    mcnt: int = 3
    seed: int = 0
    scale: str = "small"

    def __post_init__(self) -> None:
        if self.approach not in APPROACHES:
            raise ValueError(
                f"unknown approach {self.approach!r}; choose from {APPROACHES}"
            )
        if self.approach == "spottune":
            from repro.core.checkpoint_policy import validate_policy_spec

            if self.predictor not in PREDICTOR_KINDS:
                raise ValueError(
                    f"unknown predictor {self.predictor!r}; choose from {PREDICTOR_KINDS}"
                )
            if not 0.0 < self.theta <= 1.0:
                raise ValueError(f"theta must be in (0, 1]: {self.theta}")
            if self.instance is not None:
                raise ValueError("spottune scenarios pick instances dynamically")
            validate_policy_spec(self.checkpoint_policy)
        else:
            if not self.instance:
                raise ValueError("single_spot scenarios need an instance")
            # Normalise the fields a baseline run never consults.
            object.__setattr__(self, "theta", 1.0)
            object.__setattr__(self, "predictor", "none")
            object.__setattr__(self, "checkpoint_policy", "none")
            object.__setattr__(self, "reschedule_after", RESCHEDULE_AFTER_DEFAULT)
            object.__setattr__(self, "refund_enabled", True)
        if self.reschedule_after <= 0:
            raise ValueError(f"reschedule_after must be positive: {self.reschedule_after}")
        if self.scale not in ("small", "paper"):
            raise ValueError(f"scale must be 'small' or 'paper': {self.scale}")
        if int(self.mcnt) != self.mcnt or int(self.mcnt) < 1:
            raise ValueError(f"mcnt must be a positive integer: {self.mcnt}")
        object.__setattr__(self, "mcnt", int(self.mcnt))
        object.__setattr__(self, "theta", round(float(self.theta), 6))
        object.__setattr__(self, "reschedule_after", float(self.reschedule_after))
        object.__setattr__(self, "refund_enabled", bool(self.refund_enabled))
        object.__setattr__(self, "seed", int(self.seed))

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
        return cls(**dict(data))

    def label(self) -> str:
        """Human-readable cell key, shown in progress and failure lines."""
        if self.approach == "spottune":
            core = (
                f"spottune/{self.workload}/theta={self.theta:g}"
                f"/pred={self.predictor}/ckpt={self.checkpoint_policy}"
            )
            # Ablation knobs only appear when flipped off their
            # defaults, so existing cell labels stay stable as axes
            # are added.
            if self.reschedule_after != RESCHEDULE_AFTER_DEFAULT:
                core += f"/recycle={self.reschedule_after:g}"
            if not self.refund_enabled:
                core += "/no-refund"
        else:
            core = f"single_spot/{self.workload}/instance={self.instance}"
        # Like the other ablation knobs, a default mcnt keeps the
        # pre-existing label.
        if self.mcnt != MCNT_DEFAULT:
            core += f"/mcnt={self.mcnt}"
        return f"{core}/scale={self.scale}"

    def fingerprint(self) -> str:
        """Stable hex id of the cell; keys the on-disk cache."""
        # Every executor asks for it several times per cell.  The
        # fields are frozen, so memoise the first render in the
        # instance dict, outside the fields ==, hash and repr read.
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            payload = json.dumps(
                {"schema": SCHEMA_VERSION, "scenario": self.to_dict()},
                sort_keys=True,
                separators=(",", ":"),
            )
            cached = hashlib.sha256(payload.encode()).hexdigest()[:16]
            self.__dict__["_fingerprint"] = cached
        return cached


#: The dataclass default of ``reschedule_after``, derived rather than
#: repeated: label/table code decides "is this an ablation?" against
#: this value, and a hard-coded copy would silently mislabel ablation
#: rows if the field default ever moved.
RESCHEDULE_AFTER_DEFAULT: float = Scenario.__dataclass_fields__[
    "reschedule_after"
].default

#: The dataclass default of ``mcnt``, derived for the same reason.
MCNT_DEFAULT: int = Scenario.__dataclass_fields__["mcnt"].default


def _as_axis(value: Any) -> list[Any]:
    """Wrap scalars so every axis is a list of candidate values."""
    if isinstance(value, (str, bytes)) or not isinstance(value, (list, tuple)):
        return [value]
    return list(value)


class ScenarioGrid:
    """An ordered, de-duplicated set of scenarios.

    Build one from explicit scenarios, from a single cartesian axes
    mapping (:meth:`from_axes`), or from a JSON-style spec dict with
    shared defaults and one or more sub-grids (:meth:`from_spec`).
    """

    def __init__(self, scenarios: Iterable[Scenario]) -> None:
        seen: dict[str, Scenario] = {}
        for scenario in scenarios:
            seen.setdefault(scenario.fingerprint(), scenario)
        self._scenarios: tuple[Scenario, ...] = tuple(seen.values())

    def __len__(self) -> int:
        return len(self._scenarios)

    def __iter__(self) -> Iterator[Scenario]:
        return iter(self._scenarios)

    def __add__(self, other: "ScenarioGrid") -> "ScenarioGrid":
        return ScenarioGrid(list(self) + list(other))

    @property
    def scenarios(self) -> tuple[Scenario, ...]:
        return self._scenarios

    @classmethod
    def from_axes(cls, **axes: Any) -> "ScenarioGrid":
        """Cartesian product of the given axes.

        Scalar values are single-point axes; list/tuple values sweep.
        Example::

            ScenarioGrid.from_axes(
                workload=["LoR", "LiR"], theta=[0.7, 1.0], predictor="oracle"
            )
        """
        known = {f.name for f in fields(Scenario)}
        unknown = set(axes) - known
        if unknown:
            raise ValueError(f"unknown grid axes: {sorted(unknown)}")
        names = [name for name in _AXIS_ORDER if name in axes]
        values = [_as_axis(axes[name]) for name in names]
        scenarios = [
            Scenario(**dict(zip(names, combo))) for combo in itertools.product(*values)
        ]
        return cls(scenarios)

    @classmethod
    def from_spec(cls, spec: Mapping[str, Any]) -> "ScenarioGrid":
        """Build a grid from a declarative dict (the ``--spec`` format).

        Either a single axes mapping::

            {"workload": ["LoR", "LiR"], "theta": [0.7, 1.0], "seed": 0}

        or shared defaults plus sub-grids whose union is the sweep::

            {
                "seed": [0, 1],
                "grids": [
                    {"approach": "spottune", "workload": ["LoR"], "theta": [0.7, 1.0]},
                    {"approach": "single_spot", "workload": ["LoR"],
                     "instance": ["r4.large", "m4.4xlarge"]},
                ],
            }

        Sub-grid axes override the shared defaults.
        """
        if not isinstance(spec, Mapping):
            raise ValueError(f"grid spec must be a mapping, got {type(spec).__name__}")
        spec = dict(spec)
        subgrids: Sequence[Mapping[str, Any]]
        if "grids" in spec:
            subgrids = spec.pop("grids")
            if not isinstance(subgrids, Sequence) or isinstance(subgrids, (str, bytes)):
                raise ValueError("'grids' must be a list of axes mappings")
        else:
            subgrids = [{}]
        grid = cls([])
        for sub in subgrids:
            if not isinstance(sub, Mapping):
                raise ValueError("each sub-grid must be a mapping of axes")
            axes = {**spec, **sub}
            grid = grid + cls.from_axes(**axes)
        if not len(grid):
            raise ValueError("grid spec produced no scenarios")
        return grid

    def __repr__(self) -> str:
        return f"ScenarioGrid({len(self)} scenarios)"
