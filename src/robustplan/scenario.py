"""Scenario files: one JSON document describing a complete planning problem.

A scenario couples the outcome domain, the decision range, a utility, the
forecasts, and optionally the true distribution and a refinement-oracle
recipe. Field errors are reported with dotted paths ("utility.p",
"forecasts.upper_probs[0]") so a bad config can be fixed without reading
code.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from importlib import resources
from pathlib import Path

from .bruteforce import GridSpec
from .errors import ValidationError
from .forecast import (
    AffineFunction,
    ConstraintFunction,
    DiscreteDistribution,
    Domain,
    Forecast,
    ForecastSet,
    IndicatorInterval,
    NegatedIndicatorInterval,
    NegatedPowerFunction,
    PowerFunction,
    PredictionIntervals,
    to_generic,
)
from .refine import ClampedStepOracle
from .solver import ExchangeConfig
from .utility import Utility, market_bidding

#: Slack below which the configured truth is flagged as violating a forecast.
_TRUTH_TOLERANCE = 1e-9


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ValidationError(f"{where}.{key}" if where else key, "missing required field")
    return obj[key]


def _number(obj: dict, key: str, where: str) -> float:
    value = _require(obj, key, where)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where}.{key}" if where else key, f"expected a number, got {value!r}")
    return float(value)


def _numbers(value, where: str, length: int | None = None) -> tuple[float, ...]:
    """An array of numbers as floats; a wrong length names ``where``, a bad element ``where[i]``."""
    row = _sequence(value, where)
    if length is not None and len(row) != length:
        raise ValidationError(where, f"expected {length} numbers, got {value!r}")
    for i, v in enumerate(row):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValidationError(f"{where}[{i}]", f"expected a number, got {v!r}")
    return tuple(float(v) for v in row)


def _integer(obj: dict, key: str, where: str) -> int:
    value = _require(obj, key, where)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{where}.{key}" if where else key, f"expected an integer, got {value!r}")
    return value


def _mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(where, f"expected an object, got {type(value).__name__}")
    return value


def _sequence(value, where: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(where, f"expected an array, got {type(value).__name__}")
    return value


def _check_keys(obj: dict, allowed: set[str], where: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ValidationError(f"{where}.{key}" if where else key, "unknown field")


#: Constructor fields whose scenario path is not ``<section>.<field>``.
_RENAMED_FIELDS = {"price": "utility.p", "penalty": "utility.q", "decision_bounds": "decision"}


def _construct(build, where: str, **kwargs):
    """build(**kwargs), with its range errors reported under scenario paths.

    Field f (or f[i]) becomes where.f (where.f[i]) unless _RENAMED_FIELDS names f.
    """
    try:
        return build(**kwargs)
    except ValidationError as err:
        name, bracket, index = err.field.partition("[")
        path = _RENAMED_FIELDS.get(name, f"{where}.{name}")
        raise ValidationError(path + bracket + index, err.message) from err


@dataclass(frozen=True)
class Scenario:
    """A fully parsed scenario, ready to hand to the solver layer."""

    utility: Utility
    forecast_set: ForecastSet
    truth: DiscreteDistribution | None
    oracle: ClampedStepOracle | None
    exchange: ExchangeConfig | None
    check_grid: GridSpec
    truth_satisfies_forecasts: bool | None


def _parse_constraint_function(obj: dict, where: str) -> ConstraintFunction:
    kind = _require(obj, "type", where)
    if kind == "indicator" or kind == "negated_indicator":
        _check_keys(obj, {"type", "lo", "hi", "closed_right"}, where)
        lo = _number(obj, "lo", where)
        hi = _number(obj, "hi", where)
        closed = obj.get("closed_right", False)
        if not isinstance(closed, bool):
            raise ValidationError(f"{where}.closed_right", f"expected true/false, got {closed!r}")
        cls = IndicatorInterval if kind == "indicator" else NegatedIndicatorInterval
        return cls(lo, hi, closed_right=closed)
    if kind == "affine":
        _check_keys(obj, {"type", "offset", "slope"}, where)
        return AffineFunction(_number(obj, "offset", where), _number(obj, "slope", where))
    if kind == "power" or kind == "negated_power":
        _check_keys(obj, {"type", "exponent"}, where)
        cls = PowerFunction if kind == "power" else NegatedPowerFunction
        return cls(_integer(obj, "exponent", where))
    raise ValidationError(f"{where}.type", f"unknown constraint function type {kind!r}")


def _parse_utility(obj: dict, decision: tuple[float, float]) -> Utility:
    kind = _require(obj, "type", "utility")
    if kind == "market_bidding":
        _check_keys(obj, {"type", "p", "q"}, "utility")
        return _construct(
            market_bidding,
            "utility",
            price=_number(obj, "p", "utility"),
            penalty=_number(obj, "q", "utility"),
            bid_lower=decision[0],
            bid_upper=decision[1],
        )
    if kind == "piecewise_affine_min":
        _check_keys(obj, {"type", "pieces"}, "utility")
        pieces = _sequence(_require(obj, "pieces", "utility"), "utility.pieces")
        return _construct(
            Utility,
            "utility",
            pieces=tuple(_numbers(piece, f"utility.pieces[{i}]", 3) for i, piece in enumerate(pieces)),
            decision_bounds=decision,
        )
    raise ValidationError("utility.type", f"unknown utility type {kind!r}")


def _parse_forecasts(obj: dict, domain: Domain) -> ForecastSet:
    kind = _require(obj, "type", "forecasts")
    if kind == "prediction_intervals":
        _check_keys(obj, {"type", "breakpoints", "lower_probs", "upper_probs"}, "forecasts")
        pi = _construct(
            PredictionIntervals,
            "forecasts",
            breakpoints=_numbers(_require(obj, "breakpoints", "forecasts"), "forecasts.breakpoints"),
            lower_probs=_numbers(_require(obj, "lower_probs", "forecasts"), "forecasts.lower_probs"),
            upper_probs=_numbers(_require(obj, "upper_probs", "forecasts"), "forecasts.upper_probs"),
        )
        if pi.breakpoints[0] != domain.lower or pi.breakpoints[-1] != domain.upper:
            raise ValidationError(
                "forecasts.breakpoints",
                f"must span the domain [{domain.lower}, {domain.upper}], "
                f"got [{pi.breakpoints[0]}, {pi.breakpoints[-1]}]",
            )
        return to_generic(pi)
    if kind == "generic":
        _check_keys(obj, {"type", "constraints"}, "forecasts")
        forecasts = []
        for i, entry in enumerate(_sequence(_require(obj, "constraints", "forecasts"), "forecasts.constraints")):
            where = f"forecasts.constraints[{i}]"
            entry = _mapping(entry, where)
            _check_keys(entry, {"g", "epsilon"}, where)
            fn = _parse_constraint_function(_mapping(_require(entry, "g", where), f"{where}.g"), f"{where}.g")
            forecasts.append(Forecast(function=fn, bound=_number(entry, "epsilon", where)))
        return _construct(ForecastSet, "forecasts", domain=domain, forecasts=tuple(forecasts))
    raise ValidationError("forecasts.type", f"unknown forecasts type {kind!r}")


def _parse_truth(obj: dict) -> DiscreteDistribution:
    _check_keys(obj, {"atoms"}, "truth")
    atoms = _sequence(_require(obj, "atoms", "truth"), "truth.atoms")
    return _construct(
        DiscreteDistribution,
        "truth",
        atoms=tuple(_numbers(atom, f"truth.atoms[{i}]", 2) for i, atom in enumerate(atoms)),
    )


def _parse_solver(obj: dict) -> tuple[ExchangeConfig | None, GridSpec]:
    _check_keys(obj, {"exchange", "check_grid"}, "solver")
    exchange = None
    if "exchange" in obj:
        where = "solver.exchange"
        section = dict(asdict(ExchangeConfig()), **_mapping(obj["exchange"], where))
        _check_keys(
            section,
            {"initial_grid_points", "violation_tolerance", "max_rounds", "search_grid_points"},
            where,
        )
        exchange = _construct(
            ExchangeConfig,
            where,
            initial_grid_points=_integer(section, "initial_grid_points", where),
            violation_tolerance=_number(section, "violation_tolerance", where),
            max_rounds=_integer(section, "max_rounds", where),
            search_grid_points=_integer(section, "search_grid_points", where),
        )
    check_grid = GridSpec()
    if "check_grid" in obj:
        where = "solver.check_grid"
        section = dict(asdict(GridSpec()), **_mapping(obj["check_grid"], where))
        _check_keys(section, {"base_points"}, where)
        check_grid = _construct(GridSpec, where, base_points=_integer(section, "base_points", where))
    return exchange, check_grid


def parse_scenario(config: dict) -> Scenario:
    """Build a Scenario from an already-decoded JSON object."""
    config = _mapping(config, "config")
    _check_keys(
        config, {"domain", "decision", "utility", "forecasts", "truth", "oracle", "solver"}, ""
    )
    domain_obj = _mapping(_require(config, "domain", ""), "domain")
    _check_keys(domain_obj, {"lower", "upper"}, "domain")
    domain = Domain(_number(domain_obj, "lower", "domain"), _number(domain_obj, "upper", "domain"))

    decision_obj = _mapping(_require(config, "decision", ""), "decision")
    _check_keys(decision_obj, {"lower", "upper"}, "decision")
    decision = (
        _number(decision_obj, "lower", "decision"),
        _number(decision_obj, "upper", "decision"),
    )

    utility = _parse_utility(_mapping(_require(config, "utility", ""), "utility"), decision)
    forecast_set = _parse_forecasts(_mapping(_require(config, "forecasts", ""), "forecasts"), domain)

    truth = None
    truth_ok = None
    if "truth" in config:
        truth = _parse_truth(_mapping(config["truth"], "truth"))
        truth_ok = bool(truth.constraint_slacks(forecast_set).min(initial=0.0) >= -_TRUTH_TOLERANCE)

    oracle = None
    if "oracle" in config:
        section = _mapping(config["oracle"], "oracle")
        kind = _require(section, "type", "oracle")
        if kind != "clamped_step":
            raise ValidationError("oracle.type", f"unknown oracle type {kind!r}")
        _check_keys(section, {"type", "step", "margin"}, "oracle")
        step = _number(section, "step", "oracle")
        margin = _number(section, "margin", "oracle") if "margin" in section else 0.0
        if truth is None:
            raise ValidationError("oracle", "a clamped_step oracle requires a truth distribution")
        oracle = _construct(
            ClampedStepOracle, "oracle", forecast_set=forecast_set, truth=truth, step=step, margin=margin
        )

    exchange, check_grid = (None, GridSpec())
    if "solver" in config:
        exchange, check_grid = _parse_solver(_mapping(config["solver"], "solver"))

    return Scenario(
        utility=utility,
        forecast_set=forecast_set,
        truth=truth,
        oracle=oracle,
        exchange=exchange,
        check_grid=check_grid,
        truth_satisfies_forecasts=truth_ok,
    )


def bundled_scenario_names() -> list[str]:
    """Names of the scenarios shipped inside the package."""
    data = resources.files("robustplan") / "data"
    return sorted(p.name.removesuffix(".json") for p in data.iterdir() if p.name.endswith(".json"))


def load_scenario(source: str | Path) -> Scenario:
    """Load a scenario from a JSON file path or a bundled scenario name."""
    path = Path(source)
    if path.is_file():
        text = path.read_text(encoding="utf-8")
    else:
        name = path.name.removesuffix(".json")
        candidate = resources.files("robustplan") / "data" / f"{name}.json"
        if not candidate.is_file():
            raise ValidationError(
                "config",
                f"{source!r} is neither a file nor a bundled scenario "
                f"(bundled: {', '.join(bundled_scenario_names())})",
            )
        text = candidate.read_text(encoding="utf-8")
    try:
        decoded = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValidationError("config", f"invalid JSON: {err}") from err
    return parse_scenario(decoded)
