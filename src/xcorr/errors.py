"""Exception hierarchy shared across the package.

Everything raised on purpose derives from :class:`XCorrError` so callers
(and the CLI) can distinguish "you misused the library" from genuine bugs.
The two helpers at the end turn malformed stored JSON artifacts into
:class:`ConfigError` for the ``from_json`` readers.
"""

from __future__ import annotations

import json


class XCorrError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(XCorrError, ValueError):
    """A numeric argument is outside its mathematical domain."""


class ConfigError(XCorrError, ValueError):
    """A configuration object violates its invariants."""


class SpecError(XCorrError, ValueError):
    """A targeting specification is internally inconsistent."""


class AxiomViolation(XCorrError):
    """A truth table fails monotonicity or input-sensitivity.

    Core extraction is only defined for monotone, non-constant functions;
    anything else has no unique minimal family.
    """


class OverlapError(XCorrError, ValueError):
    """Grouped placement was given groups that share an input."""


class EmptyFamily(XCorrError):
    """A witness search was attempted on a family with no members."""


class BudgetExceeded(XCorrError):
    """A search exhausted its configured test budget before finishing.

    Carries the partial result so callers can still inspect what was found.
    """

    def __init__(self, message: str, partial=None, tests_used: int = 0):
        super().__init__(message)
        self.partial = partial
        self.tests_used = tests_used


class ConvergenceError(XCorrError):
    """Root finding failed to bracket or converge (should not occur for
    valid parameters; kept as a loud failure rather than a silent NaN)."""


class Inadmissible(XCorrError):
    """The requested noise ratio exceeds what any threshold can separate
    at the given family size/order.  Carries the binding maximum."""

    def __init__(self, message: str, m_lr: float):
        super().__init__(message)
        self.m_lr = m_lr


class MismatchedUniverse(XCorrError, ValueError):
    """Verdicts and ground truth cover different outputs or inputs.

    Scoring refuses to guess which side is wrong; the caller must align
    them explicitly.
    """


def parse_artifact(text: str, what: str, required: tuple[str, ...]) -> dict:
    """Decode a stored JSON object, raising :class:`ConfigError` when the
    text is not JSON, nests deeper than the decoder's recursion limit,
    repeats a key within one object, is not an object, or lacks a
    required key."""
    repeated: list[str] = []

    def unique(pairs: list[tuple[str, object]]) -> dict:
        doc = dict(pairs)
        if len(doc) < len(pairs):
            keys = [k for k, _ in pairs]
            repeated.append(next(k for i, k in enumerate(keys) if k in keys[:i]))
        return doc

    try:
        doc = json.loads(text, object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what}: not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"{what}: JSON nested too deeply to decode") from exc
    if repeated:
        raise ConfigError(f"{what}: key {repeated[0]!r} appears twice in one object")
    if not isinstance(doc, dict):
        raise ConfigError(f"{what}: expected a JSON object, got {type(doc).__name__}")
    missing = [k for k in required if k not in doc]
    if missing:
        raise ConfigError(f"{what}: missing keys {missing}")
    return doc


def require_count(doc: dict, key: str, what: str) -> int:
    """``doc[key]`` as an int in 0..2**63 - 1 (a size numpy can hold),
    else :class:`ConfigError`."""
    value = doc[key]
    if type(value) is not int or not 0 <= value <= 2**63 - 1:
        raise ConfigError(f"{what}: {key} must be an integer in 0..2**63 - 1, got {value!r}")
    return value
