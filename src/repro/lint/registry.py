"""Pluggable rule registry.

Mirrors the strategy-registry idiom used by the autoscaler policies: rules
are classes registered under a stable code via :func:`register_rule`, and
the engine instantiates every registered rule for each file.  Adding a rule
is therefore one decorated class — no engine changes (see
``docs/static-analysis.md`` for the recipe).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Type

from repro.exceptions import ConfigurationError
from repro.lint.context import FileContext
from repro.lint.violations import Violation


class Rule:
    """Base class for one lint rule.

    Subclasses set the class attributes and implement :meth:`check`; the
    registry keys on :attr:`code`.  ``D`` codes are determinism hazards,
    ``S`` codes are sim-protocol violations.
    """

    #: Stable short code, e.g. ``"D101"`` — what suppressions reference.
    code: str = ""
    #: Kebab-case human name, e.g. ``"unseeded-global-random"``.
    name: str = ""
    #: One-line rationale shown by ``repro lint --list-rules`` and the docs.
    rationale: str = ""

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        """Yield every violation of this rule found in ``ctx``."""
        raise NotImplementedError


_RULES: dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a :class:`Rule` subclass to the registry."""
    if not cls.code or not cls.name:
        raise ConfigurationError(f"rule {cls.__name__} must define a code and a name")
    if cls.code in _RULES:
        raise ConfigurationError(
            f"duplicate rule code {cls.code!r}: {_RULES[cls.code].__name__} "
            f"is already registered"
        )
    _RULES[cls.code] = cls
    return cls


def rule_codes() -> tuple[str, ...]:
    """Every registered code, sorted."""
    return tuple(sorted(_RULES))


def get_rule(code: str) -> Type[Rule]:
    """The rule class registered under ``code``.

    Raises:
        ConfigurationError: for an unknown code (e.g. a typo in
            ``--select`` or in an ``allow[...]`` comment audit).
    """
    try:
        return _RULES[code]
    except KeyError:
        raise ConfigurationError(
            f"unknown rule code {code!r}; registered: {', '.join(rule_codes())}"
        ) from None


def all_rules(select: Iterable[str] | None = None) -> Iterator[Rule]:
    """Instantiate every registered rule (or just the ``select`` codes)."""
    codes = rule_codes() if select is None else tuple(select)
    for code in codes:
        yield get_rule(code)()
