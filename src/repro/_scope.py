"""Context-local session scoping (the substrate under :mod:`repro.api`).

A :class:`~repro.api.Session` *scopes* the engine/build configuration:
entering a session pushes its :class:`~repro.api.SessionConfig` onto a
:class:`contextvars.ContextVar`, and every ``default_*`` resolver (engine
knobs, workload build defaults, the simulators' vectorize knob) consults
the active config before falling back to the ``$REPRO_*`` environment
variables and the built-in defaults.

``contextvars`` gives exactly the isolation the concurrent-sweep story
needs: each thread (and each asyncio task) owns its own context, so two
sessions entered in two threads never see each other's configuration,
while nested ``with`` blocks in one thread restore the outer session on
exit via token-based reset.

This module is import-cycle-free on purpose — it knows nothing about
sessions beyond "an object" — so the low-level layers (``workloads``,
``optimizer.engine``, ``sim``) can read the active config without
importing :mod:`repro.api`.  For the same reason it also owns
:func:`parse_bool`, the one strict boolean parser every configuration
layer (environment variables, session and serve config fields) shares.
"""

from __future__ import annotations

from contextvars import ContextVar, Token
from typing import Any

#: The innermost active :class:`~repro.api.SessionConfig` (or ``None``).
_ACTIVE: ContextVar[Any] = ContextVar("repro_active_session_config", default=None)


def active_config() -> Any:
    """The innermost active session configuration, or ``None``."""
    return _ACTIVE.get()


def active_value(field: str) -> Any:
    """One field of the active session configuration (``None`` when no
    session is active or the session leaves the field unset)."""
    config = _ACTIVE.get()
    if config is None:
        return None
    return getattr(config, field, None)


def activate(config: Any) -> Token:
    """Push ``config`` as the active session configuration; returns the
    token that :func:`deactivate` needs to restore the outer scope."""
    return _ACTIVE.set(config)


def deactivate(token: Token) -> None:
    """Restore the configuration that was active before :func:`activate`."""
    _ACTIVE.reset(token)


_BOOL_TOKENS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


def parse_bool(value: Any, name: str = "value") -> bool:
    """Strict boolean parse of a config value named ``name``.

    Accepts a bool, the ints ``0``/``1`` and the (case- and
    space-insensitive) tokens 1/true/yes/on and 0/false/no/off.  Anything
    else raises ``ValueError`` naming ``name`` and the value: a typo'd
    ``REPRO_VECTORIZE=flase`` or a JSON ``"false"``-ish string must never
    masquerade as ``True`` or as the default.
    """
    if isinstance(value, bool):
        return value
    if isinstance(value, int) and value in (0, 1):
        return bool(value)
    if isinstance(value, str) and value.strip().lower() in _BOOL_TOKENS:
        return _BOOL_TOKENS[value.strip().lower()]
    raise ValueError(
        f"{name} must be a boolean (1/true/yes/on or 0/false/no/off), "
        f"got {value!r}"
    )
