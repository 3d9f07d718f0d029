"""``CCSpec``: a frozen, picklable congestion-control selector.

The public constructors — ``PathSpec``, ``FlowPool``, ``RunSpec`` and
:func:`~repro.tcp.cc.make_cc` — also take a bare name and coerce it with
:func:`as_cc_spec` (``"bbr"`` → ``CCSpec("bbr")``); past them a
congestion-control choice is a :class:`CCSpec`.

Params are stored as a sorted tuple of ``(key, value)`` pairs so the
spec is hashable and its pickle/repr is deterministic regardless of the
dict-insertion order a caller used.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Union

ParamValue = Union[int, float, str, bool]


def _freeze_params(
    params: Union[Mapping[str, ParamValue], tuple, None]
) -> tuple:
    if params is None:
        return ()
    if isinstance(params, Mapping):
        items = params.items()
    else:
        items = tuple(params)
    frozen = tuple(sorted((str(k), v) for k, v in items))
    seen = set()
    for key, _ in frozen:
        if key in seen:
            raise ValueError(f"params give the key {key!r} twice")
        seen.add(key)
    return frozen


@dataclass(frozen=True)
class CCSpec:
    """A congestion-control choice: law name plus keyword params.

    ``CCSpec("orbcc", {"probe_gain": 2.5})`` selects the ``orbcc`` law
    and forwards ``probe_gain=2.5`` to its constructor.  The name is
    checked against :data:`~repro.tcp.cc.CC_REGISTRY`, and the params
    against the law's constructor, when :func:`~repro.tcp.cc.make_cc`
    builds the law (ccbench's ``CCSpec("leotp")`` never builds one).
    """

    name: str
    params: tuple = field(default=())

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError(f"name must be a non-empty string: {self.name!r}")
        object.__setattr__(self, "name", self.name.lower())
        object.__setattr__(self, "params", _freeze_params(self.params))

    @property
    def params_dict(self) -> dict:
        """Params as a plain keyword dict (insertion order = sorted keys)."""
        return dict(self.params)

    def label(self) -> str:
        """Compact human-readable tag, e.g. ``orbcc(probe_gain=2.5)``."""
        if not self.params:
            return self.name
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.name}({inner})"

    def __str__(self) -> str:
        return self.label()


def as_cc_spec(cc: Union[str, CCSpec]) -> CCSpec:
    """Coerce a bare name or an existing spec into a :class:`CCSpec`."""
    if isinstance(cc, CCSpec):
        return cc
    if isinstance(cc, str):
        return CCSpec(cc)
    raise TypeError(f"expected a CC name or CCSpec, got {type(cc).__name__}")


def _coerce_value(text: str) -> ParamValue:
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_cc_params(cc_param: list) -> dict:
    """Parse repeated CLI ``k=v`` strings into a typed param dict.

    Values coerce ``true``/``false`` → bool, then int, then float, and
    fall back to the raw string.  Used by the ``--cc-param`` flag; a key
    given twice is refused, as :class:`CCSpec` refuses it.
    """
    params: dict = {}
    for pair in cc_param or ():
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"--cc-param expects k=v, got {pair!r}")
        if key in params:
            raise ValueError(f"cc_param {key!r} is given twice")
        params[key] = _coerce_value(value)
    return params
