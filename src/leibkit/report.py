"""Verification reports with re-checkable witnesses."""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .linalg import Subspace, Vec


@dataclass(frozen=True)
class Witness:
    """A falsifying input together with both sides of the violated identity.

    ``inputs`` are coordinate vectors, so the identity can be re-evaluated at
    the witness and must reproduce lhs != rhs.
    """

    inputs: tuple[Vec, ...]
    lhs: Vec
    rhs: Vec
    note: str = ""


@dataclass(frozen=True)
class Report:
    holds: bool
    identity: str = ""
    witness: Witness | None = None

    def __post_init__(self):
        if self.holds and self.witness is not None:
            raise ValueError("a holding report cannot carry a witness")
        if not self.holds and self.witness is None:
            raise ValueError("a failing report must carry a witness")

    def __bool__(self) -> bool:
        return self.holds


def ok(identity: str = "") -> Report:
    return Report(True, identity)


def fail(identity: str, inputs, lhs, rhs, note: str = "") -> Report:
    return Report(False, identity, Witness(tuple(inputs), tuple(lhs), tuple(rhs), note))


def require(rep: Report) -> None:
    """Raise ValueError naming the identity ``rep`` falsifies and where."""
    if not rep.holds:
        raise ValueError(f"{rep.identity} fails at {rep.witness.note}")


class Checked:
    """A structure whose ``report()`` gives the first failure of its checks."""

    def validate(self):
        """Raise ValueError from a failing ``report()``; otherwise return self."""
        require(self.report())
        return self


@dataclass(frozen=True)
class HomReport(Report):
    """Result of a homomorphism check, with kernel and image attached."""

    injective: bool = False
    kernel: Subspace | None = None
    image: Subspace | None = None


def memo(obj, check, *args):
    """``check(*args)``, or ``check(obj)`` without args, run at most once per object.

    The result is kept on ``obj`` under the check's name.  A key's presence,
    not its value's truth, marks a hit, so a failing (falsy) Report is kept too.
    """
    cache = vars(obj).setdefault("_memo", {})
    name = check.__name__
    if name not in cache:
        cache[name] = check(*(args or (obj,)))
    return cache[name]


def checked_once(check):
    """Make ``check(obj)`` run at most once per object.

    The result is kept under the check's name, so a structure's ``report()``
    that calls ``memo(obj, check)`` and a direct call share one entry.
    """
    @functools.wraps(check)
    def once(obj):
        return memo(obj, check)
    return once
