"""Machine-checked certificates: lists of (claim, status, witness) clauses."""
from __future__ import annotations

from collections import namedtuple
from sys import intern


class Clause(namedtuple("Clause", "claim ok witness", defaults=("",))):
    """One checked claim: its text, whether it held, and a witness."""

    __slots__ = ()


class Certificate:
    """A titled list of clauses; it passes when every clause does.

    The clauses are kept flat in one tuple, ``claim, ok, witness`` per
    clause, since callers keep certificates: one tuple per clause took
    twice the memory, and lists (three columns, or one) cost a header and
    spare capacity each.  A certificate holds a few dozen clauses at most,
    so extending the tuple per clause stays cheap.  ``clauses`` builds the
    list of :class:`Clause` values.
    """

    __slots__ = ("title", "flat")

    def __init__(self, title: str):
        self.title = title
        self.flat = ()

    def check(self, claim: str, ok: bool, witness: str = "") -> bool:
        # claims and witnesses repeat across certificates; interning shares
        # their text
        ok = bool(ok)
        self.flat += (intern(claim), ok, intern(witness))
        return ok

    @property
    def clauses(self) -> list[Clause]:
        f = self.flat
        return list(map(Clause, f[::3], f[1::3], f[2::3]))

    @property
    def ok(self) -> bool:
        return all(self.flat[1::3])

    def to_json(self) -> dict:
        return {
            "title": self.title,
            "ok": self.ok,
            "clauses": [
                {"claim": c.claim, "status": "PASS" if c.ok else "FAIL",
                 "witness": c.witness}
                for c in self.clauses
            ],
        }


def merge(title: str, certs: list[Certificate]) -> Certificate:
    out = Certificate(title)
    for c in certs:
        for claim, ok, witness in c.clauses:
            out.check(f"{c.title}: {claim}", ok, witness)
    return out
