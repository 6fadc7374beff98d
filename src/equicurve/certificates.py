"""Machine-checked certificates: lists of (claim, status, witness) clauses."""
from __future__ import annotations

from collections import namedtuple
from sys import intern


class Clause(namedtuple("Clause", "claim ok witness", defaults=("",))):
    """One checked claim: its text, whether it held, and a witness."""

    __slots__ = ()


class Certificate:
    """A titled list of clauses; it passes when every clause does.

    The clauses are kept as three columns, claims, statuses and witnesses,
    since callers keep certificates: one tuple per clause took twice the
    memory.  ``clauses`` builds the list of :class:`Clause` values.
    """

    __slots__ = ("title", "claims", "oks", "witnesses")

    def __init__(self, title: str):
        self.title = title
        self.claims, self.oks, self.witnesses = [], [], []

    def check(self, claim: str, ok: bool, witness: str = "") -> bool:
        # claims and witnesses repeat across certificates; interning shares
        # their text
        ok = bool(ok)
        self.claims.append(intern(claim))
        self.oks.append(ok)
        self.witnesses.append(intern(witness))
        return ok

    @property
    def clauses(self) -> list[Clause]:
        return list(map(Clause, self.claims, self.oks, self.witnesses))

    @property
    def ok(self) -> bool:
        return all(self.oks)

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
    out.claims = [intern(f"{c.title}: {claim}") for c in certs
                  for claim in c.claims]
    out.oks = [ok for c in certs for ok in c.oks]
    out.witnesses = [w for c in certs for w in c.witnesses]
    return out
