"""Machine-checked certificates: lists of (claim, status, witness) clauses."""
from __future__ import annotations

from collections import namedtuple
from sys import intern


class Clause(namedtuple("Clause", "claim ok witness", defaults=("",))):
    """One checked claim: its text, whether it held, and a witness."""

    __slots__ = ()


class Certificate:
    """A titled list of clauses; it passes when every clause does."""

    __slots__ = ("title", "clauses")

    def __init__(self, title: str, clauses: list[Clause] | None = None):
        self.title = title
        self.clauses = [] if clauses is None else clauses

    def check(self, claim: str, ok: bool, witness: str = "") -> bool:
        # claims and witnesses repeat across certificates; interning shares
        # their text
        self.clauses.append(Clause(intern(claim), bool(ok), intern(witness)))
        return bool(ok)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.clauses)

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
    return Certificate(title, [
        Clause(intern(f"{c.title}: {cl.claim}"), cl.ok, cl.witness)
        for c in certs for cl in c.clauses])
