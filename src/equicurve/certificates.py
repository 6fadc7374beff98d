"""Machine-checked certificates: lists of (claim, status, witness) clauses."""
from __future__ import annotations

from dataclasses import dataclass, field
from sys import intern


@dataclass(frozen=True, slots=True)
class Clause:
    claim: str
    ok: bool
    witness: str = ""


@dataclass
class Certificate:
    title: str
    clauses: list[Clause] = field(default_factory=list)

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
    out = Certificate(title)
    for c in certs:
        for cl in c.clauses:
            out.clauses.append(
                Clause(intern(f"{c.title}: {cl.claim}"), cl.ok, cl.witness))
    return out
