"""Certificates: clauses in the order checked, the verdict, the JSON form
and merging under the titles of the parts."""
from equicurve.certificates import Certificate, Clause, merge


def test_clauses_verdict_json_and_merge():
    a = Certificate("first")
    assert a.ok and a.clauses == [] and a.check("holds", 1) is True
    assert a.check("fails", 0, witness="w") is False
    assert a.clauses == [Clause("holds", True), Clause("fails", False, "w")]
    assert not a.ok
    assert a.to_json() == {"title": "first", "ok": False, "clauses": [
        {"claim": "holds", "status": "PASS", "witness": ""},
        {"claim": "fails", "status": "FAIL", "witness": "w"}]}
    b = Certificate("second")
    b.check("also holds", True, witness="v")
    m = merge("both", [a, b])
    assert m.title == "both" and not m.ok
    assert m.clauses == [Clause("first: holds", True),
                         Clause("first: fails", False, "w"),
                         Clause("second: also holds", True, "v")]
    assert merge("one", [b]).ok
