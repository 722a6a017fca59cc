"""The CLI's reports, byte for byte, on small fixed inputs: the validity
report and summary of a matrix that breaks every axiom, the inequality
suite with a passed and a failed diameter gate, and cd-check on a short
Gaussian line."""

import json

import pytest

from conftest import BAD4
from qmspace.cli import main

VALIDATE_JSON = """\
{
 "negative_entries": [
  [
   1,
   2
  ]
 ],
 "nonzero_diagonal": [
  0
 ],
 "tol": 1e-06,
 "triangle_violations": [
  [
   0,
   1,
   2
  ]
 ],
 "valid": false,
 "zero_offdiagonal": [
  [
   0,
   1
  ]
 ]
}
"""

VALIDATE_CSV = """\
tol,valid
1e-06,False
"""

REPORT_JSON = """\
{
 "diameter": 5.0,
 "n": 4,
 "reversibility": "inf",
 "triangle_violations": 6,
 "valid": false
}
"""

INEQ_JSON = """\
[
 {
  "details": {
   "gate": false
  },
  "lhs": 2.0,
  "name": "diameter[K=1.0,N=2]",
  "passed": true,
  "rhs": 3.14159265359,
  "slack": 1.14159265359,
  "tolerance": 2.35619449019
 },
 {
  "details": {
   "fisher": 0.67863526197,
   "w2": 0.113249024532
  },
  "lhs": 0.024287303444,
  "name": "hwi[K=1.0]",
  "passed": true,
  "rhs": 0.0868811072975,
  "slack": 0.0625938038534,
  "tolerance": 1.25
 },
 {
  "details": {
   "fisher": 0.67863526197,
   "relative_slack": 0.928423102055
  },
  "lhs": 0.024287303444,
  "name": "log_sobolev[K=1.0]",
  "passed": true,
  "rhs": 0.339317630985,
  "slack": 0.315030327541,
  "tolerance": 0.1
 },
 {
  "details": {
   "energy": 9.88040483913
  },
  "lhs": 0.377381061049,
  "name": "poincare[K=1.0]",
  "passed": true,
  "rhs": 9.88040483913,
  "slack": 9.50302377808,
  "tolerance": 1.25
 },
 {
  "details": {
   "constant": 0.5
  },
  "lhs": 0.377381061049,
  "name": "lichnerowicz[K=1.0,N=2]",
  "passed": true,
  "rhs": 4.94020241956,
  "slack": 4.56282135851,
  "tolerance": 1.25
 }
]
"""

INEQ_GATED_JSON = """\
[
 {
  "details": {
   "gate": true
  },
  "lhs": 2.0,
  "name": "diameter[K=9.0,N=2]",
  "passed": false,
  "rhs": 1.0471975512,
  "slack": -0.952802448803,
  "tolerance": 0.785398163397
 }
]
"""

CD_JSON = """\
[
 {
  "details": {
   "certificate": "consistent",
   "t": 0.25
  },
  "lhs": 0.024287303444,
  "name": "cd[H,K=1.0,N=inf,t=0.25]",
  "passed": true,
  "rhs": 0.0181087681666,
  "slack": -0.0061785352774,
  "tolerance": 1.25
 },
 {
  "details": {
   "certificate": "consistent",
   "t": 0.5
  },
  "lhs": 0.024287303444,
  "name": "cd[H,K=1.0,N=inf,t=0.5]",
  "passed": true,
  "rhs": 0.0131868796617,
  "slack": -0.0111004237823,
  "tolerance": 1.25
 },
 {
  "details": {
   "certificate": "consistent",
   "t": 0.75
  },
  "lhs": 0.00711304296925,
  "name": "cd[H,K=1.0,N=inf,t=0.75]",
  "passed": true,
  "rhs": 0.00952163792924,
  "slack": 0.00240859495999,
  "tolerance": 1.25
 }
]
"""

CASES = {
    "validate": (["validate", "{bad}", "--max-listed", "1"], 1, VALIDATE_JSON),
    "validate-csv": (["validate", "{bad}", "--max-listed", "1",
                      "--format", "csv"], 1, VALIDATE_CSV),
    "report": (["report", "{bad}"], 1, REPORT_JSON),
    "ineq": (["ineq", "{line}", "--K", "1", "--N", "2", "--log-sobolev",
              "--hwi", "--poincare"], 0, INEQ_JSON),
    "ineq-gated": (["ineq", "{line}", "--K", "9", "--N", "2", "--log-sobolev",
                    "--hwi", "--poincare"], 1, INEQ_GATED_JSON),
    "cd-check": (["cd-check", "{line}", "--K", "1"], 0, CD_JSON),
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    bad, line = tmp / "bad.json", tmp / "line.json"
    bad.write_text(json.dumps({"dist": BAD4}))
    assert main(["gen", "gaussian-line", "--K", "1", "--half-width", "1",
                 "--grid", "0.25", "-o", str(line)]) == 0
    return {"bad": str(bad), "line": str(line)}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes(case, files, tmp_path):
    argv, code, want = CASES[case]
    out = tmp_path / "out"
    assert main([a.format(**files) for a in argv] + ["-o", str(out)]) == code
    assert out.read_text() == want
