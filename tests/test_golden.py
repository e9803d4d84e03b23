"""Golden reports: default CLI output compared byte for byte with files.

Each case runs ``genschur`` in-process and compares its stdout with the
file of the same name under ``tests/golden/``.  The files hold the
reports of small instances across the builtin families (an extended
zigzag, a zigzag, a matrix superalgebra, a trivial extension, a direct
sum), four structure-constant dumps (ext-zigzag:1, zigzag:1 at n=d=2,
where 300 of the 1,296 basis pairs have a nonzero product, and at n=1
d=2 the two derived presentations with odd letters: the trivial
extension of ext-zigzag:1, 51 basis triples and 339 product rows, and
the direct sum of zigzag:1 and matrix:1,1), five DCP reports at n=d=2
(ext-zigzag:1, even-matrix:2 and matrix:1,1 in the orbit basis, and
ext-zigzag:1 and the even-matrix:2 counterexample in the scaled one;
the orbit verdicts of even-matrix:2 and matrix:1,1 are dcp: true where
the scaled ones are not sound), the scaled DCP report of matrix:1,1 at n=1 d=3 (rank_q 4 < dim_s 12 and
divisors [1, 1, 1, 3], the one divisor other than 1 or 2 among them)
and one Gram matrix (zigzag:1).  A report must not depend on hash
order, so the same test is also run with ``PYTHONHASHSEED=0`` and ``1``.

Regenerate the files, only when a report change is intended, with

    PYTHONPATH=src python tests/test_golden.py
"""

import sys
from pathlib import Path

import pytest

from genschur.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "verify_ext-zigzag_1_n1_d2.json":
        ["verify", "--algebra", "ext-zigzag:1", "-n", "1", "-d", "2"],
    "verify_zigzag_1_n2_d2.json":
        ["verify", "--algebra", "zigzag:1", "-n", "2", "-d", "2"],
    "verify_matrix_1-1_n1_d2.json":
        ["verify", "--algebra", "matrix:1,1", "-n", "1", "-d", "2"],
    "verify_trivext_matrix_1-0_n1_d3.json":
        ["verify", "--algebra", "trivext:matrix:1,0", "-n", "1", "-d", "3"],
    "verify_sum_zigzag_1_matrix_1-0_n1_d2.json":
        ["verify", "--algebra", "sum:zigzag:1+matrix:1,0", "-n", "1", "-d", "2"],
    "dump_ext-zigzag_1_n1_d2.json":
        ["dump", "--algebra", "ext-zigzag:1", "-n", "1", "-d", "2"],
    "dump_zigzag_1_n2_d2.json":
        ["dump", "--algebra", "zigzag:1", "-n", "2", "-d", "2"],
    "dump_trivext_ext-zigzag_1_n1_d2.json":
        ["dump", "--algebra", "trivext:ext-zigzag:1", "-n", "1", "-d", "2"],
    "dump_sum_zigzag_1_matrix_1-1_n1_d2.json":
        ["dump", "--algebra", "sum:zigzag:1+matrix:1,1", "-n", "1", "-d", "2"],
    "dcp_ext-zigzag_1_n2_d2.json":
        ["dcp", "--algebra", "ext-zigzag:1", "-n", "2", "-d", "2"],
    "dcp_ext-zigzag_1_n2_d2_orbit.json":
        ["dcp", "--algebra", "ext-zigzag:1", "-n", "2", "-d", "2",
         "--basis", "orbit"],
    "dcp_even-matrix_2_n2_d2.json":
        ["dcp", "--algebra", "even-matrix:2", "-n", "2", "-d", "2"],
    "dcp_even-matrix_2_n2_d2_orbit.json":
        ["dcp", "--algebra", "even-matrix:2", "-n", "2", "-d", "2",
         "--basis", "orbit"],
    "dcp_matrix_1-1_n1_d3.json":
        ["dcp", "--algebra", "matrix:1,1", "-n", "1", "-d", "3"],
    "dcp_matrix_1-1_n2_d2_orbit.json":
        ["dcp", "--algebra", "matrix:1,1", "-n", "2", "-d", "2",
         "--basis", "orbit"],
    "gram_zigzag_1_n2_d2.json":
        ["gram", "--algebra", "zigzag:1", "-n", "2", "-d", "2"],
}


def argv_of(name):
    argv = CASES[name] + ["--format", "json"]
    return argv + ["all"] if argv[0] == "verify" else argv


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, capsys):
    code = main(argv_of(name))
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    import contextlib
    import io

    for name in sorted(CASES):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv_of(name))
        if code != 0:
            sys.exit(f"{name}: exit {code}")
        (GOLDEN / name).write_text(buf.getvalue())
