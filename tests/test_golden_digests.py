"""Byte identity of the CLI's output on a fixed set of command lines.

golden/outputs.sha256 holds one line per command line: the sha256 of what
the command prints on stdout, its exit code and the command line itself,
quoted as a shell would take it after `repstab`.  So one line can be
checked by hand:

    PYTHONPATH=src python -m repstab rankscan --spec '(cycle 3 2)' \\
        --mmax 14 --budget 14 | sha256sum

The set covers every socle's polynomial up to size 12, the rank scans of
the CI's specs, three heavy scans and the cycle polynomials up to 60.  All
of it runs in one interpreter through cli.run, so the caches that carry
over between commands are exercised too.  To record the file again, after
a change meant to alter some output:

    PYTHONPATH=src:tests python -c 'import test_golden_digests as t; t.record()'
"""

import contextlib
import hashlib
import io
import pathlib
import shlex

from repstab.cli import run
from repstab.partitions import format_partition, partitions_of

DIGESTS = pathlib.Path(__file__).parent / "golden" / "outputs.sha256"

SCAN_SPECS = [
    '(proj 5 "3,2" "2,2,1" "3,1,1")',
    '(sum (proj 4 "2,2") (wtrunc<= 2 (proj 4 "3,1")) (vfam 3,2,1))',
    "(cycle 3 2)",
    "(cycle 2 1)",
    "(tensor (vfam 2,1) (vfam 1))",
    '(proj 4 "2,2" "2,2" "3,1")',
    '(tensor (proj 3 "2,1") (vfam 1))',
    '(wtrunc> 1 (proj 4 "3,1"))',
    "(trunc>= 9 (vfam 2,1 padded))",
    '(tensor (cycle 2) (wtrunc<= 1 (proj 3 "2,1")))',
]

HEAVY_SCANS = [
    ("(tensor (vfam 5,4,3) (vfam 5,4,3))", 40),
    ("(cycle 8 7)", 60),
    ("(cycle 14 14 14 14 14 14 14 14)", 14),
]


def command_lines():
    """Every argv the digests cover, in the file's order."""
    lines = [
        ["frobpoly", f"socle:{format_partition(s)}", "--json"]
        for size in range(13)
        for s in partitions_of(size)
    ]
    scans = [(spec, m) for spec in SCAN_SPECS for m in (14, 100, 10**6)] + HEAVY_SCANS
    for spec, m in scans:
        argv = ["rankscan", "--spec", spec, "--mmax", str(m), "--budget", str(m)]
        lines += [argv, argv + ["--json"]]
    lines += [["cyclepoly", str(ell)] + json for ell in range(1, 61) for json in ([], ["--json"])]
    return lines


def digest_line(argv):
    """'sha256 exit-code command-line' for one run of argv through cli.run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    return f"{hashlib.sha256(out.getvalue().encode()).hexdigest()} {code} {shlex.join(argv)}"


def record():
    DIGESTS.write_text("".join(digest_line(argv) + "\n" for argv in command_lines()))


def test_outputs_match_their_recorded_digests():
    recorded = DIGESTS.read_text().splitlines()
    argvs = command_lines()
    assert len(argvs) == 458
    assert [shlex.split(line)[2:] for line in recorded] == argvs
    changed = [line for argv, line in zip(argvs, recorded) if digest_line(argv) != line]
    assert not changed, f"{len(changed)} outputs changed, the first: {changed[0]}"
