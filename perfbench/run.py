#!/usr/bin/env python3
"""End-to-end benchmark of the repstab command line.

    python3 perfbench/run.py --workload scan_decompose --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from the repository root.  Workloads (closed loop: one operation at a
time, each waiting for the previous one to finish):

- scan_decompose: cold ``rankscan`` at m_max 17 on two families whose
  terms come from decomposing a character, so every degree builds the
  character table;
- scan_pieri: cold ``rankscan`` at m_max 28 on two families whose terms
  come from Pieri's rule, so no table is built;
- session: one interpreter runs ``frobpoly socle:<s>`` for every socle of
  size <= 8, then ``rankscan`` of four families at m_max 12, 14 and 16,
  with the caches carried over.

A cold operation runs in a fresh interpreter (see worker.py), so it starts
with every library cache empty.  The seed permutes the operations (socle
order, spec order within a window); the operations themselves and their
outputs do not depend on it.

Every output is checked twice: its canonical JSON must match the sha256
recorded in digests.json, and an independent second route must agree
(every rankscan bound check is ok; each frobpoly polynomial evaluates to
the irreducible character it stands for).

The run repeats passes over the operations for about ``--seconds``.  With
``--trace 0`` the result holds the end-to-end metrics: ``wall_s`` (time of
one pass inside ``cli.run``, each operation taken at its fastest pass),
``setup_s`` (median time from launching an interpreter to the first
library call, 8 launches before each pass) and ``peak_rss_mb`` (median
over passes of the largest peak RSS of an operation's interpreter).  With
``--trace 1`` untraced and traced passes alternate and the result holds
the per-layer metrics of layers.py plus ``trace.overhead``.  The last line
of stdout is the JSON result; the lines before it are a readable summary
with the run's metadata and its failure ratio.
"""

import argparse
import hashlib
import json
import os
import random
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
DIGESTS = HERE / "digests.json"

WORKLOADS = ("scan_decompose", "scan_pieri", "session")
SETUP_LAUNCHES_PER_PASS = 8
OP_TIMEOUT_S = 170

SCAN_DECOMPOSE_SPECS = ("(cycle 2 1)", "(tensor (vfam 2,1) (vfam 1))")
SCAN_PIERI_SPECS = (
    '(proj 5 "3,2" "2,2,1" "3,1,1")',
    '(sum (proj 4 "2,2") (wtrunc<= 2 (proj 4 "3,1")) (vfam 3,2,1))',
)
SESSION_SPECS = (
    "(cycle 2 1)",
    "(cycle 3 2)",
    "(tensor (vfam 2,1) (vfam 1))",
    '(proj 5 "3,2" "2,2,1" "3,1,1")',
)
SESSION_WINDOWS = (12, 14, 16)
SESSION_MAX_SOCLE = 8
# The trivial family should give rank_rs 0, rank_pc 0 and poly 1; the
# command currently exits 1 on it.  It is run once per session run and
# reported, outside the timed and counted operations.
TRIVIAL_SPEC = "(vfam -)"

LAYER_METRICS = (
    ("characters.character_table.s", "s"),
    ("characters.character_table.calls", "count"),
    ("characters.irr_char.calls", "count"),
    ("characters.kernel.memo_entries", "count"),
    ("characters.decompose.s", "s"),
    ("characters.decompose.self_s", "s"),
    ("characters.IrrDecomposition.character.s", "s"),
    ("characters.IrrDecomposition.character.calls", "count"),
    ("cyclepoly.eval_rho_all.s", "s"),
    ("cyclepoly.eval_rho_all.calls", "count"),
    ("cyclepoly.eval_rho_all.classes", "count"),
    ("partitions.cycle_types_of.s", "s"),
    ("partitions.cycle_types_of.calls", "count"),
    ("partitions.partitions_of.s", "s"),
    ("partitions.partitions_of.calls", "count"),
    ("frobenius.frobenius_poly_stable.s", "s"),
    ("frobenius.frobenius_poly_stable.calls", "count"),
    ("frobenius.frobenius_poly_stable.distinct", "count"),
    ("frobenius.frobenius_poly_of_module.s", "s"),
    ("pieri.projective_terms.s", "s"),
    ("pieri.projective_terms.calls", "count"),
    ("pieri.projective_terms.factors", "count"),
    ("fbmodules.terms_at.s", "s"),
    ("fbmodules.terms_at.self_s", "s"),
    ("fbmodules.terms_at.calls", "count"),
    ("fbmodules.character_at.s", "s"),
    ("fbmodules.character_at.self_s", "s"),
    ("fbmodules.character_at.calls", "count"),
    ("stability.rank_rs_estimate.s", "s"),
    ("stability.rank_pc_estimate.s", "s"),
    ("stability.verify_equivalence.s", "s"),
    ("stability.verify_equivalence.self_s", "s"),
    ("cli.run.s", "s"),
    ("cli.run.self_s", "s"),
    ("trace.overhead", "ratio"),
)


# -- workloads -------------------------------------------------------------------


def rankscan(spec, m_max):
    return ["rankscan", "--json", "--budget", str(m_max), "--mmax", str(m_max), "--spec", spec]


def frobpoly(socle):
    return ["frobpoly", "--json", f"socle:{socle}"]


def _socles(max_size):
    from repstab.partitions import format_partition, partitions_of

    return [format_partition(lam) for n in range(max_size + 1) for lam in partitions_of(n)]


def make_ops(workload, seed):
    """The workload's command lines in the order the seed picks."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "scan_decompose":
        return [rankscan(s, 17) for s in rng.sample(SCAN_DECOMPOSE_SPECS, 2)]
    if workload == "scan_pieri":
        return [rankscan(s, 28) for s in rng.sample(SCAN_PIERI_SPECS, 2)]
    socles = _socles(SESSION_MAX_SOCLE)
    ops = [frobpoly(s) for s in rng.sample(socles, len(socles))]
    for m_max in SESSION_WINDOWS:
        ops += [rankscan(s, m_max) for s in rng.sample(SESSION_SPECS, len(SESSION_SPECS))]
    return ops


def op_key(argv):
    return shlex.join(argv)


# -- running the worker ----------------------------------------------------------


def _child_env():
    # fixed string hashing, so set iteration inside the library is the same
    # in every interpreter
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(job):
    """Run worker.py on one job; returns (parent clock at launch, report)."""
    t_launch = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(WORKER), json.dumps(job)],
        capture_output=True,
        text=True,
        timeout=OP_TIMEOUT_S,
        env=_child_env(),
        cwd=ROOT,
    )
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        report = None
    if proc.returncode != 0 or report is None:
        report = {"crash": f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    return t_launch, report


def setup_samples(argv, launches):
    """Seconds from launching an interpreter to its first library call, once
    per launch."""
    samples = []
    for _ in range(launches):
        t_launch, report = run_worker({"mode": "setup", "ops": [argv]})
        if "first_call" not in report:
            raise RuntimeError(f"set-up probe failed: {report}")
        samples.append(report["first_call"] - t_launch)
    return samples


def run_pass(workload, ops, trace):
    """One pass over the operations; returns the per-operation records, the
    peak RSS in KB, the kernel name and (traced) the summed layer counters."""
    if workload == "session":
        jobs = [{"mode": "ops", "ops": ops, "trace": trace}]
    else:
        jobs = [{"mode": "ops", "ops": [argv], "trace": trace} for argv in ops]
    records, peak_kb, kernels, layers = [], 0, set(), {}
    for job in jobs:
        _, report = run_worker(job)
        if "crash" in report:
            records += [{"argv": argv, "crash": report["crash"], "seconds": 0.0} for argv in job["ops"]]
            continue
        records += report["ops"]
        peak_kb = max(peak_kb, report["peak_rss_kb"])
        kernels.add(report["kernel"])
        for name, value in report.get("layers", {}).items():
            layers[name] = layers.get(name, 0) + value
    if trace:
        layers["characters.kernel.memo_entries"] = max(
            (r.get("memo_entries", 0) for r in records), default=0
        )
    return records, peak_kb, kernels, layers


# -- checking outputs ------------------------------------------------------------


def canonical_sha256(stdout):
    data = json.loads(stdout)
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Checker:
    """Checks each operation's output against its digest and a second route."""

    def __init__(self, digests):
        self.digests = digests
        self._second_route = {}  # (key, sha) -> failure message or None

    def check(self, record):
        """Returns (sha or None, failure message or None)."""
        key = op_key(record["argv"])
        if "crash" in record:
            return None, record["crash"]
        if record["error"] is not None:
            return None, f"exception: {record['error']}"
        if record["code"] != 0:
            return None, f"exit {record['code']}: {record['stderr'].strip()}"
        try:
            sha = canonical_sha256(record["stdout"])
        except json.JSONDecodeError:
            return None, "stdout is not JSON"
        expected = self.digests.get(key)
        if expected is None:
            return sha, "no recorded digest"
        if sha != expected:
            return sha, "digest mismatch"
        if (key, sha) not in self._second_route:
            self._second_route[key, sha] = second_route(record["argv"], json.loads(record["stdout"]))
        return sha, self._second_route[key, sha]


def second_route(argv, doc):
    """An independent check of one output; returns a failure message or None."""
    if argv[0] == "rankscan":
        checks = doc.get("bound_checks") or []
        if not checks or not all(c["ok"] for c in checks):
            return f"bound checks not all ok: {checks}"
        return None
    from repstab.characters import irr_character
    from repstab.cyclepoly import eval_rho_all, parse_poly
    from repstab.partitions import parse_partition

    socle = parse_partition(argv[-1][len("socle:"):])
    m = socle.size + (socle.parts[0] if socle else 0)
    if eval_rho_all(parse_poly(doc["poly"]), m) != irr_character(socle.pad(m)):
        return f"polynomial of socle {doc['socle']} is not the character at degree {m}"
    return None


def trivial_family_status():
    """Run rankscan on the trivial family; returns a one-line status."""
    argv = rankscan(TRIVIAL_SPEC, SESSION_WINDOWS[0])
    _, report = run_worker({"mode": "ops", "ops": [argv]})
    if "crash" in report:
        return f"FAILS ({report['crash']})"
    rec = report["ops"][0]
    if rec["code"] != 0:
        return f"FAILS (exit {rec['code']}: {(rec['error'] or rec['stderr']).strip()})"
    doc = json.loads(rec["stdout"])
    got = (doc.get("rank_rs"), doc.get("rank_pc"), doc.get("poly"))
    return "ok" if got == (0, 0, "1") else f"FAILS (rank_rs, rank_pc, poly = {got})"


# -- metadata --------------------------------------------------------------------


def source_rev():
    """The git commit of the checkout when there is one, else 'unknown'."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def source_sha256():
    h = hashlib.sha256()
    for path in sorted((SRC / "repstab").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# -- one run ---------------------------------------------------------------------


def run_workload(workload, seed, seconds, trace, digests):
    ops = make_ops(workload, seed)
    checker = Checker(digests)
    if not trace:
        setup_samples(ops[0], 1)  # the first launch may still write bytecode caches

    # per operation, its seconds in each untraced and each traced pass
    times, traced_times = {}, {}
    setups, peaks, layer_passes = [], [], []
    attempted, failures, kernels, shas = 0, [], set(), {}
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        if not trace:
            setups += setup_samples(ops[0], SETUP_LAUNCHES_PER_PASS)
        for traced in ((False, True) if trace else (False,)):
            records, peak_kb, pass_kernels, layers = run_pass(workload, ops, traced)
            kernels |= pass_kernels
            for record in records:
                key = op_key(record["argv"])
                (traced_times if traced else times).setdefault(key, []).append(record["seconds"])
                attempted += 1
                sha, failure = checker.check(record)
                if sha is not None:
                    shas[key] = sha
                if failure is not None:
                    failures.append(f"{key}: {failure}")
            if traced:
                layer_passes.append(layers)
            else:
                peaks.append(peak_kb / 1024)
        # stop before a round that would end past the measuring time
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break

    # each operation at its fastest pass: host slowdowns only ever add time
    wall_s = sum(min(v) for v in times.values())
    outputs_digest = hashlib.sha256(json.dumps(sorted(shas.items())).encode()).hexdigest()
    if trace:
        metrics = {}
        for name, unit in LAYER_METRICS:
            if name == "trace.overhead":
                value = sum(min(v) for v in traced_times.values()) / wall_s
            else:
                value = statistics.median(p.get(name, 0) for p in layer_passes)
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(peaks), "unit": "MB"},
        }
    meta = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "passes": len(peaks) + len(layer_passes),
        "setup_launches": len(setups),
        "pass_seconds": [sum(v[i] for v in times.values()) for i in range(len(peaks))],
        "operations_per_pass": len(ops),
        "kernel": ",".join(sorted(kernels)) or "unknown",
        "git_rev": source_rev(),
        "src_sha256": source_sha256(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "outputs_sha256": outputs_digest,
    }
    if workload == "session":
        meta["trivial_family"] = trivial_family_status()
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return meta, failures, result


def print_summary(meta, failures, result):
    print(f"# {meta['workload']}: " + json.dumps(meta))
    for name, m in result["metrics"].items():
        print(f"{meta['workload']:<15} {name:<44} {m['value']:.6g} {m['unit']}")
    ratio = result["failed"] / result["attempted"]
    print(
        f"{meta['workload']:<15} {'fail_ratio':<44} {ratio:.6g} ratio"
        f" ({result['failed']}/{result['attempted']})"
    )
    for failure in failures[:20]:
        print(f"FAILED {failure}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "repstab" / "cli.py").is_file():
        print(f"error: no repstab sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    digests = json.loads(DIGESTS.read_text())

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        meta, failures, result = run_workload(workload, args.seed, args.seconds, bool(args.trace), digests)
        print_summary(meta, failures, result)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
