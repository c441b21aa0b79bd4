"""One SHA-256 per benchmark workload over the CLI's answers on its corpus.

Usage (from the root of a checkout):

    python3 tools/corpus_digest.py

For each workload in ``bench/corpus.py`` and each seed 11 to 20, the seeded
corpus is generated and its instance files are written to a temporary
directory. Every entry is then run through ``flowdesign.cli.main`` in this
process, and its id, exit code, stdout and stderr go into the workload's
digest, in corpus order. The loop is not ``bench/harness.inprocess_pass``
because that drops stderr, and a refusal's message is part of the answer.
The temporary directory's path is replaced by a fixed token in the captured
text, so the digest depends only on the code. Two checkouts whose CLI
answers the same on every entry print the same lines: run the script once
in each tree and compare.

A fifth line, ``verify``, digests the solution checker over the same runs:
every ``solve`` entry that exits 0 has its stdout written next to its
instance and checked by ``verify --in <instance> --sol <solution>``, again
in process, and the entry's id with the check's exit code, stdout and
stderr go into that digest, in the same order. It counts the checks run.

The checkout's own ``src`` and ``bench`` are imported, not an installed
flowdesign. Nothing is written outside the temporary directory.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import corpus  # noqa: E402
from flowdesign.cli import main  # noqa: E402

SEEDS = range(11, 21)


def run(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of ``cli.main`` on argv, in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def feed(h, directory: str, ident: str, code: int, out: str, err: str) -> None:
    """Hash one answer, with directory replaced by a fixed token."""
    for part in (ident, str(code), out, err):
        data = part.replace(directory, "<corpus>").encode()
        h.update(len(data).to_bytes(8, "little") + data)


def digest(workload: str, directory: str, checks) -> tuple[int, int, str]:
    """(entry count, verify count, hex SHA-256) of one workload over SEEDS.
    The verify answers of its successful solves go into checks, a hash."""
    h = hashlib.sha256()
    count = verified = 0
    for seed in SEEDS:
        entries = corpus.write_corpus(corpus.generate(workload, seed), directory)
        for ent in entries:
            code, out, err = run(ent["argv"])
            feed(h, directory, ent["id"], code, out, err)
            count += 1
            if ent["argv"][0] == "solve" and code == 0:
                sol = os.path.join(directory, ent["id"] + ".sol.json")
                with open(sol, "w", encoding="utf-8") as fh:
                    fh.write(out)
                feed(checks, directory, ent["id"], *run(["verify", "--in", ent["path"], "--sol", sol]))
                verified += 1
    return count, verified, h.hexdigest()


if __name__ == "__main__":
    checks = hashlib.sha256()
    verified = 0
    with tempfile.TemporaryDirectory(prefix="corpus-digest-") as directory:
        for workload in corpus.WORKLOADS:
            count, done, hexdigest = digest(workload, directory, checks)
            verified += done
            print(f"{workload} {count} {hexdigest}", flush=True)
    print(f"verify {verified} {checks.hexdigest()}", flush=True)
