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


def digest(workload: str, directory: str) -> tuple[int, str]:
    """(entry count, hex SHA-256) of one workload over SEEDS."""
    h = hashlib.sha256()
    count = 0
    for seed in SEEDS:
        entries = corpus.write_corpus(corpus.generate(workload, seed), directory)
        for ent in entries:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(ent["argv"])
            for part in (ent["id"], str(code), out.getvalue(), err.getvalue()):
                data = part.replace(directory, "<corpus>").encode()
                h.update(len(data).to_bytes(8, "little") + data)
            count += 1
    return count, h.hexdigest()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="corpus-digest-") as directory:
        for workload in corpus.WORKLOADS:
            count, hexdigest = digest(workload, directory)
            print(f"{workload} {count} {hexdigest}", flush=True)
