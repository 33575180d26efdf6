"""Golden hashes of the ``cli`` workload's reports.

    python3 bench/golden.py           # print each hash, compare with the file
    python3 bench/golden.py --write   # write bench/golden_hashes.json anew

Runs one round of the ``cli`` workload at seed 0 and hashes, for every
operation, its exit code, standard output, standard error (input paths
replaced by a placeholder) and any file it wrote with ``--out``.  Identical
(arguments, seed) must give byte-identical reports, so a refactor that keeps
behaviour keeps every hash.  This check is informational: no workload fails
on it.  Exits 1 when a hash differs from the file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import harness

os.environ.update({k: "1" for k in harness.THREAD_ENV})

SEED = 0
HASH_FILE = Path(__file__).resolve().parent / "golden_hashes.json"


def hashes() -> dict:
    sys.path.insert(0, str(harness.SRC))
    from cohkit import cli

    import wl_cli

    workload = wl_cli.prepare(SEED, harness.NullTracer())
    placeholder = str(wl_cli.inputs_dir(SEED))
    out = {}
    for op in workload.rounds[0]:
        argv = op.tags["argv"]
        result = wl_cli.capture(cli.main, argv)
        h = hashlib.sha256(json.dumps(
            [result.code, result.stdout,
             result.stderr.replace(placeholder, "<inputs>")]).encode())
        if "--out" in argv:
            h.update(Path(argv[argv.index("--out") + 1]).read_bytes())
        out[op.name] = h.hexdigest()
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--write", action="store_true",
                   help="write the hash file anew instead of comparing")
    args = p.parse_args(argv)
    current = hashes()
    if args.write:
        HASH_FILE.write_text(json.dumps(current, indent=2, sort_keys=True)
                             + "\n")
        print(f"wrote {len(current)} hashes to {HASH_FILE.name}")
        return 0
    golden = json.loads(HASH_FILE.read_text()) if HASH_FILE.exists() else {}
    differ = 0
    for name, digest in current.items():
        status = ("ok" if golden.get(name) == digest
                  else "new" if name not in golden else "DIFF")
        differ += status == "DIFF"
        print(f"{digest}  {name}  {status}")
    print(f"{len(current) - differ} of {len(current)} match")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
