"""Print the sha256 of rrsim's seeded artefacts.

    python3 bench/digest.py [--seed N]

Runs `rrsim.cli.main` in-process, from the checkout's `src/`, in a
temporary directory under .bench_out/:

  hide         full chip, payload 0xECE3038B, N = 15,000, replica 256
               -> key.json, chip.bin
  retrieve     kmeans on that key and chip -> its standard output
  sweep        post-hiding and replica-size at the CLI defaults -> CSVs
  attack       wrong-base case3 and wrong-key on the hidden chip -> CSVs
  characterize at the CLI defaults -> fitted.profile.json

Every command gets --seed N (default 0).  A change that only makes rrsim
faster must print the same lines.  This is a report, not a gate.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")


def run_cli(argv):
    from rrsim import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def artefacts(seed: int, d: str):
    """(name, bytes or None, exit code) for every seeded artefact."""
    def path(name):
        return os.path.join(d, name)

    seed_arg = ["--seed", str(seed)]
    hide, _ = run_cli(["hide", "--payload", "0xECE3038B", "--key-out", path("key.json"),
                       "--chip-out", path("chip.bin"), *seed_arg])
    retrieve, stdout = run_cli(["retrieve", "--key", path("key.json"),
                                "--chip", path("chip.bin"), *seed_arg])
    codes = {"key.json": hide, "chip.bin": hide}
    for kind, name in (("post-hiding", "post-hiding.csv"),
                       ("replica-size", "replica-size.csv")):
        codes[name], _ = run_cli(["sweep", "--kind", kind, "--out", path(name), *seed_arg])
    for kind, name in (("wrong-base", "attack-wrong-base.csv"),
                       ("wrong-key", "attack-wrong-key.csv")):
        codes[name], _ = run_cli(["attack", "--kind", kind, "--key", path("key.json"),
                                  "--chip", path("chip.bin"), "--payload", "0xECE3038B",
                                  "--out", path(name), *seed_arg])
    codes["fitted.profile.json"], _ = run_cli(
        ["characterize", "--out", path("records.csv"),
         "--profile-out", path("fitted.profile.json"), *seed_arg])
    yield "retrieve.stdout", stdout.encode(), retrieve
    for name, code in codes.items():
        data = None
        if os.path.exists(path(name)):
            with open(path(name), "rb") as fh:
                data = fh.read()
        yield name, data, code


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rrsim", "__init__.py")):
        sys.exit(f"digest: no rrsim package under {SRC}")
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    d = tempfile.mkdtemp(prefix="digest-", dir=OUT)
    try:
        lines = []
        for name, data, code in artefacts(args.seed, d):
            digest = hashlib.sha256(data).hexdigest() if data is not None else "absent"
            lines.append(f"{name:24s} {digest}  exit {code}")
    finally:
        shutil.rmtree(d, ignore_errors=True)
    lines.append(f"{'all':24s} "
                 + hashlib.sha256("\n".join(lines).encode()).hexdigest())
    print(f"seed {args.seed}")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
