"""Regenerate the pinned weights fixtures under ``bench/fixtures``.

Usage (from the repository root; about two minutes)::

    python3 bench/make_fixtures.py

Each fixture is trained through the real ``askgate`` command, exactly as
``FIXTURES[name]["argv"]`` spells it, and its sha256 is written to
``bench/fixtures/fixtures.json``. The benchmark refuses a fixture whose
digest differs from that file, so a later change to the training numerics
cannot change what the gate workloads run. Training is bit-for-bit
deterministic for a seed on one machine, but not across BLAS builds; commit
the regenerated files only on purpose.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

from workloads import FIXTURE_DIR, HERE, sha256_file

ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(FIXTURE_DIR, "fixtures.json")

# Contexts: generate_context_set(size, 300, 7), the acceptance-suite sets.
FIXTURES = {
    "w8_seed5": {
        "size": 8,
        "why": "criterion-4 policy: PpoConfig(total_timesteps=400_000, eval_interval=50_000, seed=5)",
        "argv": ["train", "--timesteps", "400000", "--eval-interval", "50000", "--seed", "5"],
    },
    "w6_seed0": {
        "size": 6,
        "why": "6x6 policy confident in its own distribution: seed 0, 102,400 timesteps",
        "argv": ["train", "--timesteps", "102400", "--eval-interval", "50000", "--seed", "0"],
    },
}
CONTEXT_COUNT = 300
CONTEXT_SEED = 7


def command_line(name: str) -> str:
    spec = FIXTURES[name]
    contexts = f"<out>/contexts/s{spec['size']}_c{CONTEXT_COUNT}_seed{CONTEXT_SEED}.txt"
    gen = (f"askgate contexts gen --size {spec['size']} --count {CONTEXT_COUNT} "
           f"--seed {CONTEXT_SEED} --out <out>")
    train = " ".join(["askgate", *spec["argv"], "--contexts", contexts,
                      "--name", name, "--out", "<out>"])
    return f"{gen} && {train}"


def make(name: str, workdir: str) -> dict:
    from askgate import cli

    spec = FIXTURES[name]
    rc = cli.main(["contexts", "gen", "--size", str(spec["size"]), "--count", str(CONTEXT_COUNT),
                   "--seed", str(CONTEXT_SEED), "--out", workdir])
    if rc != 0:
        raise SystemExit(f"contexts gen failed with exit code {rc}")
    contexts = os.path.join(workdir, "contexts",
                            f"s{spec['size']}_c{CONTEXT_COUNT}_seed{CONTEXT_SEED}.txt")
    rc = cli.main([*spec["argv"], "--contexts", contexts, "--name", name, "--out", workdir])
    if rc != 0:
        raise SystemExit(f"train failed with exit code {rc}")
    target = os.path.join(FIXTURE_DIR, f"{name}.bin")
    shutil.copyfile(os.path.join(workdir, "weights", f"{name}.bin"), target)
    return {
        "file": f"{name}.bin",
        "sha256": sha256_file(target),
        "size": spec["size"],
        "why": spec["why"],
        "command": command_line(name),
    }


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    manifest = {}
    os.makedirs(FIXTURE_DIR, exist_ok=True)
    for name in FIXTURES:
        with tempfile.TemporaryDirectory(dir=FIXTURE_DIR) as workdir:
            manifest[name] = make(name, workdir)
        print(f"{name}: sha256 {manifest[name]['sha256']}")
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
