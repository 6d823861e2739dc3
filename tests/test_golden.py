"""Byte-for-byte CLI artifacts of one fixed small session.

The session simulates a 12-actor, seed-0 flock, clusters it with labels and
an SVG, and fits (both methods) and cuts a 30-point space drawn from a seeded
generator. ``GOLDEN`` holds the SHA-256 of every artifact it writes, so a
change that moves any byte of a CLI output fails here. The space has integer
coordinates, so its distances are correctly rounded square roots of
integers, with many ties, and its first-listed point is not its smallest id.

To re-record after a deliberate format change, print ``_session(tmp_path)``
and paste the result over ``GOLDEN``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from thclust.cli import main

GOLDEN = {
    "cluster/labels.json":
        "f1e5a3e73626e9e504ce100404e550f0b3b5cd4612f02c5ae3021ecd7fbef0e4",
    "cluster/plots.json":
        "a35d20729e7ac3a57abaf5eb6264710773c569d182c35c77fba43066d5dc3867",
    "cluster/plots.svg":
        "a6c37f60d1bb8902e0183331480c02706025e5e5f67f2994bf46f7022c5a9aa4",
    "cluster/solution.json":
        "23c4359e7d63858505cccdbc632731ed6fbd9b45b17fb8af114b0473769b77d1",
    "cut.json":
        "3bb0510bb8d74e4992b07aa4a53d312a96a50f6b936eb4fe7b105c6bb7e9796e",
    "fkw.json":
        "f07c6800731b17de7f4b14b97dd4872f080ea853e268902c0ac10b8f345564f9",
    "sim.json":
        "cc82e31ff70c86a7c7f7a33c1bebc573eae66d3850006e3db23d8d3da95ff5fa",
    "sub.json":
        "4850f5850544e7eb3ce2ac26a2aa8d5e999f0dee5142fa33e4032307466e3b87",
}


def _space(seed: int, n: int, side: int) -> dict:
    rng = np.random.default_rng(seed)
    cells = rng.choice(side * side, size=n, replace=False)
    coords = np.stack(np.divmod(cells, side), axis=1)
    ids = [f"p{k:02d}" for k in rng.permutation(n)]
    return {"space": {"points": ids, "coords": coords.tolist()}}


def _session(tmp_path: Path) -> dict[str, str]:
    flock = tmp_path / "flock.json"
    flock.write_text(json.dumps({"actor_count": 12, "seed": 0}))
    space = tmp_path / "space.json"
    space.write_text(json.dumps(_space(0, 30, 40)))
    out = tmp_path / "out"
    commands = [
        ["simulate", str(flock), "-o", str(out / "sim.json")],
        ["cluster", str(out / "sim.json"), "--labels", "--emit", "svg",
         "-o", str(out / "cluster")],
        ["fit", str(space), "-o", str(out / "fkw.json")],
        ["fit", str(space), "--method", "subdominant", "-o", str(out / "sub.json")],
        ["cut", str(out / "fkw.json"), "-r", "6", "-o", str(out / "cut.json")],
    ]
    out.mkdir()
    hashes = {}
    for argv in commands:
        assert main(argv) == 0, argv
    for path in sorted(out.rglob("*")):
        if path.is_file():
            hashes[str(path.relative_to(out))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def test_cli_session_artifacts_are_byte_identical(tmp_path, capsys):
    got = _session(tmp_path)
    capsys.readouterr()
    assert got == GOLDEN
