"""Golden digests of the experiments CLI's ``--json`` export.

Each entry pins the sha256 of ``python -m repro.experiments <command>
--scale small --seed 0 --jobs J --json FILE`` for every command ``all``
runs.  A change to the figure sweeps, the monitor, the front door, their
executors or the CLI must leave every digest unchanged, and
``--jobs`` must never change a byte: the pool path and the shared-trial
sequential path agree, including ``jobs=3`` over fig5's ten cells, which
cuts the sweep into uneven chunks.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments.__main__ import main

GOLDEN = {
    "fig5": "67350b78bac32c3b25b3594d9a177e8859939fcbe6ebe9b14bb9b918713f7d3a",
    "fig6": "753d739bc78e73bcd0d6e53f1e71185177869331fea420627ea3932a1e28d62f",
    "fig7": "07015e0d5523fde6e8beda17921884f64ab1854888a230159aa217858b404367",
    "fig8": "2e4e2ab99a47717e2030edff2350b83929e35c803e5d21a361a2a46ed68c4d2d",
    "model": "389108f23a38e9ce50c0930f0ae7ad3597a6df847e449e3a2285288c99548703",
    "ablations": "f8b2b209fa33c7f4a6e490f85bd41712374c0442b95e1c42dfc788e6ac06ff7e",
    "robustness": "ab1b7149aef7a851c3e809d48d4817a64c31a591a752dfec699c0a34f54f9de3",
    "soak": "54d70d858ad634e6e7e57ca2a72923c0be3a9d4215c972faf96f6e32c97a583d",
    "overload": "4b62cb618c5835b5f613c31d8740be85949ca6a3608059e977d25617c41ca644",
    "scaling": "9627db49238cadbb285890e5d25fdcbe2057774235721727e8e6d6549b5b3058",
}

CASES = [
    *((command, jobs) for command in ("fig5", "fig6", "fig7", "fig8", "model") for jobs in (1, 2)),
    ("fig5", 3),
    *((command, 1) for command in ("ablations", "robustness", "soak", "overload", "scaling")),
]


@pytest.mark.parametrize(
    ("command", "jobs"), CASES, ids=[f"{command}-jobs{jobs}" for command, jobs in CASES]
)
def test_json_export_digest(command, jobs, tmp_path, capsys):
    target = tmp_path / f"{command}.json"
    argv = [command, "--scale", "small", "--jobs", str(jobs), "--json", str(target)]
    assert main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(target.read_bytes()).hexdigest() == GOLDEN[command]
