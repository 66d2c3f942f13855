"""Byte-identity gate for refactors: the CLI's stdout over the four shipped
catalogs must hash to the digests recorded here.

Each digest is the sha256 of the stdout of `noncent <command>` given
order8.cat, order16.cat, order32.cat and order64.cat as --catalog arguments.
A change that alters one of these outputs on purpose records the new digest
here and names the output change in CHANGES.md.
"""

import hashlib

from noncent import catalog, checks
from noncent.cli import main

DIGESTS = {
    "verify": "d4005e57d024c8dc90af5f488e5bf86987b60f3707252992f9fc0a4fbb266a55",
    "verify --kv": "7b7e85f5e9347acc70e1fdeb9317e48f07b133692b483ef2217ad4e587d712fe",
    "search --table1": "9c872cece74ffdf390f3d4390ff9ce66fd896076bbaa44766adeae2b0d43c955",
}


def test_cli_stdout_matches_recorded_digests(capsys, monkeypatch):
    # both verify formats print one run of the suite
    run_suite, cached = checks.run_suite, []

    def once(pairs, ids=None):
        if not cached:
            cached.append(run_suite(pairs, ids))
        return cached[0]

    monkeypatch.setattr(checks, "run_suite", once)
    catalogs = [arg for name in catalog.SHIPPED
                for arg in ("--catalog", catalog.shipped_path(name))]
    for command, digest in DIGESTS.items():
        assert main(command.split() + catalogs) == 0, command
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command
    assert len(cached) == 1
