"""Byte-identity gate for refactors: the CLI's stdout must hash to the
digests recorded here.

Each DIGESTS entry is the sha256 of the stdout of `noncent <command>` given
order8.cat, order16.cat, order32.cat and order64.cat as --catalog arguments;
each ANALYZE_DIGESTS entry that of `noncent analyze --kv <source>`, a catalog
source naming a shipped file.  A change that alters one of these outputs on
purpose records the new digest here and names the output change in
CHANGES.md.
"""

import hashlib

from noncent import catalog, checks
from noncent.cli import main

DIGESTS = {
    "verify": "d4005e57d024c8dc90af5f488e5bf86987b60f3707252992f9fc0a4fbb266a55",
    "verify --kv": "7b7e85f5e9347acc70e1fdeb9317e48f07b133692b483ef2217ad4e587d712fe",
    "search --table1": "9c872cece74ffdf390f3d4390ff9ce66fd896076bbaa44766adeae2b0d43c955",
    "search --regular": "b477da78a63edfd6f86feeee6abc820617e9f7975b92cb7aaece4107ee8c41e1",
    "search --induced-regular": "b446179159c2110d159bcc333494c8652798b36af8c83b5898621c3584f3c9a7",
    "search --reduced": "563f26d2bce72502117b40cd587781e23ee638f226e525507f35198bf8a9b40c",
}

ANALYZE_DIGESTS = {
    "dihedral:4": "f1d93b782dd6f2471827769c20dc798daa14e0b01a0d99a79b96de1e5962f5df",
    "quaternion:8": "02580f152f1d9c1016686e323dca6ee8565d7faf1715ca85b6071cdd42533500",
    "quaternion:16": "65102b746d17c052ad9db2c67c2e71bb06a968598e64b94ce44fc70520ea9631",
    "M:32": "26a96ef23f8cb82b6e7bbe3cf918e44d3337675fef633b5741fe4d347b865ffd",
    "cyclic:12": "2245aa0b5e2c6d8ab7389a8780666d2f374d62ec66afd05efed40a6f222bdd06",
    "elem:2:3": "ac38adf1131171cbfe85bc2a4173fdb58124ad27fc3a54c502df7c82a9e9e416",
    "heisenberg:5": "4aa596446f67dcfe20c0397e1c21fd379a2bfa49c902887e2f0f7c1cc2be7319",
    "dihedral:4 x cyclic:3": "4ea815cbc7499b2d11c2b6e0962927e30c8a362a466d793f842c77acce288656",
    "order64.cat#D8xC8": "1f0bbec6a4f5efad030bde610a2185e8dcd5e063008b7b9b46c58396a3971ffe",
    "order32.cat#[32,49]": "19fcade22f6e20a9babd61553e24aca036444c573b9aa50a1b6c94769048b083",
    "order8.cat#[8,1]": "a657df408be78a1518cc5e27a276c4793dfd2c3397e0a72370a7e4ede69b8759",
}


def _digest(capsys, argv):
    assert main(argv) == 0, argv
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


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
        assert _digest(capsys, command.split() + catalogs) == digest, command
    assert len(cached) == 1


def test_analyze_kv_matches_recorded_digests(capsys):
    for source, digest in ANALYZE_DIGESTS.items():
        name, sep, label = source.partition("#")
        if sep:
            source = f"{catalog.shipped_path(name)}#{label}"
        assert _digest(capsys, ["analyze", "--kv", *source.split()]) == digest, source
