"""Byte-identity gate for refactors: the CLI's stdout must hash to the
digests recorded here.

Each DIGESTS entry is the sha256 of the stdout of `noncent <command>` given
order8.cat, order16.cat, order32.cat and order64.cat as --catalog arguments;
each ANALYZE_DIGESTS entry that of `noncent analyze --kv <source>`, a catalog
source naming a shipped file; each GRAPH_DIGESTS entry that of
`noncent graph <source> --format <format> [--induced]` for every format with
and without --induced.  A change that alters one of these outputs on
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

GRAPH_DIGESTS = {
    "dihedral:15": {
        "edge-list": "12a0b8410ea2a62deaedd9cd7a03ba51485dcae68aca17cc4e1ea66af7dbe081",
        "edge-list --induced": "65e010e43f640b10d4490b03d40a96412ca9ac358ba2619bf2204c45459c9ee2",
        "dot": "d36b64c6f8af6f3a4cc9c0d4395d9e4250b5e5f1d514e5129d780a19a6dc51bb",
        "dot --induced": "52ae7c239a1d9cef59f764df9d11b58e8a23764c51afd83b9a095cdc3c5eca62",
        "parts-json": "3ddbdc28fcf5eef5d2b97534bfc4701934d4a6cc04700801e6353bf87a4fc4b8",
        "parts-json --induced": "df31b3be1daf765f8a31137eb70fff8c26c7d08b2b3232b4566098e3c396968b",
    },
    "dihedral:64 x cyclic:5": {
        "edge-list": "99d194b51437e39bdda9d2398b42e07eb88d64c0553f78792da8382d39eb6f32",
        "edge-list --induced": "5f7710ff613e0e369eb90a1773653004086a4b8dd9609f0d0cc881a7782a20cb",
        "dot": "d83e398555ef87b0ba6fc79a65c56b860e7f1cd3789a5b21833f72a88e30b556",
        "dot --induced": "a8b64913e5cd34c724288d83a03f5793092b5568a53fbf6ef5348cfd3c6b538c",
        "parts-json": "aae574fbd85ac4d48f2e02db0f41e022f5df0accba09db002805c5116a68e3a8",
        "parts-json --induced": "f0854ac013e621001bf12615398f38c77d933430a7dbd3f51bbd289e4ab4259f",
    },
    "heisenberg:5": {
        "edge-list": "7dba5c1d26e1bdb6766c500787f49806590ec91cec545187391a0c5707de1f3c",
        "edge-list --induced": "aacb5a6b2226f1319bb0d63f4e89bae76dbf2506e3b707ccb59dc0e8b4a8a0c1",
        "dot": "dff7c36873782f75117740da8144826128c2cb7a1ae50bb8839137c029ae34ac",
        "dot --induced": "a4564e84d2c358ac96255071bc6288b026c1fb0f9f640e83a0a0f7a8af9ecd98",
        "parts-json": "8c172baef94e8e8bc46fbef17a90fc9fa6bb590386df7b61d5b54b5d02951f7f",
        "parts-json --induced": "727c7f854d2bda1a7e7c2167b7acc5d38a52c64625007b311a01831ca315b3fa",
    },
    "quaternion:16": {
        "edge-list": "f98674bf4bc617e57bb8f25b4e2f6d8b6386b71f71b13a0f8567b5ddaabc3b2c",
        "edge-list --induced": "3b2bac2d3b08fb34b71ee2c2f19c2c5978f35f153cfda229b5a95ccff6b722f9",
        "dot": "0986033d2407ad791699600dbccf1fbed8bf98abb913ffa004ac21cce83d5090",
        "dot --induced": "003844906b1085ef8ab3ca9f661c22830944c15360bb67e2a54e648c8e38c13f",
        "parts-json": "ab93edf5b690aa2ffd92d388fcefb796aeb02c3927a388bb43cee14a3e7c3e9f",
        "parts-json --induced": "14354636937df1b1987d830b02864f7c3f59447b886238b5bc3b51ba50a038e4",
    },
    "cyclic:12": {
        "edge-list": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "edge-list --induced": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "dot": "78e05808836e7678ce4005cb258715eff887d4b30e65221c567ad0cdaada2d34",
        "dot --induced": "63d9a7a15b2f18b0020b6a38db2e5e8e4b95531a22c9c78029a600c5b93fd1a1",
        "parts-json": "7fa0cd98398cf48e698e573d9f3f8d7dc1b5a0f164954b7975f9f7c1a58846ed",
        "parts-json --induced": "9526033952aff72a0fec8a4604252ff81d91c3084eca998eea44e27469423387",
    },
    "order32.cat#[32,49]": {
        "edge-list": "e73c4e9386971b444232762c23aaf8735fbee72160bd80081d1a6507ab07412c",
        "edge-list --induced": "18b0ca15538f0e87a0d5e92fe28ed1efe238c76552620a09b18c63ac335fa2b7",
        "dot": "4d10bcb82fd69c5623945466bc478266dc006567d77eaf2a8328dffe05b7e3e0",
        "dot --induced": "4de0744570186d39dff87fb009371887f16576e50f861ea70a4a9c4dcfbbaed8",
        "parts-json": "ffaaa11dcdac76296999bc0be2806c3b82acd73d4509c9f630d6700ab0bebeba",
        "parts-json --induced": "f2ff3914a796ea8996301beefb00a3c8dc4567694f9b8dc8c5b99cf1d359929c",
    },
}


def _digest(capsys, argv):
    assert main(argv) == 0, argv
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def _shipped(source):
    name, sep, label = source.partition("#")
    return f"{catalog.shipped_path(name)}#{label}" if sep else source


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
        assert _digest(capsys, ["analyze", "--kv", *_shipped(source).split()]) == digest, source


def test_graph_matches_recorded_digests(capsys):
    for source, digests in GRAPH_DIGESTS.items():
        assert len(digests) == 6, source
        for flags, digest in digests.items():
            argv = ["graph", *_shipped(source).split(), "--format", *flags.split()]
            assert _digest(capsys, argv) == digest, (source, flags)
