"""Golden CLI outputs: one sha256 digest per command.

Each digest covers the exit code, everything written to stdout, and the
name and bytes of every file the command wrote. Commands run in-process
through ``unitals.cli.main`` in an empty working directory, so outputs are
named relative to it; inputs are built once, by the CLI itself, in a
separate directory. Any reordering or reformatting of any output changes
a digest.

After an intended output change, print the new table with

    PYTHONPATH=src python tests/test_golden.py

and replace GOLDEN with it.
"""

import hashlib
import io
import json
import os
import tempfile
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

import pytest

from unitals.cli import main

# input name -> CLI arguments that write it (after "-o <path>" is appended)
INPUTS = {
    "ag2": ("build", "ag", "--q", "2"),
    "h2": ("build", "hermitian", "--q", "2"),
    "h3": ("build", "hermitian", "--q", "3"),
    "h4": ("build", "hermitian", "--q", "4"),
    "ag3": ("build", "ag", "--q", "3"),
    "ag3-line": ("build", "puncture", "--q", "3", "--delete", "line"),
    "ag3-swap": ("build", "puncture", "--q", "3", "--delete", "line-swap"),
    "pg3-conic": ("build", "puncture", "--q", "3", "--delete", "conic"),
    "pg4-conic": ("build", "puncture", "--q", "4", "--delete", "conic"),
    "pg5-conic": ("build", "puncture", "--q", "5", "--delete", "conic"),
    "ag4-line": ("build", "puncture", "--q", "4", "--delete", "line"),
    "ag4-swap": ("build", "puncture", "--q", "4", "--delete", "line-swap"),
    "ag8-line": ("build", "puncture", "--q", "8", "--delete", "line"),
    "ag8-swap": ("build", "puncture", "--q", "8", "--delete", "line-swap"),
    "pg8-conic": ("build", "puncture", "--q", "8", "--delete", "conic"),
}


def _cases():
    cases = {}
    for target in ("hermitian", "pg", "ag"):
        for q in (2, 3, 4):
            cases[f"build-{target}-{q}"] = ("build", target, "--q", str(q), "-o", "out.json")
    # GF(8), GF(9), GF(16) and GF(25) labels, and the unital over GF(25)
    for target, q in (("pg", 8), ("pg", 9), ("pg", 16), ("pg", 25), ("hermitian", 5)):
        cases[f"build-{target}-{q}"] = ("build", target, "--q", str(q), "-o", "out.json")
    for q, points in ((3, "0,5,9,12"), (4, "1,2,7,11,20")):
        for spec in ("line", "line-swap", "conic", points):
            name = "list" if spec == points else spec
            cases[f"puncture-{q}-{name}"] = ("build", "puncture", "--q", str(q),
                                             "--delete", spec, "-o", "out.json")
    cases["build-ag-2-stdout"] = ("build", "ag", "--q", "2")
    for q in (2, 3, 4):
        h = f"{{h{q}}}"
        cases[f"graph-h{q}"] = ("graph", h, "-o", "out.dimacs")
        cases[f"srg-h{q}"] = ("srg", h, "--expect-unital", str(q))
        cases[f"cliques-max-h{q}"] = ("cliques", h, "--max-only")
        cases[f"cliques-classify-h{q}"] = ("cliques", h, "--classify", "--json", "report.json")
        cases[f"onan-h{q}"] = ("onan", h)
    cases["graph-h2-stdout"] = ("graph", "{h2}")
    cases["srg-h3-mismatch"] = ("srg", "{h3}", "--expect-unital", "4")
    cases["onan-pg4-conic"] = ("onan", "{pg4-conic}")
    for limit in ("20", "25"):
        cases[f"onan-limit{limit}-pg4-conic"] = ("onan", "{pg4-conic}", "--limit", limit)
    cases["onan-pg5-conic"] = ("onan", "{pg5-conic}")
    # q = 8 pins witnesses over GF(8)
    for q in (3, 4, 8):
        for name in (f"ag{q}-line", f"ag{q}-swap", f"pg{q}-conic"):
            cases[f"classify-linspace-{name}"] = ("classify-linspace", f"{{{name}}}", "--q",
                                                  str(q), "--embed", "--json", "report.json")
    for q in (2, 3, 4):
        cases[f"reconstruct-h{q}"] = ("reconstruct", f"{{h{q}-dimacs}}", "-o", "rebuilt.json",
                                      "--verify", f"{{h{q}}}")
    cases["cliques-classify-ag3-minus-class"] = ("cliques", "{ag3-minus-class}", "--classify")
    cases["cliques-classify-json-ag3-minus-class"] = ("cliques", "{ag3-minus-class}", "--classify",
                                                      "--json", "report.json")
    # AG(2,2): each triangle is a near pencil in three ways; PG(2,3) minus
    # the conic has 2-point lines
    for name in ("ag2", "pg3-conic"):
        cases[f"cliques-classify-json-{name}"] = ("cliques", f"{{{name}}}", "--classify",
                                                  "--json", "report.json")
    cases["cliques-json-h3"] = ("cliques", "{h3}", "--json", "report.json")
    cases["isomorphic-h2-ag3"] = ("isomorphic", "{h2}", "{ag3}")
    return cases


CASES = _cases()

GOLDEN = {
    "build-ag-2": "d643fd589af1fffae19e85ea474855ea307ee56c454598e0ad7c70e8879e3f04",
    "build-ag-2-stdout": "c4f44e5ca205d8816fe8028b06732b28ed4750860dd5bc9ae5b99a700fea4ddb",
    "build-ag-3": "9435480d904aa17f22cc65647ede976f70c215c6c3b9d35e404ece06f73b0a25",
    "build-ag-4": "b923dc44784208e714a7eb1e0fa1aca74275aae7022359876001dfe5d48afed6",
    "build-hermitian-2": "55479eb8500fabe1e8249ea6448eb8bcceeba777a5a8c4bb05cbce304fe778d4",
    "build-hermitian-3": "18409afbf06a346421aba5a647535d2af5b344bfa406e6675e03718d9d7d53a3",
    "build-hermitian-4": "ba936f8c18f342e9f1a9e7af65ddfb3648bdfd5d5d3da57a7f41e53f8f2a0565",
    "build-hermitian-5": "904b7a8a55a6a5c5a04812c505a5710ab4e1c44125e158bd8dd991d7324eb3a5",
    "build-pg-16": "9b0b46ae559461dfc37a63f6fc006381260f9e063bea49a2b34f28ddb96df730",
    "build-pg-2": "f6a40196bcaf3ef2357d7bfc2aa50988652aeac3513d0ff10a51ca23a31484d8",
    "build-pg-25": "12741ac67f3d866e65a9fc4b19e74439f0ab54a94d7d5c2f682b66d38f4229e1",
    "build-pg-3": "5e200659a4c7ee96aae5568dc3176b95cdc31313db87bde756f8543340342c53",
    "build-pg-4": "3a34489be3a3338f265c3d37a44e4437ec2d4df766d540486b51fd75c699dd68",
    "build-pg-8": "6a6c12ecd50a193d61cf352691fa58fe8b363085a3b16c68ec05611b6835fe5a",
    "build-pg-9": "e36c130d68f20e76ec65bba0b44d86b02bb41cec7cd713bd2f9c2da18316d15d",
    "classify-linspace-ag3-line": "884b70ae93af5823f98ee084a5f563a3242d67a8aa0e3dc30d731c01cc680c8f",
    "classify-linspace-ag3-swap": "dd170ab29f93099fc63182a32f40b3ab5e50a553c09d1cf0279ddaa761bd2a7e",
    "classify-linspace-ag4-line": "d4fd2ff04bed2022a7db79e794f8f5f3ec3eb3be5dfb66b123256b741ba5c497",
    "classify-linspace-ag4-swap": "191bf0b324b1b9ef18c05be11ff5de10419ff3aecba23f5967332acae82e99dc",
    "classify-linspace-ag8-line": "e04f682f2bb5cdcee7f9cdfeec85b9b86da6d20cfd11dac4dd1bfde01f80815b",
    "classify-linspace-ag8-swap": "e93dc129185357c314b82a7e62928c79b7e48d2368134fa9a2eafe807a9a6abc",
    "classify-linspace-pg3-conic": "007bd907fd0db676c2685800212560f1ac522117ae1ddfb6754d402e1e0bdc22",
    "classify-linspace-pg4-conic": "29156aedcefbfa6b776c8d7c5f90e27b725daf99f6aabc8375860bac98db09c2",
    "classify-linspace-pg8-conic": "cb804ab15d7815371266d7c36fef6e7bf1991ed181a4a0d7cc73b68a5fd7e652",
    "cliques-classify-ag3-minus-class": "6c24fa34de0b98230760ab17986718cf6ba569ad5d04a85d3b6647d9ee67a47b",
    "cliques-classify-h2": "cc3da1deb1192aa0608f0daeb6f67c7cf97928eed9c34c72e7e231feaa327a2c",
    "cliques-classify-h3": "e892fb87a04fce6cd3e19a3b5bb90309643891899bc240e5aaf7b412a576e5d2",
    "cliques-classify-h4": "9a5cefdba2c446f746b5a758b4f0eb372b4046962549888a8e05ef114e192b42",
    "cliques-classify-json-ag2": "fb21df0f841911ea0d8955f868704b3e3928088d32b0513c3756bf64211f6f78",
    "cliques-classify-json-ag3-minus-class": "33227b35261de108dc44241448a6056c032dde54e94c8f5db5ba2dc84b987844",
    "cliques-classify-json-pg3-conic": "b544167e6b53a554cfa6eac7ebcb3eca01d2e3f27b2341bdc4f9228665ac9a3e",
    "cliques-json-h3": "8f62a5a80af7356da96ff73308a32080247469b9a5ca691a2647c970d5db3380",
    "cliques-max-h2": "b36296b1689a4053d7958d5b7a5ecd48549448807246c4e06b232c212574b165",
    "cliques-max-h3": "d9a1aae212d7e69ba7e80ad1c57180606ce33bb96695deb6fbfb72a553562e02",
    "cliques-max-h4": "548605d4ce810214c2cd83bede8e479743db92ff94fa69c10a2c9380481beb4f",
    "graph-h2": "41bda0d4e54d991dfefbbebfc0698029c81cade535e7675a143438eddea5bcf8",
    "graph-h2-stdout": "64dd1d9fbabbb72d673c101859b14e9718abe4f673a5868e0b150612b11675cd",
    "graph-h3": "6f84f370bc8001b9fccf1ca1e9263fd6ff8e3630d042afd832c4f22925e4baab",
    "graph-h4": "3ac166674ad11526b22a3e19788219d0ce332369d9dd369ecd3616f12589559b",
    "isomorphic-h2-ag3": "c299691b4e46de09752218ca8c0e3fee0a482a39a0f379b9e44fa97f5a63c867",
    "onan-h2": "7c8a7e44b172401855fa045598d61b1c092be3073afb35a2a1a111a4fb0e502c",
    "onan-h3": "7c8a7e44b172401855fa045598d61b1c092be3073afb35a2a1a111a4fb0e502c",
    "onan-h4": "7c8a7e44b172401855fa045598d61b1c092be3073afb35a2a1a111a4fb0e502c",
    "onan-limit20-pg4-conic": "b84d82c7b1737bb7d5dd35f4e8c3ddacda2869d5bb9679e75fed845c7c0d5e93",
    "onan-limit25-pg4-conic": "4a8c5b93dee8f54c72b953577097701c3317b2660197532c08872367f18ffab3",
    "onan-pg4-conic": "b3f1b2378ea2e59705d2f482204a27f4b8c635f220d31057ced900a8b24f1fe9",
    "onan-pg5-conic": "08d3f6a8e54548145fa0b602dfecf767fb914c9f4df5759b3ad3a1ff7ad34d25",
    "puncture-3-conic": "c5c7be3da2fc47da82f597e87dbd03a6ec15fa061a329d7e433694a4aa2412cc",
    "puncture-3-line": "9435480d904aa17f22cc65647ede976f70c215c6c3b9d35e404ece06f73b0a25",
    "puncture-3-line-swap": "ee48b9ee04171d1905675f9b2ac34b6f65300ac12ddea0aa19fc4f263ed1e913",
    "puncture-3-list": "9ec986679edda64e844348434228e7d934c24c094961cc69fb6e9af26dd122af",
    "puncture-4-conic": "eb5a5a4e2aaf3e0b0e6b0c2052e76ebe2aeaac968d4c4fe909138a4879840613",
    "puncture-4-line": "b923dc44784208e714a7eb1e0fa1aca74275aae7022359876001dfe5d48afed6",
    "puncture-4-line-swap": "29bfc79c08d18bfe1511b71452712b203218251c5e2381136ea0d0d0eae25cb4",
    "puncture-4-list": "3e6272c00e9d2003783d94c56fd9c1f22d4bb1f1c57acbe7c8dc41104a3664dd",
    "reconstruct-h2": "0258f7f54bf953af369ec02b04ea146d58a85125bc574cd47caa191221f988ec",
    "reconstruct-h3": "6ebddaf7d5c64c6cc2581dbcdd7a5772257abb25ce0ba14e926ea40393f08c1d",
    "reconstruct-h4": "1f877fe9ffab61097f8e3f44c46edbde538a53a615923f7568c22e7f0b0862e2",
    "srg-h2": "d9f1ecc269ddfba5f502cea3826986d5b853dd7107790341d382aa636f231295",
    "srg-h3": "944a59c66cd8fe5fb69d09e75b06714f1fbf1aec6940828c1c5178834c55970f",
    "srg-h3-mismatch": "496b853ab55591e98b9b7428739ef7bacdb72237c0b7da99f728e62c2eeaf33a",
    "srg-h4": "b82515c8a2d82577064dd58018987021d3c89d97ba5d78fc83bac367b232cdc9",
}


@contextmanager
def _in_dir(path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def _build_inputs(root: Path) -> dict:
    paths = {}
    for name, argv in INPUTS.items():
        paths[name] = str(root / f"{name}.json")
        with redirect_stdout(io.StringIO()):
            assert main([*argv, "-o", paths[name]]) == 0, name
    for q in (2, 3, 4):
        paths[f"h{q}-dimacs"] = str(root / f"h{q}.dimacs")
        assert main(["graph", paths[f"h{q}"], "-o", paths[f"h{q}-dimacs"]]) == 0
    # AG(2,3) without the parallel class of block 0: a partial linear space
    # in which some joins are missing
    data = json.loads(Path(paths["ag3"]).read_text())
    first = set(data["blocks"][0])
    data["blocks"] = [b for b in data["blocks"][1:] if first & set(b)]
    paths["ag3-minus-class"] = str(root / "ag3-minus-class.json")
    Path(paths["ag3-minus-class"]).write_text(json.dumps(data))
    return paths


def _digest(argv, inputs: dict, workdir: Path) -> str:
    out = io.StringIO()
    with _in_dir(workdir), redirect_stdout(out):
        code = main([arg.format(**inputs) for arg in argv])
    h = hashlib.sha256()
    text = out.getvalue().encode()
    h.update(b"exit %d\nstdout %d\n" % (code, len(text)) + text)
    for path in sorted(workdir.iterdir()):
        data = path.read_bytes()
        h.update(b"file %s %d\n" % (path.name.encode(), len(data)) + data)
    return h.hexdigest()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return _build_inputs(tmp_path_factory.mktemp("golden-inputs"))


def test_every_case_has_a_digest():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, inputs, tmp_path):
    assert _digest(CASES[case], inputs, tmp_path) == GOLDEN[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        found = _build_inputs(Path(root))
        print("GOLDEN = {")
        for case in sorted(CASES):
            workdir = Path(tempfile.mkdtemp(dir=root))
            print(f'    "{case}": "{_digest(CASES[case], found, workdir)}",')
        print("}")
