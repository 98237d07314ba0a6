"""Golden replay: sha256 digests of what small seeded CLI runs write and print.

The seeded replay contract says identical arguments reproduce identical
bytes. These digests pin the bytes themselves, so a refactor that changes
any output file (instance, trace, report, sweep table or tree dump), or the
report line and tree that the CLI prints to stdout, fails here. A deliberate
format change bumps the output format version recorded in CHANGES.md and
re-pins the tables in the same change; the current format is version 1.
"""
import hashlib
import json

import pytest

from hstmatch.cli import main

# Two server points at distance zero plus one request point: the server
# submetric collapses to a single class, so the embedding is the k=1 tree.
COINCIDENT = {
    "points": ["a", "b", "c"],
    "dist": [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]],
    "servers": [0, 1, 0],
    "requests": [2, 2, 1],
}

# Points on a line, the first two at the same spot: four server points hold
# three or more servers each and the coincident pair shares a leaf, so
# serving empties leaves that other requests then climb past.
_MULTI_X = [0.0, 0.0, 1.0, 3.0, 7.0, 8.0, 12.0, 20.0, 21.0]
MULTI = {
    "points": [f"x{i}" for i in range(len(_MULTI_X))],
    "dist": [[abs(a - b) for b in _MULTI_X] for a in _MULTI_X],
    "servers": [0, 0, 0, 1, 3, 3, 3, 3, 6, 6, 6, 7, 4, 4, 4, 4],
    "requests": [2, 8, 8, 5, 2, 1, 7, 8, 5, 5, 0, 2, 8, 6, 5, 2],
}

# (output file, CLI arguments); "{name}" expands to the path of an earlier
# output file, so later commands read the instances written before them. The
# last command writes no file and is named after what it prints.
INVOCATIONS = (
    ("star.json", ["generate", "--family", "star", "--n", "6", "--seed", "1", "-o", "{star.json}"]),
    ("euclid.json", ["generate", "--family", "euclidean", "--n", "7", "--seed", "2", "-o", "{euclid.json}"]),
    ("line.json", ["generate", "--family", "line", "--n", "6", "--seed", "3", "-o", "{line.json}"]),
    ("rwgm.csv", ["run", "--instance", "{euclid.json}", "--algorithm", "rwgm", "--episodes", "25",
                  "--seed", "4", "-o", "{rwgm.csv}", "--report", "{rwgm.report.json}"]),
    ("prop.csv", ["run", "--instance", "{star.json}", "--algorithm", "rwgm-proportional",
                  "--episodes", "25", "--seed", "5", "-o", "{prop.csv}", "--report", "{prop.report.json}"]),
    ("greedy.csv", ["run", "--instance", "{line.json}", "--algorithm", "greedy", "--seed", "6",
                    "-o", "{greedy.csv}", "--report", "{greedy.report.json}"]),
    ("optimal.csv", ["run", "--instance", "{euclid.json}", "--algorithm", "optimal", "--seed", "7",
                     "-o", "{optimal.csv}", "--report", "{optimal.report.json}"]),
    ("coincident.csv", ["run", "--instance", "{coincident.json}", "--algorithm", "rwgm",
                        "--episodes", "5", "--seed", "8", "-o", "{coincident.csv}",
                        "--report", "{coincident.report.json}"]),
    ("multi.csv", ["run", "--instance", "{multi.json}", "--algorithm", "rwgm", "--episodes", "25",
                   "--seed", "14", "-o", "{multi.csv}", "--report", "{multi.report.json}"]),
    ("multi-prop.csv", ["run", "--instance", "{multi.json}", "--algorithm", "rwgm-proportional",
                        "--episodes", "25", "--seed", "15", "-o", "{multi-prop.csv}",
                        "--report", "{multi-prop.report.json}"]),
    ("sweep.csv", ["sweep", "--family", "nested-uniform", "--sizes", "2,4",
                   "--algorithms", "rwgm,rwgm-proportional,greedy,optimal",
                   "--episodes", "15", "--seed", "9", "-o", "{sweep.csv}"]),
    ("tree.json", ["embed", "--instance", "{euclid.json}", "--seed", "10", "--dump-tree", "{tree.json}"]),
    ("tree-lam.json", ["embed", "--instance", "{line.json}", "--seed", "11", "--lambda", "2.5",
                       "--dump-tree", "{tree-lam.json}"]),
    ("tree-k1.json", ["embed", "--instance", "{coincident.json}", "--seed", "12",
                      "--dump-tree", "{tree-k1.json}"]),
    ("tree-multi.json", ["embed", "--instance", "{multi.json}", "--seed", "16", "--lambda", "2",
                         "--dump-tree", "{tree-multi.json}"]),
    ("tree.stdout", ["embed", "--instance", "{line.json}", "--seed", "13"]),
)

DIGESTS = {
    "coincident.csv": "613d5689b6e0c7a811a071ab76beccb7ab712414c2af025204a250ad0274a6ed",
    "coincident.report.json": "354d207a050f73087d7e8c8c1da03278d0f08e2b83c7e94d7f31ba0a1598eaa9",
    "euclid.json": "dc53b4b1bdfb6fb14165f9c45ef61d58db0ada4268df484b477a8dac85380606",
    "greedy.csv": "5f86d5703856bfef87c12277fccf6dd02ab90a0b72154d1eae89f63098937fd7",
    "greedy.report.json": "ef416e746a43e180bcb07e1248e157b9fca9c0400dc5a8bc42180c0a8368e668",
    "line.json": "412d09f66dce5e9752159ddcc14043b0fc0284720fc8b338847b45f49838b2d7",
    "multi-prop.csv": "1ce635cd39c46b2afee1616d7906b49f53fecd82238444784e3a9266c578de10",
    "multi-prop.report.json": "8f5ccab356a25f56dbd2e5f42fd67b7abcb9b8e10a10caf27b09cea7e5eb41ff",
    "multi.csv": "42241c2eee04c896ada81f6d2bb52c4962b5116d17eab2a7549b594aee3bf921",
    "multi.report.json": "f8b92a06c5404630e49c6e516f5104c9e308ca37b0c1b436641f4ec924e0281c",
    "optimal.csv": "d293e83059db04e6a9941269a507e814eadd948f5c3a666e9fa9c6824b3fd366",
    "optimal.report.json": "59b933b5d479e72e5dd854b88d6ebfd18817a47ecbb58a07a55682232b7355d7",
    "prop.csv": "3761b7a6bdb40c43cfa5af81c0ed9aa63889191c3bc4e019c3f43067cc08b79f",
    "prop.report.json": "446a0b78c28c20428a06644407c510e22957db786d758b4948489faab07a80dc",
    "rwgm.csv": "c0e7fca0b9dabdef043201698602225ba52a9384e9ec735460ac7dfec219f198",
    "rwgm.report.json": "20313176b6a990345b85ff939583934c1bed788da499b6ec96156e7e9dd57a73",
    "star.json": "89ba232940e75c5ed36ebaf4564f0ef576ae615f1b35adaffeeb4cc201d0ebe2",
    "sweep.csv": "712d5a1dd4dfb66bca43aa7ad41fb43b47e83c7b710f6b5bc6d4af781310e1a9",
    "tree-k1.json": "a1fe0999eed30d8605b73dd111624a51ed8bf1010032848499aaa7bed426428b",
    "tree-multi.json": "7bcf9ea0e48adfea6ea1366fa19bd95a8de1e3f3ce8a6a107df631b5572fc754",
    "tree-lam.json": "23f181c52eb586b60c7d0218c102cec0c17b030b9111679b4b071f13e6d0761b",
    "tree.json": "81737fbd546b0ff7510816eaf16d5d906dbe59e30580d9adaa054c5a30797645",
}


# sha256 of the stdout of each invocation, keyed by its first element. The
# invocations left out print the path of a temporary file.
STDOUT_DIGESTS = {
    "coincident.csv": "cdc482fe9984e3c06b7e73f0fe9d6d6464bf0cf56c3c57dfa0d8c95bbbb3796f",
    "greedy.csv": "8c95580fbdc9dae814a36016ca6be958e821715c8582c51ca2bd3bdd5b1fc62b",
    "multi-prop.csv": "7d66fcfc49fb6ab15575a1c2dea6bd424c8592e808c6d635d13edec8f309d769",
    "multi.csv": "be7ec622604babc2d90c38736f3eda16a47f8ef2ba10960394af3136bd0e88c1",
    "optimal.csv": "0cd69d31b5c3c2822b7003ef5d0a5aeb1985c9c0536189a6ba6684efb8eec6d7",
    "prop.csv": "1d61c1cd8a585fbe3b4a1fe08585622c618d2b856b46ac95a8d1764a7e11e60d",
    "rwgm.csv": "a3c32ae53be9f941189b52817e0251f1ba64dad52dff13672ca6e31a8bbf18c6",
    "tree.stdout": "6b4b1f84b70d52db349dfd989941d9c550d3d0889e72bd57340b71ab97bbf396",
}


def _expand(arg: str, tmp_path) -> str:
    if arg.startswith("{") and arg.endswith("}"):
        return str(tmp_path / arg[1:-1])
    return arg


def test_cli_outputs_match_pinned_digests(tmp_path, capsys):
    inputs = {"coincident.json": COINCIDENT, "multi.json": MULTI}
    for name, data in inputs.items():
        (tmp_path / name).write_text(json.dumps(data) + "\n", encoding="utf-8")
    printed = {}
    for name, argv in INVOCATIONS:
        assert main([_expand(a, tmp_path) for a in argv]) == 0, argv
        printed[name] = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert {name: printed[name] for name in STDOUT_DIGESTS} == STDOUT_DIGESTS
    written = sorted(p.name for p in tmp_path.iterdir() if p.name not in inputs)
    assert written == sorted(DIGESTS)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in written}
    assert got == DIGESTS
