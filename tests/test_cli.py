"""Command line behaviour: exit codes, formats, and round trips."""

from __future__ import annotations

import csv
import gc
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys

import pytest

import helpzc
from helpzc.cli import main
from helpzc.help_core import exceptional, exceptional_set, tpa_distribution, tpa_set
from helpzc.psl2 import make_context, make_frame
from helpzc.solver import character_family

from helpers import check_brauer_items, perturb_level_1


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def frame_for(q, m):
    return make_frame(make_context(q), m)


# ---------------------------------------------------------------- vpa / tpa


def test_vpa_q19_n10(capsys):
    code, out, _ = run_cli(capsys, "vpa", "--q", "19", "--n", "10", "--chars", "paper")
    assert code == 0
    payload = json.loads(out)
    assert payload["solution_count"] == 4
    assert payload["family"] == "paper"
    assert payload["rank"] == 8
    assert payload["complete"] is True
    assert len(payload["solutions"]) == 4


def test_vpa_precondition_failure(capsys):
    code, _, err = run_cli(capsys, "vpa", "--q", "19", "--n", "7")
    assert code == 2
    assert "q = +-1 mod 14" in err


def test_vpa_rejects_bad_q(capsys):
    code, _, err = run_cli(capsys, "vpa", "--q", "15", "--n", "2")
    assert code == 2
    assert "odd prime power" in err


@pytest.mark.parametrize("n, variables, entries", [
    (1, 0, [(1, 0, 1)]),
    (2, 1, [(1, 1, 1), (2, 0, 1)]),
])
def test_vpa_with_no_or_one_variable(capsys, n, variables, entries):
    # the vector getters take no position at n = 1 and one at n = 2, where
    # operator.itemgetter would fail or return a bare value
    for spec in ("paper", "brauer-p"):
        code, out, _ = run_cli(capsys, "vpa", "--q", "19", "--n", str(n), "--chars", spec)
        assert code == 0
        payload = json.loads(out)
        assert (payload["variables"], payload["solution_count"]) == (variables, 1)
        assert payload["complete"] is True
        [solution] = payload["solutions"]
        assert [(e["d"], e["exp"], e["value"]) for e in solution["entries"]] == entries


def test_vpa_q11_n5_paper(capsys):
    code, out, _ = run_cli(capsys, "vpa", "--q", "11", "--n", "5")
    assert code == 0
    assert json.loads(out)["solution_count"] == 2


def test_tpa_counts(capsys):
    code, out, _ = run_cli(capsys, "tpa", "--q", "19", "--n", "10")
    assert code == 0 and json.loads(out)["solution_count"] == 2
    code, out, _ = run_cli(capsys, "tpa", "--q", "13", "--n", "6")
    assert code == 0 and json.loads(out)["solution_count"] == 1
    code, out, _ = run_cli(capsys, "tpa", "--q", "19", "--n", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["solution_count"] == 1
    assert payload["solutions"][0]["entries"] == [
        {"d": 1, "order": 1, "exp": 0, "value": 1}
    ]


def test_vpa_csv_and_text_formats(capsys):
    code, out, _ = run_cli(
        capsys, "vpa", "--q", "19", "--n", "10", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["solution", "d", "order", "exp", "value"]
    assert len({r[0] for r in rows[1:]}) == 4
    code, out, _ = run_cli(
        capsys, "vpa", "--q", "19", "--n", "10", "--format", "text"
    )
    assert code == 0
    assert "solutions=4" in out


def test_vpa_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "vpa", "--q", "13", "--n", "6", "--out", str(target)
    )
    assert code == 0
    assert json.loads(target.read_text())["solution_count"] == 1


@pytest.mark.parametrize("name", ["dir", "missing/report.json"])
def test_unwritable_out_exits_2(tmp_path, capsys, name):
    (tmp_path / "dir").mkdir()
    target = tmp_path / name
    code, out, err = run_cli(capsys, "trace", "--m", "10", "--k", "5", "--out", str(target))
    assert code == 2
    assert err.startswith("error: cannot write") and "Traceback" not in err
    assert not out


@pytest.mark.parametrize(
    "argv",
    [
        ("verify-main", "--q", "13", "--t", "3"),
        ("check", "dist.json"),
        ("trace", "--m", "12", "--k", "2"),
        ("chars", "--q", "19", "--m", "10", "--decompose", "4"),
    ],
    ids=["verify-main", "check", "trace", "chars-decompose"],
)
def test_csv_only_where_a_csv_renderer_exists(argv, capsys):
    # argparse rejects the choice with SystemExit(2); chars has a csv table,
    # so --decompose rejects csv itself
    try:
        code = main([*argv, "--format", "csv"])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert "csv" in captured.err and not captured.out


# ---------------------------------------------------------------- verify-main


def test_verify_main_q19_t5(capsys):
    code, out, _ = run_cli(capsys, "verify-main", "--q", "19", "--t", "5")
    assert code == 0
    assert "4 = 2 TPA + 2 exceptional" in out
    assert "verdict: ok" in out


def test_verify_main_t3(capsys):
    code, out, _ = run_cli(capsys, "verify-main", "--q", "13", "--t", "3")
    assert code == 0
    assert "1 = 1 TPA + 0 exceptional" in out
    code, out, _ = run_cli(capsys, "verify-main", "--q", "11", "--t", "3")
    assert code == 0


def test_verify_main_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify-main", "--q", "19", "--t", "5", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and payload["match"]
    assert payload["tpa"] == 2 and payload["exceptional"] == 2
    assert all(c["ok"] for c in payload["trace_identity_checks"])
    assert all(s["ok"] for s in payload["sufficiency"])


def test_verify_main_precondition(capsys):
    code, _, err = run_cli(capsys, "verify-main", "--q", "19", "--t", "7")
    assert code == 2
    code, _, err = run_cli(capsys, "verify-main", "--q", "19", "--t", "4")
    assert code == 2
    assert "odd prime" in err


def test_verify_main_node_budget(capsys):
    code, _, err = run_cli(
        capsys, "verify-main", "--q", "19", "--t", "5", "--node-budget", "3"
    )
    assert code == 3
    assert "incomplete" in err


def test_verify_main_has_no_chars_option(capsys):
    # verify-main always enumerates with the paper family
    with pytest.raises(SystemExit) as exc:
        main(["verify-main", "--q", "19", "--t", "5", "--chars", "brauer-p"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --chars brauer-p" in capsys.readouterr().err


def test_main_leaves_no_reference_cycle(capsys):
    main(["verify-main", "--q", "19", "--t", "5"])
    gc.collect()
    gc.disable()
    try:
        main(["verify-main", "--q", "19", "--t", "5"])
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert "verdict: ok" in capsys.readouterr().out


# ---------------------------------------------------------------- check


def write_dist(tmp_path, pa, name="dist.json"):
    path = tmp_path / name
    path.write_text(json.dumps(pa.to_json_dict()))
    return str(path)


def test_check_exceptional_passes(tmp_path, capsys):
    fr = frame_for(19, 10)
    path = write_dist(tmp_path, exceptional(fr, 5))
    code, out, _ = run_cli(capsys, "check", path)
    assert code == 0
    assert "verdict: ok" in out


def test_check_v1_violation(tmp_path, capsys):
    path = tmp_path / "bad.json"
    payload = tpa_distribution(frame_for(19, 10), 1).to_json_dict()
    payload["entries"][0]["value"] = 2  # level 1 now sums to 2
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "check", str(path))
    assert code == 1
    assert "V1: FAIL" in out


def test_check_v2_violation(tmp_path, capsys):
    path = tmp_path / "bad2.json"
    payload = tpa_distribution(frame_for(19, 10), 1).to_json_dict()
    payload["entries"].append({"d": 1, "order": 1, "exp": 0, "value": 1})
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "check", str(path))
    assert code == 1
    assert "V2: FAIL" in out


def test_check_malformed_input(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 2
    path2 = tmp_path / "badq.json"
    path2.write_text(json.dumps({"q": 15, "n": 10, "entries": []}))
    code, _, err = run_cli(capsys, "check", str(path2))
    assert code == 2


def test_check_repeated_entry_exits_2(tmp_path, capsys):
    # the d = 1, exp = 1 entry of a TPA split into -4 and 5: summed, it would pass
    path = tmp_path / "split.json"
    payload = tpa_distribution(frame_for(19, 10), 1).to_json_dict()
    first = payload["entries"][0]
    assert (first["d"], first["exp"], first["value"]) == (1, 1, 1)
    payload["entries"][:1] = [dict(first, value=-4), dict(first, value=5)]
    path.write_text(json.dumps(payload))
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 2
    assert "repeated" in err


@pytest.mark.parametrize(
    "name, content, prefix",
    [
        ("missing.json", None, "cannot read"),
        ("adir", "DIR", "cannot read"),
        ("broken.json", "{not json", "malformed"),
        ("list.json", "[1, 2]", "malformed"),
        ("badq.json", json.dumps({"q": 15, "n": 10, "entries": []}), "malformed"),
        ("noentries.json", json.dumps({"q": 19, "n": 10}), "malformed"),
        (
            "noexp.json",
            json.dumps({"q": 19, "n": 10, "entries": [{"d": 10, "value": 1}]}),
            "malformed",
        ),
    ],
    ids=["missing", "directory", "not-json", "json-list", "q15", "no-entries", "entry-no-exp"],
)
def test_check_input_failure_names_the_file(name, content, prefix, tmp_path, capsys):
    path = tmp_path / name
    if content == "DIR":
        path.mkdir()
    elif content is not None:
        path.write_text(content)
    code, out, err = run_cli(capsys, "check", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {prefix} distribution file {path}: ")
    assert err.count("malformed") == (prefix == "malformed")


def test_round_trip_every_emitted_solution(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "vpa", "--q", "19", "--n", "10")
    assert code == 0
    for i, sol in enumerate(json.loads(out)["solutions"]):
        path = tmp_path / f"sol{i}.json"
        path.write_text(json.dumps(sol))
        code, _, _ = run_cli(capsys, "check", str(path), "--chars", "paper")
        assert code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("vpa", "--q", "19", "--n", "10"),
        ("vpa", "--q", "289", "--node-budget", "40000000", "--n", "12"),
        ("tpa", "--q", "19", "--n", "10"),
        ("verify-main", "--q", "19", "--t", "5"),
        ("check", "DIST", "--chars", "brauer-p"),
        ("chars", "--q", "19", "--m", "10", "--chars", "brauer-p"),
        ("chars", "--q", "19", "--m", "10", "--decompose", "4"),
    ],
    ids=lambda argv: " ".join(argv[:1] + argv[-2:]),
)
def test_json_output_is_indent_2_json_dumps(argv, tmp_path, capsys):
    """--format json writes json.dumps(report, indent=2), keys in report order."""
    dist = write_dist(tmp_path, exceptional(frame_for(19, 10), 5))
    target = tmp_path / "out.json"
    argv = [dist if a == "DIST" else a for a in argv]
    code, _, _ = run_cli(capsys, *argv, "--format", "json", "--out", str(target))
    assert code == 0
    text = target.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


# sha256 of stdout, recorded before the renderers shared one writer; outputs
# that carry node_count are left out, since search changes move it
RENDERER_PINS = [
    ("vpa --q 19 --n 10 --format csv", 0,
     "c12750335cc28aecfe6d97a69719da2610e3db49d47c024cb8f0b01c14a7a5b1"),
    ("tpa --q 19 --n 10 --format json", 0,
     "ab1fb7ddf9ad1c07746d89b6c3c39199eb13bdf5ec97573efcfc2c070c73d5de"),
    ("tpa --q 19 --n 10 --format text", 0,
     "f383400e55bb96d268743986d3c999e35f90194233128b7ea77fe08f362f6bd7"),
    ("tpa --q 19 --n 10 --format csv", 0,
     "9fe93a48301c36391626f22c5087f640f35e36a011ad96497432290108a12542"),
    ("verify-main --q 13 --t 3", 0,
     "65a657aa51b1b06282fcef3fb95a2592f366a992db04316fe861732dd560eb60"),
    ("verify-main --q 19 --t 5", 0,
     "6ef934046f7583aa56bebd8191d027be4cc8f2593d08059c9aa883688e7ae331"),
    ("verify-main --q 121 --t 5", 1,
     "ce99018d962e4558fc3a00c28f090a420314fb3fd469b392caa9f951fff2b74b"),
    ("chars --q 19 --m 10 --chi 4", 0,
     "8ff4ef642d33ad698e42e6384a98ab8bb0fbb7232ac228756983d9b0adb141e1"),
    ("chars --q 19 --m 10 --chi 4 --format csv", 0,
     "e4eab1290ecc4eb634c0445b7fd31820ee2a8e051d1d7ca768ac42b0fdf45a1d"),
    ("chars --q 19 --m 10 --chars brauer-p --format json", 0,
     "194d159d72f94820058c1ea0c95a4ed14ba56390406641005fecd66163ec4ac3"),
    # a three-prime order (Phi_30) and a non-squarefree one (Phi_36)
    ("chars --q 61 --m 30 --chars brauer-p --format json", 0,
     "1e082c4ee15b64823d3131f6039ada649a321391fc93529a1940feb0d7300dbe"),
    ("chars --q 61 --m 30 --format text", 0,
     "d077495ae6c68e37a70a0523e97adde7cf06823c45f12a44a39bf684273608b5"),
    ("chars --q 73 --m 36 --chars brauer-p --format csv", 0,
     "1ffa6c926bf65997d238e42d19e1804f67ec02350fb008ac571fa0e21a64ab64"),
    ("chars --q 19 --m 10 --decompose 4 --format json", 0,
     "de0ca824fe4164fcc3af0a71d2fecf97e78eecf438c18b58376915a52552316a"),
    ("chars --q 19 --m 10 --decompose 4", 0,
     "45961f3890764cef4212bac9fdbed3abb49d884df9d4087127ffef36e643ac54"),
    ("trace --m 10 --k 5 --format json", 0,
     "94c09c34c4902ab09f52127f86dc84a978093d7177715a45cdda9963758868f2"),
    ("trace --m 10 --k 5", 0,
     "8fbfec21acf8f74313698199401f9eb352920bd889b4865b272e657167808aa0"),
    ("check EXC --chars brauer-p --format json", 0,
     "a387af92156b9dc126437d8c8989ddcf7fa40791883341f3d99654b52dc1fac6"),
    ("check EXC --chars brauer-p", 0,
     "57ae79a46faafa40f1ab68f7a8ab9bd84bc9ccfe49a0f78d80c13772e77216fe"),
    ("check V1 --format json", 1,
     "82e8fc9df1bba83c6b49cf1ea0414876e8578e39126a292a12a6d8afcc4b2056"),
    ("check V1", 1,
     "218a3f6d85a4b15822419c4eedf4ab99a596de0e02efc9e0ef159db853194c6d"),
    # keeps (V1)-(V3) and fails (V4): mu(chi_2, l=2) = -1/10
    ("check V4 --chars brauer-p --format json", 1,
     "d7e82d956b77cc6272e689275ff093354ff2d0cea036e972bd3ecfbb8f902fc8"),
    ("check V4 --chars brauer-p", 1,
     "08ee91ed0e54e9f3ce80e247ea4e372fd8c1434686117de741de7fb34030790d"),
]

# the (19,10) TPA distribution of g0 with +1 on g0^3 and -1 on g0^4 at level 1
V4_FAILURE = (
    '{"q":19,"n":10,"entries":[{"d":1,"exp":1,"value":1},{"d":1,"exp":3,"value":1},'
    '{"d":1,"exp":4,"value":-1},{"d":2,"exp":2,"value":1},{"d":5,"exp":5,"value":1},'
    '{"d":10,"exp":0,"value":1}]}'
)


@pytest.mark.parametrize("line, expected_code, digest", RENDERER_PINS, ids=lambda v: str(v)[:50])
def test_renderer_bytes_are_pinned(line, expected_code, digest, tmp_path, capsys):
    fr = frame_for(19, 10)
    broken = tpa_distribution(fr, 1).to_json_dict()
    broken["entries"][0]["value"] = 2  # level 1 now sums to 2: (V1) fails
    (tmp_path / "v1.json").write_text(json.dumps(broken))
    (tmp_path / "v4.json").write_text(V4_FAILURE)
    files = {"EXC": write_dist(tmp_path, exceptional(fr, 5)), "V1": str(tmp_path / "v1.json"),
             "V4": str(tmp_path / "v4.json")}
    code, out, _ = run_cli(capsys, *(files.get(a, a) for a in line.split()))
    assert code == expected_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_vpa_289_12_json_is_pinned(capsys):
    # sha256 of the 648,278 bytes of stdout less the node_count line, recorded
    # before each distinct entry row was written once per report
    code, out, _ = run_cli(
        capsys, "vpa", "--q", "289", "--n", "12", "--node-budget", "40000000", "--format", "json"
    )
    assert code == 0
    text = "".join(line for line in out.splitlines(keepends=True) if '"node_count":' not in line)
    assert len(text) == 648_278
    digest = "9dae6e64f440039a4ba547c3447cb85e1eb2ee7661dad8a3bc7f3f1b7e7b1769"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of stdout (the text form less its header's node_count field), recorded
# before enumerate_solutions built its SolutionSet without SolutionSet.build
VPA_289_12_PINS = [
    ("text", 83_101, "bf3d67d1bc6346b1f1a65c7860fa1326ae2f3c2d888126f7dd7d16b278e259bc"),
    ("csv", 79_635, "d63af9a4b77872b54f462f3d2888414282da30069489ad275f5de57abc9bbf35"),
]


@pytest.mark.parametrize("fmt, size, digest", VPA_289_12_PINS, ids=[p[0] for p in VPA_289_12_PINS])
def test_vpa_289_12_text_and_csv_are_pinned(capsys, fmt, size, digest):
    code, out, _ = run_cli(
        capsys, "vpa", "--q", "289", "--n", "12", "--node-budget", "40000000", "--format", fmt
    )
    assert code == 0
    text = re.sub(r" node_count=\d+", "", out, count=1) if fmt == "text" else out
    assert len(text) == size
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of stdout less the node_count line, recorded before json_text wrote
# distributions itself: (43,11) has 5 sufficiency distributions, (81,5) 96
# and (27,7) 42 in diff.only_found; the text form prints to_json_dict reprs
VERIFY_MAIN_PINS = [
    ("43 11 json", 0, 8_473, "de74cc03ddab4f4014a80d7d6590f3007404acf81da047cd3610943980937b4f"),
    ("81 5 json", 1, 109_729, "e86d346d284b762a1d899b4357d810e269474976fe5e0e98511652b6c78541bf"),
    ("27 7 json", 1, 52_369, "aa342fc981e0b41c3f48691eb87367f6e9d5afcf8415e543f78e5194fe56bad4"),
    ("81 5 text", 1, 35_656, "203f524e0bc9d8805efcc62f0899403dcc5c32b4fcbc4bb1678045eb48f50fe6"),
]


@pytest.mark.parametrize("case, expected_code, size, digest", VERIFY_MAIN_PINS,
                         ids=[p[0].replace(" ", "-") for p in VERIFY_MAIN_PINS])
def test_verify_main_output_is_pinned(case, expected_code, size, digest, capsys):
    q, t, fmt = case.split()
    code, out, _ = run_cli(capsys, "verify-main", "--q", q, "--t", t, "--format", fmt)
    assert code == expected_code
    text = "".join(line for line in out.splitlines(keepends=True) if '"node_count":' not in line)
    assert len(text) == size
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def wide_check_inputs(tmp_path):
    """(distribution file, --chars) of every check in the wide pin below.

    The 132 check-brauer items of seeds 0-2 against brauer-p; the (19,9)
    TPA distribution (an odd order) and the (121,10) TPA and exceptional
    ones (q = 11^2, whose brauer-p family breaks its digit chain where the
    first digit moves), each with a level-1 perturbation, against brauer-p;
    and seed 0's items and the (19,9) and (121,10) ones against a character
    file listing brauer-p backwards with phi_1 and psi_1 mixed in.
    """
    rng = random.Random(0)
    extra = [tpa_distribution(frame_for(19, 9), 1)]
    fr = frame_for(121, 10)
    extra += [*tpa_set(fr), *exceptional_set(fr, 5)]
    extra += [perturb_level_1(pa, rng) for pa in extra]
    items = [pa for seed in range(3) for pa in check_brauer_items(seed)] + extra
    paths = []
    for i, pa in enumerate(items):
        path = tmp_path / f"item{i:03d}.json"
        path.write_text(pa.to_json(), encoding="utf-8")
        paths.append(str(path))
    out = [(path, "brauer-p") for path in paths]
    files = {}
    for path, pa in zip(paths[:44] + paths[132:], items[:44] + items[132:]):
        key = (pa.q, pa.n)
        if key not in files:
            chars = [{"kind": "brauer", "weights": list(chi.weights)}
                     for chi in character_family(pa.frame, "brauer-p")[0][::-1]]
            chars[len(chars) // 2 : len(chars) // 2] = [{"kind": "psi", "h": 1}]
            chars.insert(1, {"kind": "phi", "h": 1})
            files[key] = tmp_path / f"chars-{key[0]}-{key[1]}.json"
            files[key].write_text(json.dumps(chars), encoding="utf-8")
        out.append((path, str(files[key])))
    return out


# sha256 of the concatenated stdout of `check` over wide_check_inputs, per
# format, recorded before a character's counts came from its predecessor's
# and the multiplicity list was written from shared pieces
@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("json", "a964ea6766c058242945f290074472d2c1ed38ce9da7925c530f553079172271"),
        ("text", "fb780f71dae8621cb4a616162ba721136d6661eca10bb320e733366a1d9e6933"),
    ],
    ids=["json", "text"],
)
def test_check_output_is_pinned_wide(fmt, digest, tmp_path, capsys):
    h = hashlib.sha256()
    for path, chars in wide_check_inputs(tmp_path):
        code, out, _ = run_cli(capsys, "check", path, "--chars", chars, "--format", fmt)
        assert code in (0, 1)
        h.update(out.encode())
    assert h.hexdigest() == digest


# ---------------------------------------------------------------- chars / trace


def test_chars_table_values(capsys):
    code, out, _ = run_cli(capsys, "chars", "--q", "19", "--m", "10", "--chi", "4")
    assert code == 0
    assert "chi_4(g^0)=5" in out
    assert "chi_4(g^5)=1" in out


def test_chars_decompose(capsys):
    code, out, _ = run_cli(
        capsys, "chars", "--q", "19", "--m", "10", "--decompose", "4"
    )
    assert code == 0
    assert out.strip() == "k_0=1; n_1=1; n_2=1"


@pytest.mark.parametrize("digits", ["-2,4", "2,-2"])
def test_chars_decompose_rejects_a_negative_digit(capsys, digits):
    code, out, err = run_cli(
        capsys, "chars", "--q", "19", "--m", "10", f"--decompose={digits}"
    )
    assert code == 2
    assert err == "error: chi_R requires a nonempty tuple of nonnegative digits\n"
    assert not out


def test_chars_csv(capsys):
    code, out, _ = run_cli(
        capsys, "chars", "--q", "19", "--m", "10", "--chi", "2", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["character", "order", "exp", "value"]
    assert ["chi_2", "1", "0", "3"] in rows
    assert ["chi_2", "2", "5", "-1"] in rows


@pytest.mark.parametrize(
    "argv",
    [("--chi", "4", "--chars", "brauer-p"), ("--chi", "2", "--decompose", "4")],
    ids=["chi-chars", "chi-decompose"],
)
def test_chars_character_options_are_exclusive(argv, capsys):
    # brauer-p, not paper: argparse does not flag a value that is the default object
    with pytest.raises(SystemExit) as exc:
        main(["chars", "--q", "19", "--m", "10", *argv])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "not allowed with argument" in captured.err


def test_chars_invalid_frame(capsys):
    code, _, err = run_cli(capsys, "chars", "--q", "19", "--m", "7")
    assert code == 2


def test_trace_command(capsys):
    code, out, _ = run_cli(capsys, "trace", "--m", "10", "--k", "5")
    assert code == 0 and out.strip() == "-4"
    code, out, _ = run_cli(capsys, "trace", "--m", "12", "--k", "2", "--format", "json")
    assert code == 0 and json.loads(out) == {"m": 12, "k": 2, "trace": 2}


def test_custom_character_file(tmp_path, capsys):
    spec = [{"kind": "brauer", "weights": [2]}]
    path = tmp_path / "family.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run_cli(
        capsys, "vpa", "--q", "11", "--n", "5", "--chars", str(path)
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["solution_count"] == 2
    assert payload["family"].startswith("file:")
    bad_items = [
        {"kind": "phi", "h": 1.5},
        {"kind": "phi", "h": "1"},
        {"kind": "psi", "h": True},
        {"kind": "brauer", "weights": [2.0]},
        {"kind": "brauer", "weights": ["2"]},
    ]
    for item in bad_items:
        path.write_text(json.dumps([item]))
        code, _, err = run_cli(capsys, "vpa", "--q", "11", "--n", "5", "--chars", str(path))
        assert code == 2
        assert "integer" in err


def test_rows_completed_by_the_level_equations_exit_0(tmp_path, capsys):
    # the chi_2 and chi_4 rows have rank 7 for the 8 variables of (19,10), and
    # 8 with the level equations: the relaxation is bounded, and the family
    # gives the paper's 4
    path = tmp_path / "chi2-chi4.json"
    path.write_text(json.dumps([{"kind": "brauer", "weights": [w]} for w in (2, 4)]))
    code, out, _ = run_cli(capsys, "vpa", "--q", "19", "--n", "10", "--chars", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["solution_count"] == 4
    assert payload["rank"] == 8 and payload["complete"] is True


def test_chars_table_from_character_file(tmp_path, capsys):
    path = tmp_path / "family.json"
    path.write_text(json.dumps([{"kind": "brauer", "weights": [4]}, {"kind": "phi", "h": 1}]))
    code, out, _ = run_cli(
        capsys, "chars", "--q", "19", "--m", "10", "--chars", str(path), "--format", "json"
    )
    assert code == 0
    table = json.loads(out)["table"]
    assert [row["character"] for row in table] == ["chi_4", "phi_1"]
    assert {"order": 1, "exp": 0, "value": "5"} in table[0]["values"]


def test_check_phi_h_on_the_frame_order_exits_2(tmp_path, capsys):
    chars = tmp_path / "phi10.json"
    chars.write_text(json.dumps([{"kind": "phi", "h": 10}]))
    dist = write_dist(tmp_path, exceptional(frame_for(19, 10), 5))
    code, out, err = run_cli(capsys, "check", dist, "--chars", str(chars))
    assert code == 2
    assert out == ""
    assert "not defined when the frame order divides h" in err


def test_empty_character_file_exits_2(tmp_path, capsys):
    # an empty family would pass (V4) vacuously or be coerced into brauer-p
    chars = tmp_path / "empty.json"
    chars.write_text("[]")
    dist = write_dist(tmp_path, exceptional(frame_for(19, 10), 5))
    for argv in (
        ["check", str(dist), "--chars", str(chars)],
        ["vpa", "--q", "19", "--n", "10", "--chars", str(chars)],
        ["chars", "--q", "19", "--m", "10", "--chars", str(chars)],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: character file") and "lists no character" in err


def test_unreadable_character_file_exits_2(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "vpa", "--q", "19", "--n", "10", "--chars", str(tmp_path)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read character file")
    assert "Traceback" not in err


def test_character_file_that_is_not_json_exits_2(tmp_path, capsys):
    # the decoder's message alone would not say which file is broken
    chars = tmp_path / "broken.json"
    chars.write_text('[{"kind": "trivial"}, ')
    code, out, err = run_cli(capsys, "vpa", "--q", "19", "--n", "10", "--chars", str(chars))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: malformed character file {chars}: Expecting value")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "item",
    [
        {"kind": "phi", "h": 0},
        {"kind": "quux"},
        {"kind": "brauer", "weights": [1]},
        {"kind": "phi"},
    ],
)
def test_bad_character_entry_names_the_file(item, tmp_path, capsys):
    chars = tmp_path / "bad.json"
    chars.write_text(json.dumps([item]))
    code, out, err = run_cli(capsys, "vpa", "--q", "19", "--n", "10", "--chars", str(chars))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: malformed character file {chars}: ")


@pytest.mark.parametrize("spec", ["brauer-p:-1", "brauer-p:0", "brauer-p:1.5"])
def test_bad_degree_bound_exits_2(spec, capsys):
    code, out, err = run_cli(capsys, "vpa", "--q", "19", "--n", "10", "--chars", spec)
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid character family") and spec in err


def test_preset_wins_over_file_of_same_name(tmp_path, monkeypatch, capsys):
    (tmp_path / "paper").write_text(json.dumps([{"kind": "brauer", "weights": [2]}]))
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "vpa", "--q", "19", "--n", "10", "--chars", "paper")
    assert code == 0
    assert json.loads(out)["family"] == "paper"
    code, out, _ = run_cli(capsys, "vpa", "--q", "11", "--n", "5", "--chars", "./paper")
    assert code == 0
    assert json.loads(out)["family"] == "file:paper"


def test_closed_pipe_exits_without_traceback():
    # about 100 kB of JSON, more than a pipe buffers, so the write hits the
    # closed pipe
    src = os.path.dirname(os.path.dirname(helpzc.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "helpzc", "chars", "--q", "289", "--m", "12",
         "--chars", "brauer-p", "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 1
    assert "Traceback" not in err


def test_workers_env_and_flag(capsys):
    # the search runs in one process: --workers takes only 1, and changes nothing
    plain = run_cli(capsys, "vpa", "--q", "19", "--n", "10")
    assert plain[0] == 0
    assert run_cli(capsys, "vpa", "--q", "19", "--n", "10", "--workers", "1") == plain
    for workers in ("2", "0"):
        with pytest.raises(SystemExit) as exc:
            main(["vpa", "--q", "19", "--n", "10", "--workers", workers])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_node_budget_below_one_exits_2(budget, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["vpa", "--q", "19", "--n", "10", "--node-budget", budget])
    assert exc.value.code == 2
    assert "at least 1" in capsys.readouterr().err


def test_budget_error_reports_the_crossing(capsys):
    # the search stops at the first node count past the budget
    code, out, err = run_cli(capsys, "vpa", "--q", "31", "--n", "15", "--node-budget", "300")
    assert code == 3
    assert out == ""
    assert "node budget 300 exhausted after 303 nodes" in err


def test_rank_deficient_family_exits_2(capsys):
    code, out, err = run_cli(capsys, "vpa", "--q", "19", "--n", "10", "--chars", "brauer-p:1")
    assert code == 2
    assert "augment" in err
    # brauer-p:1 is the trivial character, whose rows are sums over the levels:
    # the rank is that of the 3 level equations
    assert "rank 3 for 8 variables" in err
    assert out == ""
