"""Command-line front end: formats, exit codes, canonical JSON, env override."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from decimal import Decimal, Inexact, localcontext
from fractions import Fraction

import pytest

import lahbell.cli as cli
from lahbell.dobinski import CertifiedDecimal, PrecisionNotReached
from lahbell.identities import IdentityRecord
from lahbell.series import GF_NAMES
from lahbell.triangles import Triangle


def run(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_text(capsys):
    code, out, err = run(capsys, ["table", "lah", "4"])
    assert code == 0
    assert out == "1\n0 1\n0 2 1\n0 6 6 1\n0 24 36 12 1\n"
    assert err == ""


def test_table_csv(capsys):
    code, out, err = run(capsys, ["table", "lah", "3", "--format", "csv"])
    assert code == 0
    assert out == "1\n0,1\n0,2,1\n0,6,6,1\n"
    assert err == ""


def test_table_json_is_canonical(capsys):
    code, out, err = run(capsys, ["table", "s1", "3", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "command": "table",
        "kind": "s1",
        "nmax": 3,
        "rows": [[1], [0, 1], [0, -1, 1], [0, 2, -3, 1]],
    }
    assert out == json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    assert err == ""


def old_table_output(kind, nmax, fmt):
    """`table` output as it was rendered from a list of int rows."""
    rows = [list(Triangle(cli._TABLE_KINDS[kind]).row(n)) for n in range(nmax + 1)]
    if fmt == "json":
        return cli._canonical_json({"command": "table", "kind": kind, "nmax": nmax, "rows": rows}) + "\n"
    if fmt == "csv":
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(rows)
        return buffer.getvalue()
    return "\n".join(" ".join(map(str, row)) for row in rows) + "\n"


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("kind", ["lah", "s1", "s2"])
def test_streamed_table_matches_the_list_rendering(capsys, kind, fmt):
    for nmax in range(6):
        code, out, err = run(capsys, ["table", kind, str(nmax), "--format", fmt])
        assert (code, err) == (0, "")
        assert out == old_table_output(kind, nmax, fmt)


def test_table_context_raises_instead_of_rounding():
    with localcontext(cli._EXACT):
        with pytest.raises(Inexact):
            Decimal("2.5").to_integral_exact()
        with pytest.raises(Inexact):
            Decimal("1.25").quantize(Decimal("0.1"))


class Sha256Stdout(io.TextIOBase):
    """A stdout that keeps only the sha256 of what is written to it."""

    def __init__(self):
        self.sha256 = hashlib.sha256()

    def write(self, text):
        self.sha256.update(text.encode())
        return len(text)


# Golden sha256 of `lahbell table KIND NMAX --format FMT`, recorded from the
# list-of-int-rows rendering before tables were streamed.  The benchmark's
# expected output covers text only.
TABLE_SHA256 = {
    ("lah", 600, "text"): "0de2cde2e7320058526b1e28898d79a71066e49a6218c742ce9c178827cb0195",
    ("lah", 600, "csv"): "002b2c4b51aacd0ab053ce9f6a3a4edd9667fd75dc665b4a5b9d0442e5e63751",
    ("lah", 600, "json"): "da3dbe48d20edf027a404f68d19c0b3feef561e292e661fce3fd32b24ecf4e7b",
    ("s1", 450, "text"): "b8396fc97ae33e7cfb7e3b27a9024c4aa1f33b2171cc7da1476a3d4b7b9334ff",
    ("s1", 450, "csv"): "ff9b7b36412e9b59d2850e9ec3ff7311078a048fe0569c2e4d521812dd0b20b8",
    ("s1", 450, "json"): "9442f8c88c6494e21eb0a1d35156e3ad05e758a5795aedf4e6b6abe3b290d37d",
    ("s2", 450, "text"): "bc012fbbc142e7e816debb6c1eb90494794b5f5d5ec1b88d353b562c61d9d33a",
    ("s2", 450, "csv"): "eec3ff99ad70b6510a94d245643d8f1b5605d8ac6540c1a4192fa6456392f43c",
    ("s2", 450, "json"): "768e2b89ac9b2070910e9f8e8d2b81357fc12ebf5c2ef70287174c9d05dbd0cf",
}


@pytest.mark.parametrize("kind, nmax, fmt", sorted(TABLE_SHA256))
def test_table_matches_golden_digest(monkeypatch, kind, nmax, fmt):
    stdout = Sha256Stdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert cli.main(["table", kind, str(nmax), "--format", fmt]) == 0
    assert stdout.sha256.hexdigest() == TABLE_SHA256[kind, nmax, fmt]


def lahbell_command(*argv):
    return [sys.executable, "-m", "lahbell.cli", *argv]


LAHBELL_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}


def test_closed_pipe_exits_1_without_a_traceback():
    # `lahbell table lah 300 | head -c 10`: the output is far larger than a
    # pipe buffer, so the reader leaves while rows are still being written.
    with subprocess.Popen(
        lahbell_command("table", "lah", "300"),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=LAHBELL_ENV,
    ) as proc:
        assert proc.stdout.read(10) == b"1\n0 1\n0 2 "
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert stderr == b""


# Spawns argv[1:] with stdout on /dev/null and prints its exit code and peak
# RSS in KiB.  A child's peak RSS counts the pages of the process that
# spawned it, so it is spawned from this bare interpreter, not from pytest.
SPAWN_AND_REAP = """
import os, sys
actions = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ, file_actions=actions)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(not hasattr(os, "posix_spawn") or not hasattr(os, "wait4"), reason="needs posix_spawn and wait4")
def test_table_streams_in_bounded_memory():
    # Built as a list of rows and one joined text, `table lah 1000` peaked at
    # about 1.25 GB; streamed, only the newest row and its text are alive.
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", SPAWN_AND_REAP, *lahbell_command("table", "lah", "1000")],
        capture_output=True,
        text=True,
        env=LAHBELL_ENV,
        timeout=120,
    )
    assert done.stderr == ""
    code, peak_kib = map(int, done.stdout.split())
    assert code == 0
    assert peak_kib < 100 * 1024


def test_seq_text(capsys):
    code, out, err = run(capsys, ["seq", "lah_bell", "6"])
    assert code == 0
    assert out == "1 1 3 13 73 501 4051\n"
    assert err == ""


def test_seq_csv_has_header(capsys):
    code, out, _ = run(capsys, ["seq", "bell", "4", "--format", "csv"])
    assert code == 0
    assert out == "n,value\n0,1\n1,1\n2,2\n3,5\n4,15\n"


def test_seq_json(capsys):
    code, out, _ = run(capsys, ["seq", "bell", "4", "--format", "json"])
    assert code == 0
    assert json.loads(out) == {
        "command": "seq",
        "kind": "bell",
        "nmax": 4,
        "values": [1, 1, 2, 5, 15],
    }


def test_poly_text(capsys):
    code, out, err = run(capsys, ["poly", "lah_bell", "3"])
    assert code == 0
    assert out == "x^3 + 6*x^2 + 6*x\n"
    assert err == ""


def test_poly_json(capsys):
    code, out, _ = run(capsys, ["poly", "laguerre", "1", "--format", "json"])
    assert code == 0
    assert json.loads(out) == {
        "command": "poly",
        "family": "laguerre",
        "n": 1,
        "value": "-x + alpha + 1",
    }


def test_gf_text(capsys):
    code, out, err = run(capsys, ["gf", "bell", "--order", "4"])
    assert code == 0
    assert out == "0: 1\n1: 1\n2: 2\n3: 5\n4: 15\n"
    assert err == ""


def test_gf_json_renders_exact_strings(capsys):
    code, out, _ = run(capsys, ["gf", "bell", "--order", "4", "--format", "json"])
    assert code == 0
    assert json.loads(out) == {
        "command": "gf",
        "egf_coefficients": ["1", "1", "2", "5", "15"],
        "name": "bell",
        "order": 4,
    }


# Golden sha256 of `lahbell gf NAME --order 24 --format json`.  Order 24 lies
# past the degenerate families' verified range (12) and the benchmark's
# orders (14-20), so no other check pins these bytes.
GF_ORDER_24_SHA256 = {
    "lah_bell": "cc269a565aa170820c86442c8b2576b57229c74d43fb748bddba596e3c31d969",
    "lah_bell_poly": "172889efd7a02fbf7d5417af8cf7927a5056a7b70a3cbaf613a809e5a85396b1",
    "bell": "42c54d53f56ac68b5b2e3239dd22cc466a7836f240a4e158b70c96a7d17bd4b1",
    "bell_poly": "0909114c935feb47943d1f7bf4c8a62aa72739c52079afb4619295b492c3e0fb",
    "bivariate_bell": "a1a0efcf764021814a8be303d6900a5e368642b1e5df9e7de47fc788b1e5630d",
    "bivariate_lah_bell": "87f3b76675a6c6ed00a24ba3329a8eaed2e6b7cab36178b312e7e19fb7d68784",
    "degenerate_lah_bell": "474f08dabe89a6d658f29ea5a9ce61ecba420d0074f890cf1e8208572e980a6a",
    "degenerate_bell": "2004d9cbe9ebba1d189f271ab27da9e1822e18b530bca2bcc25754ac9f7d3202",
    "laguerre_weighted": "eb70ca5b671499c728553d07ce27c937911603221f5b4ccf8a453ef4eca9781c",
}


@pytest.mark.parametrize("name", GF_NAMES)
def test_gf_order_24_matches_golden_digest(capsys, name):
    code, out, err = run(capsys, ["gf", name, "--order", "24", "--format", "json"])
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == GF_ORDER_24_SHA256[name]


# Golden sha256 of `lahbell gf NAME --order N --format json` at the highest
# order the benchmark deck asks of each symbolic power, past the order-24
# digests above.
GF_DECK_TOP_SHA256 = {
    ("bivariate_bell", 30): "651ddbfce53f79070b33cab9b824b8c1c0fe2fab64e20504a4db123e4b92c0ab",
    ("bivariate_lah_bell", 32): "2c0eff5e9b7ff669cd624b553445833592104a8a2654606145f9c96a7c430a5a",
    ("laguerre_weighted", 40): "612096c95063906de5ddb51ae21d6f5c2e63a96cf75ee1e23dc45b76ce1c4eb6",
}


@pytest.mark.parametrize("name, order", sorted(GF_DECK_TOP_SHA256))
def test_gf_deck_top_orders_match_golden_digest(capsys, name, order):
    code, out, err = run(capsys, ["gf", name, "--order", str(order), "--format", "json"])
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == GF_DECK_TOP_SHA256[name, order]


@pytest.mark.parametrize("name", GF_NAMES)
def test_gf_order_0_is_the_constant_term(capsys, name):
    code, out, err = run(capsys, ["gf", name, "--order", "0"])
    assert (code, out, err) == (0, "0: 1\n", "")
    code, out, err = run(capsys, ["gf", name, "--order", "0", "--format", "json"])
    assert code == 0 and err == ""
    assert json.loads(out) == {"command": "gf", "egf_coefficients": ["1"], "name": name, "order": 0}


def test_verify_text(capsys):
    code, out, err = run(capsys, ["verify", "eq3", "thm3", "--max-n", "5"])
    assert code == 0
    assert out == "eq3: pass (n <= 5)\nthm3: pass (n <= 5)\n"
    assert err == ""


def test_verify_json_payload_is_record_array(capsys):
    code, out, _ = run(capsys, ["verify", "eq3", "--max-n", "5", "--format", "json"])
    assert code == 0
    assert json.loads(out) == [
        {
            "anchor": "x^n = sum_{k=0..n} S2(n,k) (x)_k",
            "id": "eq3",
            "range": "n <= 5",
            "status": "pass",
        }
    ]


def test_verify_oracle_appends_records(capsys):
    code, out, _ = run(
        capsys, ["verify", "eq3", "--max-n", "4", "--oracle", "--format", "json"]
    )
    assert code == 0
    ids = [record["id"] for record in json.loads(out)]
    assert ids == [
        "eq3",
        "oracle-ordered-partitions",
        "oracle-set-partitions",
        "oracle-permutation-cycles",
    ]


# Golden sha256 of `lahbell poly FAMILY 60 --format FMT`, recorded while each
# family still built its basis from scratch for every k.
POLY_60_SHA256 = {
    ("bell", "text"): "cb0b81fe4998271058ee50a6ad5577d348d3b56a15c9940c4657813688394a09",
    ("bell", "json"): "cfd992c4b88de479d9d007ccb4c3eab3bb9504bd362b5973a3ecae1e2d18160d",
    ("lah_bell", "text"): "3bd87a6645e88d74af66e2f8e730362864014965ac50decedda53c559ff71f25",
    ("lah_bell", "json"): "e0ccb4cdc8ec62dcca602d008b1fcd5c0022d7516a62fccbfa7a7535d20b8768",
    ("bivariate_bell", "text"): "478492e3f7d6bf4346965b56717f8127eadf78431b11eb104c5b5b5c39582f90",
    ("bivariate_bell", "json"): "22b2838e6ef589543d0b12d28e43291dfadbb709e212a587fab31dc1cff6c7be",
    ("bivariate_lah_bell", "text"): "8dd866774b0aa1c25fd1d2ced02722dc322e828d9e2d1f148d20b42e641d1b34",
    ("bivariate_lah_bell", "json"): "a3f06fb6d0395d42c7423cf4ed523a012170b8f2d256ec46c8d2c1bf1a3f669d",
    ("degenerate_bell", "text"): "78110fb51ac83946ed5dd0613c6a6cfe110bec4265e084bbde4783a17a7ed33f",
    ("degenerate_bell", "json"): "a30b1ff8890d4aa5ead7f8a608969b5f513f3dc0fde7c3674ae9d4425f3dd02b",
    ("degenerate_lah_bell", "text"): "3d33c20291632b7adf80deb62bdf0e2863cb2b0834b64c9a17381a259ee334d4",
    ("degenerate_lah_bell", "json"): "7e04591e610983cf285263a30889361963fe343130b1066e47a49b66d2ed2bfb",
    ("laguerre", "text"): "04f29f80dca3ce6c44058f30fd5215bd4af90bbce00a3f9adee1125ba55656c1",
    ("laguerre", "json"): "a8a9f9d99cd4ff6c0061468a9957b5c04f1aff820462ab3a247d2bdaae36fc40",
}


@pytest.mark.parametrize("family, fmt", sorted(POLY_60_SHA256))
def test_poly_60_matches_golden_digest(capsys, family, fmt):
    code, out, err = run(capsys, ["poly", family, "60", "--format", fmt])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == POLY_60_SHA256[family, fmt]


# Golden sha256 of `lahbell verify --oracle --max-n 30 --format FMT`, recorded
# from the recursive generator walk before the in-place enumeration walk.
VERIFY_ORACLE_SHA256 = {
    "text": "28cee8ed4e1aa78ac8987b39f42eb36b67323693cf75af0c1a48b1c8ac831268",
    "json": "5a6f28c15d214140c5f13254a3a4e27fca2288c39bed30614221c28eeee38b4b",
}


@pytest.mark.parametrize("fmt", sorted(VERIFY_ORACLE_SHA256))
def test_verify_oracle_matches_golden_digest(capsys, fmt):
    code, out, err = run(capsys, ["verify", "--oracle", "--max-n", "30", "--format", fmt])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ORACLE_SHA256[fmt]


def test_verify_failure_sets_exit_code(capsys, monkeypatch):
    broken = IdentityRecord(
        id="eq3",
        anchor="a = b",
        range="n <= 2",
        status="fail",
        counterexample={"n": "2", "lhs": "1", "rhs": "2"},
    )
    monkeypatch.setattr(cli, "run_suite", lambda ids, max_n: [broken])
    code, out, err = run(capsys, ["verify", "eq3"])
    assert code == 1
    assert out == (
        'eq3: FAIL (n <= 2) counterexample: {"lhs":"1","n":"2","rhs":"2"}\n'
    )
    assert err == ""


def test_verify_rejects_unknown_ids_next_to_all(capsys):
    alone = run(capsys, ["verify", "nope"])
    beside_all = run(capsys, ["verify", "all", "nope"])
    assert alone[:2] == beside_all[:2] == (2, "")
    assert "unknown identity ids ['nope']" in beside_all[2]
    assert beside_all[2] == alone[2]


def test_dobinski_text(capsys):
    code, out, err = run(capsys, ["dobinski", "--n", "3", "--x", "1/2"])
    assert code == 0
    assert out == (
        "value: 4.625000000000000000000\n"
        "error_bound: 1.05e-22\n"
        "series_terms: 21\n"
        "exp_terms: 19\n"
    )
    assert err == ""


def test_dobinski_json(capsys):
    code, out, _ = run(
        capsys, ["dobinski", "--n", "3", "--x", "1/2", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "dobinski"
    assert payload["family"] == "lah_bell"
    assert payload["n"] == 3
    assert payload["x"] == "1/2"
    assert payload["eps"] == "1/100000000000000000000"
    assert payload["value_decimal"] == "4.625000000000000000000"
    assert payload["error_bound"] == "1.05e-22"
    assert payload["series_terms"] == 21
    assert payload["exp_terms"] == 19


# Golden sha256 over `lahbell dobinski --family F --n N --x X --eps E --format
# FMT` stdout, concatenated for n in (0, 1, 3, 7), each eps of the x and text
# then json.  Pins the exact cutoffs and renderings of both Dobinski sums;
# at eps >= 4 the eps cutoff is the first one with tail <= 1.
DOBINSKI_EPS = {
    "7/3": ("100", "4", "1", "1/3"),
    "1/3": ("1e-5", "1e-40", "1e-150"),
    "5/2": ("1e-5", "1e-40", "1e-150"),
    "23": ("1e-5", "1e-40", "1e-150"),
    "181": ("1e-5", "1e-30"),
}
DOBINSKI_SHA256 = {
    ("lah_bell", "7/3"): "edcee2d102ae8cc91abbb4124ec351cd5b22bf17cea4b6627d634cf958ca5f7b",
    ("bell", "7/3"): "73696a7de29c5291979bca7a6dad8989e58d6ac0d046ccc6589d9c01b428285b",
    ("lah_bell", "1/3"): "5b90d648757f313a15a52ba8e0475b4e78b35ba77fff6cd3020ac25beda4ce7c",
    ("lah_bell", "5/2"): "e725bb86c4093404aa040900be45f01c16eeab2e715694c7e05376ceaf0447d1",
    ("lah_bell", "23"): "1c4b69367e6f4144d26c30eb514378ac3260b8140b1c8b69224738c983aaeac4",
    ("lah_bell", "181"): "c23bddc2765944953b886bd454057d666a9ce7fc0dc9b5ea97d75167a5dee30a",
    ("bell", "1/3"): "e794035d91258145a640a94732e411d3d58b9fe8fa81a0ab3b3fe8a73dad948a",
    ("bell", "5/2"): "763a0bf7b729fe269ad5b5f9e70b3270bac07da1ebe886c041d132a329eab84f",
    ("bell", "23"): "d3437e5ca8a890bf5bab27165a2b0d5411461ecaf776649bac9714d113358dcc",
    ("bell", "181"): "9486df16cb39b4a210cd083e663d4e903ae542955b75be3ae8d8fd938447daf2",
}


@pytest.mark.parametrize("family, x", sorted(DOBINSKI_SHA256))
def test_dobinski_matches_golden_digest(capsys, family, x):
    digest = hashlib.sha256()
    for n in (0, 1, 3, 7):
        for eps in DOBINSKI_EPS[x]:
            for fmt in ("text", "json"):
                argv = ["dobinski", "--family", family, "--n", str(n), "--x", x, "--eps", eps]
                code, out, err = run(capsys, argv + ["--format", fmt])
                assert code == 0 and err == "", argv
                digest.update(out.encode())
    assert digest.hexdigest() == DOBINSKI_SHA256[family, x]


def dobinski_enclosure(out):
    """The printed value and bound of a text answer, and the value's rounding slack."""
    fields = dict(line.split(": ") for line in out.splitlines())
    decimals = len(fields["value"].partition(".")[2])
    return Fraction(fields["value"]), Fraction(fields["error_bound"]), Fraction(1, 2 * 10**decimals)


def test_dobinski_bound_below_float_range_is_rendered_exactly(capsys):
    # 10**-400 underflows to 0.0 as a float, so the bound's exponent must
    # come from exact arithmetic.
    code, out, err = run(capsys, ["dobinski", "--n", "1", "--x", "2", "--eps", "1e-400"])
    assert code == 0 and err == ""
    value, bound, slack = dobinski_enclosure(out)
    assert 0 < bound <= Fraction(1, 10**400)
    assert abs(value - 2) <= bound + slack


def test_dobinski_past_the_int_str_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, ["dobinski", "--n", "1", "--x", "2", "--eps", "1e-4400"])
    assert sys.get_int_max_str_digits() == limit
    assert code == 0 and err == ""
    sys.set_int_max_str_digits(0)
    try:
        value, bound, slack = dobinski_enclosure(out)
    finally:
        sys.set_int_max_str_digits(limit)
    assert bound <= Fraction(1, 10**4400)
    assert abs(value - 2) <= bound + slack


def test_dobinski_fails_fast_when_no_cutoff_fits_under_the_cap():
    # Every term ratio is at least x/(k+1), so x = 10^6 cannot reach a ratio
    # of 1/2 within 100000 terms; the walk is not started.
    start = time.perf_counter()
    done = subprocess.run(
        lahbell_command("dobinski", "--n", "3", "--x", "1000000"),
        capture_output=True,
        text=True,
        env=LAHBELL_ENV,
        timeout=60,
    )
    assert time.perf_counter() - start < 5
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("precision not reached: series for x = 1000000 did not reach")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_dobinski_renders_value_and_bound_once(capsys, monkeypatch, fmt):
    calls = []
    for name in ("decimal", "error_bound_decimal"):

        def counted(self, render=getattr(CertifiedDecimal, name), name=name):
            calls.append(name)
            return render(self)

        monkeypatch.setattr(CertifiedDecimal, name, counted)
    code, _, err = run(capsys, ["dobinski", "--n", "3", "--x", "1/2", "--format", fmt])
    assert (code, err) == (0, "")
    assert sorted(calls) == ["decimal", "error_bound_decimal"]


def test_dobinski_precision_failure_goes_to_stderr(capsys, monkeypatch):
    def explode(n, x, eps):
        raise PrecisionNotReached("demo")

    monkeypatch.setattr(cli, "lah_bell_dobinski", explode)
    code, out, err = run(capsys, ["dobinski", "--n", "3", "--x", "1/2"])
    assert code == 1
    assert out == ""
    assert "precision not reached" in err


def test_usage_errors_exit_2(capsys):
    for argv in (
        ["table", "lah"],
        ["table", "eulerian", "3"],
        ["seq", "bell", "-2"],
        ["gf", "bell", "--order", "-1"],
        ["dobinski", "--n", "2", "--x", "0"],
        ["dobinski", "--n", "2", "--x", "2/0"],
        ["dobinski", "--n", "2", "--x", "abc"],
        ["dobinski", "--n", "-1", "--x", "1"],
        ["poly", "lah_bell", "3", "--format", "csv"],
        ["gf", "bell", "--format", "csv"],
        [],
    ):
        code, out, err = run(capsys, argv)
        assert code == 2, argv
        assert out == ""
        assert err != ""


def test_format_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("LAHBELL_FORMAT", "json")
    code, out, _ = run(capsys, ["seq", "bell", "2"])
    assert code == 0
    assert json.loads(out)["values"] == [1, 1, 2]


def test_format_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("LAHBELL_FORMAT", "json")
    code, out, _ = run(capsys, ["seq", "bell", "2", "--format", "text"])
    assert code == 0
    assert out == "1 1 2\n"


def test_invalid_env_format_rejected(capsys, monkeypatch):
    monkeypatch.setenv("LAHBELL_FORMAT", "yaml")
    code, out, err = run(capsys, ["seq", "bell", "2"])
    assert code == 2
    assert out == ""
    assert err != ""
