"""Command-line front end: formats, exit codes, canonical JSON."""

import contextlib
import csv
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from decimal import Decimal, Inexact, localcontext
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lahbell.cli as cli
from lahbell import series
from lahbell.dobinski import DOBINSKI_FAMILIES, CertifiedDecimal, PrecisionNotReached
from lahbell.exact import MAX_DEGREE
from lahbell.families import FAMILIES, laguerre_poly, poly_family
from lahbell.identities import CATALOG_IDS, IdentityRecord
from lahbell.series import GF_NAMES, gf_catalog
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


# The child processes import the package from the path the tests import it from.
LAHBELL_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))


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


@pytest.mark.parametrize(
    "argv",
    [["gf", "laguerre_weighted", "--order", "40"], ["poly", "laguerre", "200"], ["seq", "lah_bell", "600"]],
)
def test_streamed_answer_to_a_closed_pipe_exits_1_without_a_traceback(argv):
    # Each answer is several times a pipe buffer, so a write fails after the
    # reader has gone.
    with subprocess.Popen(
        lahbell_command(*argv), stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=LAHBELL_ENV
    ) as proc:
        assert len(proc.stdout.read(1)) == 1
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert stderr == b""


def _limit_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (200 * 2**20, 200 * 2**20))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs an enforced RLIMIT_AS")
def test_out_of_memory_exits_1_with_one_line():
    # The value of `poly bivariate_lah_bell 1500`, about a million terms with
    # long coefficients, needs far more than 200 MB, so it runs out of memory
    # before the first byte of its answer.
    done = subprocess.run(
        lahbell_command("poly", "bivariate_lah_bell", "1500"),
        capture_output=True,
        env=LAHBELL_ENV,
        preexec_fn=_limit_address_space,
        timeout=120,
    )
    assert (done.returncode, done.stderr) == (1, b"lahbell: out of memory\n")


@pytest.mark.skipif(sys.platform == "win32", reason="needs SIGINT and preexec_fn")
def test_interrupt_exits_130_with_one_line():
    # A shell may start a background job with SIGINT ignored, and the child
    # would keep that; restore the default so the interpreter handles it.
    with subprocess.Popen(
        lahbell_command("table", "lah", "3000"),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=LAHBELL_ENV,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    ) as proc:
        assert proc.stdout.read(1) == b"1"
        proc.send_signal(signal.SIGINT)
        _, stderr = proc.communicate(timeout=60)
    assert (proc.returncode, stderr) == (130, b"lahbell: interrupted\n")


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


# Spawns argv[1:] with stdout on a pipe, reads 100 bytes of it and closes
# it, and prints the exit code, the peak RSS in KiB and the number of bytes
# read and written to stderr.
PIPE_AND_REAP = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
head = proc.stdout.read(100)
proc.stdout.close()
stderr = proc.stderr.read()
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, len(head), len(stderr))
"""

needs_spawn = pytest.mark.skipif(
    not hasattr(os, "posix_spawn") or not hasattr(os, "wait4"), reason="needs posix_spawn and wait4"
)


def reaped(script, *argv):
    """The numbers script prints for a lahbell request, run from a bare interpreter."""
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", script, *lahbell_command(*argv)],
        capture_output=True,
        text=True,
        env=LAHBELL_ENV,
        timeout=120,
    )
    assert done.stderr == ""
    return list(map(int, done.stdout.split()))


@needs_spawn
def test_table_streams_in_bounded_memory():
    # Built as a list of rows and one joined text, `table lah 1000` peaked at
    # about 1.25 GB; streamed, only the newest row and its text are alive.
    code, peak_kib = reaped(SPAWN_AND_REAP, "table", "lah", "1000")
    assert code == 0
    assert peak_kib < 100 * 1024


@needs_spawn
def test_gf_streams_in_bounded_memory():
    # Built whole before its first byte, `gf laguerre_weighted --order 120`
    # peaked at about 53 MB; streamed, the solver keeps the two coefficients
    # the next one reads (about 25 MB in all).
    code, peak_kib = reaped(SPAWN_AND_REAP, "gf", "laguerre_weighted", "--order", "120")
    assert code == 0
    assert peak_kib < 35 * 1024


@needs_spawn
def test_gf_read_in_part_stops_early_in_bounded_memory():
    # `gf laguerre_weighted --order 200 | head -c 100`: built whole, the
    # answer took seconds and about 200 MB before its first byte; streamed,
    # the request ends at the first write after the reader has gone.
    code, peak_kib, read, stderr_bytes = reaped(PIPE_AND_REAP, "gf", "laguerre_weighted", "--order", "200")
    assert (code, read, stderr_bytes) == (1, 100, 0)
    assert peak_kib < 40 * 1024


@needs_spawn
@pytest.mark.parametrize(
    "argv, limit_mb",
    [(["seq", "lah_bell", "1000"], 40), (["seq", "bell", "1000"], 40), (["poly", "lah_bell", "1000"], 30)],
    ids=["seq-lah_bell", "seq-bell", "poly-lah_bell"],
)
def test_a_walk_up_the_rows_keeps_one_row(argv, limit_mb):
    # With every row of the triangle kept, these peaked at 212-256 MB; past
    # the rows the identity checks read, the triangle keeps only its newest.
    code, peak_kib = reaped(SPAWN_AND_REAP, *argv)
    assert code == 0
    assert peak_kib < limit_mb * 1024


def test_seq_text(capsys):
    code, out, err = run(capsys, ["seq", "lah_bell", "6"])
    assert code == 0
    assert out == "1 1 3 13 73 501 4051\n"
    assert err == ""


def test_seq_csv_has_header(capsys):
    code, out, _ = run(capsys, ["seq", "bell", "4", "--format", "csv"])
    assert code == 0
    assert out == "n,value\n0,1\n1,1\n2,2\n3,5\n4,15\n"


def test_seq_csv_matches_golden_digest(capsys):
    # Recorded from the csv-module rendering of `seq lah_bell 300 --format csv`.
    code, out, err = run(capsys, ["seq", "lah_bell", "300", "--format", "csv"])
    assert (code, err) == (0, "")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "1dd8bf889a406cfc6f2953b84ec99ffdba9fcef94d48c3a34a5cd0993ee9d38c"


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


# Golden sha256 of `lahbell gf NAME --order N --format FMT`, recorded while
# these rows were still the dense exp and pow of t/(1-t) (and a series
# product for the Laguerre weight), before one first-order solve replaced them.
GF_SOLVED_SHA256 = {
    ("lah_bell", 1000, "text"): "591f82549078f2cefb90360a1f7c14c0ec5fd0f9002fbe7eb966d4ce29c9abb4",
    ("laguerre_weighted", 64, "json"): "9d154da07d54f2d159e8c822f777238c7a643937c9e34fc4335b89e77f46d324",
}


@pytest.mark.parametrize("name, order, fmt", sorted(GF_SOLVED_SHA256))
def test_gf_solved_rows_match_golden_digest(monkeypatch, name, order, fmt):
    stdout = Sha256Stdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert cli.main(["gf", name, "--order", str(order), "--format", fmt]) == 0
    assert stdout.sha256.hexdigest() == GF_SOLVED_SHA256[name, order, fmt]


@pytest.mark.parametrize("name", GF_NAMES)
def test_gf_order_0_is_the_constant_term(capsys, name):
    code, out, err = run(capsys, ["gf", name, "--order", "0"])
    assert (code, out, err) == (0, "0: 1\n", "")
    code, out, err = run(capsys, ["gf", name, "--order", "0", "--format", "json"])
    assert code == 0 and err == ""
    assert json.loads(out) == {"command": "gf", "egf_coefficients": ["1"], "name": name, "order": 0}


# Golden sha256 of the streamed `gf` and `poly` answers, recorded from the
# list-and-join rendering before they were streamed.  Each digest covers
# the stdout of every size in turn, in one format.
GF_ORDERS = (0, 1, 7, 24, 40)
POLY_NS = (0, 1, 9, 60)
STREAMED_SHA256 = {
    ("gf", "lah_bell", GF_ORDERS, "text"): "322dcdf993fb205c28f4cf5440c9a46417b16cdec08f671d0be3821508188ab7",
    ("gf", "lah_bell", GF_ORDERS, "json"): "fc9f223ce6d3ed355cc0f8fc249b66ef46a812223515d466ed33dcbfa71d41c8",
    ("gf", "lah_bell_poly", GF_ORDERS, "text"): "eb0a915559b244d675aa30221cc61eabbe7ba0ce07abc863c0277c5a8ba6ad29",
    ("gf", "lah_bell_poly", GF_ORDERS, "json"): "e1c4915bf249f3d4c3782653e9c990dd71f99ea3b459b11c50efe85f9b1ecb9b",
    ("gf", "bell", GF_ORDERS, "text"): "9b02a20a77eecb32842d3c040fb277f8fa8c8594a8f70c9ef65f84db74fa1cf6",
    ("gf", "bell", GF_ORDERS, "json"): "07c89fa5fd868f6433e06b4989a5f2b2cfb8280c0ea7ce03c76d5e0e027924d7",
    ("gf", "bell_poly", GF_ORDERS, "text"): "473f14eb0210e5991adc05b0db8b9124e1fdbb407655b05c6373c4bc987ff865",
    ("gf", "bell_poly", GF_ORDERS, "json"): "1520277b3dd7ea7094fc3a73a05a7611f474db7dc5c43c46ef341271a6ce2129",
    ("gf", "bivariate_bell", GF_ORDERS, "text"): "92f1fd8bcbc29ec24c3fe005f7c4f2b1343f7f3615e548481709ddd163d9f052",
    ("gf", "bivariate_bell", GF_ORDERS, "json"): "c3387968c89d9625f34d899aace76bd0ff23a3c444662f929f8366f7c60030bb",
    ("gf", "bivariate_lah_bell", GF_ORDERS, "text"): "009f23b04e10f083a50ecb3a77ed8248b89ff320b44e97f930bb4cefcffe8232",
    ("gf", "bivariate_lah_bell", GF_ORDERS, "json"): "ef96e84fe25623eb93fc048fceaae7d7c80c965de371a0621ae9d4846654e9f6",
    ("gf", "degenerate_lah_bell", GF_ORDERS, "text"): "5bbb6e273a4406dd9798d5c8c986f60e1d2b094ad7ef2ff9796c5e2f8249ce8c",
    ("gf", "degenerate_lah_bell", GF_ORDERS, "json"): "e2465deabe8223278b2d713b431295b3b89f1049fcc5c2804387448e1ae52d4f",
    ("gf", "degenerate_bell", GF_ORDERS, "text"): "e88a2753468a495b29594aa18364717619250d3044a008b62e769c094a47acf0",
    ("gf", "degenerate_bell", GF_ORDERS, "json"): "64a7cf46f56de08ccea04a086763f94ac9da6b1f33cb79bf956d65ab2776f87b",
    ("gf", "laguerre_weighted", GF_ORDERS, "text"): "28207f18aca42e5d08444c5ee9ecfe99e1fbf22a3b9d0143ab1c97a2d9945246",
    ("gf", "laguerre_weighted", GF_ORDERS, "json"): "3d7ebda32b4c6a3b38400ce7ed2af3c781b622cb9520c1b49643bf46c7e1972d",
    ("poly", "bell", POLY_NS, "text"): "20c1ce42adf65112f6cd4e0ae6a71969725232c18addb0c8fefb3e87c5365f82",
    ("poly", "bell", POLY_NS, "json"): "f0a56db4d3615bdfd7d39031481394588912d2e2b80b45d0c30cb0ed38c7bf98",
    ("poly", "lah_bell", POLY_NS, "text"): "041beff307859e7ce0518562d35fdbc891b5d989fbaf45eaa18f4211529f9911",
    ("poly", "lah_bell", POLY_NS, "json"): "ef40da0ed6f0ae61e25ac3d9339f977a8f663ac8678f3e8d4dc8557faa9e7171",
    ("poly", "bivariate_bell", POLY_NS, "text"): "e3f6769b2712659a08d36b609a7121988eb3e0f234d6758907d20da7b0af58b6",
    ("poly", "bivariate_bell", POLY_NS, "json"): "1e05f164975c631859849ccb2d2ed4f005aae636c88779a25b512e1b5812303a",
    ("poly", "bivariate_lah_bell", POLY_NS, "text"): "ae34197e833319be3af2773140044d8b6df10d4c19277439cde22932756c1a63",
    ("poly", "bivariate_lah_bell", POLY_NS, "json"): "a4f9e198c53cfd27ac5acf2b5e8c33a0a26713aa0adbb3929835d151bfee2fb6",
    ("poly", "degenerate_bell", POLY_NS, "text"): "d9fa4df67629780acaa5956cfe807a3afa2f013d3512d86cb5966c8d1d9d1a7f",
    ("poly", "degenerate_bell", POLY_NS, "json"): "d227de5ad764116721a48ba8a41580fee3183d61b1529c7364874a86874db62b",
    ("poly", "degenerate_lah_bell", POLY_NS, "text"): "24b1122512010bb78ac39c263cb454350c677b971d7f8547636d5cda8a48e8bf",
    ("poly", "degenerate_lah_bell", POLY_NS, "json"): "f5e11eb82da88987e889dad8bc22ba816b7f290e96324fb69a91bbfbaafb7c21",
    ("poly", "laguerre", POLY_NS, "text"): "2247a8684af62e422e90aa85f6dbcebd1202c16bd903367e566db86c52f70cb2",
    ("poly", "laguerre", POLY_NS, "json"): "c36042ffc505bbfab59f7b84da1919ea058c9fb63e0b816e0b804d41d7b3c249",
    ("poly", "laguerre", (300,), "text"): "a24e7ebc8e119db3491a1b566b7cfc579957c27ff8afb018356eaf1cbe497318",
    ("poly", "laguerre", (300,), "json"): "cd99f743ccf751e6213308d7b101c3a8ef14e09ee1fac410b140e789393bc107",
}


def stream_argv(command, name, size, fmt):
    if command == "gf":
        return ["gf", name, "--order", str(size), "--format", fmt]
    return [command, name, str(size), "--format", fmt]


@pytest.mark.parametrize("command, name, sizes, fmt", sorted(STREAMED_SHA256))
def test_streamed_answers_match_golden_digests(monkeypatch, command, name, sizes, fmt):
    stdout = Sha256Stdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    for size in sizes:
        assert cli.main(stream_argv(command, name, size, fmt)) == 0
    assert stdout.sha256.hexdigest() == STREAMED_SHA256[command, name, sizes, fmt]


# Golden sha256 of `seq KIND N --format FMT` for FMT in text, csv, json and
# N in 0, 1, 300, 1000, in that order, recorded like the digests above.  A
# fresh process runs them: `seq lah_bell 1000` fills the triangle memo to
# about 260 MB, which must not stay in the test process.
SEQ_STREAMED_SHA256 = {
    "bell": "be827b9aa93227ba6648320ee8bc83efe0986b44f2ae7fc43a1bbcbaa38e717a",
    "lah_bell": "765748a110f6b9368c331f1771162ef5b6fda7a523eb047755ac203787c609c5",
}
SEQ_DRIVER = """
import sys
from lahbell.cli import main
for fmt in ("text", "csv", "json"):
    for n in (0, 1, 300, 1000):
        if main(["seq", sys.argv[1], str(n), "--format", fmt]) != 0:
            sys.exit(1)
"""


@pytest.mark.parametrize("kind", sorted(SEQ_STREAMED_SHA256))
def test_streamed_seq_matches_golden_digest(kind):
    done = subprocess.run(
        [sys.executable, "-c", SEQ_DRIVER, kind], capture_output=True, env=LAHBELL_ENV, timeout=120
    )
    assert (done.returncode, done.stderr) == (0, b"")
    assert hashlib.sha256(done.stdout).hexdigest() == SEQ_STREAMED_SHA256[kind]


def old_payload(command, name, size):
    """The JSON payload `gf`, `poly` and `seq` built whole before they streamed."""
    if command == "gf":
        series = gf_catalog(name, size)
        coefficients = [str(series.egf_coefficient(n)) for n in range(size + 1)]
        return {"command": "gf", "name": name, "order": size, "egf_coefficients": coefficients}
    if command == "poly":
        return {"command": "poly", "family": name, "n": size, "value": str(poly_family(name, size))}
    values = [cli._SEQ_KINDS[name](n) for n in range(size + 1)]
    return {"command": "seq", "kind": name, "nmax": size, "values": values}


@pytest.mark.parametrize(
    "command, names", [("gf", GF_NAMES), ("poly", FAMILIES), ("seq", sorted(cli._SEQ_KINDS))]
)
def test_streamed_json_is_the_canonical_dump_of_the_old_payload(capsys, command, names):
    for name in names:
        for size in (0, 1, 2, 7):
            code, out, err = run(capsys, stream_argv(command, name, size, "json"))
            assert (code, err) == (0, "")
            payload = old_payload(command, name, size)
            assert out == json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


class CountingStdout(io.TextIOBase):
    """A stdout that keeps only the number of characters written to it."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)
        return len(text)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_poly_is_written_in_a_fraction_of_its_size(monkeypatch, fmt):
    # Joined into one string and printed, the answer cost several times its
    # own size; streamed, only one term's text is alive at a time.  Its 11476
    # terms also exceed the monomial cache, which they would only churn.
    poly = laguerre_poly(150)
    monkeypatch.setattr(cli, "poly_family", lambda family, n: poly)
    argv = ["poly", "laguerre", "150", "--format", fmt]
    monkeypatch.setattr(sys, "stdout", CountingStdout())
    assert cli.main(argv) == 0  # imports and caches fill before the measure
    stdout = CountingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert stdout.size > 10**6
    assert peak < stdout.size / 4


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
    assert "unknown identity id 'nope', expected one of ('eq3', " in beside_all[2]
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


# Requests whose answers hold integers longer than 640 digits: lah_bell(350)
# has 754 digits, and eps = 1e-700 is echoed as a fraction with a 701-digit
# denominator next to a 700-place value.
LONG_VALUE_REQUESTS = (
    ["seq", "lah_bell", "350"],
    ["gf", "lah_bell", "--order", "350"],
    ["dobinski", "--n", "1", "--x", "2", "--eps", "1e-700", "--format", "json"],
)


def test_long_values_print_alike_at_any_int_str_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        lifted = [run(capsys, argv) for argv in LONG_VALUE_REQUESTS]
        sys.set_int_max_str_digits(640)
        assert [run(capsys, argv) for argv in LONG_VALUE_REQUESTS] == lifted
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    assert all(code == 0 and err == "" for code, _, err in lifted)
    assert max(len(out) for _, out, _ in lifted) > 2000


class ThreadStdout(io.TextIOBase):
    """A stdout shared by threads, keeping each thread's text apart.  The
    first request's writes wait until the second has begun writing, and the
    second's until the first has returned, so the second starts before the
    first ends and ends after it."""

    def __init__(self):
        self.texts = {}
        self.second_writing = threading.Event()
        self.first_done = threading.Event()

    def write(self, text):
        name = threading.current_thread().name
        if name == "first":
            assert self.second_writing.wait(60)
        else:
            self.second_writing.set()
            assert self.first_done.wait(60)
        self.texts[name] = self.texts.get(name, "") + text
        return len(text)


def test_overlapping_requests_on_two_threads_leave_the_digit_limit(capsys, monkeypatch):
    # A request that lifted the limit for its run and then put back what it
    # found would, overlapped like this, leave the limit lifted: the second
    # request finds it lifted and puts that back last.
    expected = run(capsys, LONG_VALUE_REQUESTS[0])[1], run(capsys, LONG_VALUE_REQUESTS[1])[1]
    stdout = ThreadStdout()
    codes = {}

    def answer(argv):
        codes[threading.current_thread().name] = cli.main(argv)
        if threading.current_thread().name == "first":
            stdout.first_done.set()

    limit = sys.get_int_max_str_digits()
    monkeypatch.setattr(sys, "stdout", stdout)
    try:
        sys.set_int_max_str_digits(640)
        threads = [
            threading.Thread(target=answer, args=(argv,), name=name)
            for name, argv in zip(("first", "second"), LONG_VALUE_REQUESTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    assert codes == {"first": 0, "second": 0}
    assert (stdout.texts["first"], stdout.texts["second"]) == expected


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


# Requests refused by argparse or by the library, each before any output.
REFUSED = (
    ["table", "lah"],
    ["table", "eulerian", "3"],
    ["table", "lah", "-1"],
    ["seq", "bell", "-2"],
    ["poly", "lah_bell", "-1"],
    ["poly", "lah_bell", "70000"],
    ["poly", "bivariate_lah_bell", "40000"],
    ["gf", "bell", "--order", "-1"],
    ["gf", "bivariate_lah_bell", "--order", "40000"],
    ["gf", "lah_bell_poly", "--order", "70000"],
    ["verify", "--max-n", "0"],
    ["verify", "nope"],
    ["verify", "all", "nope"],
    ["verify", "eq3", "nope"],
    ["dobinski", "--n", "2", "--x", "0"],
    ["dobinski", "--n", "2", "--x", "2/0"],
    ["dobinski", "--n", "2", "--x", "abc"],
    ["dobinski", "--n", "-1", "--x", "1"],
    ["dobinski", "--n", "2", "--x", "1", "--eps", "0"],
    ["dobinski", "--n", "2", "--x", "1", "--eps", "-1"],
    ["dobinski", "--n", "True", "--x", "1"],
    ["dobinski", "--n", "2", "--x=0e99999999"],
    ["dobinski", "--n", "2", "--x=-1e99999999"],
    ["dobinski", "--n", "2", "--x=1e99999999"],
    ["dobinski", "--n", "2", "--x", "1", "--eps=1e-99999999"],
    ["dobinski", "--n", "2", "--x=-1e99999"],
)


def test_usage_errors_exit_2(capsys):
    for argv in (
        *REFUSED,
        *([*argv, "--format", "json"] for argv in REFUSED),
        ["poly", "lah_bell", "3", "--format", "csv"],
        ["gf", "bell", "--format", "csv"],
        [],
    ):
        code, out, err = run(capsys, argv)
        assert code == 2, argv
        assert out == ""
        assert err != ""
        assert "Traceback" not in err


@pytest.mark.parametrize("command", ["poly lah_bell 3", "gf bell", "verify eq3", "dobinski --n 2 --x 1"])
def test_csv_is_offered_only_for_table_and_seq(capsys, command):
    code, out, err = run(capsys, [*command.split(), "--format", "csv"])
    assert (code, out) == (2, "")
    assert "argument --format: invalid choice: 'csv'" in err


@pytest.mark.parametrize("argv", [argv for argv in REFUSED if "99999999" in argv[-1]])
def test_a_huge_written_exponent_is_refused_at_once_by_its_text(argv):
    # Fraction(text) would compute 10**99999999 first, and the library's
    # refusal would then print every digit of the value.
    start = time.perf_counter()
    code, out, err = _main(argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    usage, message = err.splitlines()
    assert usage.startswith("usage: lahbell ")
    assert len(message.encode()) <= 200
    text = argv[-1].partition("=")[2]
    assert message.endswith(f"must have an exponent at most 100000 in size, got {text!r}")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["dobinski", "--n", "2", "--x=-1e99999"], 2),
        (["dobinski", "--n", "2", "--x=1e99999"], 1),
        (["dobinski", "--n", "2", "--x=1e40000", "--eps", "1e-5"], 1),
    ],
)
def test_a_long_value_inside_the_exponent_bound_is_quoted_cut(argv, code):
    # Read, then refused or not reached by the library, whose message
    # quotes the value's first 40 characters only.
    start = time.perf_counter()
    got, out, err = _main(argv)
    assert time.perf_counter() - start < 1
    assert (got, out) == (code, "")
    assert len(err.encode()) < 1024
    assert "0" * 38 + "..." in err.splitlines()[-1]


def test_the_exponent_bound_is_on_the_leading_digit():
    bound = cli._MAX_EXPONENT
    for text in (f"1e{bound}", f"9.9e{bound}", f"-1e-{bound}", f"10e-{bound + 1}", "1e-4400"):
        assert cli._fraction_arg(text, "--eps") == Fraction(text)
    for text in (f"10e{bound}", f"0.9e-{bound}", f"0e{bound + 1}", f"-1e-{bound + 1}"):
        with pytest.raises(ValueError, match="must have an exponent at most 100000 in size"):
            cli._fraction_arg(text, "--eps")
    # decimal itself holds no exponent past 10**18 in size.
    with pytest.raises(ValueError, match="must be an exact number like 3, 1/2 or 1e-20"):
        cli._fraction_arg("1e" + "9" * 30, "--eps")


def test_a_long_refused_text_is_shown_truncated():
    with pytest.raises(ValueError) as refused:
        cli._fraction_arg("x" * 10**6, "--x")
    shown = repr("x" * 40 + "...")
    assert str(refused.value) == f"--x must be an exact number like 3, 1/2 or 1e-20, got {shown}"


_decimal_texts = st.from_regex(
    r"\A\s?[-+]?\d*(_\d)?(\.\d*)?([eE][-+]?\d{1,4})?\s?\Z", fullmatch=True
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.one_of(_decimal_texts, st.text(max_size=7), st.fractions().map(str)))
def test_fraction_arg_reads_what_fraction_reads(text):
    # Every exponent these texts can write is within the bound, so the two
    # parses must agree on each text, refusals included.
    def parsed(parse):
        try:
            return parse(text)
        except (ValueError, ZeroDivisionError):
            return None

    assert parsed(lambda text: cli._fraction_arg(text, "--x")) == parsed(Fraction)


def test_a_text_answer_renders_no_json(capsys, monkeypatch):
    # Each request renders the one format it asks for: no text or csv answer
    # of a passing request dumps JSON, and no verify record is made into JSON.
    calls = []
    dump, to_json = cli._canonical_json, IdentityRecord.to_json
    monkeypatch.setattr(cli, "_canonical_json", lambda payload: calls.append(payload) or dump(payload))
    monkeypatch.setattr(IdentityRecord, "to_json", lambda self: calls.append(self) or to_json(self))
    for argv in (
        ["table", "lah", "3"],
        ["seq", "bell", "3", "--format", "csv"],
        ["poly", "lah_bell", "3"],
        ["gf", "bell", "--order", "3"],
        ["verify", "eq3", "--format", "text"],
        ["dobinski", "--n", "2", "--x", "1"],
    ):
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, ""), argv
        assert calls == [], argv
    assert run(capsys, ["verify", "eq3", "--format", "json"])[0] == 0
    assert len(calls) == 2  # the dump of the array and the one record's to_json


def test_a_request_runs_where_python_has_no_int_str_digit_limit(capsys, monkeypatch):
    # Python before 3.10.7 has neither function, and the CLI calls neither:
    # it writes a long value through exact._scalar_text.
    monkeypatch.delattr(sys, "set_int_max_str_digits")
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    assert run(capsys, ["seq", "lah_bell", "3"]) == (0, "1 1 3 13\n", "")


# -- the exit-code contract over generated requests --------------------------
# A small admitted request exits 0 or 1 and, on 0, writes only to stdout; a
# refused one exits 2 at once with stdout empty.  Each refused request is a
# small admitted one with one slot made bad.  The band between them, admitted
# and huge, is left out.

_NAMES = {
    "table": sorted(cli._TABLE_KINDS),
    "seq": sorted(cli._SEQ_KINDS),
    "poly": FAMILIES,
    "gf": GF_NAMES,
    "verify": CATALOG_IDS,
    "dobinski": DOBINSKI_FAMILIES,
}
# The number slot of a small request: its smallest admitted value and its largest.
_SMALL = {"table": (0, 30), "seq": (0, 60), "poly": (0, 10), "gf": (0, 10), "verify": (1, 6),
          "dobinski": (0, 6)}
# The gf rows whose coefficients are polynomials, so a large order passes MAX_DEGREE.
_POLY_GF_NAMES = [name for name in GF_NAMES if series._GF_BUILDERS[name][0]]


def _main(argv):
    """cli.main(argv) in process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _fails(parse):
    def check(text):
        try:
            parse(text)
        except (ValueError, ZeroDivisionError):
            return True
        return False

    return check


# Words that never read as an option (or as -h): none starts with "-".
_words = st.text(max_size=8).filter(lambda text: not text.startswith("-"))
_bad_ints = st.one_of(
    st.integers(max_value=-1).map(str),
    st.sampled_from(["True", "False", "1.0", "2.5", "1e3", "nan", "inf", "1/2", "0x10", ""]),
    st.floats().map(repr),
    _words.filter(_fails(int)),
)
# A written exponent past cli._MAX_EXPONENT is refused whatever the value,
# and one past what decimal can hold (10**18) as malformed.
_huge_exponents = st.builds(
    "{}e{}{}".format,
    st.sampled_from(["0", "1", "-1", "2.5", "-0.5", "7_0"]),
    st.sampled_from(["", "+", "-"]),
    st.integers(cli._MAX_EXPONENT + 2, 10**30),
)
_bad_rationals = st.one_of(
    st.fractions(max_value=0).map(str),
    st.sampled_from(["0", "-0.5", "0e3", "-2e1", "2/0", "1/0", "abc", "nan", "inf", "", "1//2"]),
    _words.filter(_fails(Fraction)),
    _huge_exponents,
)


def _unknown(names):
    return _words.filter(lambda word: word not in names)


def _formats(command):
    return ("text", "json", "csv") if command in ("table", "seq") else ("text", "json")


@st.composite
def _slots(draw, command):
    """The slots of a small admitted request."""
    low, high = _SMALL[command]
    slots = {
        "number": str(draw(st.integers(low, high))),
        "format": draw(st.sampled_from(_formats(command))),
    }
    if command == "verify":
        slots["name"] = draw(st.lists(st.sampled_from(("all", *CATALOG_IDS)), max_size=3))
        slots["oracle"] = draw(st.booleans())
    else:
        slots["name"] = draw(st.sampled_from(_NAMES[command]))
    if command == "dobinski":
        slots["x"] = str(draw(st.fractions(Fraction(1, 10), 20, max_denominator=10)))
        slots["eps"] = f"1e-{draw(st.integers(1, 30))}"
    return slots


def _argv(command, slots):
    name, number = slots["name"], slots["number"]
    if command in ("table", "seq", "poly"):
        argv = [command, name, number]
    elif command == "gf":
        argv = [command, name, "--order", number]
    elif command == "verify":
        argv = [command, *name, "--max-n", number, *(["--oracle"] if slots["oracle"] else [])]
    else:
        # Attached with "=", so a negative value reaches the CLI, not argparse's option rules.
        argv = [command, "--family", name, "--n", number, f"--x={slots['x']}", f"--eps={slots['eps']}"]
    return [*argv, "--format", slots["format"]]


_COMMANDS = st.sampled_from(sorted(_NAMES))


@st.composite
def _admitted(draw):
    command = draw(_COMMANDS)
    return _argv(command, draw(_slots(command)))


@st.composite
def _refused(draw):
    command = draw(_COMMANDS)
    slots = draw(_slots(command))
    faults = ["number", "name", "format", "command"]
    if command == "dobinski":
        faults += ["x", "eps"]
    fault = draw(st.sampled_from(faults))
    if fault == "number":
        bad = [_bad_ints]
        if command == "verify":
            bad.append(st.just("0"))
        if command == "poly" or (command == "gf" and slots["name"] in _POLY_GF_NAMES):
            bad.append(st.integers(MAX_DEGREE + 1, 10**40).map(str))
        slots["number"] = draw(st.one_of(bad))
    elif fault == "name" and command == "verify":
        ids = slots["name"]
        ids.insert(draw(st.integers(0, len(ids))), draw(_unknown(("all", *CATALOG_IDS))))
    elif fault == "name":
        slots["name"] = draw(_unknown(_NAMES[command]))
    elif fault == "format":
        offered = _formats(command)
        slots["format"] = draw(_unknown(offered) | st.just("csv").filter(lambda csv: csv not in offered))
    elif fault == "command":
        return [draw(_unknown(_NAMES)), *_argv(command, slots)[1:]]
    else:
        slots[fault] = draw(_bad_rationals)
    return _argv(command, slots)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_admitted())
def test_a_small_admitted_request_exits_0_or_1(argv):
    code, out, err = _main(argv)
    assert code in (0, 1), (argv, err)
    if code == 0:
        assert out != "" and err == "", argv


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_refused())
def test_a_refused_request_exits_2_at_once_with_nothing_on_stdout(argv):
    start = time.perf_counter()
    code, out, err = _main(argv)
    assert time.perf_counter() - start < 1, argv
    assert (code, out) == (2, ""), (argv, err)
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["json", "yaml"])
def test_a_user_lahbell_format_is_ignored(value):
    # --format alone chooses the output: a LAHBELL_FORMAT in the user's
    # environment, a format's name or not, changes nothing.
    env = dict(LAHBELL_ENV, LAHBELL_FORMAT=value)
    for argv, expected in (
        (["seq", "bell", "3"], "1 1 2 5\n"),
        (["gf", "bell", "--order", "3"], "0: 1\n1: 1\n2: 2\n3: 5\n"),
    ):
        done = subprocess.run(lahbell_command(*argv), capture_output=True, text=True, env=env, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, expected, ""), argv


def _readme_examples():
    """(argv, stdout) for each `$ lahbell ...` command in the README's CLI examples."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("Examples:", 1)[1].split("```sh\n", 1)[1]
    examples = []
    for chunk in block.split("```", 1)[0].strip().split("\n\n"):
        command, *output = chunk.split("\n")
        assert command.startswith("$ lahbell "), command
        examples.append((command.split()[2:], "".join(line + "\n" for line in output)))
    return examples


def test_readme_cli_examples_print_what_they_show(capsys):
    examples = _readme_examples()
    assert len(examples) == 6
    for argv, expected in examples:
        assert run(capsys, argv) == (0, expected, ""), argv
