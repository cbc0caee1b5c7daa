"""Command-line front end: formats, exit codes, canonical JSON, env override."""

import hashlib
import json

import pytest

import lahbell.cli as cli
from lahbell.dobinski import PrecisionNotReached
from lahbell.identities import IdentityRecord
from lahbell.series import GF_NAMES


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
