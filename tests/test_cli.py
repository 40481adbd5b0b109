"""CLI surface and the exit-code contract."""

import json

import pytest

from schurgrid.certificates import ENGINE_VERSION
from schurgrid.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_rb_grid_match(capsys):
    code, out, _ = run(capsys, "rb-grid", "--m", "3", "--n", "3")
    assert code == 0
    assert "rb=7 (matches m+n+1)" in out
    assert "witness certificate:" in out
    assert "exhaustion certificate:" in out


def test_rb_grid_convention(capsys):
    code, out, _ = run(capsys, "rb-grid", "--m", "1", "--n", "4")
    assert code == 0
    assert "rb=5 (convention)" in out


def test_rb_grid_json_stable(capsys):
    code, out1, _ = run(capsys, "rb-grid", "--m", "2", "--n", "3", "--json")
    assert code == 0
    code, out2, _ = run(capsys, "rb-grid", "--m", "2", "--n", "3", "--json")
    assert code == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["rb"] == 6 and payload["match"] is True


def test_rb_json_reports_prunes_by_cause(capsys):
    for command, size in (("rb-grid", ["--m", "3", "--n", "4"]), ("rb-interval", ["--n", "20"])):
        code, out, _ = run(capsys, command, *size, "--json")
        assert code == 0
        prunes = json.loads(out)["prunes"]
        assert set(prunes) == {"empty_domain", "fresh_capacity"}
        assert all(isinstance(v, int) for v in prunes.values()) and sum(prunes.values()) > 0


def test_rb_json_witness_is_the_tagged_construction(capsys):
    for command, size, engine in (
        ("rb-grid", ["--m", "3", "--n", "4"], "schurgrid-construction"),
        ("rb-interval", ["--n", "20"], "schurgrid-construction-interval"),
    ):
        code, out, _ = run(capsys, command, *size, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["witness"]["engine"] == engine
        assert payload["witness"]["nodes"] == 0
        assert payload["exhaustion"]["nodes"] > 0


def test_rb_interval(capsys):
    code, out, _ = run(capsys, "rb-interval", "--n", "8")
    assert code == 0
    assert "rb=5" in out
    code, out, _ = run(capsys, "rb-interval", "--n", "3")
    assert code == 0
    assert "rb=3" in out
    code, out, _ = run(capsys, "rb-interval", "--n", "2")
    assert code == 0
    assert "rb=3 (convention)" in out


def test_rb_grid_budget_indeterminate(capsys):
    # r = 12 is an exhaustion of 106,574 nodes, cut at the first flush
    code, out, _ = run(capsys, "rb-grid", "--m", "5", "--n", "6", "--max-nodes", "1")
    assert code == 3
    assert "indeterminate" in out


@pytest.mark.parametrize(
    "flag,value", [("--threads", "0"), ("--max-nodes", "-1"), ("--max-seconds", "-0.5")]
)
def test_budget_flags_reject_out_of_range(capsys, flag, value):
    code, _, err = run(capsys, "rb-grid", "--m", "2", "--n", "3", flag, value)
    assert code == 64
    assert flag in err


def test_usage_errors(capsys, tmp_path):
    code, _, err = run(capsys, "rb-grid", "--m", "0", "--n", "3")
    assert code == 64
    code, _, err = run(capsys, "rb-grid", "--n", "3")
    assert code == 64
    assert "error" in err
    code, _, _ = run(capsys, "no-such-command")
    assert code == 64
    code, _, err = run(capsys, "verify", "--file", str(tmp_path / "missing.json"))
    assert code == 64
    assert "error" in err
    # an interval lives on a 1-by-n carrier
    code, _, err = run(capsys, "witness", "--m", "2", "--n", "4", "--colors", "5", "--interval")
    assert code == 64
    assert "1-by-n carrier" in err
    code, _, err = run(
        capsys, "lemma", "--name", "one-extra-color", "--m", "2", "--n", "4", "--interval"
    )
    assert code == 64
    assert "1-by-n carrier" in err


def test_witness_and_verify_roundtrip(capsys, tmp_path):
    code, out, _ = run(capsys, "witness", "--m", "3", "--n", "3", "--colors", "6")
    assert code == 0
    cert_line = next(
        ln for ln in out.splitlines() if ln.startswith("certificate: ")
    ).removeprefix("certificate: ")
    path = tmp_path / "w.json"
    path.write_text(cert_line + "\n")
    code, out, _ = run(capsys, "verify", "--file", str(path))
    assert code == 0
    assert "verified" in out


def test_verify_rejects_tampering(capsys, tmp_path):
    code, out, _ = run(capsys, "witness", "--m", "2", "--n", "3", "--colors", "4")
    cert_line = next(
        ln for ln in out.splitlines() if ln.startswith("certificate: ")
    ).removeprefix("certificate: ")
    path = tmp_path / "t.json"
    path.write_text(cert_line.replace('"nodes"', '"nodes_x"') + "\n")
    code, out, _ = run(capsys, "verify", "--file", str(path))
    assert code == 2


def test_witness_exhaustion_message(capsys):
    code, out, _ = run(capsys, "witness", "--m", "2", "--n", "3", "--colors", "6")
    assert code == 0
    assert "none (exhaustion)" in out


def test_construct_commands(capsys):
    code, out, _ = run(capsys, "construct", "--m", "3", "--n", "4")
    assert code == 0
    assert "rainbow-free (verified)" in out
    code, out, _ = run(capsys, "construct", "--m", "1", "--n", "8", "--which", "valuation")
    assert code == 0
    assert out.splitlines()[1] == "1 2 1 3 1 2 1 4"
    code, _, _ = run(capsys, "construct", "--m", "2", "--n", "8", "--which", "valuation")
    assert code == 64


def test_analyze_witness(capsys, tmp_path):
    code, out, _ = run(capsys, "witness", "--m", "3", "--n", "3", "--colors", "6")
    cert_line = next(
        ln for ln in out.splitlines() if ln.startswith("certificate: ")
    ).removeprefix("certificate: ")
    path = tmp_path / "w.json"
    path.write_text(cert_line + "\n")
    code, out, _ = run(capsys, "analyze", "--file", str(path))
    assert code == 0
    rep = json.loads(out)
    assert rep["rainbow_free"] is True


def test_malformed_certificate_lines(capsys, tmp_path):
    witness = {"kind": "witness", "m": 2, "n": 2, "r": 3, "cells": [], "nodes": 0,
               "engine": ENGINE_VERSION}
    # filed under the key rb-grid 3x3 looks up at r = 7
    bogus = {"kind": "bogus", "m": 3, "n": 3, "r": 7, "nodes": 0, "engine": ENGINE_VERSION}
    path = tmp_path / "bad.json"
    for line in ("{not json", "[1, 2]", "null", json.dumps(witness), json.dumps(bogus)):
        path.write_text(line + "\n")
        for command in ("verify", "analyze"):
            code, out, _ = run(capsys, command, "--file", str(path))
            assert code == 2, (command, line)
            assert "cannot parse certificate" in out, (command, line)
    # a certificate that claims nothing is never served, even when trusted
    code, out, _ = run(
        capsys, "rb-grid", "--m", "3", "--n", "3", "--cache", str(path), "--trust-cache"
    )
    assert code == 0
    assert "[cached]" not in out
    line = next(ln for ln in out.splitlines() if ln.startswith("exhaustion certificate: "))
    assert json.loads(line.removeprefix("exhaustion certificate: "))["kind"] == "exhaustion"


def test_lemma_command(capsys):
    code, out, _ = run(capsys, "lemma", "--name", "one-extra-color", "--m", "3", "--n", "3", "--r", "5")
    assert code == 0
    assert "0 counterexamples" in out
    assert "colorings checked" in out
    code, _, err = run(capsys, "lemma", "--name", "bogus", "--m", "3", "--n", "3")
    assert code == 64
    assert "unknown lemma" in err


def test_cache_round(capsys, tmp_path):
    cache = str(tmp_path / "c.jsonl")
    code, out1, _ = run(capsys, "rb-grid", "--m", "2", "--n", "4", "--cache", cache)
    assert code == 0
    assert "[cached]" not in out1
    code, out2, _ = run(
        capsys, "rb-grid", "--m", "2", "--n", "4", "--cache", cache, "--trust-cache"
    )
    assert code == 0
    assert "[cached]" in out2
    lines = open(cache).read().splitlines()
    engines = [json.loads(line)["engine"] for line in lines]
    assert engines[0] == "schurgrid-construction"
    # the second run found the same certificates and appended none again
    assert len(lines) == len(set(lines))
    code, _, _ = run(capsys, "rb-grid", "--m", "2", "--n", "4", "--cache", cache)
    assert code == 0
    assert open(cache).read().splitlines() == lines
