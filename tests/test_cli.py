"""CLI contract: envelopes, exit codes, CSV shapes, error surfaces."""

import contextlib
import csv
import dataclasses
import io
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import thresholdwalk.resistance as resistance_module
from conftest import connected_codes_upto, pseudoinverse_from_terms, seeded_codes
from thresholdwalk import (
    build_graph,
    cli,
    degree_profile,
    kemeny,
    kemeny_degree_form,
    oracle,
    parse_code,
    pseudo_inverse,
    pseudo_inverse_terms,
    resistance_matrix,
    resistance_oracle,
    search,
    spectral,
    upper_bounds,
    verify,
)
from thresholdwalk.cli import main
from thresholdwalk.resistance import _verify_orderings


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def _vertices(payload):
    return [f"v{p}" for p in range(1, payload["n"] + 1)]


def _search_rows(p):
    k, r = p["k"], "" if p["r"] is None else str(p["r"])
    row = [str(p["n"]), p["argmax_code"], k["num"], k["den"], repr(k["float"]), str(p["is_pineapple"]).lower(), r]
    return ["n", "argmax_code", "k_num", "k_den", "k_float", "is_pineapple", "r"], [row], None


# per command: the CSV header and rows read from the JSON payload, and the text separator
# (None: the text lines are not rows); search's CSV ends in a seconds column left out here
_PAYLOAD_ROWS = {
    "resistance": lambda p: (_vertices(p), p["r"], " "),
    "forest": lambda p: (_vertices(p), [*p["f"], ["tau", p["tau"]]], ","),
    "pineapple": lambda p: (
        ["n", "r", "num", "den", "float"],
        [[str(row["n"]), str(row["r"]), row["num"], row["den"], repr(row["float"])] for row in p["rows"]],
        ",",
    ),
    "search": _search_rows,
    "enumerate": lambda p: (["code"], [[c] for c in p["codes"]], ","),
}


def formats_agree(*argv):
    """Assert that main(argv) prints the JSON payload's rows again as its CSV body and its text lines.

    Output is captured with redirect_stdout, so this runs outside pytest too.  Returns the row count.
    """
    outputs = []
    for style in ([], ["--csv"], ["--json"]):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert main([*argv, *style]) == 0, (argv, style)
        outputs.append(buffer.getvalue())
    text, csv_text, json_text = outputs
    header, rows, separator = _PAYLOAD_ROWS[argv[0]](json.loads(json_text)["payload"])
    csv_header, *csv_body = csv.reader(io.StringIO(csv_text))
    if argv[0] == "search":
        csv_header, csv_body = csv_header[:-1], [row[:-1] for row in csv_body]
    assert (csv_header, csv_body) == (header, rows), argv
    if separator is not None:
        assert text.splitlines() == [separator.join(row) for row in rows], argv
    return len(rows)


class TestCompute:
    def test_paw_payload(self, capsys):
        code, envelope, _ = run_json(capsys, "compute", "0101")
        assert code == 0
        assert envelope["schema_version"] == "1"
        assert envelope["command"] == "compute"
        payload = envelope["payload"]
        assert payload["kemeny"] == {
            "num": "61",
            "den": "24",
            "float": pytest.approx(2.5416666666666665),
        }
        assert payload["bounds"]["linear"] == 5
        assert payload["bounds"]["hold"] is True
        assert payload["agreement"]["exact_routes_equal"] is True

    def test_block_notation_accepted(self, capsys):
        code, envelope, _ = run_json(capsys, "compute", "0 1 0 1")
        assert code == 0
        assert envelope["payload"]["kemeny"]["num"] == "61"

    def test_disconnected_exit_one(self, capsys):
        code, out, err = run(capsys, "compute", "0110")
        assert code == 1
        assert "Disconnected" in err
        assert out == ""

    def test_n2_has_no_bounds(self, capsys):
        code, envelope, _ = run_json(capsys, "compute", "01")
        assert code == 0
        assert envelope["payload"]["bounds"] is None

    def test_payload_reproducible(self, capsys):
        _, first, _ = run_json(capsys, "compute", "01100011")
        _, second, _ = run_json(capsys, "compute", "01100011")
        assert first["payload"] == second["payload"]

    def test_method_spectral(self, capsys):
        _, envelope, _ = run_json(capsys, "compute", "0101", "--method", "spectral")
        kemeny = envelope["payload"]["kemeny"]
        assert kemeny["num"] is None
        assert kemeny["float"] == pytest.approx(61 / 24, abs=1e-9)

    def test_method_degree(self, capsys):
        _, envelope, _ = run_json(capsys, "compute", "0101", "--method", "degree")
        assert envelope["payload"]["kemeny"]["num"] == "61"
        assert "routes" not in envelope["payload"]

    def test_kemeny_beyond_int_str_digit_limit(self, capsys):
        # n = 10000: K's numerator and denominator each pass 4300 digits
        text = "01" * 5000
        code, envelope, _ = run_json(capsys, "compute", text, "--method", "degree")
        assert code == 0
        kemeny_obj = envelope["payload"]["kemeny"]
        assert len(kemeny_obj["num"]) > 4300
        value = Fraction(int(Decimal(kemeny_obj["num"])), int(Decimal(kemeny_obj["den"])))
        assert value == kemeny_degree_form(parse_code(text)).exact

    @pytest.mark.parametrize(
        "method,codevec_calls,degree_calls",
        [("codevec", 1, 0), ("all", 1, 1), ("spectral", 1, 0), ("degree", 0, 1)],
    )
    def test_one_exact_evaluation_per_request(self, capsys, monkeypatch, method, codevec_calls, degree_calls):
        calls = {"codevec": 0, "degree": 0}
        for module in (cli, kemeny):
            for name, route in (("codevec", "kemeny_from_code"), ("degree", "kemeny_degree_form")):
                monkeypatch.setattr(module, route, _counted(calls, name, getattr(kemeny, route)))
        code, _, _ = run_json(capsys, "compute", "01100011", "--method", method)
        assert code == 0
        assert calls == {"codevec": codevec_calls, "degree": degree_calls}

    @pytest.mark.parametrize("method", ["all", "codevec", "degree", "spectral"])
    def test_bounds_payload_matches_upper_bounds(self, capsys, method):
        for text in map(str, connected_codes_upto(8, n_min=3)):
            _, envelope, _ = run_json(capsys, "compute", text, "--method", method)
            bounds = upper_bounds(parse_code(text))
            expected = {"linear": bounds.linear_bound, "sparse": bounds.sparse_bound, "hold": bounds.both_hold}
            assert envelope["payload"]["bounds"] == expected, text


class TestSpectrum:
    def test_eight_vertex(self, capsys):
        code, envelope, _ = run_json(capsys, "spectrum", "01100011")
        assert code == 0
        payload = envelope["payload"]
        assert payload["lambda"] == [5, 5, 2, 2, 2, 8, 8, 0]
        assert payload["sorted"] == [0, 2, 2, 2, 5, 5, 8, 8]
        assert payload["tau"] == "1600"

    def test_tau_is_string(self, capsys):
        _, envelope, _ = run_json(capsys, "spectrum", "0" + "1" * 25)
        tau = envelope["payload"]["tau"]
        assert isinstance(tau, str)
        assert int(tau) == 26**24

    def test_tau_beyond_int_str_digit_limit(self, capsys):
        # 1400^1398 has 4399 digits, past the 4300-digit limit of str(int)
        code, envelope, _ = run_json(capsys, "spectrum", "0 1^1399")
        assert code == 0
        tau = envelope["payload"]["tau"]
        assert len(tau) == 4399
        assert int(Decimal(tau)) == 1400**1398

    def test_one_spectrum_per_request(self, capsys, monkeypatch):
        # tau is the product of the spectrum already formed, not of a second one
        calls = {"laplacian_spectrum": 0}
        counted = _counted(calls, "laplacian_spectrum", spectral.laplacian_spectrum)
        for module in (cli, spectral):
            monkeypatch.setattr(module, "laplacian_spectrum", counted)
        for style in ([], ["--csv"], ["--json"]):
            calls["laplacian_spectrum"] = 0
            assert run(capsys, "spectrum", "01100011", *style)[0] == 0
            assert calls == {"laplacian_spectrum": 1}, style

    @pytest.mark.parametrize(
        "text,message",
        [
            ("0110", "Disconnected: random-walk quantities are undefined for a disconnected code"),
            ("0", "OrderTooSmall: spectra are reported for order >= 2"),
            ("0x1", "IllegalCharacter: unexpected character 'x' in code string"),
            ("", "EmptyInput: empty construction code"),
        ],
    )
    @pytest.mark.parametrize("style", [[], ["--csv"], ["--json"]], ids=["text", "csv", "json"])
    def test_bad_code_exits_one(self, capsys, text, message, style):
        assert run(capsys, "spectrum", text, *style) == (1, "", f"error: {message}\n")


class TestResistanceAndForest:
    def test_pair(self, capsys):
        code, out, _ = run(capsys, "resistance", "--pair", "1", "3", "0101")
        assert code == 0
        assert out.strip() == "5/3"

    def test_matrix_json(self, capsys):
        _, envelope, _ = run_json(capsys, "resistance", "0101")
        rows = envelope["payload"]["r"]
        assert rows[2][3] == "1/1"
        assert rows[0][2] == "5/3"

    def test_forest_csv(self, capsys):
        code, out, _ = run(capsys, "forest", "0101", "--csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "v1,v2,v3,v4"
        assert lines[-1] == "tau,3"
        assert lines[3] == "5,5,0,3"

    def test_forest_beyond_int_str_digit_limit(self, capsys, monkeypatch):
        # 1400^1398 has 4399 digits, past the 4300-digit limit of str(int)
        tau = 1400**1398
        # at 01, row = (0, 0) and col = (0, den), so F = ((0, tau), (tau, 0))
        profile = dataclasses.replace(resistance_matrix(parse_code("01")), tau=tau)
        monkeypatch.setattr(cli, "resistance_matrix", lambda _: profile)
        digits = str(Decimal(tau))
        assert len(digits) == 4399
        code, out, _ = run(capsys, "forest", "01", "--json")
        assert code == 0
        assert json.dumps(json.loads(out)) + "\n" == out
        envelope = json.loads(out)
        assert envelope["payload"]["tau"] == digits
        assert envelope["payload"]["f"] == [["0", digits], [digits, "0"]]
        for style in ([], ["--csv"]):
            code, out, _ = run(capsys, "forest", "01", *style)
            assert code == 0
            assert out.strip().splitlines()[-1] == f"tau,{digits}"


    @pytest.mark.parametrize("command", ["resistance", "forest", "access"])
    def test_json_is_what_json_dumps_writes(self, capsys, command):
        # resistance and forest write their matrix rows by join, access its lists by json.dumps
        rng = random.Random(300)
        codes = [*connected_codes_upto(7), *seeded_codes(15, 4, 8, 120)]
        codes.append(parse_code("0" + "".join(rng.choice("01") for _ in range(298)) + "1"))
        for code in codes:
            status, out, _ = run(capsys, command, str(code), "--json")
            assert status == 0
            assert json.dumps(json.loads(out)) + "\n" == out, str(code)

    @pytest.mark.parametrize("command", ["resistance", "forest", "access"])
    def test_every_mode_equals_the_per_entry_reference(self, capsys, command):
        # each distinct term is formatted once and shared by its repeats; the
        # reference formats every entry on its own as the reduced Fraction
        for code in [*connected_codes_upto(9), *seeded_codes(2020, 8, 12, 300)]:
            expected = _per_entry_outputs(command, code, resistance_matrix(code))
            assert _outputs(capsys, command, str(code)) == expected, str(code)

    @pytest.mark.parametrize("command", ["resistance", "forest", "access"])
    def test_per_entry_reference_past_the_digit_limit(self, capsys, monkeypatch, command):
        # 1400^1398 has 4399 digits, past the 4300-digit limit of str(int)
        profile = dataclasses.replace(resistance_matrix(parse_code("01")), tau=1400**1398)
        monkeypatch.setattr(cli, "resistance_matrix", lambda _: profile)
        expected = _per_entry_outputs(command, parse_code("01"), profile)
        assert _outputs(capsys, command, "01") == expected

    @pytest.mark.parametrize("command", ["resistance", "forest", "access"])
    def test_each_distinct_value_formatted_once(self, capsys, monkeypatch, command):
        calls = []

        def listing(formatter):
            def wrapper(x):
                calls.append(x)
                return formatter(x)

            return wrapper

        if command == "forest":
            monkeypatch.setattr(cli, "_int_str", listing(cli._int_str))
        else:
            name = "_ratio_formatter" if command == "resistance" else "_moment_formatter"
            factory = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *args: listing(factory(*args)))
        for code in [parse_code("0110100111"), *seeded_codes(2021, 4, 40, 200)]:
            profile = resistance_matrix(code)
            if command == "access":
                terms = list(profile.mu_num)
            else:
                a, b = profile.f_terms() if command == "forest" else (profile.row, profile.col)
                terms = [a[j] + b[v] for v in range(code.n) for j in range(v)]
            calls.clear()
            assert run(capsys, command, str(code), "--json")[0] == 0
            assert len(set(terms)) < len(terms), str(code)  # twins repeat terms
            # forest also formats tau, once
            expected = Counter(set(terms)) + Counter([profile.tau] if command == "forest" else [])
            assert Counter(calls) == expected, str(code)


def _outputs(capsys, command, text):
    """command's JSON payload, text lines and CSV output for the code text; the JSON is what json.dumps writes."""
    status, out, _ = run(capsys, command, text, "--json")
    assert status == 0 and json.dumps(json.loads(out)) + "\n" == out
    payload = json.dumps(json.loads(out)["payload"])
    status_text, text_out, _ = run(capsys, command, text)
    status_csv, csv_out, _ = run(capsys, command, text, "--csv")
    assert status_text == status_csv == 0
    return payload, text_out.splitlines(), csv_out


def _per_entry_outputs(command, code, profile):
    """_outputs of command, each entry formatted on its own by _frac_str or _int_str of the exact value."""
    n, row, col, den = code.n, profile.row, profile.col, profile.den
    if command == "access":
        mu = [Fraction(x, den) for x in profile.mu_num]
        payload = {
            "mu": [cli._frac_str(x) for x in mu],
            "alpha": [cli._frac_str(x - profile.kemeny) for x in mu],
            "degrees": list(degree_profile(code).degrees),
            "ordering_ok": _verify_orderings(code, profile).all_pass,
        }
        text = [
            "mu: " + " ".join(payload["mu"]),
            "alpha: " + " ".join(payload["alpha"]),
            "degrees: " + " ".join(map(str, payload["degrees"])),
            f"ordering_ok: {payload['ordering_ok']}",
        ]
        return json.dumps(payload), text, "".join(line + "\n" for line in text)  # --csv prints the text
    terms = [[row[min(j, v)] + col[max(j, v)] if j != v else 0 for v in range(n)] for j in range(n)]
    if command == "resistance":
        rows = [[cli._frac_str(Fraction(x, den)) for x in line] for line in terms]
        payload, lines, separator = {"n": n, "r": rows}, rows, " "
    else:
        f = [[divmod(profile.tau * x, den) for x in line] for line in terms]
        assert all(remainder == 0 for line in f for _, remainder in line)
        rows = [[cli._int_str(x) for x, _ in line] for line in f]
        tau = cli._int_str(profile.tau)
        payload, lines, separator = {"n": n, "tau": tau, "f": rows}, [*rows, ["tau", tau]], ","
    # the fields hold only digits, '/' and letters, so CSV quotes none of them
    csv_lines = [[f"v{p}" for p in range(1, n + 1)], *lines]
    return json.dumps(payload), [separator.join(line) for line in lines], "".join(",".join(x) + "\n" for x in csv_lines)


class TestAccess:
    # every command formats straight from the integer terms and builds none of R, F, mu and alpha
    @pytest.mark.parametrize("command,built", [("access", set()), ("forest", set()), ("resistance", set())])
    def test_matrices_built_only_when_read(self, capsys, monkeypatch, command, built):
        profiles = []
        monkeypatch.setattr(cli, "resistance_matrix", _recording(profiles))
        code, _, _ = run_json(capsys, command, "0110100111")
        assert code == 0
        assert [_materialised(profile) for profile in profiles] == [built]

    @pytest.mark.parametrize("command", ["access", "forest", "resistance"])
    def test_one_spectrum_per_profile(self, capsys, monkeypatch, command):
        # tau is the tree count of the spectrum the reciprocals came from, not of a second one
        calls = {"laplacian_spectrum": 0}
        counted = _counted(calls, "laplacian_spectrum", spectral.laplacian_spectrum)
        for module in (cli, kemeny, resistance_module, spectral):
            monkeypatch.setattr(module, "laplacian_spectrum", counted)
        assert run_json(capsys, command, "0" + "01" * 31 + "1")[0] == 0
        assert calls == {"laplacian_spectrum": 1}

    def test_star(self, capsys):
        _, envelope, _ = run_json(capsys, "access", "0001")
        payload = envelope["payload"]
        assert payload["mu"] == ["7/1", "7/1", "7/1", "3/1"]
        assert payload["alpha"] == ["9/2", "9/2", "9/2", "1/2"]
        assert payload["degrees"] == [1, 1, 1, 3]
        assert payload["ordering_ok"] is True


class TestPineapple:
    def test_sweep_csv(self, capsys):
        code, out, _ = run(capsys, "pineapple", "--n", "5", "--sweep", "--csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,r,num,den,float"
        assert len(lines) == 5  # header + r = 0..3
        assert lines[1].startswith("5,0,7,2,")

    def test_single_r(self, capsys):
        _, envelope, _ = run_json(capsys, "pineapple", "--n", "21", "--r", "4")
        row = envelope["payload"]["rows"][0]
        assert row["num"] == "21" and row["den"] == "1"

    @pytest.mark.parametrize("style", [[], ["--csv"], ["--json"]], ids=["text", "csv", "json"])
    @pytest.mark.parametrize("n", ["2", "1", "0", "-5"])
    def test_sweep_below_order_three_exits_one(self, capsys, n, style):
        code, out, err = run(capsys, "pineapple", "--n", n, "--sweep", *style)
        assert (code, out) == (1, "")
        assert err == f"error: ParameterOutOfRange: pineapple family needs n >= 3, got {n}\n"

    @pytest.mark.parametrize("style", [[], ["--csv"], ["--json"]], ids=["text", "csv", "json"])
    @pytest.mark.parametrize("mode", [[], ["--sweep"]], ids=["argmax", "sweep"])
    def test_order_longer_than_a_code_exits_one(self, capsys, mode, style):
        code, out, err = run(capsys, "pineapple", "--n", "1000001", *mode, *style)
        assert (code, out) == (1, "")
        assert err == "error: OrderOutOfRange: a pineapple sweep needs n <= 1000000, got 1000001\n"

    def test_single_r_past_the_code_limit(self, capsys):
        code, out, _ = run(capsys, "pineapple", "--n", "1000001", "--r", "1", "--csv")
        assert code == 0
        assert out.splitlines()[1].startswith("1000001,1,3000003499993,3000003,")

    def test_argmax_default(self, capsys):
        _, envelope, _ = run_json(capsys, "pineapple", "--n", "10")
        payload = envelope["payload"]
        assert payload["r_star"] == 2
        assert payload["k_star"]["num"] == "73"
        assert payload["predicted_set"] == [3, 4]


class TestSearch:
    def test_json(self, capsys):
        code, envelope, _ = run_json(capsys, "search", "--n", "6", "--threads", "1")
        assert code == 0
        payload = envelope["payload"]
        assert payload["argmax_code"] == "010001"
        assert payload["k"] == {"num": "19", "den": "4", "float": 4.75}
        assert payload["is_pineapple"] is True and payload["r"] == 1
        assert payload["codes_examined"] == 16
        assert "seconds" not in payload  # timing stays outside the payload

    def test_csv_columns(self, capsys):
        code, out, _ = run(capsys, "search", "--n", "5", "--threads", "1", "--csv")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "n,argmax_code,k_num,k_den,k_float,is_pineapple,r,seconds"
        assert row.split(",")[:2] == ["5", "01001"]

    def test_checkpoint_flag(self, capsys, tmp_path):
        path = tmp_path / "cli.checkpoint"
        code, _, _ = run(capsys, "search", "--n", "5", "--checkpoint", str(path), "--quiet")
        assert code == 0
        assert path.exists()

    def test_threads_zero_exits_one(self, capsys):
        code, out, err = run(capsys, "search", "--n", "5", "--threads", "0")
        assert (code, out) == (1, "")
        assert err.startswith("error: ParameterOutOfRange: ") and "Traceback" not in err

    def test_threads_echoed_but_payload_unchanged(self, capsys):
        argvs = ([], ["--threads", "1"], ["--threads", "2"])
        envelopes = [run_json(capsys, "search", "--n", "9", *argv)[1] for argv in argvs]
        assert envelopes[0]["payload"] == envelopes[1]["payload"] == envelopes[2]["payload"]
        inputs = [{"n": 9}, {"n": 9, "threads": 1}, {"n": 9, "threads": 2}]
        assert [envelope["input"] for envelope in envelopes] == inputs

    def test_corrupt_checkpoint_exits_one(self, capsys, tmp_path):
        path = tmp_path / "corrupt.checkpoint"
        path.write_text("thresholdwalk-search 2 5 8\n0 11 3 0x001\n")
        code, out, err = run(capsys, "search", "--n", "5", "--threads", "1", "--checkpoint", str(path))
        assert code == 1
        assert out == ""
        assert "CheckpointMismatch" in err and "Traceback" not in err

    def test_checkpoint_dir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CHECKPOINT_DIR", str(tmp_path))
        code, _, _ = run(capsys, "search", "--n", "5", "--threads", "1", "--quiet")
        assert code == 0
        assert (tmp_path / "search_n5.checkpoint").exists()

    @pytest.mark.parametrize(
        "where,error",
        [
            ("missing_dir", "FileNotFoundError"),
            ("directory", "IsADirectoryError"),
            ("missing_checkpoint_dir", "FileNotFoundError"),
        ],
    )
    def test_unusable_checkpoint_path_exits_one(self, capsys, tmp_path, monkeypatch, where, error):
        argv = ["search", "--n", "5", "--threads", "1"]
        if where == "missing_dir":
            argv += ["--checkpoint", str(tmp_path / "missing" / "x")]
        elif where == "directory":
            argv += ["--checkpoint", str(tmp_path)]
        else:
            monkeypatch.setenv("CHECKPOINT_DIR", str(tmp_path / "missing"))
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {error}: ") and "Traceback" not in err


class TestVerify:
    def test_all_suites_pass(self, capsys):
        code, envelope, _ = run_json(capsys, "verify", "0101")
        assert code == 0
        payload = envelope["payload"]
        assert payload["pass"] is True
        assert set(payload["suites"]) == {"kemeny", "resistance", "forest", "ordering"}

    def test_single_suite(self, capsys):
        code, envelope, _ = run_json(capsys, "verify", "01100011", "--suite", "kemeny")
        assert code == 0
        assert list(envelope["payload"]["suites"]) == ["kemeny"]

    def test_text_mode(self, capsys):
        code, out, _ = run(capsys, "verify", "0001")
        assert code == 0
        assert "all: PASS" in out

    @pytest.mark.parametrize("suite,profiles", [("all", 1), ("kemeny", 0)])
    def test_one_request_shares_its_work(self, capsys, monkeypatch, suite, profiles):
        calls = dict.fromkeys(("build_graph", "resistance_oracle", "resistance_matrix", "_walk_eigenvalues"), 0)
        for name in calls:
            module = oracle if name == "_walk_eigenvalues" else verify
            monkeypatch.setattr(module, name, _counted(calls, name, getattr(module, name)))
        code, _, _ = run_json(capsys, "verify", "0110100111", "--suite", suite)
        assert code == 0
        # one graph, one dense eigh, one profile (none for the Kemeny suite alone),
        # one walk spectrum (kemeny_eigen_oracle's; accessibility_oracle needs none)
        assert calls == dict(build_graph=1, resistance_oracle=1, resistance_matrix=profiles, _walk_eigenvalues=1)

    @pytest.mark.parametrize(
        "suite,built",
        [
            ("all", {"F"}),
            ("resistance", set()),
            ("forest", {"F"}),
            ("ordering", set()),
            ("kemeny", None),
        ],
    )
    def test_suites_build_only_the_matrices_they_read(self, capsys, monkeypatch, suite, built):
        profiles = []
        monkeypatch.setattr(verify, "resistance_matrix", _recording(profiles))
        # n = 8: within FOREST_ORDER_CAP, so the forest suite reads F
        code, _, _ = run_json(capsys, "verify", "01101011", "--suite", suite)
        assert code == 0
        assert [_materialised(profile) for profile in profiles] == ([] if built is None else [built])

    def test_verify_all_beyond_forest_cap_builds_no_matrix(self, capsys, monkeypatch):
        profiles = []
        monkeypatch.setattr(verify, "resistance_matrix", _recording(profiles))
        code, _, _ = run_json(capsys, "verify", "0" + "01" * 31 + "1", "--suite", "all")
        assert code == 0
        assert [_materialised(profile) for profile in profiles] == [set()]

    def test_verify_all_builds_no_pseudoinverse_matrix(self, capsys, monkeypatch):
        def refused(code):
            raise AssertionError("the resistance suite built the pseudoinverse matrix")

        for module in (spectral, verify):
            monkeypatch.setattr(module, "pseudo_inverse", refused, raising=False)
        status, envelope, _ = run_json(capsys, "verify", "0" + "01" * 31 + "1", "--suite", "all")
        assert status == 0
        assert envelope["payload"]["suites"]["resistance"]["pseudoinverse_equal"] is True

    @pytest.mark.parametrize(
        "target", ["pinv_below_diagonal", "pinv_diagonal", "pinv_above_diagonal", "a_entry", "b_entry"]
    )
    def test_resistance_suite_catches_one_changed_entry(self, capsys, monkeypatch, target):
        # a change far below float resolution: only the exact check can see it.
        # R is derived from the row and column terms, so R changes through one
        # paired row term a_i = row_i / den (i <= n-2) or column term
        # b_j = col_j / den (j >= 1); L+ changes through the term its entry (a, b)
        # reads, diag_a on the diagonal and off_max(a, b) off it, so a changed
        # entry below or above the diagonal moves every entry with the same max(a, b)
        rng = random.Random(target)
        codes = list(connected_codes_upto(9, n_min=3)) + [parse_code("0" + "011" * 10 + "1")]
        for code in rng.sample(codes, 25):
            n = code.n
            profile = resistance_matrix(code)
            terms = pseudo_inverse_terms(code)
            delta = Fraction(rng.choice([-1, 1]), 10**30)
            if target == "pinv_diagonal":
                a = rng.randrange(n)
                terms = _nudged_terms(terms, 1, a, delta)
            elif target.startswith("pinv"):
                a, b = sorted(rng.sample(range(n), 2), reverse=target == "pinv_below_diagonal")
                terms = _nudged_terms(terms, 2, max(a, b), delta)
            elif target == "a_entry":
                profile = _nudged(profile, "row", rng.randrange(n - 1), delta)
            else:
                profile = _nudged(profile, "col", rng.randrange(1, n), delta)
            assert not _all_pairs_pseudoinverse_check(profile.R, pseudoinverse_from_terms(*terms))
            monkeypatch.setattr(verify, "pseudo_inverse_terms", lambda _: terms)
            monkeypatch.setattr(verify, "resistance_matrix", lambda _: profile)
            status, envelope, _ = run_json(capsys, "verify", str(code), "--suite", "resistance")
            suite = envelope["payload"]["suites"]["resistance"]
            assert status == 1
            assert suite["pseudoinverse_equal"] is False
            assert suite["max_deviation"] < 1e-8
            # a nudged term splits its run of twins: still every entry's own float
            floats = np.array([[float(x) for x in r] for r in profile.R])
            assert suite["max_deviation"] == float(np.abs(floats - resistance_oracle(build_graph(code))).max())

    def test_resistance_suite_reads_each_side_over_its_own_denominator(self, capsys, monkeypatch):
        # the identity is cross-multiplied: the same values over den * 10^30 and 7 * den still pass
        for code in [parse_code("0101"), *seeded_codes(23, 4, 10, 64)]:
            profile = _scaled(resistance_matrix(code), 10**30)
            den, diag, off = pseudo_inverse_terms(code)
            terms = (7 * den, [7 * x for x in diag], [7 * x for x in off])
            monkeypatch.setattr(verify, "pseudo_inverse_terms", lambda _: terms)
            monkeypatch.setattr(verify, "resistance_matrix", lambda _: profile)
            status, envelope, _ = run_json(capsys, "verify", str(code), "--suite", "resistance")
            assert status == 0
            assert envelope["payload"]["suites"]["resistance"]["pseudoinverse_equal"] is True

    def test_resistance_suite_unperturbed_matches_all_pairs(self, capsys):
        seeded = seeded_codes(8, 5, 32, 128)
        for code in list(connected_codes_upto(7, n_min=3)) + [parse_code("0" + "011" * 10 + "1"), *seeded]:
            R = resistance_matrix(code).R
            assert _all_pairs_pseudoinverse_check(R, pseudo_inverse(code))
            _, envelope, _ = run_json(capsys, "verify", str(code), "--suite", "resistance")
            suite = envelope["payload"]["suites"]["resistance"]
            assert suite["pseudoinverse_equal"] is True
            numeric_r = resistance_oracle(build_graph(code))
            assert suite["max_deviation"] == float(
                np.abs(np.array([[float(x) for x in r] for r in R]) - numeric_r).max()
            )


def _counted(calls, name, original):
    """original, counting its calls in calls[name]."""

    def wrapper(*args):
        calls[name] += 1
        return original(*args)

    return wrapper


def _scaled(profile, scale):
    """profile with den and every term times scale: the same values over another denominator."""
    terms = {key: tuple(x * scale for x in getattr(profile, key)) for key in ("row", "col", "mu_num")}
    return dataclasses.replace(profile, den=profile.den * scale, **terms)


def _nudged(profile, name, index, delta):
    """profile with the term name[index] / den moved by delta, all terms over den * delta.denominator."""
    scaled = _scaled(profile, delta.denominator)
    terms = list(getattr(scaled, name))
    terms[index] += delta.numerator * profile.den
    return dataclasses.replace(scaled, **{name: tuple(terms)})


def _nudged_terms(terms, which, index, delta):
    """pseudo_inverse_terms with terms[which][index] / den moved by delta, all over den * delta.denominator."""
    scale = delta.denominator
    den, diag, off = terms
    moved = [den * scale, [x * scale for x in diag], [x * scale for x in off]]
    moved[which][index] += delta.numerator * den
    return tuple(moved)


def _recording(profiles):
    """resistance_matrix, keeping every profile it returns in profiles."""

    def wrapper(code):
        profiles.append(resistance_matrix(code))
        return profiles[-1]

    return wrapper


def _materialised(profile):
    """Which of R, F, mu and alpha the profile has built (cached_property keeps them in vars)."""
    return {name for name in ("R", "F", "mu", "alpha") if name in vars(profile)}


def _all_pairs_pseudoinverse_check(R, pinv):
    """Reference: R = diag(L+) 1^T + 1 diag(L+)^T - 2 L+ compared entry by entry in Fractions."""
    n = len(R)
    return all(R[i][j] == pinv[i][i] + pinv[j][j] - 2 * pinv[i][j] for i in range(n) for j in range(n))


class TestEnumerate:
    def test_text_lines(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "4")
        assert code == 0
        assert out.strip().splitlines() == ["0001", "0011", "0101", "0111"]

    def test_json_count(self, capsys):
        _, envelope, _ = run_json(capsys, "enumerate", "--n", "6")
        assert envelope["payload"]["count"] == 16
        assert len(envelope["payload"]["codes"]) == 16

    def test_order_above_search_range_exits_one(self, capsys):
        # refused before any code is listed: the listing would hold 2^25 codes
        code, out, err = run(capsys, "enumerate", "--n", "27")
        assert code == 1
        assert out == ""
        assert "OrderOutOfRange" in err and "Traceback" not in err

    def test_own_cap_whatever_the_search_reaches(self, capsys, monkeypatch):
        # a search cap raised past 26 leaves the listing, which holds every code, at 26
        monkeypatch.setattr(search, "MAX_ORDER", 30)
        code, out, err = run(capsys, "enumerate", "--n", "27")
        assert code == 1
        assert out == ""
        assert err.startswith("error: OrderOutOfRange: ") and "Traceback" not in err


class TestDispatch:
    def test_parser_reused_without_leaks(self, capsys):
        assert cli._build_parser() is cli._build_parser()
        _, first, _ = run_json(capsys, "compute", "0101", "--method", "degree")
        _, second, _ = run_json(capsys, "compute", "0101")
        assert first["input"] == {"code": "0101", "method": "degree"}
        assert second["input"] == {"code": "0101", "method": "all"}
        assert "routes" in second["payload"] and "routes" not in first["payload"]
        _, pair, _ = run_json(capsys, "resistance", "--pair", "1", "3", "0101")
        _, matrix, _ = run_json(capsys, "resistance", "0101")
        assert pair["input"] == {"code": "0101", "pair": [1, 3]}
        assert matrix["input"] == {"code": "0101"}
        assert len(matrix["payload"]["r"]) == 4
        code, out, _ = run(capsys, "verify", "0101", "--suite", "kemeny", "--quiet")
        assert (code, out) == (0, "")
        code, out, _ = run(capsys, "verify", "0101")
        assert code == 0
        assert out.splitlines() == ["kemeny: PASS", "resistance: PASS", "forest: PASS", "ordering: PASS", "all: PASS"]
        _, out, _ = run(capsys, "search", "--n", "5", "--threads", "1", "--csv")
        _, envelope, _ = run_json(capsys, "search", "--n", "5")
        assert out.startswith("n,argmax_code,")
        assert "threads" not in envelope["input"]

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bogus"])
        assert excinfo.value.code == 2

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["compute", "0101", "--frobnicate"])
        assert excinfo.value.code == 2

    def test_no_command_exits_two(self, capsys):
        assert main([]) == 2

    def test_quiet_suppresses_stdout(self, capsys):
        code, out, err = run(capsys, "compute", "0101", "--quiet")
        assert code == 0
        assert out == ""

    def test_parse_error_exit_one(self, capsys):
        code, out, err = run(capsys, "compute", "0102")
        assert code == 1
        assert "IllegalCharacter" in err

    @pytest.mark.parametrize("text", ["0 1^\uff12", "0 1^\u0661", "0\u06611"])
    def test_non_ascii_digit_exits_one(self, capsys, text):
        code, out, err = run(capsys, "compute", text)
        assert (code, out) == (1, "")
        assert err.startswith("error: IllegalCharacter: ") and "Traceback" not in err

    def test_resistance_matrix_flag_gone(self, capsys):
        # the full matrix is the default; the flag that said so is no longer accepted
        with pytest.raises(SystemExit) as excinfo:
            main(["resistance", "0101", "--matrix"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("n", [kemeny._DENSE_ORDER_CAP + 1, 10**5])
    @pytest.mark.parametrize(
        "argv",
        [("compute",), ("compute", "--method", "spectral"), ("verify",), ("verify", "--suite", "kemeny")],
        ids=" ".join,
    )
    def test_order_past_the_dense_cap_exits_one(self, capsys, argv, n):
        # the dense float routes name the order before any n x n array is built
        started = time.perf_counter()
        code, out, err = run(capsys, argv[0], f"0^{n - 1} 1", *argv[1:])
        assert time.perf_counter() - started < 0.5
        assert (code, out) == (1, "")
        assert err.startswith("error: OrderOutOfRange: ") and "Traceback" not in err

    @pytest.mark.parametrize("text", ["0^99999999999999999999 1", "0^1000000 1"])
    def test_code_longer_than_limit_exits_one(self, capsys, text):
        code, out, err = run(capsys, "compute", text)
        assert (code, out) == (1, "")
        assert err.startswith("error: OrderOutOfRange: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [("enumerate", "--n", "18"), ("resistance", str(seeded_codes(300, 1, 300, 300)[0]))],
        ids=lambda argv: argv[0],
    )
    def test_reader_closing_early_exits_one(self, argv):
        # each output is far past a pipe's buffer, so writes go on after the reader has left
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
        child = subprocess.Popen(
            [sys.executable, "-m", "thresholdwalk.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert child.stdout.readline()
        child.stdout.close()
        err = child.stderr.read().decode()
        assert child.wait(timeout=60) == 1
        assert err.startswith("error: BrokenPipeError: ") and err.count("\n") == 1, err


_ROW_COMMANDS = [
    ("resistance", "01"),
    ("resistance", "0101"),
    ("resistance", "0110100111"),
    ("forest", "01"),
    ("forest", "0101"),
    ("forest", "0110100111"),
    ("forest", "0" + "011" * 10 + "1"),
    ("pineapple", "--n", "3", "--sweep"),
    ("pineapple", "--n", "12", "--sweep"),
    ("pineapple", "--n", "21", "--r", "4"),
    ("search", "--n", "3", "--threads", "1"),
    ("search", "--n", "8", "--threads", "1"),
    ("enumerate", "--n", "2"),
    ("enumerate", "--n", "9"),
]


class TestFormats:
    @pytest.mark.parametrize("argv", _ROW_COMMANDS, ids=" ".join)
    def test_csv_and_text_carry_the_json_rows(self, argv):
        assert formats_agree(*argv) >= 1

    @pytest.mark.parametrize("argv", _ROW_COMMANDS, ids=" ".join)
    def test_csv_is_what_csv_writer_writes(self, monkeypatch, argv):
        # the CSV rows are joined by commas; the csv module writes the same bytes, quoting nothing
        outputs = []
        command_output = cli.CommandOutput

        def recording(*args, **kwargs):
            output = command_output(*args, **kwargs)
            output.csv_rows = list(output.csv_rows)
            outputs.append(output)
            return output

        monkeypatch.setattr(cli, "CommandOutput", recording)
        written, expected = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(written):
            assert main([*argv, "--csv"]) == 0
        csv.writer(expected, lineterminator="\n").writerows(outputs[0].csv_rows)
        assert written.getvalue() == expected.getvalue()
