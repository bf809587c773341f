"""End-to-end CLI tests, run in-process through multitrek.cli.run."""

import itertools
import json
import os
import struct
import subprocess
import sys
import time

import numpy as np
import pytest

from multitrek import (
    MixedGraph,
    SampleMatrix,
    decide_vanishing,
    find_sided_intersection,
    instance_to_json,
    model_cumulant,
    model_moment,
    read_sample_binary,
    read_sample_csv,
    sample_cumulant,
    sample_generic_instance,
    serialize_graph,
    tensor_to_json,
    trek_system_from_doc,
    write_sample_csv,
)
import multitrek.cli as cli_module
from multitrek.cli import EXIT_ERROR, EXIT_OK, EXIT_VANISHES, run


def run_cli(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    assert out.endswith("\n") and out.count("\n") == 1  # exactly one JSON line
    return code, out


def write_graph(tmp_path, g, name="graph.json"):
    path = tmp_path / name
    path.write_text(serialize_graph(g))
    return str(path)


@pytest.fixture()
def star_path(tmp_path, star):
    return write_graph(tmp_path, star, "star.json")


@pytest.fixture()
def collider_path(tmp_path, collider):
    return write_graph(tmp_path, collider, "collider.json")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", [
    ("check", "--graph", "GRAPH", "--sets", "1;2"),
    ("common-cause", "--graph", "GRAPH", "--vars", "1,2"),
    ("scan-conjecture", "--ensemble", "ENSEMBLE"),
], ids=["check", "common-cause", "scan-conjecture"])
def test_a_negative_seed_is_one_json_error(capfd, tmp_path, star, command):
    # simulate and estimate refuse one too (TestSimulate, TestEstimate).
    ensemble = tmp_path / "ens.json"
    ensemble.write_text(json.dumps({"cases": 2, "max_vertices": 4, "k": 4}))
    paths = {"GRAPH": write_graph(tmp_path, star), "ENSEMBLE": str(ensemble)}
    code = run([paths.get(arg, arg) for arg in command] + ["--seed", "-1"])
    assert (code, *capfd.readouterr()) == (
        EXIT_ERROR, '{"error":"seed must be >= 0, got -1"}\n', ""
    )


@pytest.mark.parametrize("argv", [
    (),
    ("bogus",),
    ("--seed", "1"),
    ("-h",),
    ("check",),
    ("check", "--graph", "GRAPH"),
    ("check", "--graph", "GRAPH", "--se", "1"),
    ("check", "--graph", "GRAPH", "--sets", "1;2", "--seed", "x"),
    ("check", "--graph", "GRAPH", "--sets", "1;2", "--seed", "1", "extra"),
    ("check", "--graph", "GRAPH", "--sets", "1;2", "--mode", "sure"),
    ("check", "--graph", "GRAPH", "--sets", "1;2", "--seed", "1"),
    ("check", "--help"),
    ("certify", "--h"),
    ("estimate", "--data", "x.csv", "--order", "4", "--", "more"),
    ("check", "check"),
], ids=lambda argv: " ".join(argv) or "empty")
def test_a_command_parses_as_the_top_parser_would(capfd, monkeypatch, tmp_path, star, argv):
    # run hands a known command's argv straight to the command's parser; the
    # top parser, which every argv passes through without that, gives the
    # same stdout, stderr and exit code.
    argv = [write_graph(tmp_path, star) if arg == "GRAPH" else arg for arg in argv]

    def outcome():
        try:
            code = run(list(argv))
        except SystemExit as exc:  # --help prints its usage and exits 0
            code = f"exit {exc.code}"
        return code, *capfd.readouterr()

    direct = outcome()
    monkeypatch.setattr(cli_module, "_SUBPARSERS", {})
    assert outcome() == direct
    code, out, err = direct
    if code == "exit 0":
        command = "" if argv[0] == "-h" else f"{argv[0]} "
        assert out.startswith(f"usage: multitrek {command}[-h]") and err == ""
    else:
        assert err == "" and out.count("\n") == 1
        assert ("error" in json.loads(out)) == (code == EXIT_ERROR)


class TestCheck:
    def test_star_does_not_vanish(self, capsys, star_path):
        code, out = run_cli(
            capsys, "check", "--graph", star_path, "--sets", "1;2;3", "--seed", "0"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["verdict"] == "NotVanishes"
        assert doc["mode"] == "randomized"

    def test_collider_vanishes_with_exit_10(self, capsys, collider_path):
        code, out = run_cli(
            capsys, "check", "--graph", collider_path, "--sets", "1;2;3", "--seed", "0"
        )
        assert code == EXIT_VANISHES
        assert json.loads(out)["verdict"] == "Vanishes"

    def test_certain_mode(self, capsys, collider_path):
        code, out = run_cli(
            capsys, "check", "--graph", collider_path, "--sets", "1;2;3", "--mode", "certain"
        )
        assert code == EXIT_VANISHES
        assert json.loads(out)["mode"] == "certain"

    def test_stdout_is_byte_identical_across_runs(self, capsys, star_path):
        args = ("check", "--graph", star_path, "--sets", "1,2;2,3;1,3", "--seed", "11")
        code1, out1 = run_cli(capsys, *args)
        code2, out2 = run_cli(capsys, *args)
        assert (code1, out1) == (code2, out2)

    def test_randomized_without_seed_fails(self, capsys, star_path):
        code, out = run_cli(capsys, "check", "--graph", star_path, "--sets", "1;2")
        assert code == EXIT_ERROR
        assert "seed" in json.loads(out)["error"]

    @pytest.mark.parametrize(
        "command, target", [("check", ("--sets", "1;2")), ("common-cause", ("--vars", "1,2"))]
    )
    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_trials_below_one_rejected(self, capsys, star_path, command, target, trials):
        code, out = run_cli(
            capsys, command, "--graph", star_path, *target, "--seed", "0", "--trials", trials
        )
        assert code == EXIT_ERROR
        assert json.loads(out) == {"error": f"trials must be >= 1, got {trials}"}

    def test_order_flag_must_match_sets(self, capsys, star_path):
        code, out = run_cli(
            capsys, "check", "--graph", star_path, "--sets", "1;2", "--order", "3", "--seed", "0"
        )
        assert code == EXIT_ERROR
        assert "does not match" in json.loads(out)["error"]

    def test_missing_graph_file(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "check", "--graph", str(tmp_path / "nope.json"), "--sets", "1;2", "--seed", "0"
        )
        assert code == EXIT_ERROR
        assert "error" in json.loads(out)

    def test_malformed_sets(self, capsys, star_path):
        code, out = run_cli(capsys, "check", "--graph", star_path, "--sets", "a;b", "--seed", "0")
        assert code == EXIT_ERROR
        assert "--sets expects integers" in json.loads(out)["error"]

    def test_unknown_command_is_a_json_error(self, capsys):
        code, out = run_cli(capsys, "frobnicate")
        assert code == EXIT_ERROR
        assert "error" in json.loads(out)


class TestCommonCause:
    def test_star_children_share_the_hub(self, capsys, star_path):
        code, out = run_cli(
            capsys, "common-cause", "--graph", star_path, "--vars", "1,2,3", "--seed", "0"
        )
        assert code == EXIT_OK
        assert json.loads(out)["verdict"] == "NotVanishes"

    def test_collider_parents_share_nothing(self, capsys, collider_path):
        code, out = run_cli(
            capsys, "common-cause", "--graph", collider_path, "--vars", "1,2", "--seed", "0"
        )
        assert code == EXIT_VANISHES

    def test_single_variable_rejected(self, capsys, star_path):
        code, out = run_cli(capsys, "common-cause", "--graph", star_path, "--vars", "1", "--seed", "0")
        assert code == EXIT_ERROR


class TestParametrize:
    def test_cumulant_and_moment_tensors(self, capsys, tmp_path, chain2):
        gpath = write_graph(tmp_path, chain2)
        inst = sample_generic_instance(chain2, 3, 4)
        ipath = tmp_path / "inst.json"
        ipath.write_text(instance_to_json(inst))
        code, out = run_cli(
            capsys, "parametrize", "--graph", gpath, "--instance", str(ipath), "--order", "3"
        )
        assert code == EXIT_OK
        assert out.strip() == tensor_to_json(model_cumulant(chain2, inst, 3))
        code, out = run_cli(
            capsys, "parametrize", "--graph", gpath, "--instance", str(ipath),
            "--order", "3", "--kind", "moment",
        )
        assert code == EXIT_OK
        assert out.strip() == tensor_to_json(model_moment(chain2, inst, 3))

    def test_missing_order_in_instance(self, capsys, tmp_path, chain2):
        gpath = write_graph(tmp_path, chain2)
        inst = sample_generic_instance(chain2, 2, 4)
        ipath = tmp_path / "inst.json"
        ipath.write_text(instance_to_json(inst))
        code, out = run_cli(
            capsys, "parametrize", "--graph", gpath, "--instance", str(ipath), "--order", "4"
        )
        assert code == EXIT_ERROR
        assert "order" in json.loads(out)["error"]

    @pytest.mark.parametrize("order", ["0", "1"])
    @pytest.mark.parametrize("kind", ["cumulant", "moment"])
    def test_order_below_two_is_an_error(self, capsys, tmp_path, chain2, order, kind):
        gpath = write_graph(tmp_path, chain2)
        ipath = tmp_path / "inst.json"
        ipath.write_text(instance_to_json(sample_generic_instance(chain2, 3, 4)))
        code, out = run_cli(
            capsys, "parametrize", "--graph", gpath, "--instance", str(ipath),
            "--order", order, "--kind", kind,
        )
        assert code == EXIT_ERROR
        assert json.loads(out) == {"error": "order must be >= 2"}

    @pytest.mark.parametrize("order", ["0", "1", "2"])
    @pytest.mark.parametrize("noise_order", ["0", "1"])
    def test_instance_noise_order_below_two_is_a_json_error(
        self, capsys, tmp_path, chain2, order, noise_order
    ):
        gpath = write_graph(tmp_path, chain2)
        ipath = tmp_path / "inst.json"
        diag = {"diag": {"1": "1/1", "2": "2/1"}}
        noise = {noise_order: diag, "2": diag}
        ipath.write_text(json.dumps({"lambda": {"1->2": "3/1"}, "noise": noise}))
        code, out = run_cli(
            capsys, "parametrize", "--graph", gpath, "--instance", str(ipath), "--order", order
        )
        assert code == EXIT_ERROR
        assert json.loads(out) == {"error": f"/noise/{noise_order}: order must be >= 2"}

    @pytest.mark.parametrize(
        "instance, where",
        [
            ({"lambda": {"1->2": 3}, "noise": {"2": {"diag": {"1": "1/1"}}}}, "/lambda/1->2"),
            ({"lambda": [], "noise": {"2": {"diag": {"1": "1/1"}}}}, "/lambda"),
            ({"lambda": {}, "noise": {"2": {"diag": {"x": "1/1"}}}}, "/noise/2/diag/x"),
            ({"lambda": {}, "noise": {"2": {"diag": {"1.0": "1/1"}}}}, "/noise/2/diag/1.0"),
        ],
        ids=["numeric-rational", "lambda-array", "diag-name", "diag-float"],
    )
    def test_malformed_instance_is_a_json_error(self, capsys, tmp_path, chain2, instance, where):
        gpath = write_graph(tmp_path, chain2)
        ipath = tmp_path / "inst.json"
        ipath.write_text(json.dumps(instance))
        code, out = run_cli(
            capsys, "parametrize", "--graph", gpath, "--instance", str(ipath), "--order", "2"
        )
        assert code == EXIT_ERROR
        assert json.loads(out)["error"].startswith(where + ":")


def write_model(tmp_path, lam, noise):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"lambda": lam, "noise": noise}))
    return str(path)


class TestSimulate:
    def test_csv_output(self, capsys, tmp_path, chain2):
        gpath = write_graph(tmp_path, chain2)
        mpath = write_model(
            tmp_path, {"1->2": "1/2"}, {"1": ["exponential", 1], "2": ["uniform", 1]}
        )
        out_path = tmp_path / "data.csv"
        code, out = run_cli(
            capsys, "simulate", "--graph", gpath, "--model", mpath,
            "--n", "40", "--seed", "3", "--out", str(out_path),
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc == {
            "cols": 2, "format": "csv", "path": str(out_path), "rows": 40, "vertices": [1, 2],
        }
        sm = read_sample_csv(out_path)
        assert sm.data.shape == (40, 2)

    @pytest.mark.filterwarnings("error")
    def test_negative_seed_is_one_json_error(self, capfd, tmp_path, chain2):
        gpath = write_graph(tmp_path, chain2)
        mpath = write_model(tmp_path, {"1->2": "1/2"}, {"1": ["uniform", 1], "2": ["uniform", 1]})
        code = run(["simulate", "--graph", gpath, "--model", mpath,
                    "--n", "5", "--seed", "-1", "--out", str(tmp_path / "x.csv")])
        assert (code, *capfd.readouterr()) == (
            EXIT_ERROR, '{"error":"seed must be >= 0, got -1"}\n', ""
        )
        assert not (tmp_path / "x.csv").exists()

    def test_binary_output_and_determinism(self, capsys, tmp_path, chain2):
        gpath = write_graph(tmp_path, chain2)
        mpath = write_model(tmp_path, {"1->2": 0.5}, {"1": ["laplace", 1], "2": ["gamma", 2, 1]})
        p1, p2 = tmp_path / "a.mtrk", tmp_path / "b.mtrk"
        for p in (p1, p2):
            code, _ = run_cli(
                capsys, "simulate", "--graph", gpath, "--model", mpath,
                "--n", "25", "--seed", "9", "--out", str(p),
            )
            assert code == EXIT_OK
        assert p1.read_bytes() == p2.read_bytes()
        assert np.array_equal(read_sample_binary(p1).data, read_sample_binary(p2).data)

    def test_model_file_must_have_both_keys(self, capsys, tmp_path, chain2):
        gpath = write_graph(tmp_path, chain2)
        mpath = tmp_path / "model.json"
        mpath.write_text(json.dumps({"lambda": {}}))
        code, out = run_cli(
            capsys, "simulate", "--graph", gpath, "--model", str(mpath),
            "--n", "5", "--seed", "0", "--out", str(tmp_path / "x.csv"),
        )
        assert code == EXIT_ERROR
        assert "noise" in json.loads(out)["error"]

    @pytest.mark.parametrize(
        "noise, message",
        [
            ({"1": 5, "2": ["uniform", 1]}, "[distribution, params...]"),
            ({"1": ["uniform", float("inf")], "2": ["uniform", 1]}, "not a finite number"),
            ({"1": ["uniform", 10**400], "2": ["uniform", 1]}, "/noise/1: too large for a float"),
            ({"1": ["uniform", f"{10**400}/3"], "2": ["uniform", 1]}, "/noise/1: too large for a float"),
            ({"1": [["uniform"], 1], "2": ["uniform", 1]}, "unknown noise tag ['uniform'] at vertex 1"),
        ],
        ids=["not-a-list", "infinite-parameter", "huge-parameter", "huge-rational-parameter",
             "list-tag"],
    )
    def test_malformed_noise_spec_is_a_json_error(self, capsys, tmp_path, chain2, noise, message):
        gpath = write_graph(tmp_path, chain2)
        mpath = write_model(tmp_path, {"1->2": "1/2"}, noise)
        code, out = run_cli(
            capsys, "simulate", "--graph", gpath, "--model", mpath,
            "--n", "5", "--seed", "0", "--out", str(tmp_path / "x.csv"),
        )
        assert code == EXIT_ERROR
        assert message in json.loads(out)["error"]

    @pytest.mark.parametrize("weight", [10**400, f"-{10**400}/7"], ids=["integer", "rational"])
    def test_weight_too_large_for_a_float_is_refused(self, capsys, tmp_path, chain2, weight):
        gpath = write_graph(tmp_path, chain2)
        mpath = write_model(tmp_path, {"1->2": weight}, {"1": ["uniform", 1], "2": ["uniform", 1]})
        code, out = run_cli(
            capsys, "simulate", "--graph", gpath, "--model", mpath,
            "--n", "5", "--seed", "0", "--out", str(tmp_path / "x.csv"),
        )
        assert code == EXIT_ERROR
        assert json.loads(out) == {"error": "/lambda/1->2: too large for a float"}

    @pytest.mark.parametrize(
        "lam, noise, where",
        [
            ({"1->2": True}, {"1": ["uniform", 1], "2": ["uniform", 1]}, "/lambda/1->2"),
            ({"1->2": "1/2"}, {"1": ["uniform", True], "2": ["uniform", 1]}, "/noise/1"),
        ],
        ids=["lambda", "noise"],
    )
    def test_booleans_are_not_numbers(self, capsys, tmp_path, chain2, lam, noise, where):
        gpath = write_graph(tmp_path, chain2)
        mpath = write_model(tmp_path, lam, noise)
        code, out = run_cli(
            capsys, "simulate", "--graph", gpath, "--model", mpath,
            "--n", "5", "--seed", "0", "--out", str(tmp_path / "x.csv"),
        )
        assert code == EXIT_ERROR
        assert json.loads(out) == {
            "error": f"{where}: a rational must be an 'a/b' string, got True"
        }

    @pytest.mark.parametrize(
        "spec", [["uniform", 1e308], ["laplace", 1e308], ["exponential", 1e-320]],
        ids=["uniform", "laplace", "exponential"],
    )
    def test_noise_past_the_float_range_is_one_json_error(self, tmp_path, chain2, spec):
        # The real interpreter, so that a numpy warning would reach stderr.
        gpath = write_graph(tmp_path, chain2)
        mpath = write_model(tmp_path, {"1->2": "1/2"}, {"1": spec, "2": ["uniform", 1]})
        proc = subprocess.run(
            [sys.executable, "-m", "multitrek.cli", "simulate", "--graph", gpath, "--model", mpath,
             "--n", "200", "--seed", "0", "--out", str(tmp_path / "x.csv")],
            capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stderr) == (EXIT_ERROR, "")
        assert proc.stdout == '{"error":"the noise at vertex 1 leaves the float range"}\n'


@pytest.fixture()
def data_csv(capsys, tmp_path, chain2):
    gpath = write_graph(tmp_path, chain2)
    mpath = write_model(tmp_path, {"1->2": "1"}, {"1": ["exponential", 1], "2": ["uniform", 1]})
    out_path = tmp_path / "data.csv"
    code = run(["simulate", "--graph", gpath, "--model", mpath,
                "--n", "500", "--seed", "21", "--out", str(out_path)])
    capsys.readouterr()
    assert code == EXIT_OK
    return str(out_path)


class TestEstimate:
    def test_tensor_mode_matches_library_call(self, capsys, data_csv):
        code, out = run_cli(capsys, "estimate", "--data", data_csv, "--order", "2")
        assert code == EXIT_OK
        assert out.strip() == tensor_to_json(sample_cumulant(read_sample_csv(data_csv), 2))

    def test_bootstrap_mode_needs_seed(self, capsys, data_csv):
        code, out = run_cli(
            capsys, "estimate", "--data", data_csv, "--order", "2", "--sets", "1;2"
        )
        assert code == EXIT_ERROR
        assert "--seed" in json.loads(out)["error"]

    def test_bootstrap_mode_reports_the_flag(self, capsys, data_csv):
        args = ("estimate", "--data", data_csv, "--order", "2", "--sets", "1;2",
                "--boot", "30", "--seed", "6")
        code, out = run_cli(capsys, *args)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert set(doc) == {"statistic", "bootstrap_sd", "flag"}
        code2, out2 = run_cli(capsys, *args)
        assert out2 == out

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "mode, error",
        [
            ((), "the order-4 sample cumulant at vertices [1, 1, 1, 1] leaves the float range"),
            (("--sets", "1;1;2;2", "--boot", "4", "--seed", "3"),
             "the bootstrap standard deviation leaves the float range"),
            (("--sets", "1;1;1;1", "--boot", "4", "--seed", "3"),
             "the bootstrap statistic leaves the float range"),
            (("--sets", "1;2;1;2", "--boot", "4", "--seed", "-1"), "seed must be >= 0, got -1"),
        ],
        ids=["tensor", "bootstrap-sd", "bootstrap-statistic", "negative-seed"],
    )
    def test_refusals_are_one_json_error(self, capfd, tmp_path, mode, error):
        big = tmp_path / "big.csv"
        big.write_text("1,2\n1e+100,2.0\n-1e+100,1.0\n3.0,0.5\n")
        code = run(["estimate", "--data", str(big), "--order", "4", *mode])
        out, err = capfd.readouterr()
        assert (code, json.loads(out), out.count("\n"), err) == (EXIT_ERROR, {"error": error}, 1, "")

    @pytest.mark.parametrize("mode", [(), ("--sets", ";".join(["1"] * 40), "--seed", "1")])
    def test_a_large_order_is_one_prompt_json_error(self, capsys, data_csv, mode):
        start = time.perf_counter()
        code, out = run_cli(capsys, "estimate", "--data", data_csv, "--order", "40", *mode)
        assert time.perf_counter() - start < 2.0  # refused before any partition is listed
        assert (code, json.loads(out)) == (
            EXIT_ERROR, {"error": "order-40 cumulant terms exceeds budget of 1000000"}
        )

    def test_unreadable_data_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.mtrk"
        bad.write_bytes(b"JUNKJUNKJUNK")
        code, out = run_cli(capsys, "estimate", "--data", str(bad), "--order", "2")
        assert code == EXIT_ERROR

    @pytest.mark.parametrize("mode", [(), ("--sets", "1;2", "--boot", "5", "--seed", "0")])
    def test_zero_row_data_file_is_an_error(self, capsys, tmp_path, mode):
        empty = tmp_path / "empty.mtrk"
        empty.write_bytes(b"MTRK" + struct.pack("<II", 0, 3) + bytes(4))  # 0 rows, 3 columns
        code, out = run_cli(capsys, "estimate", "--data", str(empty), "--order", "2", *mode)
        assert code == EXIT_ERROR
        assert "at least one row" in json.loads(out)["error"]

    def test_header_only_csv_is_a_zero_row_error(self, capsys, tmp_path):
        header_only = tmp_path / "header.csv"
        header_only.write_text("1,2\n")
        code, out = run_cli(capsys, "estimate", "--data", str(header_only), "--order", "2")
        assert code == EXIT_ERROR
        assert json.loads(out) == {"error": "sample data needs at least one row"}

    def test_repeated_header_label_is_an_error(self, capsys, tmp_path):
        repeated = tmp_path / "repeated.csv"
        repeated.write_text("1,1,2\n0.5,1.0,2.0\n1.5,2.0,0.25\n")
        code, out = run_cli(
            capsys, "estimate", "--data", str(repeated), "--order", "2", "--sets", "1;2",
            "--boot", "5", "--seed", "0",
        )
        assert code == EXIT_ERROR
        assert json.loads(out) == {"error": "vertex labels [1, 1, 2] repeat a vertex"}

    def test_ragged_csv_row_is_an_error(self, capsys, tmp_path):
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("1,2\n0.5,1.5\n0.5\n")
        code, out = run_cli(capsys, "estimate", "--data", str(ragged), "--order", "2")
        assert code == EXIT_ERROR
        assert json.loads(out) == {"error": "/rows/1: expected 2 cells, found 1"}

    def test_non_canonical_data_cell_is_an_error(self, capsys, tmp_path):
        odd = tmp_path / "odd.csv"
        odd.write_text("1,2\n1_0,2.5\n 3 ,\u0663\n", encoding="utf-8")
        code, out = run_cli(capsys, "estimate", "--data", str(odd), "--order", "2")
        assert code == EXIT_ERROR
        assert json.loads(out) == {"error": "/rows/0/0: not a number: '1_0'"}


class TestScanConjecture:
    def test_small_scan(self, capsys, tmp_path):
        epath = tmp_path / "ens.json"
        epath.write_text(json.dumps({"cases": 3, "max_vertices": 4, "k": 4}))
        args = ("scan-conjecture", "--ensemble", str(epath), "--seed", "5", "--trials", "2")
        code, out = run_cli(capsys, *args)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["cases_scanned"] == 3
        code2, out2 = run_cli(capsys, *args)
        assert out2 == out

    def test_zero_trials_rejected(self, capsys, tmp_path):
        # With no trials every case would read as all-zero and count as a
        # lower-order check without evaluating anything.
        epath = tmp_path / "ens.json"
        epath.write_text(json.dumps({"cases": 3, "max_vertices": 4, "k": 4}))
        code, out = run_cli(
            capsys, "scan-conjecture", "--ensemble", str(epath), "--seed", "5", "--trials", "0"
        )
        assert code == EXIT_ERROR
        assert json.loads(out) == {"error": "trials must be >= 1, got 0"}

    def test_order_below_four_rejected(self, capsys, tmp_path):
        epath = tmp_path / "ens.json"
        epath.write_text(json.dumps({"cases": 1}))
        code, out = run_cli(
            capsys, "scan-conjecture", "--ensemble", str(epath), "--seed", "0", "--order", "3"
        )
        assert code == EXIT_ERROR
        assert ">= 4" in json.loads(out)["error"]

    @pytest.mark.parametrize(
        "ensemble, message",
        [
            ({"cases": [1], "k": 4}, "ensemble cases must be a number, got [1]"),
            ([4], "the ensemble file must hold a JSON object"),
            ({"k": 4, "edge_prob": None}, "ensemble edge_prob must be a number, got None"),
            ({"k": 4, "edge_prob": 10**400}, "/edge_prob: too large for a float"),
            ({"k": 4, "edge_prob": f"{10**400}/1"}, "/edge_prob: too large for a float"),
            ({"k": 4, "max_vertices": 10**400}, "/max_vertices: too large for a float"),
        ],
        ids=["list-cases", "top-level-list", "null-edge-prob", "huge-edge-prob",
             "huge-rational-edge-prob", "huge-max-vertices"],
    )
    def test_malformed_ensemble_is_one_json_error(self, capsys, tmp_path, ensemble, message):
        epath = tmp_path / "ens.json"
        epath.write_text(json.dumps(ensemble))
        code, out = run_cli(capsys, "scan-conjecture", "--ensemble", str(epath), "--seed", "0")
        assert code == EXIT_ERROR
        assert json.loads(out) == {"error": message}

    @pytest.mark.parametrize(
        "ensemble, message",
        [
            ({"k": 4.5, "cases": 2, "max_vertices": 4}, "ensemble k must be a whole number, got 4.5"),
            ({"k": 4, "cases": 2.7, "max_vertices": 4}, "ensemble cases must be a whole number, got 2.7"),
            ({"k": 4, "max_vertices": 4.5}, "ensemble max_vertices must be a whole number, got 4.5"),
            ({"k": 4, "set_size": "3/2"}, "ensemble set_size must be a whole number, got '3/2'"),
            ({"k": 4, "cases": True}, "ensemble cases must be a number, got True"),
            ({"k": True}, "ensemble k must be a number, got True"),
        ],
        ids=["half-k", "fractional-cases", "fractional-max-vertices", "fraction-set-size",
             "bool-cases", "bool-k"],
    )
    def test_counts_must_be_whole_numbers(self, capsys, tmp_path, ensemble, message):
        epath = tmp_path / "ens.json"
        epath.write_text(json.dumps(ensemble))
        code, out = run_cli(capsys, "scan-conjecture", "--ensemble", str(epath), "--seed", "0")
        assert code == EXIT_ERROR
        assert json.loads(out) == {"error": message}

    def test_whole_counts_may_be_floats_or_strings(self, capsys, tmp_path):
        outs = []
        for ensemble in (
            {"k": 4, "cases": 3, "max_vertices": 4, "set_size": 1},
            {"k": 4.0, "cases": "3", "max_vertices": 4.0, "set_size": "1"},
        ):
            epath = tmp_path / "ens.json"
            epath.write_text(json.dumps(ensemble))
            code, out = run_cli(capsys, "scan-conjecture", "--ensemble", str(epath), "--seed", "5")
            assert code == EXIT_OK
            outs.append(out)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["cases_scanned"] == 3


class TestCertify:
    def test_valid_decision_verifies(self, capsys, tmp_path, star):
        gpath = write_graph(tmp_path, star)
        decision = decide_vanishing(star, ((1,), (2,), (3,)), mode="randomized", seed=4)
        dpath = tmp_path / "decision.json"
        dpath.write_text(decision.to_json())
        code, out = run_cli(capsys, "certify", "--decision", str(dpath), "--graph", gpath)
        assert code == EXIT_OK
        assert json.loads(out) == {"reason": "certificate verified", "valid": True}

    def test_tampered_decision_fails(self, capsys, tmp_path, star):
        gpath = write_graph(tmp_path, star)
        decision = decide_vanishing(star, ((1,), (2,), (3,)), mode="randomized", seed=4)
        doc = json.loads(decision.to_json())
        doc["verdict"] = "Vanishes"
        dpath = tmp_path / "tampered.json"
        dpath.write_text(json.dumps(doc))
        code, out = run_cli(capsys, "certify", "--decision", str(dpath), "--graph", gpath)
        assert code == EXIT_ERROR
        assert json.loads(out)["valid"] is False

    def test_decision_array_is_invalid(self, capsys, tmp_path, star):
        gpath = write_graph(tmp_path, star)
        dpath = tmp_path / "array.json"
        dpath.write_text("[]")
        code, out = run_cli(capsys, "certify", "--decision", str(dpath), "--graph", gpath)
        assert code == EXIT_ERROR
        assert json.loads(out) == {"reason": "a decision document must be a JSON object", "valid": False}


class TestBlindSpotDecision:
    # Configuration where the paper's criterion finds no intersection-free
    # trek system but the order-3 determinant is nonzero.  The verdict is
    # NotVanishes with a witness whose side-1 paths meet, which the odd-order
    # rule allows; gap documents written by earlier versions still certify.
    LEGACY_GAP_SEED5 = (
        '{"algebraic_record":[{"determinant":"-37396960006800/1","seed":5000016},'
        '{"determinant":"-230916075236/1","seed":5000017},'
        '{"determinant":"-117448362551520/1","seed":5000018},'
        '{"determinant":"65502244297728/1","seed":5000019},'
        '{"determinant":"-873351300096/1","seed":5000020}],'
        '"combinatorial_certificate":{"gap":"no intersection-free trek system exists, '
        "yet the determinant is nonzero: at orders >= 3 absence of a system is not "
        "sufficient for vanishing (systems meeting only on side 1 need not cancel), "
        'so the verdict follows the algebraic record",'
        '"obstructions":[{"blocked_side":1,"top":[2,3]}]},'
        '"graph_hash":"baa06edbc468e844b119c63a06b42c9644c15a8395a88ae647ee9b02bbf3fe28",'
        '"mode":"randomized","order":3,"seed":5,"sides":[[3,4],[2,3],[2,4]],'
        '"trials":5,"value_range":997,"verdict":"NotVanishes"}'
    )

    def _graph(self, tmp_path):
        g = MixedGraph((1, 2, 3, 4, 5), ((2, 3), (2, 5), (3, 4), (3, 5)))
        return g, write_graph(tmp_path, g)

    def _certify(self, capsys, gpath, dpath):
        code, out = run_cli(capsys, "certify", "--decision", str(dpath), "--graph", gpath)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["valid"] is True
        return doc["reason"]

    def test_check_reports_gap_not_vanishes(self, capsys, tmp_path):
        _, gpath = self._graph(tmp_path)
        code, out = run_cli(
            capsys, "check", "--graph", gpath, "--sets", "3,4;2,3;2,4", "--seed", "5"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["verdict"] == "NotVanishes"
        certificate = doc["combinatorial_certificate"]
        assert "gap" not in certificate
        system = trek_system_from_doc(certificate["trek_system"])
        meeting = find_sided_intersection(system)
        assert meeting is not None and meeting.side == 1
        assert find_sided_intersection(system, open_first_side=True) is None

    def test_gap_decision_certifies(self, capsys, tmp_path):
        g, gpath = self._graph(tmp_path)
        decision = decide_vanishing(
            g, ((3, 4), (2, 3), (2, 4)), mode="randomized", seed=5
        )
        dpath = tmp_path / "decision.json"
        dpath.write_text(decision.to_json())
        assert self._certify(capsys, gpath, dpath) == "certificate verified"

        legacy = tmp_path / "gap.json"
        legacy.write_text(self.LEGACY_GAP_SEED5)
        assert "gap verified" in self._certify(capsys, gpath, legacy)


class TestOutFlag:
    def test_out_file_copies_stdout(self, capsys, tmp_path, star_path):
        copy = tmp_path / "copy.json"
        code, out = run_cli(
            capsys, "check", "--graph", star_path, "--sets", "1;2;3",
            "--seed", "2", "--out", str(copy),
        )
        assert code == EXIT_OK
        assert copy.read_text() == out

    def test_out_overwrites_a_longer_file_in_place(self, capsys, tmp_path, star_path):
        copy, link = tmp_path / "copy.json", tmp_path / "link.json"
        copy.write_text("{" + "x" * 20_000 + "}\n")
        os.link(copy, link)
        code, out = run_cli(
            capsys, "check", "--graph", star_path, "--sets", "1;2;3",
            "--seed", "2", "--out", str(copy),
        )
        assert code == EXIT_OK
        assert copy.read_bytes() == link.read_bytes() == out.encode()

    @pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
    @pytest.mark.parametrize("graph, expected", [("star", EXIT_OK), ("collider", EXIT_VANISHES)])
    def test_out_to_the_null_device_keeps_exit_and_stdout(
        self, capsys, tmp_path, request, graph, expected
    ):
        gpath = write_graph(tmp_path, request.getfixturevalue(graph))
        args = ("check", "--graph", gpath, "--sets", "1;2;3", "--seed", "0")
        code, out = run_cli(capsys, *args, "--out", os.devnull)
        assert (code, out) == (expected, run_cli(capsys, *args)[1])
        assert json.loads(out)["verdict"] in ("NotVanishes", "Vanishes")

    @pytest.mark.parametrize("command", [
        ("check", "--graph", "GRAPH", "--sets", "1;2;3", "--seed", "1"),
        ("parametrize", "--graph", "GRAPH", "--instance", "INSTANCE", "--order", "3"),
        ("estimate", "--data", "DATA", "--order", "2"),
        ("scan-conjecture", "--ensemble", "ENSEMBLE", "--seed", "5", "--trials", "2"),
        ("certify", "--decision", "DECISION", "--graph", "GRAPH"),
    ], ids=lambda command: command[0])
    def test_a_failed_write_prints_only_the_error(self, capsys, tmp_path, star, command):
        sm = SampleMatrix(data=np.arange(12.0).reshape(6, 2) ** 2, vertices=(1, 2))
        paths = {
            "GRAPH": write_graph(tmp_path, star),
            "INSTANCE": tmp_path / "inst.json",
            "DATA": tmp_path / "data.csv",
            "ENSEMBLE": tmp_path / "ens.json",
            "DECISION": tmp_path / "decision.json",
        }
        paths["INSTANCE"].write_text(instance_to_json(sample_generic_instance(star, 3, 4)))
        write_sample_csv(sm, paths["DATA"])
        paths["ENSEMBLE"].write_text(json.dumps({"cases": 2, "max_vertices": 4, "k": 4}))
        paths["DECISION"].write_text(decide_vanishing(star, ((1,), (2,), (3,)), seed=4).to_json())
        before = sorted(os.listdir(tmp_path))
        out_path = str(tmp_path / "missing" / "out.json")
        argv = [str(paths.get(arg, arg)) for arg in command]
        code, out = run_cli(capsys, *argv, "--out", out_path)
        assert code == EXIT_ERROR
        assert json.loads(out) == {"error": f"[Errno 2] No such file or directory: {out_path!r}"}
        assert sorted(os.listdir(tmp_path)) == before
        code, out = run_cli(capsys, *argv, "--out", str(tmp_path))  # a directory
        assert (code, list(json.loads(out))) == (EXIT_ERROR, ["error"])
        assert "Is a directory" in out


class TestInputReaders:
    """Every id in argv or a file is read in canonical decimal, and nothing escapes as a traceback.

    Each bad spelling maps to the id that int() would have misread it as;
    the graph holds that id, so a misread would run on a subtensor or a
    model the user never named.  Spaces around a --sets or --vars token
    are part of the set syntax, so " 3" is only a bad spelling in files.
    """

    GRAPH = MixedGraph((1, 2, 3, 10), ((1, 2), (1, 3), (1, 10)))
    MISREAD = {"1_0": 10, "+3": 3, "03": 3, "\u0663": 3}
    MISREAD_IN_FILES = {**MISREAD, " 3": 3}
    DEEP = "[" * 100_000 + "]" * 100_000

    @pytest.mark.parametrize("bad", MISREAD)
    def test_sets_and_vars_refuse_non_canonical_ids(self, capsys, tmp_path, bad):
        gpath = write_graph(tmp_path, self.GRAPH)
        code, out = run_cli(capsys, "check", "--graph", gpath, "--sets", f"{bad};2", "--seed", "1")
        assert code == EXIT_ERROR
        assert json.loads(out)["error"].startswith("--sets expects integers")
        code, out = run_cli(capsys, "common-cause", "--graph", gpath, "--vars", f"{bad},2", "--seed", "1")
        assert code == EXIT_ERROR
        assert json.loads(out)["error"].startswith("--vars expects integers")

    @pytest.mark.parametrize("text", ["2,,3", "2,3,", ",2,3"])
    def test_sets_and_vars_refuse_empty_tokens(self, capsys, tmp_path, text):
        gpath = write_graph(tmp_path, self.GRAPH)
        code, out = run_cli(capsys, "common-cause", "--graph", gpath, "--vars", text, "--seed", "1")
        assert (code, json.loads(out)) == (
            EXIT_ERROR, {"error": f"--vars expects integers like '1,2,3', got {text!r}"}
        )
        code, out = run_cli(capsys, "check", "--graph", gpath, "--sets", f"{text};1", "--seed", "1")
        assert (code, json.loads(out)) == (
            EXIT_ERROR, {"error": f"--sets expects integers like '4,6;5,8;7,8', got '{text};1'"}
        )

    @pytest.mark.parametrize("option, value", [("--seed", "1_0"), ("--trials", "+5"), ("--budget", "010")])
    def test_integer_options_refuse_non_canonical_numbers(self, capsys, tmp_path, option, value):
        gpath = write_graph(tmp_path, self.GRAPH)
        argv = {"--seed": "1", "--trials": "5", "--budget": "10", option: value}
        code, out = run_cli(capsys, "check", "--graph", gpath, "--sets", "2;3",
                            *itertools.chain.from_iterable(argv.items()))
        assert code == EXIT_ERROR
        assert json.loads(out) == {"error": f"argument {option}: invalid int value: {value!r}"}

    @pytest.mark.parametrize("bad", MISREAD_IN_FILES)
    @pytest.mark.parametrize("where", ["lambda", "noise"])
    def test_model_keys_refuse_non_canonical_ids(self, capsys, tmp_path, bad, where):
        vertex = self.MISREAD_IN_FILES[bad]
        lam = {f"1->{v}": "1/2" for v in (2, 3, 10)}
        noise = {str(v): ["uniform", 1] for v in self.GRAPH.vertices}
        if where == "lambda":
            lam[f"1->{bad}"] = lam.pop(f"1->{vertex}")
            pointer, message = f"/lambda/1->{bad}", "expected 'u->v' key"
        else:
            noise[bad] = noise.pop(str(vertex))
            pointer, message = f"/noise/{bad}", "vertex id must be an integer"
        gpath = write_graph(tmp_path, self.GRAPH)
        mpath = write_model(tmp_path, lam, noise)
        code, out = run_cli(capsys, "simulate", "--graph", gpath, "--model", mpath,
                            "--n", "5", "--seed", "0", "--out", str(tmp_path / "x.csv"))
        assert code == EXIT_ERROR
        assert json.loads(out) == {"error": f"{pointer}: {message}"}

    @pytest.mark.parametrize("option", ["--graph", "--instance", "--model", "--ensemble", "--decision", "hyper"])
    def test_nesting_too_deep_to_decode_is_a_json_error(self, capsys, tmp_path, option):
        gpath = write_graph(tmp_path, self.GRAPH)
        deep = tmp_path / "deep.json"
        deep.write_text(self.DEEP)
        argv = {
            "--graph": ["check", "--graph", str(deep), "--sets", "2;3", "--seed", "1"],
            "--instance": ["parametrize", "--graph", gpath, "--instance", str(deep), "--order", "2"],
            "--model": ["simulate", "--graph", gpath, "--model", str(deep),
                        "--n", "5", "--seed", "0", "--out", str(tmp_path / "x.csv")],
            "--ensemble": ["scan-conjecture", "--ensemble", str(deep), "--seed", "1"],
            "--decision": ["certify", "--decision", str(deep), "--graph", gpath],
            "hyper": ["parametrize", "--graph", gpath, "--instance", str(deep), "--order", "2"],
        }[option]
        pointer = "/"
        if option == "hyper":
            hyper = {"lambda": {}, "noise": {"2": {"diag": {"1": "1"}, "hyper": {self.DEEP: "1"}}}}
            deep.write_text(json.dumps(hyper))
            pointer = f"/noise/2/hyper/{self.DEEP}"
        code, out = run_cli(capsys, *argv)
        assert code == EXIT_ERROR
        assert json.loads(out)["error"].startswith(f"{pointer}: invalid JSON: ")


class TestPinnedStdout:
    """Seeded commands whose stdout bytes and exit codes are pinned.

    The expected lines were printed by the version that evaluated every
    path sum and determinant in Fraction arithmetic; int arithmetic on
    integral parameters must reproduce them byte for byte.  The order-5
    moment line was printed by the version that pushed a separate
    noise-moment tensor through the path matrix; the partition sum over
    model cumulants must reproduce it.  The instance file mixes integral
    and non-integral rationals.  The order-2 decisions come from the
    doubled-graph flow: a witness system, and a separator that names the
    latent of VANISHING_GRAPH's hyperedge (canonical-DAG id 5).
    """

    GRAPH = MixedGraph((1, 2, 3, 4), ((1, 2), (1, 3), (2, 4), (3, 4)), ((2, 3),))
    PARAM_GRAPH = MixedGraph((1, 2, 3), ((1, 2), (1, 3), (2, 3)))
    VANISHING_GRAPH = MixedGraph((1, 2, 3, 4), ((3, 4),), ((1, 2, 3),))
    DECISIONS = {
        "decision.json": "check",
        "decision-2.json": "check-order-2",
        "decision-2v.json": "check-order-2-vanishes",
    }
    INSTANCE = {
        "lambda": {"1->2": "2/1", "1->3": "-3/2", "2->3": "5/1"},
        "noise": {str(o): {"diag": {"1": f"{o}/1", "2": "-1/1", "3": "1/3"}} for o in (2, 3, 4, 5)},
    }
    ENSEMBLE = {"max_vertices": 5, "cases": 10, "k": 4, "edge_prob": "1/2"}
    COMMANDS = {
        "check": ("check", "--graph", "g.json", "--sets", "2,3;3,4;2,4", "--seed", "7"),
        "certain": ("check", "--graph", "g.json", "--sets", "2,3;3,4;2,4", "--mode", "certain"),
        "certify": ("certify", "--graph", "g.json", "--decision", "decision.json"),
        "check-order-2": ("check", "--graph", "g.json", "--sets", "2,4;1,3", "--seed", "7"),
        "certify-order-2": ("certify", "--graph", "g.json", "--decision", "decision-2.json"),
        "check-order-2-vanishes": (
            "check", "--graph", "v.json", "--sets", "1,2;3,4", "--seed", "7",
        ),
        "certify-order-2-vanishes": (
            "certify", "--graph", "v.json", "--decision", "decision-2v.json",
        ),
        "common-cause": ("common-cause", "--graph", "g.json", "--vars", "2,3,4", "--seed", "7"),
        "parametrize-cumulant": (
            "parametrize", "--graph", "h.json", "--instance", "inst.json", "--order", "3",
        ),
        "parametrize-moment": (
            "parametrize", "--graph", "h.json", "--instance", "inst.json", "--order", "4",
            "--kind", "moment",
        ),
        "parametrize-moment-5": (
            "parametrize", "--graph", "h.json", "--instance", "inst.json", "--order", "5",
            "--kind", "moment",
        ),
        "scan-conjecture": ("scan-conjecture", "--ensemble", "ens.json", "--seed", "3", "--trials", "2"),
    }
    EXPECTED = {
        "check": (
            0,
            '{"algebraic_record":[{"determinant":"-14091777154425023739172935/1",'
            '"seed":7000022},{"determinant":"508880242842461206481685632/1","seed":7000023},'
            '{"determinant":"70608406573341770752481436/1","seed":7000024},'
            '{"determinant":"-7107615804824605965220800/1","seed":7000025},'
            '{"determinant":"-527450892636733130714031072/1","seed":7000026}],'
            '"combinatorial_certificate":{"trek_system":{"permutations":[[1,0],[0,1]],'
            '"side_endpoints":[[2,3],[3,4],[2,4]],"sign":-1,"treks":[{"paths":[[2],[2,4],'
            '[2]],"top":{"vertex":2}},{"paths":[[1,3],[1,3],[1,3,4]],"top":{"vertex":1}}]}},'
            '"graph_hash":"ab5bee013439bda77d5f462c4d85936689ed14bbcfb2d6e6c861b094f99ba428",'
            '"mode":"randomized","order":3,"seed":7,"sides":[[2,3],[3,4],[2,4]],"trials":5,'
            '"value_range":997,"verdict":"NotVanishes"}'
        ),
        "certain": (
            0,
            '{"algebraic_record":[{"determinant":"nonzero-polynomial(top [1, 2])","seed":null}],'
            '"combinatorial_certificate":{"trek_system":{"permutations":[[1,0],[0,1]],'
            '"side_endpoints":[[2,3],[3,4],[2,4]],"sign":-1,"treks":[{"paths":[[2],[2,4],'
            '[2]],"top":{"vertex":2}},{"paths":[[1,3],[1,3],[1,3,4]],"top":{"vertex":1}}]}},'
            '"graph_hash":"ab5bee013439bda77d5f462c4d85936689ed14bbcfb2d6e6c861b094f99ba428",'
            '"mode":"certain","order":3,"seed":null,"sides":[[2,3],[3,4],[2,4]],'
            '"trials":null,"value_range":null,"verdict":"NotVanishes"}'
        ),
        "certify": (
            0,
            '{"reason":"certificate verified","valid":true}'
        ),
        "check-order-2": (
            0,
            '{"algebraic_record":[{"determinant":"-15871173040519380/1","seed":7000022},'
            '{"determinant":"5708724618240000/1","seed":7000023},'
            '{"determinant":"716995421144184/1","seed":7000024},'
            '{"determinant":"-4865033417128610/1","seed":7000025},'
            '{"determinant":"7437555774789/1","seed":7000026}],'
            '"combinatorial_certificate":{"trek_system":{"permutations":[[0,1]],'
            '"side_endpoints":[[2,4],[1,3]],"sign":1,"treks":[{"paths":[[1,2],[1]],'
            '"top":{"vertex":1}},{"paths":[[3,4],[3]],"top":{"vertex":3}}]}},'
            '"graph_hash":"ab5bee013439bda77d5f462c4d85936689ed14bbcfb2d6e6c861b094f99ba428",'
            '"mode":"randomized","order":2,"seed":7,"sides":[[2,4],[1,3]],"trials":5,'
            '"value_range":997,"verdict":"NotVanishes"}'
        ),
        "certify-order-2": (
            0,
            '{"reason":"certificate verified","valid":true}'
        ),
        "check-order-2-vanishes": (
            10,
            '{"algebraic_record":[{"determinant":"0/1","seed":7000022},'
            '{"determinant":"0/1","seed":7000023},{"determinant":"0/1","seed":7000024},'
            '{"determinant":"0/1","seed":7000025},{"determinant":"0/1","seed":7000026}],'
            '"combinatorial_certificate":{"separator":[[5],[]]},'
            '"graph_hash":"6f5ac73a5f47874c13083d4089ba003793375885bf39e03aea5b1f419fb1c7f4",'
            '"mode":"randomized","order":2,"seed":7,"sides":[[1,2],[3,4]],"trials":5,'
            '"value_range":997,"verdict":"Vanishes"}'
        ),
        "certify-order-2-vanishes": (
            0,
            '{"reason":"separator verified","valid":true}'
        ),
        "common-cause": (
            0,
            '{"algebraic_record":[{"determinant":"-8269900972002/1","seed":7000022},'
            '{"determinant":"69803532263038/1","seed":7000023},'
            '{"determinant":"69029152674552/1","seed":7000024},'
            '{"determinant":"677083810760/1","seed":7000025},'
            '{"determinant":"-5298329628240/1","seed":7000026}],'
            '"combinatorial_certificate":{"trek_system":{"permutations":[[0],[0]],'
            '"side_endpoints":[[2],[3],[4]],"sign":1,"treks":[{"paths":[[1,2],[1,3],[1,2,4]],'
            '"top":{"vertex":1}}]}},'
            '"graph_hash":"ab5bee013439bda77d5f462c4d85936689ed14bbcfb2d6e6c861b094f99ba428",'
            '"mode":"randomized","order":3,"seed":7,"sides":[[2],[3],[4]],"trials":5,'
            '"value_range":997,"verdict":"NotVanishes"}'
        ),
        "parametrize-cumulant": (
            0,
            '{"dims":[3,3,3],"entries":["3/1","6/1","51/2","6/1","12/1","51/1","51/2","51/1",'
            '"867/4","6/1","12/1","51/1","12/1","23/1","97/1","51/1","97/1","817/2","51/2",'
            '"51/1","867/4","51/1","97/1","817/2","867/4","817/2","41225/24"],"order":3,'
            '"scalar":"rational"}'
        ),
        "parametrize-moment": (
            0,
            '{"dims":[3,3,3,3],"entries":["16/1","32/1","136/1","32/1","62/1","262/1",'
            '"136/1","262/1","3320/3","32/1","62/1","262/1","62/1","116/1","487/1","262/1",'
            '"487/1","6130/3","136/1","262/1","3320/3","262/1","487/1","6130/3","3320/3",'
            '"6130/3","8568/1","32/1","62/1","262/1","62/1","116/1","487/1","262/1","487/1",'
            '"6130/3","62/1","116/1","487/1","116/1","210/1","876/1","487/1","876/1",'
            '"21911/6","262/1","487/1","6130/3","487/1","876/1","21911/6","6130/3","21911/6",'
            '"30427/2","136/1","262/1","3320/3","262/1","487/1","6130/3","3320/3","6130/3",'
            '"8568/1","262/1","487/1","6130/3","487/1","876/1","21911/6","6130/3","21911/6",'
            '"30427/2","3320/3","6130/3","8568/1","6130/3","21911/6","30427/2","8568/1",'
            '"30427/2","190007/3"],"order":4,"scalar":"rational"}'
        ),
        "parametrize-moment-5": (
            0,
            '{"dims":[3,3,3,3,3],"entries":["65/1","130/1","1105/2","130/1","257/1",'
            '"1090/1","1105/2","1090/1","18489/4","130/1","257/1","1090/1","257/1","500/1",'
            '"4229/2","1090/1","4229/2","17879/2","1105/2","1090/1","18489/4","1090/1",'
            '"4229/2","17879/2","18489/4","17879/2","906763/24","130/1","257/1","1090/1",'
            '"257/1","500/1","4229/2","1090/1","4229/2","17879/2","257/1","500/1","4229/2",'
            '"500/1","952/1","4010/1","4229/2","4010/1","67529/4","1090/1","4229/2",'
            '"17879/2","4229/2","4010/1","67529/4","17879/2","67529/4","213112/3","1105/2",'
            '"1090/1","18489/4","1090/1","4229/2","17879/2","18489/4","17879/2",'
            '"906763/24","1090/1","4229/2","17879/2","4229/2","4010/1","67529/4","17879/2",'
            '"67529/4","213112/3","18489/4","17879/2","906763/24","17879/2","67529/4",'
            '"213112/3","906763/24","213112/3","14339891/48","130/1","257/1","1090/1",'
            '"257/1","500/1","4229/2","1090/1","4229/2","17879/2","257/1","500/1","4229/2",'
            '"500/1","952/1","4010/1","4229/2","4010/1","67529/4","1090/1","4229/2",'
            '"17879/2","4229/2","4010/1","67529/4","17879/2","67529/4","213112/3","257/1",'
            '"500/1","4229/2","500/1","952/1","4010/1","4229/2","4010/1","67529/4","500/1",'
            '"952/1","4010/1","952/1","1769/1","7417/1","4010/1","7417/1","93233/3",'
            '"4229/2","4010/1","67529/4","4010/1","7417/1","93233/3","67529/4","93233/3",'
            '"3123167/24","1090/1","4229/2","17879/2","4229/2","4010/1","67529/4",'
            '"17879/2","67529/4","213112/3","4229/2","4010/1","67529/4","4010/1","7417/1",'
            '"93233/3","67529/4","93233/3","3123167/24","17879/2","67529/4","213112/3",'
            '"67529/4","93233/3","3123167/24","213112/3","3123167/24","13068991/24",'
            '"1105/2","1090/1","18489/4","1090/1","4229/2","17879/2","18489/4","17879/2",'
            '"906763/24","1090/1","4229/2","17879/2","4229/2","4010/1","67529/4","17879/2",'
            '"67529/4","213112/3","18489/4","17879/2","906763/24","17879/2","67529/4",'
            '"213112/3","906763/24","213112/3","14339891/48","1090/1","4229/2","17879/2",'
            '"4229/2","4010/1","67529/4","17879/2","67529/4","213112/3","4229/2","4010/1",'
            '"67529/4","4010/1","7417/1","93233/3","67529/4","93233/3","3123167/24",'
            '"17879/2","67529/4","213112/3","67529/4","93233/3","3123167/24","213112/3",'
            '"3123167/24","13068991/24","18489/4","17879/2","906763/24","17879/2",'
            '"67529/4","213112/3","906763/24","213112/3","14339891/48","17879/2","67529/4",'
            '"213112/3","67529/4","93233/3","3123167/24","213112/3","3123167/24",'
            '"13068991/24","906763/24","213112/3","14339891/48","213112/3","3123167/24",'
            '"13068991/24","14339891/48","13068991/24","655809161/288"],"order":5,'
            '"scalar":"rational"}'
        ),
        "scan-conjecture": (
            0,
            '{"agreements":10,"cases_scanned":10,"disagreements":[],"lower_order_checked":15,'
            '"lower_order_violations":[]}'
        ),
    }

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_stdout_matches_the_pinned_bytes(self, capsys, tmp_path, monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        write_graph(tmp_path, self.GRAPH, "g.json")
        write_graph(tmp_path, self.PARAM_GRAPH, "h.json")
        write_graph(tmp_path, self.VANISHING_GRAPH, "v.json")
        (tmp_path / "inst.json").write_text(json.dumps(self.INSTANCE))
        (tmp_path / "ens.json").write_text(json.dumps(self.ENSEMBLE))
        for path, command in self.DECISIONS.items():
            (tmp_path / path).write_text(self.EXPECTED[command][1])
        code, out = run_cli(capsys, *self.COMMANDS[name])
        assert (code, out) == (self.EXPECTED[name][0], self.EXPECTED[name][1] + "\n")


class TestLogging:
    # Runs the real interpreter: pytest keeps its own handlers on the root
    # logger, which would mask basicConfig in-process.

    def invoke(self, star_path, env_value):
        env = dict(os.environ)
        env.pop("MULTITREK_LOG", None)
        if env_value is not None:
            env["MULTITREK_LOG"] = env_value
        return subprocess.run(
            [sys.executable, "-m", "multitrek.cli",
             "check", "--graph", star_path, "--sets", "1;2", "--seed", "0"],
            capture_output=True, text=True, env=env,
        )

    def test_info_logs_go_to_stderr(self, star_path):
        proc = self.invoke(star_path, "info")
        assert proc.returncode == EXIT_OK
        assert "loaded graph" in proc.stderr
        json.loads(proc.stdout)  # stdout stays pure JSON

    def test_silent_by_default(self, star_path):
        proc = self.invoke(star_path, None)
        assert proc.returncode == EXIT_OK
        assert proc.stderr == ""
