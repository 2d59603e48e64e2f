"""CLI surface: subcommands, exit codes, manifests, byte-identical reruns."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import udsets
from udsets import cli
from udsets.cli import main


def run(*argv):
    return main([str(a) for a in argv])


def test_construct_and_paircorr_roundtrip(tmp_path, capsys):
    out = tmp_path / "c"
    assert run("construct", "hexdisk", "--n", 32, "--k", 8, "--out", out) == 0
    stats = json.loads((out / "hexdisk_N32_K8.stats.json").read_text())
    assert abs(stats["analytic_density"] - 0.22672492052927723) < 1e-12
    assert abs(stats["raster_density"] - stats["embedded_density"]) < 0.05
    assert (out / "manifest.json").exists()

    pc = tmp_path / "pc"
    code = run(
        "paircorr", "--set", out / "hexdisk_N32_K8.gridset.json",
        "--r-min", 0, "--r-max", 2.0, "--r-step", 0.5,
        "--cutoff-m", 4000, "--out", pc,
    )
    assert code == 0
    summary = capsys.readouterr().out.strip().splitlines()[-1]
    assert re.fullmatch(
        r"wrote \S+paircorr\.csv \(5 rows, density \d\.\d{6}, \d+ kappa terms kept, "
        r"mass \d\.\de[+-]\d\d left out\)",
        summary,
    ), summary
    lines = (pc / "paircorr.csv").read_text().strip().splitlines()
    assert lines[0] == "r,fcirc,rigor_bound,s,delta_sq"
    assert len(lines) == 6


def test_construct_rerun_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run("construct", "croft", "--x", 0.9, "--n", 32, "--k", 8,
                   "--out", out) == 0
    for name in ("croft_N32_K8.gridset.json", "croft_N32_K8.stats.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_sample_greedy_and_determinism(tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    for out in (out1, out2):
        assert run("sample", "--mode", "greedy", "--n", 4, "--k", 4,
                   "--seeds", "1,2", "--out", out) == 0
    assert (out1 / "greedy_seed1.gridset.json").read_bytes() == (
        out2 / "greedy_seed1.gridset.json"
    ).read_bytes()
    agg = json.loads((out1 / "aggregate.json").read_text())
    assert set(agg["per_seed"]) == {"1", "2"}
    for entry in agg["per_seed"].values():
        assert entry["internal_edges"] == 0


def test_sample_glauber_emits_independent_sets(tmp_path):
    out = tmp_path / "g"
    assert run("sample", "--mode", "glauber", "--n", 4, "--k", 4,
               "--seeds", "7", "--steps", 20000, "--out", out) == 0
    agg = json.loads((out / "aggregate.json").read_text())
    assert agg["per_seed"]["7"]["internal_edges"] == 0


def test_graph_stats(tmp_path):
    out = tmp_path / "gr"
    assert run("graph", "--n", 1, "--k", 3, "--out", out) == 0
    doc = json.loads((out / "graph.json").read_text())
    assert doc["vertices"] == 9 and doc["edges"] == 36 and doc["max_degree"] == 8


def test_python_m_udsets_runs_the_cli(tmp_path):
    env = dict(os.environ)
    src = str(Path(udsets.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = tmp_path / "gr"
    proc = subprocess.run(
        [sys.executable, "-m", "udsets", "graph", "--n", "4", "--k", "4", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads((out / "graph.json").read_text())["vertices"] == 256


def test_search_exact_small(tmp_path):
    out = tmp_path / "se"
    assert run("search", "--n", 2, "--k", 3, "--time-budget", 60, "--out", out) == 0
    doc = json.loads((out / "search.json").read_text())
    assert doc["exact"] and doc["gap"] == 0


def test_search_timeout_exit_code(tmp_path):
    out = tmp_path / "st"
    code = run("search", "--n", 4, "--k", 5, "--time-budget", 0.001, "--out", out)
    assert code == 5
    doc = json.loads((out / "search.json").read_text())
    assert not doc["exact"] and doc["gap"] >= 0


@pytest.mark.parametrize("budget", ["nan", "0", "-1", "inf"])
def test_search_rejects_a_bad_time_budget(tmp_path, capsys, budget):
    out = tmp_path / "sb"
    assert run("search", "--n", 2, "--k", 5, "--time-budget", budget, "--out", out) == 4
    assert "--time-budget" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("steps", [0, -3])
def test_sample_glauber_rejects_a_step_count_below_one(tmp_path, capsys, steps):
    # 0 is a step count, not "unset": glauber_chain refuses it
    out = tmp_path / "g"
    assert run("sample", "--mode", "glauber", "--n", 4, "--k", 4, "--steps", steps,
               "--out", out) == 4
    assert "steps must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_certify_verify_gamma_cycle(tmp_path):
    out = tmp_path / "cert"
    code = run("certify", "--delta-plus", 0.30, "--tail-start", 40, "--out", out)
    assert code == 0
    cert = out / "certificate.json"
    doc = json.loads(cert.read_text())
    # the single-target solve still drives the bound below the combinatorial
    # 2/7 landmark instead of stopping at the 0.30 target
    assert doc["delta_star"] <= 2.0 / 7.0 + 1e-3
    assert run("verify", "--certificate", cert) == 0

    # gamma: the spindle-only bound does not beat the benchmark density
    assert run("gamma", "--certificate", cert, "--epsilon", 1e-3) == 3

    # tampering flips verification to a failure exit
    doc = json.loads(cert.read_text())
    doc["coefficients"]["v0"] = -doc["coefficients"]["v0"] - 0.2
    cert.write_text(json.dumps(doc))
    assert run("verify", "--certificate", cert) == 2


def test_verify_and_gamma_reject_a_foreign_or_malformed_certificate(tmp_path, capsys):
    out = tmp_path / "cert"
    assert run("certify", "--delta-plus", 0.30, "--tail-start", 40, "--out", out) == 0
    good = json.loads((out / "certificate.json").read_text())

    foreign = dict(good, registry_hash="0" * 64)
    path = tmp_path / "foreign.json"
    path.write_text(json.dumps(foreign))
    assert run("verify", "--certificate", path) == 2
    assert "hash does not match" in capsys.readouterr().out
    assert run("gamma", "--certificate", path, "--epsilon", 1e-3) == 4
    assert "hash does not match" in capsys.readouterr().err

    coeffs = dict(good["coefficients"])
    del coeffs["v1"]
    path = tmp_path / "no_v1.json"
    path.write_text(json.dumps(dict(good, coefficients=coeffs)))
    assert run("verify", "--certificate", path) == 2
    assert "malformed coefficients" in capsys.readouterr().out
    assert run("gamma", "--certificate", path, "--epsilon", 1e-3) == 4
    assert "malformed coefficients" in capsys.readouterr().err


def test_certify_derives_the_verify_step(tmp_path):
    out = tmp_path / "derived"
    assert run("certify", "--delta-plus", 0.30, "--tail-start", 40, "--out", out) == 0
    cert = out / "certificate.json"
    step = json.loads(cert.read_text())["grid_step"]
    mantissa, _ = math.frexp(step)
    assert mantissa == 0.5 and 1e-4 < step < 1e-2  # a power of two near margin/L
    assert run("verify", "--certificate", cert) == 0


def test_certify_single_target_raises_a_tail_start_the_tail_row_refutes(tmp_path):
    # at T = 1 and 2 the LP is infeasible with a Farkas ray on the tail row;
    # at T = 4 it is feasible and its witness certifies
    out = tmp_path / "t1"
    assert run("certify", "--delta-plus", 0.30, "--tail-start", 1, "--out", out) == 0
    cert = out / "certificate.json"
    doc = json.loads(cert.read_text())
    assert doc["tail_start"] == 4.0 and doc["verdict"] == "certified"
    assert doc["delta_star"] == 0.29009649479727007
    assert run("verify", "--certificate", cert) == 0


def test_certify_infeasible_exit(tmp_path):
    out = tmp_path / "inf"
    code = run("certify", "--delta-plus", 0.05, "--out", out)
    assert code == 3


def test_certify_infeasible_reports_the_farkas_ray(tmp_path, capsys):
    assert run("certify", "--delta-plus", 0.05, "--out", tmp_path / "inf") == 3
    captured = capsys.readouterr()
    assert "LP infeasible at delta_plus = 0.05, last solved at tail start 20.0" in captured.out
    assert "a valid Farkas ray proves it at every tail start >= 20.0" in captured.out
    assert captured.err == ""
    assert not (tmp_path / "inf" / "certificate.json").exists()


def test_certify_honours_the_budget(tmp_path):
    from udsets.registry import builtin_registry
    from udsets.witness import certificate_coefficients

    out = tmp_path / "b"
    assert run("certify", "--budget", 0.5, "--out", out) == 0
    doc = json.loads((out / "certificate.json").read_text())
    assert json.loads((out / "manifest.json").read_text())["config"]["budget"] == 0.5
    # the budget-15 witness spends about 1.0; a smaller budget weakens the bound
    assert certificate_coefficients(doc, builtin_registry()).budget_sum <= 0.5
    assert doc["delta_star"] > 0.2580810546875


def test_input_error_exit(tmp_path):
    assert run("paircorr", "--set", tmp_path / "missing.json",
               "--out", tmp_path / "x") == 4


@pytest.mark.parametrize(
    "argv",
    [
        ("paircorr", "--set", "{tmp}/nosuch.json"),
        ("graph", "--n", "1", "--k", "2"),
        ("certify", "--registry", "{tmp}/nosuch.json"),
        ("sample", "--n", "1", "--k", "2"),
        ("construct", "hexdisk", "--n", "8", "--k", "4"),
        ("search", "--n", "60", "--k", "10"),
    ],
    ids=lambda argv: argv[0],
)
def test_input_errors_leave_no_out_directory(tmp_path, argv):
    out = tmp_path / "out"
    assert run(*(a.format(tmp=tmp_path) for a in argv), "--out", out) == 4
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [("--margin", "0"), ("--tail-start", "-5"), ("--budget", "-1"), ("--margin", "nan"),
     ("--budget", "nan"), ("--tail-start", "inf")],
)
def test_certify_rejects_a_bad_knob(tmp_path, flags):
    # an input error (4), not a failed certification (3)
    out = tmp_path / "out"
    assert run("certify", *flags, "--out", out) == 4
    assert not out.exists()


def test_config_rejects_a_bad_certify_knob(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"margin": 0}))
    out = tmp_path / "m0"
    assert run("--config", cfg, "certify", "--out", out) == 4
    assert "'margin'" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def good_certificate(tmp_path_factory):
    out = tmp_path_factory.mktemp("good")
    assert run("certify", "--delta-plus", 0.30, "--tail-start", 40, "--out", out) == 0
    assert run("verify", "--certificate", out / "certificate.json") == 0
    return json.loads((out / "certificate.json").read_text())


def _with_coefficient(cert, **fields):
    return dict(cert, coefficients=dict(cert["coefficients"], **fields))


MALFORMED_FILES = {
    "five": lambda cert: 5,
    "gridset_K_x": lambda cert: {"schema_version": 1, "kind": "gridset", "K": "x", "N": 1,
                                 "encoding": "rle0-leb128-base64", "payload": "BA=="},
    # a 4-bit payload declaring (10^10)^2 cells, more than numpy can allocate
    "gridset_huge": lambda cert: {"schema_version": 1, "kind": "gridset", "K": 10**5,
                                  "N": 10**5, "encoding": "rle0-leb128-base64",
                                  "payload": "BA=="},
    # two runs of 5e15 bits: the (10^4 * 10^4)^2 = 1e16 cells it declares
    "gridset_oversized": lambda cert: {"schema_version": 1, "kind": "gridset", "K": 10**4,
                                       "N": 10**4, "encoding": "rle0-leb128-base64",
                                       "payload": "gICCv5Pv8AiAgIK/k+/wCA=="},
    # 'B*A==' loaded as 'BA==', an empty 2 x 2 set, before base64 was validated
    "gridset_b64_bad": lambda cert: {"schema_version": 1, "kind": "gridset", "K": 2, "N": 1,
                                     "encoding": "rle0-leb128-base64", "payload": "B*A=="},
    "v0_abc": lambda cert: _with_coefficient(cert, v0="abc"),
    "w_m_a": lambda cert: _with_coefficient(cert, w_m=["a"]),
    "grid_step_x": lambda cert: dict(cert, grid_step="x"),
    "grid_step_0": lambda cert: dict(cert, grid_step=0),
    "tail_start_nan": lambda cert: dict(cert, tail_start=math.nan),
    "grid_step_2m40": lambda cert: dict(cert, grid_step=2.0**-40),  # 4.4e13 points
}


@pytest.mark.parametrize(
    "command, name, code",
    [
        ("paircorr", "five", 4),
        ("paircorr", "gridset_K_x", 4),
        ("paircorr", "directory", 4),
        ("paircorr", "gridset_huge", 4),
        ("paircorr", "gridset_oversized", 4),
        ("paircorr", "gridset_b64_bad", 4),
        ("verify", "five", 2),
        ("gamma", "five", 4),
        ("verify", "v0_abc", 2),
        ("gamma", "v0_abc", 4),
        ("verify", "w_m_a", 2),
        ("verify", "grid_step_x", 2),
        ("gamma", "grid_step_x", 4),
        ("verify", "grid_step_0", 2),
        ("verify", "tail_start_nan", 2),
        ("verify", "grid_step_2m40", 2),
        ("verify", "directory", 4),
    ],
)
def test_malformed_input_files_exit_with_their_code(tmp_path, good_certificate,
                                                    command, name, code):
    # a file that cannot be read is an input error (4); a certificate that
    # can be read but is malformed fails verification (2); none is a traceback
    path = tmp_path / name
    if name == "directory":
        path.mkdir()
    else:
        path.write_text(json.dumps(MALFORMED_FILES[name](good_certificate)))
    if command == "paircorr":
        out = tmp_path / "out"
        assert run("paircorr", "--set", path, "--out", out) == code
        assert not out.exists()
    else:
        assert run(command, "--certificate", path) == code


@pytest.mark.parametrize("epsilon", ["nan", "inf", "0", "-1e-3"])
def test_gamma_rejects_a_bad_epsilon(tmp_path, good_certificate, capsys, epsilon):
    # an input error (4), not "no admissible gamma" (3)
    path = tmp_path / "certificate.json"
    path.write_text(json.dumps(good_certificate))
    assert run("gamma", "--certificate", path, "--epsilon", epsilon) == 4
    assert "--epsilon" in capsys.readouterr().err


def test_config_overrides_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 1, "k": 3}))
    out = tmp_path / "gq"
    assert run("--config", cfg, "graph", "--n", 4, "--k", 4, "--out", out) == 0
    doc = json.loads((out / "graph.json").read_text())
    assert doc["vertices"] == 9  # config wins over the flags


def test_config_rejects_a_value_its_option_rejects(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": "4"}))  # a string, where --n takes an int
    out = tmp_path / "gs"
    assert run("--config", cfg, "graph", "--n", 4, "--k", 4, "--out", out) == 4
    assert "'n'" in capsys.readouterr().err
    assert not out.exists()


def test_config_rejects_an_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tail_strat": 5}))  # a misspelt --tail-start
    out = tmp_path / "ct"
    assert run("--config", cfg, "certify", "--delta-plus", 0.30, "--out", out) == 4
    assert "unknown key 'tail_strat'" in capsys.readouterr().err
    assert not out.exists()


def test_usage_errors_exit_as_input_errors(tmp_path, capsys):
    out = tmp_path / "u"
    assert run("graph", "--n", "abc", "--k", 4, "--out", out) == 4
    assert "invalid int value: 'abc'" in capsys.readouterr().err
    assert run("graph", "--k", 4, "--out", out) == 4  # --n is required
    assert run("nosuchcommand") == 4
    assert not out.exists()
    with pytest.raises(SystemExit) as exc:
        run("--help")
    assert exc.value.code == 0


@pytest.fixture(scope="module")
def hexdisk16(tmp_path_factory):
    out = tmp_path_factory.mktemp("hex16")
    assert run("construct", "hexdisk", "--n", 16, "--k", 4, "--out", out) == 0
    return out / "hexdisk_N16_K4.gridset.json"


@pytest.mark.parametrize("step", ["0", "-0.5", "nan", "inf", "x"])
def test_paircorr_rejects_a_bad_r_step(hexdisk16, tmp_path, capsys, step):
    out = tmp_path / "pc"
    assert run("paircorr", "--set", hexdisk16, "--r-step", step, "--out", out) == 4
    assert "--r-step" in capsys.readouterr().err
    assert not out.exists()


def test_config_rejects_a_zero_r_step(hexdisk16, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"r_step": 0}))
    out = tmp_path / "pc"
    assert run("--config", cfg, "paircorr", "--set", hexdisk16, "--out", out) == 4
    assert "'r_step'" in capsys.readouterr().err
    assert not out.exists()
    cfg.write_text(json.dumps({"r_step": 0.5}))
    assert run("--config", cfg, "paircorr", "--set", hexdisk16, "--r-max", 1.0,
               "--out", out) == 0
    assert len((out / "paircorr.csv").read_text().strip().splitlines()) == 1 + 3


@pytest.mark.parametrize(
    "r_min, r_max", [("2", "1"), ("-0.5", "1"), ("0", "inf"), ("nan", "1")]
)
def test_paircorr_rejects_a_bad_r_range(hexdisk16, tmp_path, capsys, r_min, r_max):
    out = tmp_path / "pc"
    assert run("paircorr", "--set", hexdisk16, "--r-min", r_min, "--r-max", r_max,
               "--out", out) == 4
    assert "--r-max" in capsys.readouterr().err
    assert not out.exists()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"r_min": float(r_min), "r_max": float(r_max)}))
    assert run("--config", cfg, "paircorr", "--set", hexdisk16, "--out", out) == 4
    assert not out.exists()


@pytest.mark.parametrize("r_max, r_step", [("1e9", "1"), ("1e30", "1e-20"), ("1", "1e-320")])
def test_paircorr_caps_the_number_of_radii(hexdisk16, tmp_path, capsys, r_max, r_step):
    out = tmp_path / "pc"
    assert run("paircorr", "--set", hexdisk16, "--r-max", r_max, "--r-step", r_step,
               "--out", out) == 4
    assert "radii, over the cap" in capsys.readouterr().err
    assert not out.exists()


def test_paircorr_admits_exactly_the_radius_cap(hexdisk16, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "MAX_RADII", 3)
    out = tmp_path / "pc"
    assert run("paircorr", "--set", hexdisk16, "--r-max", 1.0, "--r-step", 0.5,
               "--out", out) == 0
    assert len((out / "paircorr.csv").read_text().strip().splitlines()) == 1 + 3
    assert run("paircorr", "--set", hexdisk16, "--r-max", 1.5, "--r-step", 0.5,
               "--out", tmp_path / "pc4") == 4
    assert not (tmp_path / "pc4").exists()


def test_paircorr_single_point_range(hexdisk16, tmp_path):
    out = tmp_path / "pc"
    assert run("paircorr", "--set", hexdisk16, "--r-min", 1, "--r-max", 1,
               "--out", out) == 0
    assert len((out / "paircorr.csv").read_text().strip().splitlines()) == 1 + 1


@pytest.mark.parametrize("seeds", ["a", ",", "", "1,b", "1,1", "2,3,2"])
def test_sample_rejects_bad_seeds(tmp_path, capsys, seeds):
    out = tmp_path / "s"
    assert run("sample", "--n", 4, "--k", 4, "--seeds", seeds, "--out", out) == 4
    assert "--seeds" in capsys.readouterr().err
    assert not out.exists()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seeds": seeds}))
    assert run("--config", cfg, "sample", "--n", 4, "--k", 4, "--out", out) == 4
    assert "'seeds'" in capsys.readouterr().err
    assert not out.exists()


def test_sample_manifest_keeps_the_seeds_text(tmp_path):
    out = tmp_path / "s"
    assert run("sample", "--n", 4, "--k", 4, "--seeds", "0,1", "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seeds"] == "0,1" and manifest["seeds"] == [0, 1]
