"""End-to-end command-line tests: exit codes, file outputs, gates.

Everything calls cli.main() in process; argparse-level usage errors surface
as SystemExit(64) and are asserted as such.
"""

import configparser
import contextlib
import csv
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from starflow import cli, flow, spheregrid
from starflow.diagnostics import read_history_csv
from starflow.spheregrid import axisym_grid, write_field_csv
from test_text_formats import wavy_gamma

BASE_SECTIONS = {
    "flow": {
        "beta": "1.0",
        "psi_mode": "identity",
        "t_max": "50.0",
        "tol_residual": "1e-6",
        "cadence": "50",
    },
    "F": {"variant": "sigma_k_root", "k": "2"},
    "G": {"c": "1.0", "a": "0.0", "b": "-2.0"},
    "grid": {"mode": "axisym", "n": "2", "m_theta": "16"},
    "initial": {"kind": "constant", "radius": "1.3"},
}


def make_cfg(path, **edits):
    """Write the base INI with dotted overrides, e.g. flow__t_max='0.1'.

    A value of None removes the key; new sections appear on demand.
    """
    sections = {name: dict(body) for name, body in BASE_SECTIONS.items()}
    for dotted, value in edits.items():
        section, key = dotted.split("__", 1)
        body = sections.setdefault(section, {})
        if value is None:
            body.pop(key, None)
        else:
            body[key] = str(value)
    lines = []
    for name, body in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v}" for k, v in body.items())
        lines.append("")
    path.write_text("\n".join(lines))
    return path


def read_curvature(path):
    with open(path) as fh:
        header = fh.readline()
        assert header.startswith("# starflow-curvature-v1 ")
        rows = list(csv.DictReader(fh))
    return header, rows


def test_run_converged_writes_everything(tmp_path):
    cfg = make_cfg(tmp_path / "run.cfg")
    out = tmp_path / "out"
    code = cli.main(["run", str(cfg), "--out", str(out)])
    assert code == 0

    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "converged"
    assert "stalled" not in summary
    assert summary["rejected_steps"] >= 0
    assert summary["final_residual"] <= 1e-6
    assert summary["grid"] == {"mode": "axisym", "n": 2, "m_theta": 16, "m_phi": 0}
    assert summary["config_file"] == str(cfg)
    assert len(summary["config_hash"]) == 64
    assert int(summary["config_hash"], 16) >= 0  # hex digest

    # every advertised file exists, and the history agrees with the summary
    assert summary["files"] == sorted(summary["files"])
    for name in summary["files"]:
        assert (out / name).is_file(), name
    history = read_history_csv(out / "history.csv")
    assert len(history) == summary["records"]
    assert summary["final_record"]["residual"] == history[-1].residual
    assert summary["final_record"]["step"] == summary["steps"]


def test_run_tol_override_stops_early(tmp_path):
    cfg = make_cfg(tmp_path / "run.cfg", flow__tol_residual="1e-2")
    out = tmp_path / "loose"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["final_residual"] <= 1e-2
    tight = json.loads(
        (run_once(tmp_path, "tight") / "summary.json").read_text()
    )
    assert summary["steps"] < tight["steps"]


def run_once(tmp_path, name, **edits):
    cfg = make_cfg(tmp_path / f"{name}.cfg", **edits)
    out = tmp_path / name
    cli.main(["run", str(cfg), "--out", str(out)])
    return out


def test_run_diverged_exit_2(tmp_path):
    cfg = make_cfg(tmp_path / "div.cfg", G__b="1.0", initial__radius="1.1")
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "diverged"
    assert summary["detail"].startswith("radius left [1e-06, 1e+06] at node (")


def test_run_time_cap_exit_3(tmp_path):
    cfg = make_cfg(tmp_path / "cap.cfg")
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out), "--t-max", "0.01"]) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "time_cap"
    assert summary["t_final"] == pytest.approx(0.01, abs=1e-12)


def test_config_errors_exit_64(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    assert cli.main(["run", str(missing), "--out", str(tmp_path / "o")]) == 64

    # the first step is no longer a knob: a config that sets it is refused
    stale = make_cfg(tmp_path / "a.cfg", flow__dt_safety="0.5")
    assert cli.main(["run", str(stale), "--out", str(tmp_path / "o")]) == 64
    assert "unknown key 'dt_safety' in section [flow]" in capsys.readouterr().err

    no_section = make_cfg(tmp_path / "b.cfg")
    no_section.write_text(no_section.read_text().replace("[initial]", "[whatever]"))
    assert cli.main(["run", str(no_section), "--out", str(tmp_path / "o")]) == 64

    bad_f = make_cfg(tmp_path / "c.cfg", F__variant="harmonic_mean")
    assert cli.main(["validate", str(bad_f)]) == 64

    bad_psi = make_cfg(tmp_path / "d.cfg", G__psi="0.2 1 1 1")  # direction not unit
    assert cli.main(["validate", str(bad_psi)]) == 64
    capsys.readouterr()


@pytest.mark.parametrize(
    "F",
    [
        pytest.param({"k": "3"}, id="sigma_k_root-k-above-n"),
        pytest.param({"k": "0"}, id="sigma_k_root-k-zero"),
        pytest.param({"variant": "quotient_root", "l": "2"}, id="quotient-l-not-below-k"),
        pytest.param({"variant": "quotient_root", "l": "-1"}, id="quotient-l-negative"),
        pytest.param({"variant": "power_mean", "k": None, "p": "1.5"}, id="power-mean-p-positive"),
        pytest.param({"variant": "power_mean", "k": None, "p": "-inf"}, id="power-mean-p-minus-inf"),
        pytest.param(
            {"variant": "product", "terms": "0.5*sigma_k_root(2), 0.4*power_mean(-1)"},
            id="product-weights-not-summing-to-1",
        ),
        pytest.param({"variant": "product", "terms": "1.0*sigma_k_root()"}, id="factor-no-args"),
        pytest.param({"variant": "product", "terms": "1.0*sigma_k_root(x)"}, id="factor-not-int"),
        pytest.param({"variant": "product", "terms": "1.0*sigma_k_root(1:1)"}, id="factor-extra-arg"),
        pytest.param({"variant": "product", "terms": "1.0*quotient_root(2)"}, id="factor-one-arg-short"),
        pytest.param({"variant": "product", "terms": "1..0*sigma_k_root(2)"}, id="factor-bad-weight"),
        pytest.param({"variant": "product", "terms": "1.0*sigma_k_root(3)"}, id="factor-k-above-n"),
        pytest.param(
            {"variant": "product", "terms": "0.5*sigma_k_root(1), 0.5*quotient_root(3:1)"},
            id="factor-quotient-k-above-n",
        ),
        pytest.param({"variant": "product", "terms": ","}, id="product-no-factors"),
        pytest.param({"variant": "product", "terms": "1.0*power_mean(-inf)"}, id="factor-p-minus-inf"),
    ],
)
def test_invalid_F_exits_64(tmp_path, capsys, F):
    # a product reads no k: drop the base config's, so that only the F under
    # test can refuse the config
    if F.get("variant") == "product":
        F = {"k": None, **F}
    cfg = make_cfg(tmp_path / "f.cfg", **{f"F__{key}": value for key, value in F.items()})
    out = tmp_path / "out"
    for argv in (["validate", str(cfg)], ["run", str(cfg), "--out", str(out)]):
        assert cli.main(argv) == 64, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "edits, argv",
    [
        pytest.param({"flow__beta": "nan"}, [], id="beta-nan"),
        pytest.param({"flow__t_max": "nan"}, [], id="t_max-nan"),
        # a run to t = inf would end with an infinite t_final in summary.json
        pytest.param({"flow__t_max": "inf"}, [], id="t_max-inf"),
        pytest.param({"flow__tol_residual": "-1"}, [], id="tol_residual-negative"),
        # an infinite tolerance would call any profile converged at step 0
        pytest.param({"flow__tol_residual": "inf"}, [], id="tol_residual-inf"),
        pytest.param(
            {"grid__mode": "full_s2", "grid__m_theta": "8", "grid__m_phi": "16", "G__psi": "nan 0 0 1"},
            [],
            id="psi-strength-nan",
        ),
        pytest.param({}, ["--t-max", "nan"], id="override-t-max-nan"),
        pytest.param({}, ["--t-max", "inf"], id="override-t-max-inf"),
        pytest.param({}, ["--t-max", "-1"], id="override-t-max-negative"),
        # each exponent is finite, their sum is not
        pytest.param({"G__a": "-1e308", "G__b": "-1e308"}, [], id="a-plus-b-plus-beta-infinite"),
    ],
)
def test_nonfinite_or_nonpositive_run_values_exit_64(tmp_path, capsys, edits, argv):
    cfg = make_cfg(tmp_path / "v.cfg", **edits)
    out = tmp_path / "out"
    commands = [["run", str(cfg), "--out", str(out), *argv]]
    if not argv:  # the overrides are options of run alone
        commands.append(["validate", str(cfg)])
    for command in commands:
        assert cli.main(command) == 64, command[0]
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "Traceback" not in err
    assert not out.exists()


def assert_config_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "edits",
    [
        pytest.param({"initial__radius": "nan"}, id="radius-nan"),
        pytest.param({"initial__radius": "-1"}, id="radius-negative"),
        pytest.param({"initial__radius": "inf"}, id="radius-inf"),
        pytest.param(
            {"initial__kind": "perturbed", "initial__amplitude": "nan"}, id="amplitude-nan"
        ),
        pytest.param(
            {"initial__kind": "perturbed", "initial__radius": "0", "initial__amplitude": "0.1"},
            id="perturbed-radius-zero",
        ),
        pytest.param(
            {"initial__kind": "spheroid", "initial__a_axis": "nan", "initial__b_axis": "1"},
            id="spheroid-a-nan",
        ),
        pytest.param(
            {"initial__kind": "spheroid", "initial__a_axis": "1", "initial__b_axis": "-1"},
            id="spheroid-b-negative",
        ),
    ],
)
def test_bad_initial_data_values_exit_64(tmp_path, capsys, edits):
    cfg = make_cfg(tmp_path / "i.cfg", **edits)
    out = tmp_path / "out"
    for argv in (["validate", str(cfg)], ["run", str(cfg), "--out", str(out)]):
        assert cli.main(argv) == 64, argv[0]
        assert_config_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("axis", ["a_axis", "b_axis"])
def test_huge_spheroid_axis_exits_65(tmp_path, capsys, axis):
    # 1e200 squared overflows a double, so rho underflows to 0 off the
    # equator: the gate refuses the profile, where a Python float power
    # would raise OverflowError (exit 70)
    edits = {"initial__kind": "spheroid", "initial__radius": None,
             "initial__a_axis": "1", "initial__b_axis": "1"}
    cfg = make_cfg(tmp_path / "s.cfg", **{**edits, f"initial__{axis}": "1e200"})
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 65
    err = capsys.readouterr().err
    assert err.startswith("gate failure: initial data rejected: initial profile is not a star-shaped")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "edits",
    [
        {"F__variant": "power_mean", "F__k": None, "F__p": "-1e-4"},
        {"F__variant": "product", "F__k": None,
         "F__terms": "0.5*sigma_k_root(1), 0.5*power_mean(-1e-4)"},
    ],
    ids=["power_mean", "product"],
)
def test_validate_refuses_an_F_of_ones_that_underflows(tmp_path, capsys, edits):
    # F(1, 1) = 0: both sphere checks name it, with no RuntimeWarning, which
    # pytest would turn into an error and the command into exit 70
    cfg = make_cfg(tmp_path / "f.cfg", **edits)
    assert cli.main(["validate", str(cfg)]) == 1
    captured = capsys.readouterr()
    reason = "F(1, ..., 1) = 0 is not a positive normal double"
    assert f"no admissible barrier radii: {reason}" in captured.out
    assert f"no stationary sphere radius: {reason}" in captured.out
    assert captured.err == ""


def test_config_that_is_not_utf8_exits_64(tmp_path, capsys):
    cfg = make_cfg(tmp_path / "latin1.cfg")
    cfg.write_bytes(cfg.read_bytes() + b"# caf\xe9\n")
    assert cli.main(["validate", str(cfg)]) == 64
    assert_config_error(capsys)


@pytest.mark.parametrize(
    "edits, code, text",
    [
        # e^1000 is not a double: a configuration error
        pytest.param(
            {"G__psi": "1000 0 0 1"}, 64, "configuration error: forcing", id="psi-overflows"
        ),
        # c = 1e300 is, but the sphere where G = F^beta sits at log r = 6.9e8
        pytest.param(
            {"G__c": "1e300", "G__b": "-1.000001"},
            1,
            "no admissible barrier radii: no sphere radius inside [1e-06, 1e+06]",
            id="radius-overflows",
        ),
    ],
)
def test_forcing_that_overflows_a_double(tmp_path, capsys, edits, code, text):
    # a RuntimeWarning on the way would be an error here, and exit 70
    cfg = make_cfg(tmp_path / "g.cfg", **edits)
    assert cli.main(["validate", str(cfg)]) == code
    captured = capsys.readouterr()
    assert text in captured.out + captured.err and "Traceback" not in captured.err


FULL_S2 = {"grid__mode": "full_s2", "grid__n": None, "grid__m_theta": "8", "grid__m_phi": "16"}


def radii_line(size):
    """validate's first line when the barrier radii are e^{-+size}."""
    return f"barrier radii: r1 = {np.exp(-size):.12g}, r2 = {np.exp(size):.12g}"


@pytest.mark.parametrize(
    "grid, psi, code, stderr, first_line",
    [
        # w = 0.2 e_x - 0.2 e_x + 0.1 e_z = 0.1 e_z, which an axisym grid accepts
        ({}, "0.2 1 0 0; 0.2 -1 0 0; 0.1 0 0 1", 0, "", radii_line(0.1)),
        ({}, "0.2 1 0 0", 64,
         "axisym grids require every anisotropy direction to be the polar axis", ""),
        (FULL_S2, "0.1 0 0 1;;0.1 0 0 1;", 0, "", radii_line(0.2)),
        (FULL_S2, "0.2 1 1 1", 64, "psi direction must be unit length, |v| = 1.73205", ""),
        (FULL_S2, "nan 0 0 1", 64, "psi strength s must be finite, got nan", ""),
        (FULL_S2, "-inf 0 0 1", 64, "psi strength s must be finite, got -inf", ""),
        (FULL_S2, "0.2 nan 0 1", 64, "psi direction must be a finite 3-vector", ""),
        (FULL_S2, "0.2 0 1", 64,
         "bad psi term '0.2 0 1'; expected 's vx vy vz' separated by spaces", ""),
        (FULL_S2, "0.2 0 0 1 5", 64,
         "bad psi term '0.2 0 0 1 5'; expected 's vx vy vz' separated by spaces", ""),
        (FULL_S2, "a b c d", 64, "could not convert string to float: 'a'", ""),
        (FULL_S2, "1000 0 0 1", 64,
         "forcing c e^(+-|w|) overflows a double: c = 1, |w| = 1000", ""),
        # each factor is finite, their sum is not
        (FULL_S2, "1e308 0 0 1; 1e308 0 0 1", 64,
         "forcing c e^(+-|w|) overflows a double: c = 1, |w| = inf", ""),
    ],
    ids=[
        "axisym-off-axis-cancels", "axisym-off-axis", "empty-factors", "not-unit",
        "strength-nan", "strength-infinite", "direction-nan", "three-numbers",
        "five-numbers", "letters", "overflow", "overflow-of-the-sum",
    ],
)
def test_validate_psi_factors(tmp_path, capsys, grid, psi, code, stderr, first_line):
    cfg = make_cfg(tmp_path / "p.cfg", G__psi=psi, **grid)
    assert cli.main(["validate", str(cfg)]) == code
    captured = capsys.readouterr()
    assert captured.err == (f"configuration error: {stderr}\n" if stderr else "")
    assert captured.out.split("\n")[0] == first_line


def test_psi_factors_sum_to_the_same_table(tmp_path):
    # 0.1 + 0.1 == 0.2 exactly, so both spellings of w give the same bits
    tables = [
        cli.parse_config(make_cfg(tmp_path / f"{i}.cfg", G__psi=psi, **FULL_S2)).config.G_table
        for i, psi in enumerate(("0.1 0 0 1; 0.1 0 0 1", "0.2 0 0 1"))
    ]
    assert tables[0].tobytes() == tables[1].tobytes()


@pytest.mark.parametrize(
    "psi, size",
    [
        pytest.param("0.2 0 0 1 ; 0.1 0 0 1", 0.2 + 0.1, id="spaced-separator"),
        pytest.param(" ; 0.1 0 0 1 ;", 0.1, id="leading-separator"),
    ],
)
def test_spaced_psi_separator_keeps_every_factor(tmp_path, capsys, psi, size):
    # ';' separates factors; it never starts a comment
    cfg = make_cfg(tmp_path / "p.cfg", G__psi=psi, **FULL_S2)
    assert cli.main(["validate", str(cfg)]) == 0
    assert capsys.readouterr().out.split("\n")[0] == radii_line(size)


def test_semicolon_after_a_value_is_not_a_comment(tmp_path, capsys):
    cfg = make_cfg(tmp_path / "c.cfg", flow__t_max="50 ; note")
    assert cli.main(["validate", str(cfg)]) == 64
    assert capsys.readouterr().err == (
        "configuration error: bad value for [flow] t_max = '50 ; note': "
        "could not convert string to float: '50 ; note'\n"
    )


@pytest.mark.parametrize(
    "edits, message",
    [
        pytest.param(
            {**FULL_S2, "output__obj_every": "-3"},
            "bad value for [output] obj_every = '-3': must be a count >= 0",
            id="negative",
        ),
        pytest.param(
            {"output__obj_every": "5"},
            "[output] obj_every = 5 writes meshes of full_s2 grids only; this grid is axisym",
            id="axisym",
        ),
    ],
)
def test_obj_every_that_writes_nothing_exits_64(tmp_path, capsys, edits, message):
    cfg = make_cfg(tmp_path / "o.cfg", **edits)
    out = tmp_path / "out"
    for argv in (["validate", str(cfg)], ["run", str(cfg), "--out", str(out)]):
        assert cli.main(argv) == 64, argv[0]
        assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "edits",
    [
        pytest.param({"grid__m_theta": None}, id="missing-key"),
        pytest.param({"grid__m_theta": "sixteen"}, id="bad-conversion"),
        pytest.param(
            {"F__variant": "product", "F__terms": "1.0*harmonic(2)"}, id="unknown-product-factor"
        ),
        pytest.param({"G__psi": "0.2 0 1"}, id="psi-term-three-fields"),
        pytest.param({"grid__mode": "cubed_sphere"}, id="unknown-grid-mode"),
        pytest.param({"initial__kind": "torus"}, id="unknown-initial-kind"),
        pytest.param({"flow__t_max": "50%"}, id="percent-sign"),
        pytest.param(None, id="unparseable-ini"),
    ],
)
def test_configuration_error_branches_exit_64(tmp_path, capsys, edits):
    cfg = tmp_path / "e.cfg"
    if edits is None:
        cfg.write_text("beta = 1.0\n[flow]\n")  # a key before any section header
    else:
        make_cfg(cfg, **edits)
    assert cli.main(["validate", str(cfg)]) == 64
    assert_config_error(capsys)


# per-key literals, the first valid, the rest valid or invalid (junk text
# included); None leaves the key out.  Keys that size a grid take only listed
# values, so no grid beyond 64x128 is built.
_INI_LITERALS = {
    "flow": {
        "beta": ["1.0", "0.5", "0", "-1", "nan", "inf", "one", None],
        "psi_mode": ["identity", "neg_reciprocal", "bogus", None],
        "t_max": ["50", "1e-3", "-1", "nan", "50%", None],
        "tol_residual": ["1e-6", "0", "inf", "?", None],
        "cadence": ["50", "0", "2.5", None],
    },
    "F": {
        "variant": ["sigma_k_root", "quotient_root", "power_mean", "product", "harmonic", None],
        "k": ["1", "2", "3", "0", "x", None],
        "l": ["0", "1", "5", None],
        "p": ["-1", "2", "nan", None],
        "terms": [
            "0.5*sigma_k_root(2), 0.5*power_mean(-1)",
            "1.0*harmonic(2)",
            "1.0*sigma_k_root(",
            "%(k)s",
            "junk",
            None,
        ],
    },
    "G": {
        "c": ["1.0", "1e300", "1e-320", "0", "-2", "nan", "x", None],
        "a": ["0.0", "-0.5", "1e308", "nan", "x", None],
        "b": ["-2.0", "-1.000001", "1.0", "-1e308", "inf", None],
        "psi": ["", "0.2 0 0 1", "0.2 1 0 0", "1000 0 0 1", "0.2 0 1", "nan 0 0 1", "a b c d", None],
    },
    "grid": {
        "mode": ["axisym", "full_s2", "cubed", None],
        "n": ["2", "3", "1", "x", None],
        "m_theta": ["8", "16", "64", "7", "0", "x", None],
        "m_phi": ["16", "0", "128", "7", "x", None],
    },
    "initial": {
        "kind": ["constant", "spheroid", "perturbed", "torus", None],
        "radius": ["1.3", "-1", "0", "nan", "1e-300", "x", None],
        "a_axis": ["1.1", "0", "nan", None],
        "b_axis": ["0.9", "-1", "inf", None],
        "amplitude": ["0.1", "1000", "nan", None],
    },
    "output": {"obj_every": ["0", "40", "-1", "x", None]},
}


# the keys that each choice of variant, grid mode and initial kind reads
_CHOICE_READS = {
    ("F", "variant"): {
        "sigma_k_root": ("k",),
        "quotient_root": ("k", "l"),
        "power_mean": ("p",),
        "product": ("terms",),
    },
    ("grid", "mode"): {"axisym": ("n", "m_theta"), "full_s2": ("m_theta", "m_phi")},
    ("initial", "kind"): {
        "constant": ("radius",),
        "spheroid": ("a_axis", "b_axis"),
        "perturbed": ("radius", "amplitude"),
    },
}


def valid_sections(choices=None):
    """The INI of the given choices (the first of each by default) that sets
    each key they read, and every other key, to the first entry of its
    literal list."""
    choices = choices or {at: next(iter(reads)) for at, reads in _CHOICE_READS.items()}
    chosen = {key for at, reads in _CHOICE_READS.items() for key in reads[choices[at]]}
    dependent = {key for reads in _CHOICE_READS.values() for keys in reads.values() for key in keys}
    sections = {
        name: {
            key: values[0]
            for key, values in keys.items()
            if key in chosen or key not in dependent
        }
        for name, keys in _INI_LITERALS.items()
    }
    for (name, key), choice in choices.items():
        sections[name][key] = choice
    return sections


# stray text a config may carry: a misspelled or an unknown key, a section
# that no reader knows, and a [DEFAULT] section, whose keys configparser would
# otherwise lend to every section
_STRAYS = st.sampled_from(["misspelled", "unknown-key", "unknown-section", "default-section"])


@st.composite
def ini_sections(draw):
    """(sections, stray): the valid INI of some choices with a few keys
    redrawn from their literal lists, and maybe one stray; a config with a
    stray must exit 64."""
    choices = {at: draw(st.sampled_from(sorted(reads))) for at, reads in _CHOICE_READS.items()}
    sections = valid_sections(choices)
    keys = [(name, key) for name, body in _INI_LITERALS.items() for key in body]
    for name, key in draw(st.lists(st.sampled_from(keys), max_size=4)):
        sections[name][key] = draw(st.sampled_from(_INI_LITERALS[name][key]))
    stray = draw(st.one_of(st.none(), _STRAYS))
    if stray == "misspelled":
        present = [(name, key) for name, body in sections.items() for key, v in body.items() if v]
        name, key = draw(st.sampled_from(present))
        typo = key.replace("_", "", 1) if "_" in key else key + "s"
        sections[name][typo] = sections[name].pop(key)
    elif stray == "unknown-key":
        sections[draw(st.sampled_from(sorted(sections)))]["dt_safety"] = "0.5"
    elif stray == "unknown-section":
        sections[draw(st.sampled_from(["Flow", "flw", "extra"]))] = {"beta": "1.0"}
    elif stray == "default-section":
        sections["DEFAULT"] = {"t_max": "50"}
    return sections, stray is not None


def write_sections(path, sections):
    lines = []
    for name, body in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {value}" for key, value in body.items() if value is not None)
    path.write_text("\n".join(lines) + "\n")
    return path


def main_quietly(argv):
    """cli.main(argv) with stdout dropped; returns (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def assert_exit(code, err, codes, stray):
    assert code in ((64,) if stray else codes), err
    assert "Traceback" not in err


@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ini_sections())
def test_validate_exits_only_with_documented_codes(tmp_path, drawn):
    sections, stray = drawn
    cfg = write_sections(tmp_path / "h.cfg", sections)
    assert_exit(*main_quietly(["validate", str(cfg)]), (0, 1, 64, 65), stray)


# u^a overflows a double at every node with u > 1
HUGE_SUPPORT_EXPONENT = valid_sections()
HUGE_SUPPORT_EXPONENT["G"]["a"] = "1e308"

# σ_1 on full_s2 8x16 from the radius-1.3 sphere with c = 1e300, b = -1.000001:
# step 0 passes and D overflows in a later step, which must end the run
# (star_shape_lost, exit 2) without a RuntimeWarning
OVERFLOWS_AFTER_STEP_0 = valid_sections({
    ("F", "variant"): "sigma_k_root", ("grid", "mode"): "full_s2", ("initial", "kind"): "constant",
})
OVERFLOWS_AFTER_STEP_0["G"].update(c="1e300", b="-1.000001")


@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example((HUGE_SUPPORT_EXPONENT, False))
@given(ini_sections())
def test_curvature_exits_only_with_documented_codes(tmp_path, drawn):
    sections, stray = drawn
    cfg = write_sections(tmp_path / "h.cfg", sections)
    try:
        grid = cli.parse_config(cfg).config.grid
    except cli.ConfigError:
        grid = axisym_grid(n=2, m_theta=16)
    field = tmp_path / "field.csv"
    write_field_csv(field, grid, wavy_gamma(grid))
    argv = ["curvature", str(field), str(cfg), "--out", str(tmp_path / "t.csv")]
    assert_exit(*main_quietly(argv), (0, 64, 65), stray)


@settings(max_examples=50, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example((HUGE_SUPPORT_EXPONENT, False))
@example((OVERFLOWS_AFTER_STEP_0, False))
@given(ini_sections())
def test_run_exits_only_with_documented_codes(tmp_path, drawn):
    sections, stray = drawn
    cfg = write_sections(tmp_path / "h.cfg", sections)
    argv = ["run", str(cfg), "--out", str(tmp_path / "out"), "--t-max", "1e-3"]
    assert_exit(*main_quietly(argv), (0, 2, 3, 64, 65), stray)


@pytest.mark.parametrize(
    "edits, message",
    [
        # a typo would otherwise run with the default tolerance and exit 0
        pytest.param(
            {"flow__tol_residul": "1e-9"}, "unknown key 'tol_residul' in section [flow]",
            id="misspelled-key",
        ),
        pytest.param({"extra__t_max": "1e-3"}, "unknown section [extra]", id="unknown-section"),
        pytest.param({"Flow__t_max": "1e-3"}, "unknown section [Flow]", id="capitalised-section"),
        # configparser would lend [DEFAULT]'s keys to every section
        pytest.param(
            {"DEFAULT__t_max": "1e-3"}, "unknown section [DEFAULT]", id="default-section"
        ),
    ],
)
def test_stray_key_or_section_exits_64(tmp_path, capsys, edits, message):
    cfg = make_cfg(tmp_path / "s.cfg", **edits)
    out = tmp_path / "out"
    for argv in (["validate", str(cfg)], ["run", str(cfg), "--out", str(out)]):
        assert cli.main(argv) == 64, argv[0]
        assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "psi_mode, bound",
    [
        pytest.param("identity", "dt = 0.0 at node (0,): D = inf", id="identity"),
        # Psi'(Q) Q = Q / Q^2 is 0 * inf at Q = inf
        pytest.param("neg_reciprocal", "dt = nan at node (0,): D = nan", id="neg_reciprocal"),
    ],
)
def test_forcing_that_overflows_at_step_0_diverges(tmp_path, capsys, psi_mode, bound):
    # u^a = 1.3^1e308 overflows, so Q = inf: the first step's bound
    # degenerates and the run ends diverged, with no RuntimeWarning on the way
    cfg = make_cfg(tmp_path / "o.cfg", G__a="1e308", flow__psi_mode=psi_mode)
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "diverged" and summary["steps"] == 0
    assert summary["detail"] == f"step-size bound degenerated to {bound}, rho = 1.3"
    capsys.readouterr()


@pytest.mark.parametrize(
    "config, blocked, make",
    [
        pytest.param("sphere_expand.cfg", "out/history.csv", "mkdir", id="history-is-a-directory"),
        pytest.param("aniso_s2.cfg", "out/mesh_00000000.obj", "mkdir", id="mesh-is-a-directory"),
        pytest.param("sphere_expand.cfg", "out", "touch", id="out-is-a-file"),
        pytest.param("sphere_expand.cfg", "table.csv", "mkdir", id="curvature-out-is-a-directory"),
        pytest.param("sphere_expand.cfg", "missing/table.csv", None, id="curvature-out-in-no-directory"),
    ],
)
def test_unwritable_out_exits_64(tmp_path, capsys, config, blocked, make):
    cfg = str(CONFIGS / config)
    blocked = tmp_path / blocked
    if make:
        blocked.parent.mkdir(exist_ok=True)
        getattr(blocked, make)()
    if blocked.name == "table.csv":
        field = tmp_path / "field"
        assert cli.main(["run", cfg, "--out", str(field), "--t-max", "0.01"]) == 3
        capsys.readouterr()
        argv = ["curvature", str(field / "final_field.csv"), cfg, "--out", str(blocked)]
    else:
        argv = ["run", cfg, "--out", str(tmp_path / "out"), "--t-max", "0.01"]
    assert cli.main(argv) == 64
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert str(blocked) in err and "Traceback" not in err


def test_usage_errors_exit_64(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["run"])  # missing config argument
    assert info.value.code == 64
    with pytest.raises(SystemExit) as info:
        cli.main(["selfcheck"])  # no such command
    assert info.value.code == 64
    with pytest.raises(SystemExit) as info:
        cli.main([])
    assert info.value.code == 64
    with pytest.raises(SystemExit) as info:
        cli.main(["run", "x.cfg", "--strict"])  # `validate CONFIG` is the gate
    assert info.value.code == 64
    assert "unrecognized arguments: --strict" in capsys.readouterr().err
    with pytest.raises(SystemExit) as info:
        cli.main(["run", "x.cfg", "--tol-residual", "1e-2"])  # [flow] tol_residual is its one source
    assert info.value.code == 64
    assert "unrecognized arguments: --tol-residual" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.strip() == "starflow 0.1.0"


def test_validate_isotropic(tmp_path, capsys):
    cfg = make_cfg(tmp_path / "v.cfg")
    assert cli.main(["validate", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "coincident" in out
    assert "stationary sphere radius: R = 1" in out
    assert "condition radial_scaling" in out and "(holds)" in out
    assert "margin = -0" not in out  # a = 0 gives +0, never a signed zero


def test_validate_anisotropic_and_failing(tmp_path, capsys):
    aniso = make_cfg(tmp_path / "a.cfg", G__psi="0.2 0 0 1")
    assert cli.main(["validate", str(aniso)]) == 0
    out = capsys.readouterr().out
    assert "barrier radii: r1" in out and "coincident" not in out

    bad = make_cfg(tmp_path / "b.cfg", G__b="1.0")
    assert cli.main(["validate", str(bad)]) == 1
    assert "no admissible barrier radii" in capsys.readouterr().out

    # the stationary sphere, radius 1e-30, lies outside (1e-6, 1e6) too; at
    # a + b + beta = 0 no sphere is isolated
    for name, edits in (("t", {"G__c": "1e-30"}), ("s", {"G__b": "-1.0"})):
        cfg = make_cfg(tmp_path / f"{name}.cfg", **edits)
        assert cli.main(["validate", str(cfg)]) == 1
        out = capsys.readouterr().out
        assert "no admissible barrier radii" in out and "no stationary sphere radius" in out


def test_bundled_configs_parse_and_validate(capsys):
    import pathlib

    here = pathlib.Path(__file__).resolve().parents[1] / "configs"
    names = sorted(p.name for p in here.glob("*.cfg"))
    assert names == ["aniso_s2.cfg", "sphere_contract.cfg", "sphere_expand.cfg"]
    for name in names:
        setup = cli.parse_config(here / name)
        assert setup.config.beta > 0
        assert cli.main(["validate", str(here / name)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "config, start, steps, rejected",
    [
        ("sphere_expand.cfg", None, 258, 0),
        ("sphere_contract.cfg", None, 253, 0),
        ("aniso_s2.cfg", None, 282, 2),
        # flowbench's aniso_converge problem at its default amplitude
        ("aniso_s2.cfg", flow.Perturbed(R=1.0, amplitude=0.1), 214, 2),
    ],
    ids=["sphere_expand", "sphere_contract", "aniso_s2", "aniso_converge"],
)
def test_bundled_configs_take_readmes_step_counts(config, start, steps, rejected):
    setup = cli.parse_config(CONFIGS / config)
    res = flow.run(setup.config, flow.initial_gamma(start or setup.initial, setup.config.grid))
    assert res.status == flow.STATUS_CONVERGED, res.detail
    assert (res.state.step, res.rejected_steps) == (steps, rejected)


MARGINS_A0 = (  # the five conditions at a = 0, by radial margin -(a + b + beta)
    "condition radial_scaling: margin = {m} ({s})\n"
    "condition support_negative: margin = 0 (boundary)\n"
    "condition radial_contraction: margin = {c} ({t})\n"
    "condition support_free: margin = {c} ({t})\n"
    "condition support_nonzero: margin = 0 (boundary)\n"
)
WRONG_WAY = (
    "no admissible barrier radii: a + b + beta > 0: sphere comparison runs the "
    "wrong way, no inner/outer pair exists\n"
)
SCALE_INVARIANT = "a + b + beta = 0: forcing is scale-invariant, radii are not pinned\n"
OUT_OF_RANGE = "no sphere radius inside [1e-06, 1e+06] (root at log r = {})\n"
ANISO = {"G__psi": "0.2 0 0 1"}


@pytest.mark.parametrize(
    "config, edits, code, stdout",
    [
        # psi = exp(0.2 <xi, e_z>) ranges over [e^-0.2, e^0.2]; with F(1, 1) = 1,
        # beta = 1 and G = psi rho^-2 the barrier radii are those extrema
        ("aniso_s2.cfg", {}, 0,
         f"barrier radii: r1 = {np.exp(-0.2):.12g}, r2 = {np.exp(0.2):.12g}\n"
         + MARGINS_A0.format(m=1, s="holds", c=1, t="holds")),
        ("sphere_contract.cfg", {}, 0,
         "barrier radii: r1 = 0.333333333333, r2 = 0.333333333333 "
         "(coincident: forcing pins a single sphere)\n"
         + MARGINS_A0.format(m=1, s="holds", c=2, t="holds")
         + "stationary sphere radius: R = 0.333333333333\n"),
        ("sphere_expand.cfg", {}, 0,
         "barrier radii: r1 = 1, r2 = 1 (coincident: forcing pins a single sphere)\n"
         + MARGINS_A0.format(m=1, s="holds", c=1, t="holds")
         + "stationary sphere radius: R = 1\n"),
        (None, {**ANISO, "G__b": "1.0"}, 1,
         WRONG_WAY + MARGINS_A0.format(m=-2, s="fails", c=-2, t="fails")),
        (None, {"G__b": "-1.0"}, 1,
         "no admissible barrier radii: " + SCALE_INVARIANT
         + MARGINS_A0.format(m=0, s="boundary", c=0, t="boundary")
         + "no stationary sphere radius: " + SCALE_INVARIANT),
        (None, {"G__c": "1e-30"}, 1,
         "no admissible barrier radii: " + OUT_OF_RANGE.format(-69.1)
         + MARGINS_A0.format(m=1, s="holds", c=1, t="holds")
         + "no stationary sphere radius: " + OUT_OF_RANGE.format(-69.1)),
        (None, {**ANISO, "G__c": "1e-30"}, 1,
         "no admissible barrier radii: " + OUT_OF_RANGE.format(-69.3)
         + MARGINS_A0.format(m=1, s="holds", c=1, t="holds")),
        # the stationary sphere exists whatever the sign of a + b + beta
        (None, {"G__b": "0.5"}, 1,
         WRONG_WAY + MARGINS_A0.format(m=-1.5, s="fails", c=-1.5, t="fails")
         + "stationary sphere radius: R = 1\n"),
    ],
    ids=[
        "aniso_s2", "sphere_contract", "sphere_expand", "wrong_way",
        "scale_invariant", "out_of_range_isotropic", "out_of_range_anisotropic",
        "wrong_way_isotropic",
    ],
)
def test_validate_prints_the_exact_barrier_radii(tmp_path, capsys, config, edits, code, stdout):
    if config is None:
        path = make_cfg(tmp_path / "v.cfg", **edits)
    else:
        path = CONFIGS / config
    assert cli.main(["validate", str(path)]) == code
    assert capsys.readouterr().out == stdout


def test_validate_and_run_agree_on_a_tiny_beta(tmp_path, capsys):
    # sphere_expand.cfg at beta = 1e-310 and c = 2: the stationary sphere
    # 2 rho^-2 = 1 that validate prints is the limit that run reaches
    text = (CONFIGS / "sphere_expand.cfg").read_text()
    edited = text.replace("\nbeta = 1.0\n", "\nbeta = 1e-310\n").replace("\nc = 1.0\n", "\nc = 2.0\n")
    assert "\nbeta = 1e-310\n" in edited and "\nc = 2.0\n" in edited
    cfg = tmp_path / "tiny_beta.cfg"
    cfg.write_text(edited)
    assert cli.main(["validate", str(cfg)]) == 0
    captured = capsys.readouterr()
    assert "barrier radii: r1 = 1.41421356237, r2 = 1.41421356237 " in captured.out
    assert "stationary sphere radius: R = 1.41421356237\n" in captured.out
    assert captured.err == ""
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
    setup = cli.parse_config(cfg)
    rho = np.exp(spheregrid.read_field_csv(out / "final_field.csv", setup.config.grid))
    assert np.max(np.abs(rho - np.sqrt(2.0))) <= setup.config.tol_residual
    capsys.readouterr()


def test_bundled_sphere_expand_runs_to_convergence(tmp_path, capsys):
    import pathlib

    cfg = pathlib.Path(__file__).resolve().parents[1] / "configs" / "sphere_expand.cfg"
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "converged"
    capsys.readouterr()


def test_config_hash_ignores_formatting_not_values(tmp_path):
    plain = make_cfg(tmp_path / "p.cfg")
    shuffled = tmp_path / "s.cfg"
    # same content: reordered keys, noise whitespace, inline comment
    shuffled.write_text(
        "[initial]\nradius = 1.3\nkind = constant\n\n"
        "[grid]\nm_theta = 16\nmode = axisym\nn = 2\n\n"
        "[G]\nb = -2.0  # inverse square\na = 0.0\nc = 1.0\n\n"
        "[F]\nk = 2\nvariant = sigma_k_root\n\n"
        "[flow]\ncadence = 50\ntol_residual = 1e-6\nt_max = 50.0\n"
        "psi_mode = identity\nbeta = 1.0\n"
    )
    h1 = cli.parse_config(plain).config_hash
    h2 = cli.parse_config(shuffled).config_hash
    assert h1 == h2

    other = make_cfg(tmp_path / "o.cfg", initial__radius="1.30001")
    assert cli.parse_config(other).config_hash != h1


def test_curvature_table_on_stationary_field(tmp_path, capsys):
    cfg = make_cfg(tmp_path / "st.cfg", initial__radius="1.0")
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["steps"] == 0  # stationary data converges immediately

    table = tmp_path / "curv.csv"
    code = cli.main(
        ["curvature", str(out / "final_field.csv"), str(cfg), "--out", str(table)]
    )
    assert code == 0
    header, rows = read_curvature(table)
    assert "mode=axisym" in header and "m_theta=16" in header
    assert len(rows) == 16
    for row in rows:
        assert float(row["rho"]) == 1.0
        assert float(row["u"]) == 1.0
        assert float(row["kappa_1"]) == pytest.approx(1.0, abs=1e-14)
        assert float(row["kappa_2"]) == pytest.approx(1.0, abs=1e-14)
        assert abs(float(row["q_minus_1"])) <= 1e-14
        assert row["cone_ok"] == "1"
    capsys.readouterr()


def test_curvature_reproduces_run_residual(tmp_path, capsys):
    cfg = make_cfg(tmp_path / "rt.cfg")
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out), "--t-max", "0.01"]) == 3
    summary = json.loads((out / "summary.json").read_text())

    table = tmp_path / "curv.csv"
    assert (
        cli.main(
            ["curvature", str(out / "final_field.csv"), str(cfg), "--out", str(table)]
        )
        == 0
    )
    _, rows = read_curvature(table)
    # identity normalization: residual is exactly max |Q - 1|; the field CSV
    # round-trips bit-for-bit, so the numbers must match to the last digit
    rebuilt = max(abs(float(row["q_minus_1"])) for row in rows)
    assert rebuilt == pytest.approx(summary["final_residual"], abs=1e-15)
    assert summary["final_residual"] > 1e-2  # far from converged, so meaningful
    capsys.readouterr()


def test_curvature_gates(tmp_path, capsys):
    cfg = make_cfg(tmp_path / "g.cfg")
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out), "--t-max", "0.01"]) == 3
    field = out / "final_field.csv"

    # config on a different grid: refuse
    wider = make_cfg(tmp_path / "wider.cfg", grid__m_theta="32")
    assert cli.main(["curvature", str(field), str(wider)]) == 65

    # truncated field file: refuse
    lines = field.read_text().splitlines()
    trunc = tmp_path / "trunc.csv"
    trunc.write_text("\n".join(lines[:5]) + "\n")
    assert cli.main(["curvature", str(trunc), str(cfg)]) == 65

    # a foreign CSV: refuse
    foreign = tmp_path / "foreign.csv"
    foreign.write_text("x,y\n1,2\n")
    assert cli.main(["curvature", str(foreign), str(cfg)]) == 65
    # the config is read first: a broken config exits 64 whatever the field
    assert cli.main(["curvature", str(foreign), str(tmp_path / "missing.cfg")]) == 64

    # a row in the middle with a missing or an extra column, or a value that
    # is not a number: refuse
    middle = len(lines) // 2
    for name, row in (
        ("short", lines[middle].rsplit(",", 1)[0]),
        ("long", lines[middle] + ",0.5"),
        ("text", lines[middle].rsplit(",", 1)[0] + ",abc"),
    ):
        bad = tmp_path / f"{name}.csv"
        bad.write_text("\n".join(lines[:middle] + [row] + lines[middle + 1 :]) + "\n")
        assert cli.main(["curvature", str(bad), str(cfg)]) == 65, name
    capsys.readouterr()


def test_curvature_refuses_a_field_header_larger_than_its_rows(tmp_path, capsys, monkeypatch):
    # a 100-byte file whose header asks for 2e10 nodes: it is read on the
    # configured grid, and no Grid is built from its header
    build = spheregrid.Grid.__init__

    def bounded(grid, mode, n, m_theta, m_phi):
        nodes = m_theta * max(m_phi, 1)
        assert nodes <= 10**6, f"Grid asked for {nodes} nodes"
        build(grid, mode, n, m_theta, m_phi)

    monkeypatch.setattr(spheregrid.Grid, "__init__", bounded)
    field = tmp_path / "huge.csv"
    header = "# starflow-field-v1 mode=full_s2 n=2 m_theta=100000 m_phi=200000"
    field.write_text(header + "\ntheta,phi,value\n0.1,0.2,0.0\n")
    cfg = make_cfg(tmp_path / "h.cfg")
    expected = "# starflow-field-v1 mode=axisym n=2 m_theta=16 m_phi=0"
    message = f"{field} begins {header!r}; a field on this grid begins {expected!r}"
    with pytest.raises(ValueError) as info:
        spheregrid.read_field_csv(field, axisym_grid(n=2, m_theta=16))
    assert str(info.value) == message
    assert cli.main(["curvature", str(field), str(cfg)]) == 65
    assert capsys.readouterr().err == f"gate failure: cannot read field file: {message}\n"


def test_config_asking_for_more_than_max_nodes_exits_64(tmp_path):
    # validate and run refuse the grid before allocating it: under a 2 GiB
    # address-space limit, building its 2e10-node tables fails with a
    # MemoryError (exit 70) instead
    huge = make_cfg(
        tmp_path / "huge.cfg",
        grid__mode="full_s2",
        grid__n=None,
        grid__m_theta="100000",
        grid__m_phi="200000",
    )
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    probe = (
        "import resource, sys\n"
        "from starflow import cli\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    out = tmp_path / "out"
    for argv in (["validate", str(huge)], ["run", str(huge), "--out", str(out)]):
        proc = subprocess.run(
            [sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 64, (argv[0], proc.stderr)
        assert proc.stderr == (
            "configuration error: grid of 20000000000 nodes exceeds MAX_NODES = 4194304\n"
        )
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "run", "curvature"])
def test_dimension_whose_curvatures_exceed_max_nodes_exits_64(tmp_path, capsys, command):
    # 48 nodes, each with n = 1e12 curvatures: the grid is refused before
    # validate's F(1, ..., 1) or a step's kappa table asks for terabytes
    text = (pathlib.Path(__file__).resolve().parents[1] / "configs" / "sphere_expand.cfg").read_text()
    assert "\nn = 2\n" in text
    cfg = tmp_path / "huge_n.cfg"
    cfg.write_text(text.replace("\nn = 2\n", "\nn = 1000000000000\n"))
    field = tmp_path / "field.csv"
    write_field_csv(field, axisym_grid(n=2, m_theta=48), np.zeros(48))
    out = tmp_path / "out"
    argv = {
        "validate": ["validate", str(cfg)],
        "run": ["run", str(cfg), "--out", str(out)],
        "curvature": ["curvature", str(field), str(cfg), "--out", str(out)],
    }[command]
    assert cli.main(argv) == 64
    captured = capsys.readouterr()
    assert captured.err == (
        "configuration error: hypersurface dimension n = 1000000000000 on 48 nodes needs "
        "48000000000000 curvatures, more than MAX_NODES = 4194304\n"
    )
    assert captured.out == ""
    assert not out.exists()


# e^gamma underflows to 0 (u = 0) or overflows to inf (u = inf, kappa = 0)
@pytest.mark.parametrize("value, u", [("-800.0", "0"), ("800.0", "inf")])
def test_curvature_refuses_a_field_that_is_not_star_shaped(tmp_path, capsys, value, u):
    cfg = make_cfg(tmp_path / "s.cfg")
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out), "--t-max", "0.01"]) == 3
    capsys.readouterr()
    # rows follow the version line and the column header; node 5 gets gamma
    lines = (out / "final_field.csv").read_text().splitlines()
    lines[2 + 5] = lines[2 + 5].split(",")[0] + "," + value
    field = tmp_path / "field.csv"
    field.write_text("\n".join(lines) + "\n")
    table = tmp_path / "table.csv"
    assert cli.main(["curvature", str(field), str(cfg), "--out", str(table)]) == 65
    err = capsys.readouterr().err
    assert err.startswith(f"gate failure: stored field is not a star-shaped graph at node (5,): u = {u},")
    assert "Traceback" not in err and "Warning" not in err
    assert not table.exists()


def assert_curvature_refuses_header(tmp_path, capsys, edit):
    """curvature exits 65, quoting both lines, on the run's final field with
    its version line replaced by edit(version line)."""
    cfg = make_cfg(tmp_path / "k.cfg")
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out), "--t-max", "0.01"]) == 3
    capsys.readouterr()
    lines = (out / "final_field.csv").read_text().splitlines()
    header = edit(lines[0])
    assert header != lines[0]
    field = tmp_path / "field.csv"
    field.write_text("\n".join([header] + lines[1:]) + "\n")
    assert cli.main(["curvature", str(field), str(cfg)]) == 65
    err = capsys.readouterr().err
    assert err == (
        f"gate failure: cannot read field file: {field} begins {header!r};"
        f" a field on this grid begins {lines[0]!r}\n"
    )


@pytest.mark.parametrize("key", ["mode", "n", "m_theta", "m_phi"])
def test_curvature_refuses_a_field_header_without_a_key(tmp_path, capsys, key):
    assert_curvature_refuses_header(
        tmp_path, capsys, lambda line: " ".join(t for t in line.split() if not t.startswith(key + "="))
    )


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda line: line.replace("m_theta=16", "m_theta=32"), id="another-grid"),
        pytest.param(lambda line: line + " junk", id="trailing-token"),
    ],
)
def test_curvature_refuses_a_field_header_of_another_grid(tmp_path, capsys, edit):
    assert_curvature_refuses_header(tmp_path, capsys, edit)


def test_curvature_refuses_a_field_of_other_columns(tmp_path, capsys):
    cfg = make_cfg(
        tmp_path / "s2.cfg",
        grid__mode="full_s2",
        grid__n=None,
        grid__m_theta="8",
        grid__m_phi="16",
    )
    field = tmp_path / "field.csv"
    write_field_csv(field, spheregrid.full_s2_grid(m_theta=8, m_phi=16), np.zeros((8, 16)))
    text = field.read_bytes()
    field.write_bytes(text.replace(b"\ntheta,phi,value\r\n", b"\nrho,u,kappa_1\r\n", 1))
    assert field.read_bytes() != text
    table = tmp_path / "table.csv"
    assert cli.main(["curvature", str(field), str(cfg), "--out", str(table)]) == 65
    assert capsys.readouterr().err == (
        f"gate failure: cannot read field file: {field} has columns 'rho,u,kappa_1';"
        " a field on this grid has 'theta,phi,value'\n"
    )
    assert not table.exists()


def test_full_s2_run_emits_meshes(tmp_path, capsys):
    cfg = make_cfg(
        tmp_path / "s2.cfg",
        grid__mode="full_s2",
        grid__n=None,
        grid__m_theta="8",
        grid__m_phi="16",
        G__psi="0.2 0 0 1",
        initial__kind="spheroid",
        initial__radius=None,
        initial__a_axis="1.1",
        initial__b_axis="0.9",
        flow__cadence="1",
        output__obj_every="4",
    )
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out), "--t-max", "1e-3"]) == 3
    summary = json.loads((out / "summary.json").read_text())
    meshes = [name for name in summary["files"] if name.endswith(".obj")]
    assert meshes and meshes[0] == "mesh_00000000.obj"
    for name in meshes:
        assert (out / name).is_file()
    text = (out / meshes[0]).read_text()
    assert text.startswith("# starflow surface export")
    assert text.count("\nf ") > 0
    capsys.readouterr()


CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


def test_config_hash_covers_cli_overrides(tmp_path, capsys):
    cfg = make_cfg(tmp_path / "h.cfg")

    def run_hash(name, *extra):
        out = tmp_path / name
        cli.main(["run", str(cfg), "--out", str(out), *extra])
        return json.loads((out / "summary.json").read_text())["config_hash"]

    file_hash = cli.parse_config(cfg).config_hash
    # without overrides the hash is the file's own
    assert run_hash("none") == file_hash
    # an override changes the problem, and the hash with it
    short = run_hash("short", "--t-max", "0.01")
    assert short != file_hash and short != run_hash("long", "--t-max", "0.02")
    # so does an edit of the file's own tol_residual
    loose = make_cfg(tmp_path / "loose.cfg", flow__tol_residual="1e-2")
    assert cli.parse_config(loose).config_hash != file_hash
    capsys.readouterr()


def test_parse_config_takes_the_t_max_override(tmp_path, capsys):
    cfg = make_cfg(tmp_path / "t.cfg")
    assert cli.parse_config(cfg).config.t_max == 50.0
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out), "--t-max", "0.37"]) == 3
    setup = cli.parse_config(cfg, t_max=0.37)
    assert setup.config.t_max == 0.37
    assert setup.config_hash == json.loads((out / "summary.json").read_text())["config_hash"]
    # an override is refused exactly as the same value written in the file
    for value in (-1.0, float("nan"), float("inf")):
        with pytest.raises(cli.ConfigError) as override:
            cli.parse_config(cfg, t_max=value)
        with pytest.raises(cli.ConfigError) as written:
            cli.parse_config(make_cfg(tmp_path / "w.cfg", flow__t_max=repr(value)))
        assert str(override.value) == str(written.value)
    capsys.readouterr()


def canonical_sha256(sections):
    """README's config_hash, recomputed: the SHA-256 hex digest of the
    sections as compact JSON with sorted keys."""
    text = json.dumps(sections, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_config_hash_is_the_sha256_of_the_canonical_json(tmp_path, capsys):
    # make_cfg writes BASE_SECTIONS as they are, so they are the parsed sections
    cfg = make_cfg(tmp_path / "h.cfg")
    file_hash = cli.parse_config(cfg).config_hash
    assert file_hash == canonical_sha256(BASE_SECTIONS)
    assert file_hash == "a9fc7ddce69c9664a8bbd074d9a312aa4792645b5d7abc2c99856f19ef48b960"
    assert cli.parse_config(CONFIGS / "aniso_s2.cfg").config_hash == (
        "d29eb06b75e2f2aaa43e71e9b4454c0f07f83a30317b125c98d1fea9dbbb6bc2"
    )
    # --t-max enters [flow] as the repr of the float it parses to
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out), "--t-max", "1e-2"]) == 3
    overridden = {**BASE_SECTIONS, "flow": {**BASE_SECTIONS["flow"], "t_max": "0.01"}}
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config_hash"] == canonical_sha256(overridden)
    capsys.readouterr()


def test_step0_abort_writes_strict_json(tmp_path, capsys):
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.read(CONFIGS / "aniso_s2.cfg")
    cp["initial"] = {"kind": "perturbed", "radius": "1.0", "amplitude": "1.5"}
    cfg = tmp_path / "bump.cfg"
    with open(cfg, "w") as fh:
        cp.write(fh)
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 2

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
    assert summary["status"] == "cone_exit"
    assert summary["steps"] == 0 and summary["records"] == 0
    assert summary["final_residual"] is None
    capsys.readouterr()


def test_non_star_shaped_initial_data_exits_65(tmp_path, capsys):
    # gamma = log(1e-300) + 100 cos(theta) underflows rho = e^gamma to 0 near
    # one pole, so u = rho/omega is not positive there: rejected before any step
    cfg = make_cfg(
        tmp_path / "flat.cfg",
        initial__kind="perturbed",
        initial__radius="1e-300",
        initial__amplitude="100.0",
    )
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 65
    err = capsys.readouterr().err
    assert "initial profile is not a star-shaped graph at node (9,): u = " in err
    assert not out.exists()


def test_overflowing_initial_data_exits_65_without_warnings(tmp_path):
    # e^gamma overflows near one pole and underflows near the other; the gate
    # rejects the data on its own, with no numpy RuntimeWarning on stderr
    cfg = make_cfg(
        tmp_path / "huge.cfg",
        initial__kind="perturbed",
        initial__radius="1.0",
        initial__amplitude="1000.0",
    )
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "starflow.cli", "run", str(cfg),
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 65, proc.stderr
    # e^gamma overflows first at the north-pole node
    assert "not a star-shaped graph at node (0,): u = inf" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_product_variant_runs_from_the_cli(tmp_path, capsys):
    # F = sigma_2^{1/4} (sum of 1/kappa_i)^{-1/2}: F(1, 1) = 2^{-1/2}, so the
    # stationary sphere of G = rho^{-2} has radius sqrt(2)
    terms = "0.5*sigma_k_root(2), 0.5*power_mean(-1)"
    cfg = make_cfg(
        tmp_path / "prod.cfg", F__variant="product", F__k=None, F__terms=terms
    )
    assert cli.main(["validate", str(cfg)]) == 0
    assert "stationary sphere radius: R = 1.41421356237" in capsys.readouterr().out

    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
    record = json.loads((out / "summary.json").read_text())["final_record"]
    assert record["rho_min"] == pytest.approx(np.sqrt(2.0), rel=1e-5)
    assert record["rho_max"] == pytest.approx(np.sqrt(2.0), rel=1e-5)

    # the variant:args form is not a product term
    colon_form = make_cfg(
        tmp_path / "colon.cfg", F__variant="product", F__terms="sigma_k_root:2"
    )
    assert cli.main(["validate", str(colon_form)]) == 64
    capsys.readouterr()


def test_an_internal_error_exits_70_with_its_traceback(tmp_path, monkeypatch, capsys):
    # the one branch that imports traceback
    def fail(args):
        raise RuntimeError("a bug")

    monkeypatch.setattr(cli, "cmd_validate", fail)
    assert cli.main(["validate", str(make_cfg(tmp_path / "p.cfg"))]) == 70
    err = capsys.readouterr().err
    assert err.startswith("Traceback") and err.endswith("RuntimeError: a bug\n")


def test_import_loads_no_scipy(tmp_path):
    # nor OpenSSL: hashlib maps libcrypto into the process (~3.6 MB of
    # resident memory), so starflow hashes with the interpreter's built-in
    # SHA-256.  numpy < 2 imports numpy.random, and with it hashlib, on its
    # own; starflow must add no _hashlib to what numpy loaded.  Nor
    # dataclasses, whose classes cost every process code generation at import.
    # Nor csv, traceback (read only on exit 70) or __future__: each is a
    # module that every process would import for nothing
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    cfg = make_cfg(tmp_path / "p.cfg")
    out = tmp_path / "out"
    probe = (
        "import sys, numpy\n"
        "numpy_hashlib = '_hashlib' in sys.modules\n"
        "numpy_dataclasses = 'dataclasses' in sys.modules\n"
        "numpy_loaded = {m for m in ('csv', 'traceback', '__future__') if m in sys.modules}\n"
        "import starflow.cli as cli\n"
        f"cfg, out = {str(cfg)!r}, {str(out)!r}\n"
        "assert cli.main(['run', cfg, '--out', out, '--t-max', '0.01']) == 3\n"
        "assert cli.main(['validate', cfg]) == 0\n"
        "field = out + '/final_field.csv'\n"
        "assert cli.main(['curvature', field, cfg, '--out', out + '/c.csv']) == 0\n"
        "loaded = [m for m in sys.modules if m.startswith('scipy')]\n"
        "assert not loaded, loaded\n"
        "assert numpy_hashlib or '_hashlib' not in sys.modules, 'starflow loaded _hashlib'\n"
        "assert numpy_dataclasses or 'dataclasses' not in sys.modules, "
        "'starflow loaded dataclasses'\n"
        "extra = {'csv', 'traceback', '__future__'} & set(sys.modules) - numpy_loaded\n"
        "assert not extra, f'starflow loaded {extra}'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "c.csv").exists()
