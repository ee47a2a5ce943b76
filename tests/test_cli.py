"""End-to-end command-line tests: exit codes, file outputs, gates.

Everything calls cli.main() in process; argparse-level usage errors surface
as SystemExit(64) and are asserted as such.
"""

import configparser
import csv
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from starflow import cli
from starflow.diagnostics import read_history_csv

BASE_SECTIONS = {
    "flow": {
        "beta": "1.0",
        "psi_mode": "identity",
        "dt_safety": "0.5",
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
    code = cli.main(["run", str(cfg), "--out", str(out), "--strict"])
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
    cfg = make_cfg(tmp_path / "run.cfg")
    out = tmp_path / "loose"
    assert cli.main(["run", str(cfg), "--out", str(out), "--tol-residual", "1e-2"]) == 0
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


def test_run_strict_gate_refuses_bad_scaling(tmp_path):
    cfg = make_cfg(tmp_path / "bad.cfg", G__b="1.0")
    out = tmp_path / "out"
    code = cli.main(["run", str(cfg), "--out", str(out), "--strict"])
    assert code == 65
    assert not out.exists()  # refused before writing anything


def test_config_errors_exit_64(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    assert cli.main(["run", str(missing), "--out", str(tmp_path / "o")]) == 64

    bad_dt = make_cfg(tmp_path / "a.cfg", flow__dt_safety="0.0")
    assert cli.main(["run", str(bad_dt), "--out", str(tmp_path / "o")]) == 64

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
        pytest.param({"variant": "quotient_root", "l": "2"}, id="quotient-l-not-below-k"),
        pytest.param({"variant": "power_mean", "k": None, "p": "1.5"}, id="power-mean-p-positive"),
        pytest.param(
            {"variant": "product", "terms": "0.5*sigma_k_root(2), 0.4*power_mean(-1)"},
            id="product-weights-not-summing-to-1",
        ),
        pytest.param({"variant": "product", "terms": "1.0*sigma_k_root()"}, id="factor-no-args"),
        pytest.param({"variant": "product", "terms": "1.0*sigma_k_root(x)"}, id="factor-not-int"),
        pytest.param({"variant": "product", "terms": "1.0*sigma_k_root(1:1)"}, id="factor-extra-arg"),
        pytest.param({"variant": "product", "terms": "1.0*quotient_root(2)"}, id="factor-one-arg-short"),
        pytest.param({"variant": "product", "terms": "1..0*sigma_k_root(2)"}, id="factor-bad-weight"),
    ],
)
def test_invalid_F_exits_64(tmp_path, capsys, F):
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
        pytest.param({"flow__tol_residual": "-1"}, [], id="tol_residual-negative"),
        pytest.param(
            {"grid__mode": "full_s2", "grid__m_theta": "8", "grid__m_phi": "16", "G__psi": "nan 0 0 1"},
            [],
            id="psi-strength-nan",
        ),
        pytest.param({}, ["--t-max", "nan"], id="override-t-max-nan"),
        pytest.param({}, ["--t-max", "-1"], id="override-t-max-negative"),
        pytest.param({}, ["--tol-residual", "-1"], id="override-tol-residual-negative"),
    ],
)
def test_nonfinite_or_nonpositive_run_values_exit_64(tmp_path, capsys, edits, argv):
    cfg = make_cfg(tmp_path / "v.cfg", **edits)
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out), *argv]) == 64
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "Traceback" not in err
    assert not out.exists()


def test_unwritable_out_exits_64(tmp_path, capsys):
    cfg = make_cfg(tmp_path / "o.cfg")
    taken = tmp_path / "taken"
    taken.write_text("")
    assert cli.main(["run", str(cfg), "--out", str(taken)]) == 64
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and str(taken) in err

    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out), "--t-max", "0.01"]) == 3
    table = tmp_path / "missing_dir" / "x.csv"
    field = str(out / "final_field.csv")
    assert cli.main(["curvature", field, str(cfg), "--out", str(table)]) == 64
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and str(table) in err


def test_usage_errors_exit_64():
    with pytest.raises(SystemExit) as info:
        cli.main(["run"])  # missing config argument
    assert info.value.code == 64
    with pytest.raises(SystemExit) as info:
        cli.main(["selfcheck", "--suite", "bogus"])
    assert info.value.code == 64
    with pytest.raises(SystemExit) as info:
        cli.main([])
    assert info.value.code == 64


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


def test_validate_prints_the_exact_barrier_radii(capsys):
    # psi = exp(0.2 <xi, e_z>) ranges over [e^-0.2, e^0.2]; with F(1, 1) = 1,
    # beta = 1 and G = psi rho^-2 the barrier radii are those extrema
    cfg = pathlib.Path(__file__).resolve().parents[1] / "configs" / "aniso_s2.cfg"
    assert cli.main(["validate", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert f"r1 = {np.exp(-0.2):.12g}, r2 = {np.exp(0.2):.12g}" in out
    assert "r1 = 0.818730753078, r2 = 1.22140275816" in out


def test_bundled_sphere_expand_runs_to_convergence(tmp_path, capsys):
    import pathlib

    cfg = pathlib.Path(__file__).resolve().parents[1] / "configs" / "sphere_expand.cfg"
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "converged"
    capsys.readouterr()


def test_selfcheck_all_suites(capsys):
    assert cli.main(["selfcheck", "--suite", "all", "--seed", "3"]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [entry["suite"] for entry in lines] == ["sympoly", "grid", "geometry"]
    assert all(entry.get("ok") is True for entry in lines)


def test_selfcheck_geometry_over_seeds(capsys):
    # seeds 2, 7 and 42 drew sphere radii whose full_s2 curvatures were off
    # 1/R by sqrt(eps) before the discriminant stopped cancelling
    for seed in range(20):
        assert cli.main(["selfcheck", "--suite", "geometry", "--seed", str(seed)]) == 0
        assert json.loads(capsys.readouterr().out) == {"suite": "geometry", "ok": True}


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
        "dt_safety = 0.5\npsi_mode = identity\nbeta = 1.0\n"
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


@pytest.mark.parametrize("key", ["mode", "n", "m_theta", "m_phi"])
def test_curvature_refuses_a_field_header_without_a_key(tmp_path, capsys, key):
    cfg = make_cfg(tmp_path / "k.cfg")
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out), "--t-max", "0.01"]) == 3
    capsys.readouterr()
    lines = (out / "final_field.csv").read_text().splitlines()
    header = " ".join(t for t in lines[0].split() if not t.startswith(key + "="))
    assert header != lines[0]
    field = tmp_path / "field.csv"
    field.write_text("\n".join([header] + lines[1:]) + "\n")
    assert cli.main(["curvature", str(field), str(cfg)]) == 65
    err = capsys.readouterr().err
    assert "gate failure" in err and f"lacks {key}" in err
    assert "Traceback" not in err


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
    assert run_hash("loose", "--tol-residual", "1e-2") != file_hash
    assert run_hash("short", "--t-max", "0.01") != run_hash("long", "--t-max", "0.02")
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


def test_import_loads_no_scipy():
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    probe = (
        "import sys, starflow.cli\n"
        "loaded = [m for m in sys.modules if m.startswith('scipy')]\n"
        "assert not loaded, loaded\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
