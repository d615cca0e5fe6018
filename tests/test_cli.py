"""Command-line behavior: precedence, manifests, outputs, exit codes.

Everything runs in-process through ``main(argv)`` so coverage and speed stay
reasonable; outputs land in tmp_path.
"""

import json
import math

import numpy as np
import pytest

import qlbm.cli
from qlbm.cli import main
from qlbm.lattice import load_field_qlbf
from qlbm.solver import AdvectionResult, StepRecord


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# advdiff
# ---------------------------------------------------------------------------


def test_advdiff_writes_outputs_and_passes(tmp_path, capsys):
    code, out, err = _run(
        capsys, "advdiff", "--extent", "16", "--steps", "5", "--out", str(tmp_path)
    )
    assert code == 0
    assert "max relative error vs classical" in out
    assert "elapsed" in err  # wall clock goes to stderr only
    summary = json.loads((tmp_path / "advdiff_summary.json").read_text())
    assert summary["scheme"] == "D1Q2"
    assert summary["extent"] == 16
    assert summary["max_relative_error_vs_classical"] < 1e-8
    field = load_field_qlbf(tmp_path / "field_final.qlbf")
    assert field.shape == (16,)
    np.testing.assert_allclose(field.sum(), summary["final_mass"])
    for record in summary["records"]:
        assert record["success_prob"] == pytest.approx(math.prod(record["select_probs"].values()), rel=1e-12)
    _check_run_totals(summary)


def _check_run_totals(summary):
    """The run's success probability and shot multiplier against its records' selections.

    The success probability is the product over the records; the shot
    multiplier adds up each record's own 1 / success_prob, idle records left out.
    """
    p = math.prod(p for record in summary["records"] for p in record["select_probs"].values())
    assert p < 1.0
    assert abs(summary["success_prob"] - p) <= 1e-12 * p
    shots = sum(1.0 / record["success_prob"] for record in summary["records"] if not record["zero_input"])
    assert abs(summary["shot_multiplier"] - shots) <= 1e-12 * shots


def _strict_json(path):
    """The JSON file at ``path``, refusing the NaN and Infinity that strict JSON has no word for."""
    def refuse(constant):
        raise ValueError(f"{path} holds {constant}, which is not JSON")

    return json.loads(path.read_text(), parse_constant=refuse)


def test_default_cavity_writes_a_strict_json_summary_with_a_finite_shot_multiplier(tmp_path, capsys):
    # 80 steps: the product of 158 jobs' success probabilities underflows to 0.0
    code, _, _ = _run(capsys, "cavity", "--out", str(tmp_path))
    assert code == 0
    summary = _strict_json(tmp_path / "cavity_summary.json")
    assert summary["steps"] == 80 and summary["success_prob"] == 0.0
    assert math.isfinite(summary["shot_multiplier"]) and summary["shot_multiplier"] > len(summary["records"])
    shots = sum(1.0 / record["success_prob"] for record in summary["records"] if not record["zero_input"])
    assert abs(summary["shot_multiplier"] - shots) <= 1e-12 * shots


def test_a_run_total_that_is_not_finite_is_written_as_null(tmp_path, capsys, monkeypatch):
    # a sampled step whose shots all miss the site sector cannot succeed: its 1 / success_prob is inf
    def no_success(scheme, field0, *args, **kwargs):
        field0 = np.asarray(field0, dtype=float)
        return AdvectionResult(scheme.name, np.stack([field0, field0]), [StepRecord(1, "advection", {0: 0.0})])

    monkeypatch.setattr(qlbm.cli, "run_advection_diffusion", no_success)
    code, _, _ = _run(capsys, "advdiff", "--extent", "16", "--steps", "1", "--out", str(tmp_path))
    assert code == 0
    summary = _strict_json(tmp_path / "advdiff_summary.json")
    assert summary["success_prob"] == 0.0 and summary["shot_multiplier"] is None


def test_advdiff_2d_scheme(tmp_path, capsys):
    code, out, _ = _run(
        capsys, "advdiff", "--scheme", "d2q5", "--extent", "8", "--steps", "3",
        "--velocity", "0.1,0.1", "--impulse-site", "4,4", "--out", str(tmp_path),
    )
    assert code == 0
    assert load_field_qlbf(tmp_path / "field_final.qlbf").shape == (8, 8)


def test_advdiff_reruns_are_byte_identical(tmp_path, capsys):
    args = ["advdiff", "--extent", "16", "--steps", "4"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    for name in ("field_final.qlbf", "field_final.csv", "advdiff_summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_advdiff_velocity_dimension_mismatch_is_config_error(tmp_path, capsys):
    code, _, err = _run(
        capsys, "advdiff", "--scheme", "d2q5", "--extent", "8",
        "--velocity", "0.1", "--out", str(tmp_path),
    )
    assert code == 2
    assert "configuration error" in err


def test_advdiff_impulse_outside_lattice_is_config_error(tmp_path, capsys):
    code, _, err = _run(
        capsys, "advdiff", "--extent", "16", "--impulse-site", "40", "--out", str(tmp_path)
    )
    assert code == 2
    assert "outside" in err


def test_advdiff_superunit_velocity_is_simulation_error(tmp_path, capsys):
    # |velocity| > sound speed limit pushes a collision coefficient past 1.
    code, _, err = _run(
        capsys, "advdiff", "--extent", "16", "--steps", "1",
        "--velocity", "5.0", "--out", str(tmp_path),
    )
    assert code == 3
    assert "simulation error" in err


# ---------------------------------------------------------------------------
# manifest handling
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["statevector", "sampling"])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "0.1,nan"])
def test_advdiff_non_finite_velocity_is_config_error(tmp_path, capsys, backend, bad):
    scheme, site = ("d2q5", "2,2") if "," in bad else ("d1q3", "2")
    code, _, err = _run(
        capsys, "advdiff", "--scheme", scheme, "--extent", "8", "--steps", "1",
        "--impulse-site", site, f"--velocity={bad}", "--backend", backend, "--out", str(tmp_path),
    )
    assert code == 2
    assert "finite" in err and "diverged" not in err
    assert not (tmp_path / "field_final.csv").exists()


def test_manifest_supplies_options(tmp_path, capsys):
    manifest = tmp_path / "run.manifest"
    manifest.write_text(
        "# advected scalar run\n"
        "extent = 16\n"
        "steps = 4\n"
        "impulse-value = 0.3   # dashes fold to underscores\n"
    )
    code, _, _ = _run(
        capsys, "advdiff", "--manifest", str(manifest), "--out", str(tmp_path)
    )
    assert code == 0
    summary = json.loads((tmp_path / "advdiff_summary.json").read_text())
    assert summary["extent"] == 16
    assert summary["steps"] == 4


def test_cli_flags_override_manifest(tmp_path, capsys):
    manifest = tmp_path / "run.manifest"
    manifest.write_text("extent = 16\nsteps = 9\n")
    code, _, _ = _run(
        capsys, "advdiff", "--manifest", str(manifest), "--steps", "2", "--out", str(tmp_path)
    )
    assert code == 0
    summary = json.loads((tmp_path / "advdiff_summary.json").read_text())
    assert summary["steps"] == 2
    assert summary["extent"] == 16


def test_unknown_manifest_key_is_rejected(tmp_path, capsys):
    manifest = tmp_path / "run.manifest"
    manifest.write_text("extent = 16\nturbo = yes\n")
    code, _, err = _run(capsys, "advdiff", "--manifest", str(manifest))
    assert code == 2
    assert "turbo" in err


@pytest.mark.parametrize("command", ["cavity", "verify"])
def test_seed_is_not_an_option_of_a_command_that_draws_nothing(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--seed", "1"])
    assert exc.value.code == 2
    manifest = tmp_path / "run.manifest"
    manifest.write_text("seed = 1\n")
    code, _, err = _run(capsys, command, "--manifest", str(manifest))
    assert code == 2
    assert "seed" in err


def test_missing_manifest_is_rejected(tmp_path, capsys):
    code, _, err = _run(capsys, "advdiff", "--manifest", str(tmp_path / "nope.manifest"))
    assert code == 2
    assert "does not exist" in err


def test_malformed_manifest_line_is_rejected(tmp_path, capsys):
    manifest = tmp_path / "run.manifest"
    manifest.write_text("extent 16\n")
    code, _, err = _run(capsys, "advdiff", "--manifest", str(manifest))
    assert code == 2
    assert "key = value" in err


def test_unparseable_manifest_value_is_rejected(tmp_path, capsys):
    manifest = tmp_path / "run.manifest"
    manifest.write_text("extent = sixteen\n")
    code, _, err = _run(capsys, "advdiff", "--manifest", str(manifest))
    assert code == 2
    assert "extent" in err


# ---------------------------------------------------------------------------
# cavity, fidelity, resources, verify
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("variant", ["frugal", "single", "classical"])
def test_cavity_variants_write_fields(tmp_path, capsys, variant):
    code, out, _ = _run(
        capsys, "cavity", "--extent", "8", "--steps", "5",
        "--variant", variant, "--out", str(tmp_path),
    )
    assert code == 0
    assert "psi in [" in out
    summary = json.loads((tmp_path / "cavity_summary.json").read_text())
    assert summary["variant"] == variant
    assert summary["reynolds"] == 42.0
    psi = load_field_qlbf(tmp_path / "psi_final.qlbf")
    omega = load_field_qlbf(tmp_path / "omega_final.qlbf")
    assert psi.shape == omega.shape == (8, 8)
    assert summary["psi_min"] == psi.min()
    if variant == "classical":
        assert summary["success_prob"] is summary["shot_multiplier"] is None
    else:
        _check_run_totals(summary)


@pytest.mark.parametrize("variant", ["frugal", "single", "classical"])
@pytest.mark.parametrize("extent", ["1", "6"])
def test_cavity_extent_not_a_power_of_two_is_config_error(tmp_path, capsys, variant, extent):
    code, _, err = _run(
        capsys, "cavity", "--extent", extent, "--steps", "1",
        "--variant", variant, "--out", str(tmp_path),
    )
    assert code == 2
    assert "power of two" in err
    assert not (tmp_path / "psi_final.csv").exists()


@pytest.mark.parametrize("variant", ["frugal", "single", "classical"])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_cavity_non_finite_lid_velocity_is_config_error(tmp_path, capsys, variant, bad):
    code, _, err = _run(
        capsys, "cavity", "--extent", "4", "--steps", "2", f"--lid-velocity={bad}",
        "--variant", variant, "--out", str(tmp_path),
    )
    assert code == 2
    assert "finite" in err and "diverged" not in err
    assert not (tmp_path / "psi_final.csv").exists()


def test_cavity_quantum_output_matches_classical_output(tmp_path, capsys):
    a, b = tmp_path / "q", tmp_path / "c"
    assert main(["cavity", "--extent", "8", "--steps", "6", "--variant", "frugal", "--out", str(a)]) == 0
    assert main(["cavity", "--extent", "8", "--steps", "6", "--variant", "classical", "--out", str(b)]) == 0
    capsys.readouterr()
    psi_q = load_field_qlbf(a / "psi_final.qlbf")
    psi_c = load_field_qlbf(b / "psi_final.qlbf")
    np.testing.assert_allclose(psi_q, psi_c, atol=1e-10)


def test_fidelity_sweep_outputs(tmp_path, capsys):
    code, out, _ = _run(
        capsys, "fidelity", "--shots-min-exp", "6", "--shots-max-exp", "8",
        "--trials", "2", "--out", str(tmp_path),
    )
    assert code == 0
    assert "slope" in out
    lines = (tmp_path / "fidelity.csv").read_text().splitlines()
    assert lines[0] == "shots,trial,fidelity"
    assert len(lines) == 1 + 3 * 2
    summary = json.loads((tmp_path / "fidelity_summary.json").read_text())
    assert summary["shots"] == [64, 128, 256]
    assert len(summary["mean_infidelity"]) == 3


def test_fidelity_rejects_inverted_shot_range(tmp_path, capsys):
    code, _, err = _run(
        capsys, "fidelity", "--shots-min-exp", "10", "--shots-max-exp", "8",
        "--out", str(tmp_path),
    )
    assert code == 2
    assert "shots-min-exp" in err


@pytest.mark.parametrize("argv,flag", [
    (["advdiff", "--velocity", "abc"], "--velocity"),
    (["advdiff", "--impulse-site", "x"], "--impulse-site"),
    (["resources", "--extents", "2,x"], "--extents"),
    (["fidelity", "--shots-min-exp", "-1", "--shots-max-exp", "2"], "shots-min-exp"),
    (["fidelity", "--shots-min-exp", "70", "--shots-max-exp", "70"], "shots-max-exp"),
    (["fidelity", "--shots-min-exp", "10", "--shots-max-exp", "10"], "shots-min-exp"),
    (["advdiff", "--backend", "sampling", "--shots", str(1 << 63)], "--shots"),
    (["advdiff", "--extent", "-4"], "--extent"),
    (["advdiff", "--extent", "12"], "--extent"),
    (["advdiff", "--impulse-value", "nan"], "--impulse-value"),
    (["advdiff", "--background", "inf"], "--background"),
    (["fidelity", "--seed", "-1"], "seed"),
    (["advdiff", "--backend", "sampling", "--seed", "-8000"], "seed"),
], ids=["velocity", "impulse-site", "extents", "shots-min-exp", "shots-max-exp", "one-shot-count", "shots",
        "negative-extent", "extent-not-power-of-two", "impulse-value", "background", "fidelity-seed",
        "sampling-seed"])
def test_malformed_flag_value_is_config_error(tmp_path, capsys, argv, flag):
    code, _, err = _run(capsys, *argv, "--out", str(tmp_path))
    assert code == 2
    assert flag in err and "Traceback" not in err


def test_resources_outputs(tmp_path, capsys):
    code, out, _ = _run(capsys, "resources", "--extents", "2,4", "--out", str(tmp_path))
    assert code == 0
    assert "reduction" in out
    assert (tmp_path / "resources.csv").exists()
    payload = json.loads((tmp_path / "resources.json").read_text())
    assert [c["extent"] for c in payload["comparisons"]] == [2, 4]


def test_resources_rejects_bad_extent(tmp_path, capsys):
    code, _, err = _run(capsys, "resources", "--extents", "2,5", "--out", str(tmp_path))
    assert code == 2
    assert "power of two" in err


def test_verify_passes_end_to_end(capsys):
    code, out, _ = _run(capsys, "verify")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert len(lines) == 6
    assert all(ln.startswith("PASS") for ln in lines)
    assert "all 6 checks passed" in out
