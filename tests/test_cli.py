import json
import subprocess
import sys

import jsonschema
import pytest


def run_cli(*args, env_extra=None):
    import os
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run([sys.executable, "-m", "kreinspec.cli", *args],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def load_schema():
    import importlib.resources
    return json.loads(importlib.resources.files("kreinspec.schemas")
                      .joinpath("report.schema.json").read_text())


def test_verify_torus_identity_exits_zero():
    rc, out, err = run_cli("verify", "--geometry", "torus",
                           "--tau", "1,0,0,1", "--N", "6")
    assert rc == 0, err
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema())
    assert doc["summary"]["all_asserted_passed"]
    assert doc["checks"]["order_one"]["passed"]


def test_verify_torus_degenerate_exits_one():
    rc, out, _ = run_cli("verify", "--geometry", "torus",
                         "--tau", "1,1,1,1", "--N", "6")
    assert rc == 1
    doc = json.loads(out)
    assert not doc["checks"]["elliptic_compact"]["passed"]
    assert doc["compactness"]["verdict"] == "non-compact-consistent"


def test_verify_suq2_order_one_reported_not_asserted():
    rc, out, err = run_cli("verify", "--geometry", "suq2",
                           "--q", "0.5", "--Jcut", "6")
    assert rc == 0, err
    doc = json.loads(out)
    entry = doc["checks"]["order_one"]
    assert not entry["asserted"]
    assert entry["violation"] > 1e-3


@pytest.mark.parametrize("jcut", ["1", "2.5", "3"])
def test_verify_suq2_cutoff_without_ladder_is_config_error(jcut):
    rc, out, err = run_cli("verify", "--geometry", "suq2", "--Jcut", jcut)
    assert rc == 2
    assert out == ""
    assert "two-rung" in err and "Traceback" not in err


def test_spectrum_sphere_axes():
    rc, out, _ = run_cli("spectrum", "--geometry", "sphere", "--theta", "0",
                         "--R", "0", "--S", "1", "--L", "2")
    assert rc == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert all(float(r[2]) == 0.0 for r in rows)
    rc, out, _ = run_cli("spectrum", "--geometry", "sphere", "--theta", "0",
                         "--R", "1", "--S", "0", "--L", "2")
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert all(float(r[1]) == 0.0 for r in rows)


def test_spectrum_torus_block_row():
    rc, out, _ = run_cli("spectrum", "--geometry", "torus", "--theta", "0",
                         "--tau", "1,0,0,1", "--N", "2")
    assert rc == 0
    block = [line for line in out.splitlines() if line.startswith("n=1;m=1,")]
    values = sorted(float(line.split(",")[1]) for line in block)
    assert values == [-1.0, 1.0]


def test_spectrum_deterministic_and_parallel_identical():
    args = ("spectrum", "--geometry", "sphere", "--theta", "0.2",
            "--R", "1", "--S", "1+0.5j", "--L", "2.5")
    rc1, out1, _ = run_cli(*args)
    rc2, out2, _ = run_cli(*args)
    rc3, out3, _ = run_cli(*args, env_extra={"KREINSPEC_THREADS": "4"})
    assert rc1 == rc2 == rc3 == 0
    assert out1 == out2 == out3


def test_solve_torus_and_sphere():
    rc, out, err = run_cli("solve", "--geometry", "torus", "--N", "4")
    assert rc == 0, err
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema())
    assert doc["family"]["kernel_dim"] == 4
    assert doc["family"]["verification"]["all_passed"]
    rc, out, err = run_cli("solve", "--geometry", "sphere", "--L", "2")
    assert rc == 0, err
    doc = json.loads(out)
    assert doc["family"]["kernel_dim"] == 4
    assert doc["family"]["central_dim"] == 1
    assert doc["family"]["effective_dim"] == 3


def test_solve_suq2_rejected():
    rc, _, err = run_cli("solve", "--geometry", "suq2")
    assert rc == 2
    assert "suq2" in err


def test_metric_commands():
    rc, out, _ = run_cli("metric", "--geometry", "torus", "--theta", "0")
    assert rc == 0
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema())
    assert doc["metric"]["det"] == pytest.approx(-0.25)
    assert doc["metric"]["signature"] == [1, 1]
    rc, out, _ = run_cli("metric", "--geometry", "sphere",
                         "--R", "2", "--S", "1", "--L", "2.5")
    doc = json.loads(out)
    assert [row[i] for i, row in enumerate(doc["metric"]["g"])] == \
        pytest.approx([-0.5, -0.5, 0.5])
    rc, _, err = run_cli("metric", "--geometry", "sphere",
                         "--theta", "0.3", "--L", "2")
    assert rc == 2


def test_config_file_with_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("geometry = torus\ntau = 1,0,0,1\nN = 4\ntheta = 0\n")
    rc, out, _ = run_cli("verify", "--config", str(cfg))
    assert rc == 0
    assert json.loads(out)["params"]["N"] == 4
    rc, out, _ = run_cli("verify", "--config", str(cfg), "--N", "5")
    assert json.loads(out)["params"]["N"] == 5


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("geometry = torus\nwobble = 3\n")
    rc, _, err = run_cli("verify", "--config", str(cfg))
    assert rc == 2
    assert "wobble" in err


def test_output_file(tmp_path):
    out_path = tmp_path / "report.json"
    rc, out, _ = run_cli("metric", "--geometry", "torus", "--theta", "0",
                         "--out", str(out_path))
    assert rc == 0 and out == ""
    doc = json.loads(out_path.read_text())
    assert doc["kind"] == "metric"


def test_missing_geometry_is_config_error():
    rc, _, err = run_cli("verify")
    assert rc == 2


def test_verify_json_byte_identical_across_runs():
    args = ("verify", "--geometry", "torus", "--tau", "1.1,0.2,-0.3,0.9",
            "--N", "4", "--theta", "0.25")
    rc1, out1, _ = run_cli(*args)
    rc2, out2, _ = run_cli(*args)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_verify_sphere_exit_codes():
    rc, out, err = run_cli("verify", "--geometry", "sphere", "--L", "3")
    assert rc == 0, err
    doc = json.loads(out)
    assert doc["summary"]["all_asserted_passed"]
    # ladder entries at a pre-asymptotic cutoff are reported, not asserted
    assert not doc["checks"]["bounded_regularity_a"]["asserted"]
    # a non-compact parameter point fails the asserted compactness check
    rc, out, _ = run_cli("verify", "--geometry", "sphere", "--L", "3",
                         "--R", "0", "--S", "1")
    assert rc == 1
    doc = json.loads(out)
    assert not doc["checks"]["compact_resolvent"]["passed"]


def test_tolerance_override():
    # an absurdly tight threshold turns roundoff-size violations into
    # failures, demonstrating the override reaches the asserted checks
    rc, out, _ = run_cli("verify", "--geometry", "torus", "--N", "4",
                         "--tol", "1e-30")
    assert rc == 1
    doc = json.loads(out)
    assert doc["summary"]["failures"]
