"""CLI surface: exit codes, determinism, artifacts."""

import json
import os

import pytest

from carpetlab import builtin_config, builtin_spec
from carpetlab.cellgraph import build_graph, save_graph
from carpetlab.cli import main


@pytest.fixture
def config26(tmp_path):
    path = tmp_path / "carpet26.json"
    path.write_text(builtin_config("carpet26"))
    return str(path)


@pytest.fixture
def config_menger(tmp_path):
    path = tmp_path / "menger.json"
    path.write_text(builtin_config("menger"))
    return str(path)


def test_validate_exit_codes(config26, config_menger, tmp_path):
    assert main(["--spec", config26, "--out", str(tmp_path / "a"),
                 "validate"]) == 0
    assert main(["--spec", config_menger, "--out", str(tmp_path / "b"),
                 "validate"]) == 1
    assert main(["--spec", str(tmp_path / "missing.json"), "--out",
                 str(tmp_path / "c"), "validate"]) == 2


def test_validate_writes_witness(config_menger, tmp_path):
    out = tmp_path / "m"
    main(["--spec", config_menger, "--out", str(out), "validate"])
    doc = json.loads((out / "validation.json").read_text())
    assert not doc["pass"]
    assert doc["conditions"]["face_included"]["witness"]["size"] == ["1/3", "1/3"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "validate"
    assert len(manifest["spec_hash"]) == 64


def test_graph_command_and_cache(config26, tmp_path):
    out = tmp_path / "g"
    assert main(["--spec", config26, "--out", str(out), "graph",
                 "--level", "2", "--export-json"]) == 0
    stats = json.loads((out / "graph_n2.json").read_text())
    assert stats["vertices"] == 676
    cache_files = os.listdir(out / "cache")
    assert any(f.endswith("_n2.graph") for f in cache_files)
    adjacency = json.loads((out / "adjacency_n2.json").read_text())
    assert len(adjacency["adjacency"]) == 676
    # second run reuses the cache and reproduces identical bytes
    before = (out / "graph_n2.json").read_bytes()
    assert main(["--spec", config26, "--out", str(out), "graph",
                 "--level", "2", "--export-json"]) == 0
    assert (out / "graph_n2.json").read_bytes() == before


def test_graph_command_rebuilds_truncated_cache(config26, tmp_path):
    out = tmp_path / "t"
    argv = ["--spec", config26, "--out", str(out), "graph", "--level", "2"]
    assert main(argv) == 0
    stats = (out / "graph_n2.json").read_bytes()
    (cache,) = (out / "cache").iterdir()
    full = cache.read_bytes()
    for length in (0, 6, 40, 300, len(full) - 1):
        cache.write_bytes(full[:length])
        assert main(argv) == 0
        assert (out / "graph_n2.json").read_bytes() == stats
        assert cache.read_bytes() == full


@pytest.mark.parametrize("command", [["graph", "--level", "2"],
                                     ["heat", "--level", "2", "--times", "1,2"]])
def test_cached_graph_obeys_budget(config26, tmp_path, capsys, command):
    out = str(tmp_path / "b")
    assert main(["--spec", config26, "--out", out, "graph", "--level", "2"]) == 0
    capsys.readouterr()
    argv = ["--spec", config26, "--out", out, "--max-vertices", "100", *command]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err == ("error: level 2 needs 676 vertices > budget 100; "
                   "lower the level or raise --max-vertices\n")


@pytest.mark.parametrize("level,point_contact", [(1, True), (2, False)])
def test_graph_cache_of_another_graph_is_rebuilt(config26, tmp_path, level,
                                                 point_contact):
    out = tmp_path / "w"
    argv = ["--spec", config26, "--out", str(out), "graph", "--level", "2"]
    assert main(argv) == 0
    stats = (out / "graph_n2.json").read_bytes()
    (cache,) = (out / "cache").iterdir()
    full = cache.read_bytes()
    spec = builtin_spec("carpet26")
    save_graph(build_graph(spec, level, point_contact_edges=point_contact), str(cache))
    assert cache.read_bytes() != full
    assert main(argv) == 0
    assert (out / "graph_n2.json").read_bytes() == stats
    assert cache.read_bytes() == full


def test_graph_overlapping_spec_exits_2(tmp_path, capsys):
    doc = json.loads(builtin_config("carpet26"))
    doc["cells"].append(["0/1", "0/1", "1/6"])
    path = tmp_path / "overlap.json"
    path.write_text(json.dumps(doc))
    assert main(["--spec", str(path), "--out", str(tmp_path / "o"), "graph",
                 "--level", "1"]) == 2
    err = capsys.readouterr().err
    assert err == "error: cells overlap with positive volume; spec is invalid\n"


def test_budget_exit_code(config26, tmp_path):
    assert main(["--spec", config26, "--out", str(tmp_path / "z"),
                 "--max-vertices", "100", "graph", "--level", "2"]) == 3


def test_constants_and_fit(config26, tmp_path):
    out = tmp_path / "c"
    assert main(["--spec", config26, "--out", str(out), "constants",
                 "--levels", "1..2",
                 "--quantities", "lambda,r_face,script_r"]) == 0
    csv_text = (out / "constants.csv").read_text()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "level,quantity,value,method,tolerance,iterations"
    assert len(lines) == 1 + 2 * 4  # two levels x four rows
    assert main(["--spec", config26, "--out", str(out), "fit",
                 "--table", str(out / "constants.csv"),
                 "--quantity", "r_face"]) == 0
    fit = json.loads((out / "fit_r_face.json").read_text())
    assert 1.0 < fit["rho"] <= 26 / 9
    assert 2.0 <= fit["d_W"] < fit["d_H"]


def test_constants_deterministic(config26, tmp_path):
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    for out in (out1, out2):
        main(["--spec", config26, "--out", str(out), "constants",
              "--levels", "1..1", "--quantities", "lambda,r_face"])
    assert (out1 / "constants.csv").read_bytes() == (out2 / "constants.csv").read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["args"] == m2["args"]


def test_walk_command_deterministic(config26, tmp_path):
    docs = []
    for i in range(2):
        out = tmp_path / f"w{i}"
        assert main(["--spec", config26, "--out", str(out), "--seed", "7",
                     "walk", "--level", "1", "--paths", "400"]) == 0
        docs.append((out / "walk_n1.json").read_bytes())
    assert docs[0] == docs[1]


def test_brick_command(config26, tmp_path):
    out = tmp_path / "bk"
    assert main(["--spec", config26, "--out", str(out), "brick", "f",
                 "--level", "1"]) == 0
    doc = json.loads((out / "brick_f_1.json").read_text())
    assert doc["certificates"]["boundary_midpoints"]["pass"]
    assert "values_exact" in doc
    assert main(["--spec", config26, "--out", str(out), "brick", "cutoff",
                 "--level", "1", "--word", "0", "--l-star", "3"]) == 0
    doc = json.loads((out / "brick_cutoff_1.json").read_text())
    assert doc["certificates"]["support"]["pass"]


def test_heat_command_explicit_times(config26, tmp_path):
    out = tmp_path / "h"
    assert main(["--spec", config26, "--out", str(out), "heat",
                 "--level", "2", "--times", "4,6,8,10,12",
                 "--sources", "corner", "--export-csv"]) == 0
    doc = json.loads((out / "heat_n2.json").read_text())
    assert doc["on_diag_slope"] < 0
    assert (out / "heat_rows_n2.csv").read_text().startswith(
        "source,target,time,value")


def test_heat_command_gzip_export(config26, tmp_path):
    import gzip

    out = tmp_path / "hg"
    assert main(["--spec", config26, "--out", str(out), "heat",
                 "--level", "2", "--times", "4,6,8,10,12",
                 "--sources", "corner", "--export-csv", "--gzip"]) == 0
    with gzip.open(out / "heat_rows_n2.csv.gz", "rt") as f:
        assert f.readline().strip() == "source,target,time,value"


def test_heat_gzip_export_is_byte_deterministic(config26, tmp_path, monkeypatch):
    import gzip

    blobs = []
    for stamp in (1e9, 2e9):  # the clock a gzip header would carry
        monkeypatch.setattr(gzip.time, "time", lambda t=stamp: t)
        out = tmp_path / f"hz{int(stamp)}"
        assert main(["--spec", config26, "--out", str(out), "heat",
                     "--level", "2", "--times", "4,6,8,10,12", "--sources", "corner",
                     "--export-csv", "--gzip"]) == 0
        blobs.append((out / "heat_rows_n2.csv.gz").read_bytes())
    assert blobs[0] == blobs[1]


def test_heat_command_runs_with_its_defaults(config26, tmp_path):
    # default level 3 with dyadic times: the diffusive window is not empty
    out = tmp_path / "hd"
    assert main(["--spec", config26, "--out", str(out), "heat"]) == 0
    assert json.loads((out / "heat_n3.json").read_text())["level"] == 3


def test_heat_command_window_too_small(config26, tmp_path):
    # dyadic window is empty below level 3: the command must error out
    assert main(["--spec", config26, "--out", str(tmp_path / "hw"), "heat",
                 "--level", "1", "--times", "dyadic"]) == 2


def test_wall_command(config26, tmp_path):
    out = tmp_path / "wl"
    assert main(["--spec", config26, "--out", str(out), "--seed", "3",
                 "wall", "--m", "1", "--n", "1", "--paths", "600"]) == 0
    doc = json.loads((out / "wall_m1_n1.json").read_text())
    assert doc["coupling_exact_residual"] == "0"
    assert doc["bottom_hitting"]["pass"]


def test_report_command(config26, tmp_path):
    out = tmp_path / "r"
    assert main(["--spec", config26, "--out", str(out), "report"]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["validation"]["pass"]
    assert doc["face_bound"]["pass"]
    assert doc["coupling_residual"] == "0"


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects arguments by exiting
        return exc.code


# specs whose schema is wrong; an argument "{name}" is replaced by its path
BAD_SPECS = {"cells_int": {"cells": 5}, "k_str": {"k": "x"},
             "cell_int": {"cells": [5]}}


@pytest.mark.parametrize("args,code", [
    (["validate"], 0),
    (["--workers", "2", "walk", "--level", "1", "--paths", "50"], 2),
    (["walk", "--level", "1", "--paths", "0"], 2),
    (["walk", "--level", "1", "--paths", "-5"], 2),
    (["walk", "--level", "1", "--paths", "many"], 2),
    (["wall", "--paths", "0"], 2),
    (["--spec", "{cells_int}", "validate"], 2),
    (["--spec", "{k_str}", "graph", "--level", "1"], 2),
    (["--spec", "{cell_int}", "validate"], 2),
    (["graph"], 2),
    (["nonsense"], 2),
    (["--max-vertices", "100", "graph", "--level", "2"], 3),
    (["walk", "--level", "1", "--paths", "1"], 0),
    (["constants", "--levels", "0..1"], 2),
    (["walk", "--level", "0"], 2),
    (["heat", "--level", "0"], 2),
    (["graph", "--level", "0"], 0),
])
def test_exit_codes(config26, tmp_path, capsys, args, code):
    spec = json.loads(builtin_config("carpet26"))
    paths = {}
    for name, patch in BAD_SPECS.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps({**spec, **patch}))
    argv = ["--spec", config26, "--out", str(tmp_path / "x")]
    argv += [a.format(**paths) for a in args]
    assert _exit_code(argv) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert err == ""
        # artifacts are strict JSON: an undefined statistic is null, not NaN
        for path in (tmp_path / "x").glob("*.json"):
            json.loads(path.read_text(), parse_constant=pytest.fail)


def test_solver_failure_exits_3(config26, tmp_path, capsys, monkeypatch):
    import carpetlab.spectral as spectral

    monkeypatch.setattr(spectral, "MAXITER", 1)
    argv = ["--spec", config26, "--out", str(tmp_path / "s"),
            "constants", "--levels", "2", "--quantities", "r_face"]
    assert _exit_code(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_coarse_factorization_failure_exits_3(config26, tmp_path, capsys,
                                               monkeypatch):
    import carpetlab.spectral as spectral

    def fail(_):
        raise SystemError("gstrf was called with invalid arguments")

    monkeypatch.setattr(spectral.spla, "splu", fail)
    argv = ["--spec", config26, "--out", str(tmp_path / "f"),
            "constants", "--levels", "2", "--quantities", "lambda"]
    assert _exit_code(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_manifest_independent_of_checkout(tmp_path, monkeypatch):
    manifests = []
    for name in ("one", "two"):
        root = tmp_path / name
        root.mkdir()
        (root / "carpet26.json").write_text(builtin_config("carpet26"))
        monkeypatch.chdir(root)
        assert main(["--spec", str(root / "carpet26.json"), "--out", "runs",
                     "validate"]) == 0
        manifests.append((root / "runs" / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]
    doc = json.loads(manifests[0])
    assert doc["spec_path"] == "carpet26.json" and "spec" not in doc["args"]


IMPORT_BOUNDARY = """
import sys

def scipy_loaded():
    return [m for m in sys.modules if m.split(".")[0] == "scipy"]

import carpetlab
assert not scipy_loaded(), "import carpetlab loaded scipy"
from carpetlab.cli import main
argv = ["--spec", sys.argv[1], "--out", sys.argv[2]]
assert main(argv + ["validate"]) == 0
assert not scipy_loaded(), "validate loaded scipy"
assert main(argv + ["graph", "--level", "1"]) == 0
"""


def test_import_boundary(config26, tmp_path):
    import subprocess
    import sys

    import carpetlab

    src = os.path.dirname(os.path.dirname(carpetlab.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_BOUNDARY, config26, str(tmp_path / "b")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


GAP_FAILURE = """
import sys
import carpetlab.spectral as spectral
from carpetlab.cli import main
spectral.MAXITER = 1
sys.exit(main(["--spec", sys.argv[1], "--out", sys.argv[2],
               "constants", "--levels", "2", "--quantities", "lambda"]))
"""


def test_gap_solver_failure_prints_one_line(config26, tmp_path):
    # a fresh process, so a warning printed by the solver would show on stderr
    import subprocess
    import sys

    import carpetlab

    src = os.path.dirname(os.path.dirname(carpetlab.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", GAP_FAILURE, config26, str(tmp_path / "g")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: LOBPCG") and proc.stderr.count("\n") == 1, proc.stderr
