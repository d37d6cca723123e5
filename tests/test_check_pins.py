"""scripts/check_pins.py, the pin check run after the six traced benchmark runs."""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load_script():
    spec = importlib.util.spec_from_file_location("check_pins", ROOT / "scripts" / "check_pins.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_pinned_key_is_a_declared_benchmark_metric():
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(_load_script().KEYS) <= declared


def test_check_pins_passes_the_pinned_runs_and_fails_a_moved_count(tmp_path, monkeypatch, capsys):
    pins = _load_script()
    monkeypatch.setattr(pins, "OUT", tmp_path)
    # the six traced runs, as perfbench/run.py writes what the script reads
    for (workload, seed), (sha, *values) in pins.PINS.items():
        run = {"info": {"table_sha256": sha},
               "metrics": {key: {"value": value} for key, value in zip(pins.KEYS, values)}}
        (tmp_path / f"{workload}-seed{seed}-trace1.json").write_text(json.dumps(run))
    assert pins.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6 and all(line.endswith(" ok") for line in lines), lines
    # one more function evaluation in one run moves its pin
    path = tmp_path / "arma_desk-seed7-trace1.json"
    run = json.loads(path.read_text())
    run["metrics"]["fitting.slsqp.nfev"]["value"] += 1
    path.write_text(json.dumps(run))
    assert pins.main() == 1
    lines = capsys.readouterr().out.splitlines()
    moved = [line for line in lines if "moved:" in line]
    assert len(lines) == 6 and len(moved) == 1 and moved[0].startswith("arma_desk 7 moved:"), lines
