"""The A/B harness names a commit only for a tree whose ``src`` it is,
``--history`` reads both schemas of the committed BENCH files in the order
they were committed, each workload pair records the floor child, and every
run is as long as the head tree's ``BENCHMARK.json`` sets.  The
provenance and history cases build a small git repository in a temporary
directory."""

import hashlib
import json
import subprocess

import pytest

from ab import bench_entries, history, medians, tree_commit

NO_COMMIT = {"git_commit": None, "dirty": True}


def git(tree, *args):
    identity = ["-c", "user.name=ab", "-c", "user.email=ab@example.com"]
    identity += ["-c", "commit.gpgsign=false"]
    proc = subprocess.run(["git", *identity, *args], cwd=tree, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.fixture
def checkout(tmp_path):
    tree = tmp_path / "tree"
    (tree / "src").mkdir(parents=True)
    (tree / "src" / "mod.py").write_text("x = 1\n")
    (tree / "notes.txt").write_text("a\n")
    git(tree, "init", "-q")
    git(tree, "add", "-A")
    git(tree, "commit", "-q", "-m", "first")
    return tree


def test_a_clean_checkout_records_its_head(checkout):
    head = git(checkout, "rev-parse", "HEAD")
    assert tree_commit(checkout) == {"git_commit": head, "dirty": False}
    # a change outside src leaves the measured code as committed
    (checkout / "notes.txt").write_text("b\n")
    assert tree_commit(checkout) == {"git_commit": head, "dirty": False}


@pytest.mark.parametrize("change", ["edited", "staged", "untracked", "deleted"])
def test_a_change_in_src_records_no_commit(checkout, change):
    module = checkout / "src" / "mod.py"
    if change == "untracked":
        (checkout / "src" / "new.py").write_text("y = 2\n")
    elif change == "deleted":
        module.unlink()
    else:
        module.write_text("x = 2\n")
        if change == "staged":
            git(checkout, "add", "-A")
    assert tree_commit(checkout) == NO_COMMIT


def test_a_tree_that_is_not_the_top_of_a_checkout_records_no_commit(tmp_path, checkout):
    unpacked = tmp_path / "unpacked"
    (unpacked / "src").mkdir(parents=True)
    assert tree_commit(unpacked) == NO_COMMIT
    nested = checkout / "copy"
    (nested / "src").mkdir(parents=True)
    assert tree_commit(nested) == NO_COMMIT


RUNS_SCHEMA = {
    "label": "new",
    "runs": {
        "dephased-seed7": {
            "workload": "dephased",
            "trees": {"base": {"git_commit": None}, "head": {"git_commit": None}},
            "wall_s": {"base": {"median": 2.0, "q1": 1.9}, "head": {"median": 1.5}, "unit": "s"},
            "peak_rss_mb": {"base": {"median": 30.0}, "head": {"median": 31.0}},
        },
        "tier1": {"wall_s": {"base": {"median": 9.0}, "head": {"median": 8.0}}},
    },
}
WORKLOADS_SCHEMA = {
    "label": "old",
    "seeds": {"benchmark": 7, "holdout": 11},
    "units": {"wall_s": "s"},
    "workloads": {
        "walk": {"pairs": 10, "wall_s": {"parent": {"median": 1.2}, "change": {"median": 1.0}}}
    },
    "holdout_seed_11": {"walk": {"wall_s": {"parent": {"median": 1.3}, "change": {"median": 1.1}}}},
    # a set measured before the final code is not part of the history
    "superseded_set": {"workloads": {"walk": {"wall_s": {"parent": {"median": 9.0}}}}},
}


def test_bench_entries_read_both_schemas():
    def table(record):
        return [(key, list(medians(entry))) for key, entry in bench_entries(record)]

    assert table(RUNS_SCHEMA) == [
        ("dephased-seed7", [("wall_s", 2.0, 1.5), ("peak_rss_mb", 30.0, 31.0)]),
        ("tier1", [("wall_s", 9.0, 8.0)]),
    ]
    assert table(WORKLOADS_SCHEMA) == [
        ("walk-seed7", [("wall_s", 1.2, 1.0)]),
        ("walk-seed11", [("wall_s", 1.3, 1.1)]),
    ]


def test_history_follows_the_order_of_first_commit(checkout, capsys):
    # BENCH_z is committed before BENCH_a, and a later edit of BENCH_z does
    # not move it; an uncommitted BENCH file is not read
    for name, record in (("BENCH_z.json", WORKLOADS_SCHEMA), ("BENCH_a.json", RUNS_SCHEMA)):
        (checkout / name).write_text(json.dumps(record))
        git(checkout, "add", name)
        git(checkout, "commit", "-q", "-m", name)
    (checkout / "BENCH_z.json").write_text(json.dumps(dict(WORKLOADS_SCHEMA, label="edited")))
    git(checkout, "commit", "-q", "-am", "edit")
    (checkout / "BENCH_new.json").write_text(json.dumps(RUNS_SCHEMA))
    assert history(checkout) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines if not line.startswith(" ")] == [
        "BENCH_z.json",
        "BENCH_a.json",
    ]
    assert sum(line.startswith(" ") for line in lines) == 2 + 3
    assert "walk-seed11" in lines[2] and "1.3" in lines[2] and "1.1" in lines[2]


def fake_run(values, calls=None):
    """A stand-in for ``ab.run`` that returns one canned result per call and
    appends each call's ``(tree name, seconds)`` to ``calls``."""
    values = iter(values)

    def run(tree, workload, seed, seconds):
        if calls is not None:
            calls.append((tree.name, seconds))
        wall, setup = next(values)
        metrics = {"wall_s": {"value": wall}, "setup_s": {"value": setup}}
        provenance = {"src_sha256": tree.name, "nproc": 2}
        return {"metrics": metrics, "measured_setup_s": setup / 2, "provenance": provenance,
                "failed": 0, "attempted": 3}

    return run


def make_trees(tmp_path):
    """Base and head trees whose ``BENCHMARK.json`` set different run lengths."""
    spec = [{"name": name, "unit": "s", "better": "lower", "bound": 0.1}
            for name in ("wall_s", "setup_s")]
    trees = {side: tmp_path / side for side in ("base", "head")}
    for seconds, tree in zip((20, 30), trees.values()):
        tree.mkdir()
        (tree / "BENCHMARK.json").write_text(
            json.dumps({"end_to_end": spec, "run_seconds": seconds}))
    return trees


def test_each_workload_pair_times_a_floor_child(tmp_path, monkeypatch):
    import ab

    trees = make_trees(tmp_path)
    # pair 1 runs base then head, pair 2 head then base
    monkeypatch.setattr(ab, "run", fake_run([(1.0, 0.2), (0.9, 0.3), (0.8, 0.5), (1.1, 0.4)]))
    floors = iter([0.1, 0.3])
    monkeypatch.setattr(ab, "time_floor", lambda: next(floors))
    monkeypatch.setattr(ab, "ROOT", tmp_path)
    argv = ["--base", str(trees["base"]), "--head", str(trees["head"]), "--workload", "walk",
            "--pairs", "2", "--label", "t"]
    assert ab.main(argv) == 0
    entry = json.loads((tmp_path / "BENCH_t.json").read_text())["runs"]["walk-seed7"]
    assert entry["setup_s"]["runs"] == {"base": [0.2, 0.4], "head": [0.3, 0.5]}
    floor = entry["floor"]
    assert floor["runs"] == [0.1, 0.3]
    assert [floor[q] for q in ("q1", "median", "q3")] == pytest.approx([0.15, 0.2, 0.25])
    assert floor["measured_setup_s"] == pytest.approx({"base": 0.15, "head": 0.2})


def test_every_run_gets_the_head_trees_run_seconds(tmp_path, monkeypatch):
    import ab

    trees = make_trees(tmp_path)
    calls = []
    monkeypatch.setattr(ab, "run", fake_run([(1.0, 0.2)] * 4, calls))
    monkeypatch.setattr(ab, "time_floor", lambda: 0.1)
    monkeypatch.setattr(ab, "ROOT", tmp_path)
    argv = ["--base", str(trees["base"]), "--head", str(trees["head"]), "--workload", "walk",
            "--pairs", "2", "--label", "t"]
    assert ab.main(argv) == 0
    assert calls == [("base", 30), ("head", 30), ("head", 30), ("base", 30)]
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    entry = record["runs"]["walk-seed7"]
    assert entry["seconds"] == 30
    # the trees are recorded as for --tier1: the src digest here, no commit
    empty = {"src_sha256": hashlib.sha256().hexdigest(), "git_commit": None, "dirty": True}
    assert entry["trees"] == {"base": empty, "head": empty}
    with pytest.raises(SystemExit) as exit_info:
        ab.main(argv + ["--seconds", "5"])
    assert exit_info.value.code == 2


def test_the_floor_child_imports_numpy():
    import ab

    assert ab.FLOOR[1:] == ["-c", "import numpy"]
    assert 0.0 < ab.time_floor() < 60.0


def test_one_pair_is_rejected_before_any_run(tmp_path, monkeypatch):
    import ab

    monkeypatch.setattr(ab, "run", fake_run([]))
    monkeypatch.setattr(ab, "time_floor", lambda: 0.1)
    monkeypatch.setattr(ab, "ROOT", tmp_path)
    argv = ["--base", str(tmp_path), "--head", str(tmp_path), "--workload", "walk",
            "--pairs", "1", "--label", "t"]
    with pytest.raises(SystemExit) as exit_info:
        ab.main(argv)
    assert exit_info.value.code == 2
    assert not (tmp_path / "BENCH_t.json").exists()


def test_run_reads_the_lines_run_py_prints(tmp_path, monkeypatch):
    import ab

    result = {"correct": True, "attempted": 3, "failed": 0,
              "metrics": {"wall_s": {"value": 0.4, "unit": "s"}}}
    stdout = "\n".join([
        'provenance {"nproc": 2, "src_sha256": "abc"}',
        "error_rate 0 (0/3 operations)",
        "measured_wall_s 0.3 s (not rescaled)",
        "measured_setup_s 0.125 s (not rescaled)",
        "wall_s 0.4 s",
        json.dumps(result),
    ])
    monkeypatch.setattr(ab.subprocess, "run", lambda argv, **kwargs: subprocess.CompletedProcess(
        argv, 0, stdout=stdout, stderr=""))
    assert ab.run(tmp_path, "walk", 7, 1.0) == dict(
        result, provenance={"nproc": 2, "src_sha256": "abc"}, measured_setup_s=0.125
    )
