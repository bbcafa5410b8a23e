"""The A/B harness names a commit only for a tree whose ``src`` it is, and
``--history`` reads both schemas of the committed BENCH files in the order
they were committed.  Each case builds a small git repository in a
temporary directory."""

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
