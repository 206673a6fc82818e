"""``python -m repro check``: the command-line surface."""

import pytest

from repro.check.cli import check_main
from repro.check.explorer import run_block_once
from repro.check.strategies import RandomWalkScheduler


def test_list_names_every_canonical_block(capsys):
    from repro.obs.blocks import CANONICAL_BLOCKS

    assert check_main(["--list"]) == 0
    out = capsys.readouterr().out
    for block in CANONICAL_BLOCKS:
        assert block.name in out


def test_no_block_is_a_usage_error(capsys):
    assert check_main([]) == 2
    assert "--list" in capsys.readouterr().err


def test_explore_a_passing_block(capsys):
    code = check_main(
        ["pure-winner", "--strategy", "dfs", "--schedules", "50"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "exhausted" in out


def test_replay_requires_a_block(capsys):
    assert check_main(["--replay", "nowhere.json"]) == 2


def test_replay_round_trip_via_file(tmp_path, capsys):
    recorded = run_block_once(
        "pure-winner", scheduler=RandomWalkScheduler(seed=5)
    )
    witness = tmp_path / "witness.json"
    witness.write_text(recorded.schedule.dumps(), encoding="utf-8")
    assert check_main(["pure-winner", "--replay", str(witness)]) == 0
    out = capsys.readouterr().out
    assert "schedule passes" in out
    assert "winner='fast'" in out


def test_chaos_matrix_exit_code(capsys):
    assert check_main(["--chaos"]) == 0
    out = capsys.readouterr().out
    for scenario in ("loss", "dup", "partition", "worker-crash"):
        assert scenario in out


def test_failure_writes_a_witness(tmp_path, capsys):
    from tests.check.mutations import mutation

    out_path = tmp_path / "bug.json"
    with mutation("adopt-replace-dirty"):
        code = check_main(
            [
                "nested-block",
                "--strategy",
                "dfs",
                "--schedules",
                "5000",
                "--out",
                str(out_path),
            ]
        )
    assert code == 1
    assert out_path.exists()
    captured = capsys.readouterr().out
    assert "witness" in captured


def test_stats_flag_prints_exploration_counters(capsys):
    code = check_main(
        ["pure-winner", "--strategy", "dfs", "--schedules", "50", "--stats"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "explored=" in out
    assert "dpor_pruned=" in out
    assert "sleep_blocked=" in out


def test_stats_json_lands_next_to_the_witness(tmp_path, capsys):
    import json

    out_path = tmp_path / "witness.json"
    code = check_main(
        [
            "pure-winner",
            "--strategy",
            "dfs",
            "--schedules",
            "50",
            "--stats",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    stats_path = tmp_path / "witness.json.stats.json"
    assert stats_path.exists()
    stats = json.loads(stats_path.read_text(encoding="utf-8"))
    assert stats["block"] == "pure-winner"
    assert stats["strategy"] == "dfs"
    assert stats["explored"] >= 1
    assert stats["exhausted"] == 1


def test_stats_silent_for_strategies_without_counters(capsys):
    code = check_main(
        ["pure-winner", "--strategy", "random", "--schedules", "5", "--stats"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "explored=" not in out


def test_dfs_lite_strategy_is_selectable(capsys):
    code = check_main(
        ["pure-winner", "--strategy", "dfs-lite", "--schedules", "50"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "exhausted" in out
