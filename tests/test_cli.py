"""CLI and experiment-runner plumbing."""

import pytest

from repro.cli import main
from repro.experiments.runner import ALL_EXPERIMENTS, run_experiment


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("table1", "fig2", "fig8", "security"):
        assert name in out


def test_unknown_experiment_errors(capsys):
    assert main(["run", "fig99"]) == 2
    err = capsys.readouterr().err
    assert "fig99" in err


def test_run_experiment_unknown():
    with pytest.raises(KeyError, match="unknown experiment"):
        run_experiment("nope")


def test_all_experiments_registry_complete():
    expected = {
        "table1",
        "fig2",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "overhead",
        "memory-hit",
        "index-space",
        "staleness",
        "security",
        "ablation-replacement",
        "ablation-index",
        "hierarchy",
        "consistency",
        "prefetch",
        "availability",
        "churn",
        "recovery",
        "federation",
        "chaos",
        "stress",
    }
    assert set(ALL_EXPERIMENTS) == expected


def test_simulate_with_log(tmp_path, capsys, small_trace):
    from repro.traces.squid import write_squid_log

    path = tmp_path / "access.log"
    write_squid_log(small_trace, path)
    assert main(["simulate", "--log", str(path), "--proxy-frac", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "hit ratio" in out
    assert "remote-browser share" in out


def test_profile_command_times_every_organization(tmp_path, capsys, small_trace):
    import json

    from repro.core.policies import Organization
    from repro.traces.squid import parse_squid_log, write_squid_log

    path = tmp_path / "access.log"
    write_squid_log(small_trace, path)
    n_requests = len(parse_squid_log(path))
    argv = ["profile", "--log", str(path), "--json", "-o", "all", "--repeat", "2"]
    assert main(argv) == 0
    summaries = json.loads(capsys.readouterr().out)["organizations"]
    assert sorted(summaries) == sorted(o.value for o in Organization)
    for summary in summaries.values():
        assert summary["n_requests"] == n_requests * 2
        assert summary["wall_seconds"] > 0.0
        assert summary["requests_per_second"] > 0.0


def test_simulate_failure_model_flags(tmp_path, capsys, small_trace):
    from repro.traces.squid import write_squid_log

    path = tmp_path / "access.log"
    write_squid_log(small_trace, path)
    assert main(
        [
            "simulate",
            "--log",
            str(path),
            "--proxy-frac",
            "0.1",
            "--churn",
            "--churn-on",
            "60",
            "--churn-off",
            "60",
            "--max-holder-retries",
            "2",
            "--corruption-rate",
            "0.5",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "hit ratio" in out


def test_simulate_proxy_crash_flags(tmp_path, capsys, small_trace):
    from repro.traces.squid import write_squid_log

    path = tmp_path / "access.log"
    write_squid_log(small_trace, path)
    duration = float(small_trace.timestamps.max())
    assert main(
        [
            "simulate",
            "--log",
            str(path),
            "--proxy-frac",
            "0.1",
            "--proxy-crash-at",
            f"{0.35 * duration:.0f},{0.7 * duration:.0f}",
            "--checkpoint-interval",
            f"{duration / 24:.0f}",
            "--reannounce-rate",
            "0.02",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "proxy crashes" in out
    assert "hits lost to recovery" in out
    assert "checkpoint bytes written" in out


def test_simulate_rejects_both_crash_sources(capsys):
    with pytest.raises(SystemExit):
        main(
            [
                "simulate",
                "--proxy-crash-rate",
                "0.01",
                "--proxy-crash-at",
                "100",
            ]
        )
    assert "not allowed with" in capsys.readouterr().err


def test_simulate_rejects_malformed_crash_times(tmp_path, capsys, small_trace):
    from repro.traces.squid import write_squid_log

    path = tmp_path / "access.log"
    write_squid_log(small_trace, path)
    assert (
        main(["simulate", "--log", str(path), "--proxy-crash-at", "10,zap"]) == 2
    )
    assert "comma-separated numbers" in capsys.readouterr().err


def test_simulate_empty_log(tmp_path, capsys):
    path = tmp_path / "empty.log"
    path.write_text("# nothing cacheable\n")
    assert main(["simulate", "--log", str(path)]) == 1


def test_parse_command(tmp_path, capsys, small_trace):
    from repro.traces.squid import write_squid_log

    path = tmp_path / "access.log"
    write_squid_log(small_trace, path)
    assert main(["parse", str(path)]) == 0
    out = capsys.readouterr().out
    assert "Max Hit Ratio" in out


@pytest.mark.slow
def test_simulate_paper_trace(capsys):
    assert main(
        ["simulate", "--trace", "CAnetII", "-o", "proxy-cache-only", "--proxy-frac", "0.05"]
    ) == 0
    out = capsys.readouterr().out
    assert "proxy-cache-only" in out


@pytest.mark.slow
def test_traces_command_prints_table1(capsys):
    assert main(["traces"]) == 0
    out = capsys.readouterr().out
    assert "NLANR-uc" in out
    assert "Max Hit Ratio" in out


@pytest.mark.slow
def test_run_command_table1(capsys):
    assert main(["run", "table1"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "BU-95" in out


def test_run_fig2_mrc_sampled(capsys):
    assert main(["run", "fig2", "--mrc", "--sample-rate", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "browsers-aware-proxy-server" in out


def test_run_rejects_sample_rate_without_mrc(capsys):
    assert main(["run", "fig2", "--sample-rate", "0.05"]) == 2
    assert "requires --mrc" in capsys.readouterr().err


def test_run_rejects_mrc_with_fault_tolerance_flags(capsys):
    assert main(["run", "fig2", "--mrc", "--retries", "2"]) == 2
    assert "do not apply" in capsys.readouterr().err
