"""The benchmark's own arithmetic: percentile rule, spreads, self time, failure counting."""

import json
import statistics

import pytest

import run
from stats import failure_ratio, median, merge_tables, percentile, quartile_spread, span_table, top_level_s


def test_percentile_needs_ten_samples_beyond():
    assert percentile(range(1, 101), 90) == 90  # ranks 91..100 lie beyond: ten
    assert percentile(range(1, 100), 90) is None  # 99 samples: only nine beyond
    assert percentile(range(1, 21), 50) == 10
    assert percentile(range(1, 20), 50) is None
    assert percentile([], 50) is None


def test_percentile_rejects_bad_q():
    with pytest.raises(ValueError):
        percentile([1, 2, 3], 100)


def test_median_and_quartile_spread_match_statistics():
    values = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 10.0]
    med, q1, q3, share = quartile_spread(values)
    want_q1, _, want_q3 = statistics.quantiles(values, n=4)
    assert (med, q1, q3) == (statistics.median(values), want_q1, want_q3)
    assert share == pytest.approx((want_q3 - want_q1) / med)
    assert median([3, 1, 2]) == 2


def _span(name, start, end, parent):
    return [name, start, end, parent]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("train", 0, 1_000_000_000, -1),  # 1.0 s
        _span("step", 100_000_000, 600_000_000, 0),  # 0.5 s
        _span("backward", 200_000_000, 500_000_000, 1),  # 0.3 s
        _span("adam", 600_000_000, 700_000_000, 0),  # 0.1 s
        _span("save", 1_100_000_000, 1_200_000_000, -1),  # 0.1 s
    ]
    t = span_table(spans)
    assert t["train"]["s"] == pytest.approx(1.0)
    assert t["train"]["self_s"] == pytest.approx(0.4)  # 1.0 - step 0.5 - adam 0.1
    assert t["step"]["self_s"] == pytest.approx(0.2)
    assert t["backward"]["self_s"] == pytest.approx(0.3)
    assert t["train"]["calls"] == 1 and t["adam"]["calls"] == 1
    assert top_level_s(spans) == pytest.approx(1.1)


def test_busy_time_counts_a_recursive_call_once():
    spans = [_span("f", 0, 10, -1), _span("f", 2, 6, 0)]
    t = span_table(spans)
    assert t["f"]["s"] == pytest.approx(10e-9)
    assert t["f"]["calls"] == 2
    assert t["f"]["self_s"] == pytest.approx(10e-9)  # (10 - 4) + 4


def test_merge_tables_sums_rows():
    a = {"f": {"s": 1.0, "calls": 2, "self_s": 0.5}}
    b = {"f": {"s": 2.0, "calls": 1, "self_s": 1.0}, "g": {"s": 3.0, "calls": 1, "self_s": 3.0}}
    m = merge_tables([a, b])
    assert m["f"] == {"s": 3.0, "calls": 3, "self_s": 1.5}
    assert m["g"]["calls"] == 1


def test_failure_ratio():
    assert failure_ratio(4, 1) == 0.25
    assert failure_ratio(3, 0) == 0.0
    with pytest.raises(ValueError):
        failure_ratio(0, 0)
    with pytest.raises(ValueError):
        failure_ratio(2, 3)


def _fake_command(rc=0, stdout="", marks=(), errors=()):
    cmd = run.Command.__new__(run.Command)
    cmd.tag, cmd.rc, cmd.stdout, cmd.metrics = "c", rc, stdout, None
    cmd.errors = list(errors)
    cmd.record = {"marks": [list(m) for m in marks], "spans": [], "counts": {}}
    cmd.spawn_ns, cmd.run_s, cmd.peak_rss_mb = 0, 1.0, 10.0
    return cmd


METRICS = {"test_accuracy": 0.5, "test_macro_f1": 0.4, "val_accuracy": 0.6, "val_macro_f1": 0.3}


def test_eval_check_counts_metric_mismatch_as_failure():
    ok = _fake_command(stdout=json.dumps(METRICS))
    run.check_eval(ok, METRICS)
    assert ok.errors == []
    off = _fake_command(stdout=json.dumps({**METRICS, "test_macro_f1": 0.41}))
    run.check_eval(off, METRICS)
    assert len(off.errors) == 1 and "test_macro_f1" in off.errors[0]
    garbage = _fake_command(stdout="Traceback ...")
    run.check_eval(garbage, METRICS)
    assert garbage.errors


def test_train_check_counts_epochs_and_losses(tmp_path):
    w = run.WORKLOADS["train-10k"]
    lines = [{"epoch": e, "train_loss": 1.0, "val_accuracy": 0.5, "val_macro_f1": 0.5}
             for e in range(1, w.epochs + 1)]
    (tmp_path / "checkpoint.bin").write_bytes(b"x")
    marks = [("epoch_end", e) for e in range(w.epochs)]
    (tmp_path / "epochs.jsonl").write_text("".join(json.dumps(r) + "\n" for r in lines))
    learned = {**METRICS, "test_macro_f1": 0.9}
    good = _fake_command(stdout=json.dumps(learned), marks=marks)
    run.check_train(good, w, tmp_path)
    assert good.errors == []
    chance = _fake_command(stdout=json.dumps(METRICS), marks=marks)
    run.check_train(chance, w, tmp_path)
    assert len(chance.errors) == 1 and "floor" in chance.errors[0]

    lines[3]["train_loss"] = float("nan")
    (tmp_path / "epochs.jsonl").write_text("".join(json.dumps(r) + "\n" for r in lines[:-1]))
    bad = _fake_command(stdout=json.dumps(learned), marks=marks)
    run.check_train(bad, w, tmp_path)
    assert len(bad.errors) == 2  # one epoch short, one non-finite loss


def test_end_to_end_uses_only_passing_commands():
    def cmd(run_s, steps, errors=()):
        marks = [("epoch_start", 1_000_000_000)]
        t = 1_000_000_000
        for ms in steps:
            t += int(ms * 1e6)
            marks.append(("epoch_end", t))
        marks.append(("main_return", t + 1000))
        c = _fake_command(marks=marks, errors=errors)
        c.run_s, c.metrics = run_s, METRICS
        return c

    cmds = [cmd(2.0, [100.0] * 60), cmd(4.0, [200.0] * 60), cmd(99.0, [1.0], errors=["exit 1"])]
    e2e = run.end_to_end(cmds)
    assert e2e["run_s"] == (3.0, "s", 2)
    assert e2e["setup_s"][0] == pytest.approx(1.0)
    assert e2e["step_ms_p50"][2] == 120
    assert e2e["step_ms_p90"][0] == pytest.approx(200.0)  # 120 samples: twelve beyond p90
    fewer = run.end_to_end(cmds[:1])
    assert "step_ms_p90" not in fewer  # 60 samples: six beyond
    assert run.end_to_end(cmds[2:]) == {}
