import importlib

import pytest

import tracing


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] -> a [1, 5] -> a1 [2, 3]; root -> b [6, 8]
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 5.0, 0],
        ["a1", 2.0, 3.0, 1],
        ["b", 6.0, 8.0, 0],
    ]
    times = tracing.layer_times(spans)
    assert times["root"] == {"calls": 1, "total": 10.0, "self": 4.0}
    assert times["a"] == {"calls": 1, "total": 4.0, "self": 3.0}
    assert times["a1"] == {"calls": 1, "total": 1.0, "self": 1.0}
    assert times["b"] == {"calls": 1, "total": 2.0, "self": 2.0}


def test_self_time_of_nested_same_name_spans_covers_their_union():
    # emit [0, 4] -> emit [1, 3]; a second emit [5, 6] at top level.
    spans = [["emit", 0.0, 4.0, -1], ["emit", 1.0, 3.0, 0], ["emit", 5.0, 6.0, -1]]
    times = tracing.layer_times(spans)
    assert times["emit"]["calls"] == 3
    assert times["emit"]["total"] == 7.0
    assert times["emit"]["self"] == 5.0


def test_span_metrics_units_and_absent_layers():
    times = {
        "sampling.make_generator": {"calls": 4, "total": 0.002, "self": 0.002},
        "sampling.sample_uniform": {"calls": 4, "total": 0.010, "self": 0.008},
        "cli.emit": {"calls": 2, "total": 0.5, "self": 0.25},
    }
    out = tracing.span_metrics(times, replicates=4)
    assert out["sampling.make_generator.us_per_call"] == pytest.approx(500.0)
    assert out["sampling.make_generator.calls"] == 4
    assert out["sampling.sample_uniform.us_per_replicate"] == pytest.approx(2000.0)
    assert out["cli.emit.ms"] == pytest.approx(250.0)
    assert out["besov.level_statistic.calls"] == 0
    assert out["oracle.enumeration_oracle.ms"] == 0.0
    assert set(out) == set(tracing.SPAN_METRICS)


def _current_attributes():
    from besov_empirica import montecarlo

    found = {}
    for target, attr, _ in tracing.TARGETS:
        owner = tracing._resolve(target)
        found[(target, attr)] = owner.__dict__[attr]
    found[("montecarlo", "run_chunked")] = montecarlo.__dict__["run_chunked"]
    return found


def test_traced_run_records_spans_and_restores_module_attributes(tmp_path):
    from besov_empirica import cli

    before = _current_attributes()
    recorder = tracing.Recorder()
    argv = ["verify-moments", "--seed", "5", "--n", "3", "--j-max", "6",
            "--replicates", "200", "--workers", "2", "--out", str(tmp_path / "out")]
    with tracing.patched(recorder):
        assert _current_attributes() != before
        code = cli.main(argv)
    assert code in (0, 2)
    assert _current_attributes() == before
    times = tracing.layer_times(recorder.spans)
    assert times["sampling.sample_uniform"]["calls"] == 200
    assert times["sampling.make_generator"]["calls"] == 200
    assert times["oracle.enumeration_oracle"]["calls"] == 4
    assert times["montecarlo.run_chunked"]["calls"] == 1
    assert recorder.counters["montecarlo.pools_started"] == 1
    assert recorder.counters["montecarlo.replicates"] == 200
    assert recorder.counters["montecarlo.chunk_payload_bytes"] > 0


def test_attributes_are_restored_when_the_traced_run_raises():
    before = _current_attributes()
    with pytest.raises(RuntimeError):
        with tracing.patched(tracing.Recorder()):
            raise RuntimeError("boom")
    assert _current_attributes() == before
    # A fresh import sees the originals as well.
    assert importlib.import_module("besov_empirica.sampling").make_generator is before[
        ("besov_empirica.sampling", "make_generator")
    ]
