"""Span recorder arithmetic, patching and reduction to per-layer metrics."""

import itertools

import pytest

from gvbench import spans


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 6] and c [7, 9]; b holds d [2, 5]
    rec = spans.Recorder(clock=fake_clock(0, 1, 2, 5, 6, 7, 9, 10))
    a = rec.begin("a")
    b = rec.begin("b")
    d = rec.begin("d")
    rec.end(d)
    rec.end(b)
    c = rec.begin("c")
    rec.end(c)
    rec.end(a)
    assert [s.duration for s in rec.spans] == [10, 5, 3, 2]
    assert rec.self_times() == [10 - 5 - 2, 5 - 3, 3, 2]
    assert sum(rec.self_times()) == 10  # self times partition the root span
    assert rec.has_ancestor(d, "a") and rec.has_ancestor(d, "b")
    assert not rec.has_ancestor(c, "b")


def test_out_of_order_end_is_rejected():
    rec = spans.Recorder(clock=itertools.count().__next__)
    outer = rec.begin("outer")
    rec.begin("inner")
    with pytest.raises(RuntimeError):
        rec.end(outer)


def test_layer_metrics_from_hand_built_spans():
    rec = spans.Recorder(clock=itertools.count().__next__)
    top = rec.begin("cli.train")
    train = rec.begin("nn.train")
    for _ in range(3):  # three training steps: loss_and_backward then Adam
        step = rec.begin("models.loss_and_backward")
        conv = rec.begin("nn.block1.conv.fwd", "nn.conv.fwd")
        rec.end(conv)
        rec.end(step)
        opt = rec.begin("nn.optim.step")
        rec.end(opt)
    rec.end(train)
    conv = rec.begin("nn.block1.conv.fwd", "nn.conv.fwd")  # inference: totals only
    rec.end(conv)
    rec.end(top)
    rec.count("ocsvm.fit.iterations", 7)

    m = spans.layer_metrics(rec)
    assert m["nn.optim.steps"] == 3
    assert m["nn.block1.conv.fwd_ms"] == 1000.0      # median of the three step calls
    assert m["nn.conv.fwd_s"] == 4                    # all four calls
    assert m["nn.train.step_ms.p50"] == 1000.0 * (3 + 1)
    assert m["ocsvm.fit.iterations"] == 7
    assert m["nn.dec.out.bwd_ms"] == 0.0              # layer not in this model
    cli_self = m["cli.train.self_s"]
    assert cli_self == rec.self_times()[0] == 3       # the three gaps between its children

    shares = spans.layer_shares(rec, pipeline_s=rec.spans[0].duration)
    assert sum(shares.values()) == pytest.approx(100.0)


def test_traced_patches_every_binding_and_restores():
    import gaitverify.cli as cli
    import gaitverify.evaluate as evaluate
    from gaitverify.nn.layers import Conv1d

    orig_protocol = evaluate.run_protocol
    orig_forward = Conv1d.forward
    assert cli.run_protocol is orig_protocol
    rec = spans.Recorder()
    with spans.traced(rec):
        assert cli.run_protocol is evaluate.run_protocol is not orig_protocol
        assert Conv1d.forward is not orig_forward
        cli.format_summary([])
    assert cli.run_protocol is evaluate.run_protocol is orig_protocol
    assert Conv1d.forward is orig_forward
    assert [s.tag for s in rec.spans] == ["evaluate.report"]


def test_every_traced_tag_is_charged_to_a_layer():
    tags = {entry[2] for entry in spans.FUNCTIONS} | {entry[3] for entry in spans.METHODS}
    assert {spans.layer_of(t) for t in tags} <= set(spans.LAYERS)
