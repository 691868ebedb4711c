"""The trace differ's contract: diff(A, A) is all zeros, and on real
divergent runs the per-category deltas re-partition the makespan delta
exactly — the headline property inherited from the attribution's
partition exactness, enforced here on every traced configuration.
"""

from __future__ import annotations

import json

import pytest
from test_identity import CONFIGS, make_items

from repro.obs import (
    RunProfile,
    TraceError,
    TraceRecorder,
    chrome_trace,
    diff_profiles,
    explain_regression,
    profile_document,
    profile_tracer,
)

IDS = [label for label, _, _ in CONFIGS]


def record(build, mix, ops: int | None = None):
    tracer = TraceRecorder()
    items = make_items(mix)
    if ops is not None:
        items = items[:ops]
    build(tracer).run_workload(items)
    return tracer


@pytest.mark.parametrize("label,mix,build", CONFIGS, ids=IDS)
def test_self_diff_is_all_zeros(label, mix, build):
    explanation = explain_regression(
        record(build, mix), record(build, mix)
    ).check()
    assert explanation.makespan_delta == 0
    assert all(d.delta == 0 for d in explanation.categories)
    assert all(d.delta == 0 for d in explanation.tracks)
    assert all(d.delta == 0 for d in explanation.stages)
    assert any(
        "no attribution movement" in line
        for line in explanation.render()
    )


@pytest.mark.parametrize("label,mix,build", CONFIGS, ids=IDS)
def test_category_deltas_repartition_makespan_delta(label, mix, build):
    """A genuinely perturbed run (3/4 of the workload): each side's
    totals partition its own makespan, so the deltas must re-partition
    the makespan delta — ``check()`` enforces it, and we re-assert the
    sum here so a vacuous check() can't hide."""
    base = record(build, mix)
    other = record(build, mix, ops=192)
    explanation = explain_regression(base, other).check()
    assert explanation.makespan_delta != 0
    assert explanation.attributed_delta == pytest.approx(
        explanation.makespan_delta, rel=1e-9, abs=1e-9
    )
    # Ranked: largest absolute mover first.
    magnitudes = [abs(d.delta) for d in explanation.categories]
    assert magnitudes == sorted(magnitudes, reverse=True)


def _engine_config():
    return next(
        (mix, build)
        for label, mix, build in CONFIGS
        if label == "engine"
    )


def test_document_profile_matches_tracer_profile():
    mix, build = _engine_config()
    tracer = record(build, mix)
    live = profile_tracer(tracer, label="x")
    doc = profile_document(chrome_trace(tracer), label="x")
    assert doc.makespan == pytest.approx(live.makespan)
    assert set(doc.totals) == set(live.totals)
    for category, amount in live.totals.items():
        assert doc.totals[category] == pytest.approx(amount, abs=1e-9)
    assert doc.stages.keys() == live.stages.keys()
    explanation = diff_profiles(live, doc).check()
    assert abs(explanation.makespan_delta) < 1e-9
    assert all(abs(d.delta) < 1e-9 for d in explanation.categories)


@pytest.mark.parametrize("label,mix,build", CONFIGS, ids=IDS)
def test_profile_round_trips_through_json(label, mix, build):
    """``as_dict`` is what a bench JSON embeds: through ``json`` and
    back, the profile — tuple-keyed ``track_totals`` included — is the
    same value, so a diff against it is a diff against the run."""
    profile = profile_tracer(record(build, mix))
    assert any(isinstance(key, tuple) for key in profile.track_totals)
    wire = json.loads(json.dumps(profile.as_dict()))
    assert RunProfile.from_dict(wire) == profile
    assert RunProfile.from_dict(wire, label="x").label == "x"


@pytest.mark.parametrize(
    "garbage", [None, [], {}, {"makespan": "fast"}, {"makespan": 1.0}]
)
def test_a_malformed_profile_is_a_trace_error(garbage):
    with pytest.raises(TraceError, match="not a run profile"):
        RunProfile.from_dict(garbage)


def test_explain_regression_rejects_unprofilable_input():
    with pytest.raises(TraceError):
        explain_regression(42, TraceRecorder())
    with pytest.raises(TraceError, match="not a run profile"):
        explain_regression({"no": "profile"}, TraceRecorder())


def test_explain_regression_reads_a_bench_json_or_a_document():
    """Any mix of sources: a bench JSON's embedded profile against the
    exported document it was taken from shows no movement."""
    mix, build = _engine_config()
    document = chrome_trace(record(build, mix))
    bench_json = {"profile": profile_document(document).as_dict()}
    explanation = explain_regression(bench_json, document).check()
    assert explanation.makespan_delta == 0
    assert all(d.delta == 0 for d in explanation.categories)


def test_render_is_deterministic_and_bounded():
    mix, build = _engine_config()
    base = record(build, mix)
    other = record(build, mix, ops=192)
    first = explain_regression(base, other).render(top=3)
    second = explain_regression(base, other).render(top=3)
    assert first == second
    # header + at most 3 category lines + optional stage line
    assert len(first) <= 5
    assert first[0].startswith("trace diff (base -> run): makespan ")
