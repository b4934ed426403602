"""Tests of the benchmark harness itself (not of the library)."""

import json
import types

import pytest

import harness
import jobs_divisors
import run
import worker
from harness import Job, Outcome, TableTimer, digest, tail, verify
from tracing import KernelCounters, Tracer, self_times, span_totals
from skewcodes import SkewRing, enumerate_right_divisors, get_field


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    value, pct, n = tail(list(range(1, 101)))
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(1 for x in range(1, 101) if x > value) == 10


def test_tail_moves_with_sample_count():
    value, pct, n = tail([5.0] * 10 + [1.0])
    assert (value, n) == (1.0, 11)
    assert pct == pytest.approx(100 / 11)


def test_tail_with_too_few_samples_is_the_maximum():
    assert tail([3, 1, 2]) == (3, 100.0, 3)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["job", 0, 100, None, "j"],
        ["a", 10, 30, 0, "j"],
        ["b", 20, 50, 0, "j"],      # overlaps a: 10..50 is covered once
        ["c", 12, 18, 1, "j"],      # grandchild: only a loses it
        ["d", 90, 120, 0, "j"],     # runs past its parent: clipped at 100
    ]
    assert self_times(spans) == [100 - 40 - 10, 20 - 6, 30, 6, 30]


def test_span_totals_group_by_name():
    spans = [["x", 0, 10, None, 1], ["x", 20, 25, None, 2], ["y", 0, 4, None, 1]]
    totals = span_totals(spans)
    assert totals.keys() == {"x", "y"}
    assert totals["x"][0] == 2 and totals["x"][1] == pytest.approx(15e-9)
    assert totals["y"][0] == 1 and totals["y"][1] == pytest.approx(4e-9)


def test_tracer_nests_spans_and_counts_errors_by_layer():
    tr = Tracer()
    with tr.job("r0.0"):
        tr.call("codes.inner", lambda: None)
        with pytest.raises(ZeroDivisionError):
            tr.call("fields.div", lambda: 1 // 0)
    names = [s[0] for s in tr.spans]
    parents = [s[3] for s in tr.spans]
    assert names == ["job", "codes.inner", "fields.div"]
    assert parents == [None, 0, 0]
    assert all(s[4] == "r0.0" for s in tr.spans)
    assert tr.errors == {"fields": 1}


def test_kernel_counters_count_and_uninstall():
    F9 = get_field("F9")
    counters = KernelCounters()
    counters.install([F9, F9])
    try:
        F9.mul_i(2, 3)
        F9.sub_i(2, 3)          # sub_i calls add_i and neg_i internally
    finally:
        counters.uninstall()
    assert counters.counts["mul_i"] == 1
    assert counters.counts["add_i"] == 3
    assert "mul_i" not in F9.__dict__
    F9.mul_i(2, 3)
    assert counters.counts["mul_i"] == 1


def _small_job():
    ring = SkewRing(get_field("F4"), 1)
    f = ring.x_pow_minus(6, get_field("F4").one)
    return Job("r0.0", "F4/e1/n6", (f, ("F4", 1, 6, 1)))


def _corrupt(out):
    """Swap the last degree-2 divisor for the next monic polynomial."""
    g = out[2][-1]
    bumped = list(g.coefficients)
    bumped[0] = bumped[0] + g.ring.field.one
    out[2][-1] = g.ring.poly(bumped)
    return out


def test_correct_output_passes_invariants_and_golden():
    job = _small_job()
    out = enumerate_right_divisors(job.args[0])
    oc = Outcome(job, 0.01, output=out)
    goldens = {job.jid: digest(jobs_divisors.canonical(job, out))}
    assert verify(jobs_divisors, None, [oc], goldens) == 0


def test_wrong_golden_fails_the_job():
    job = _small_job()
    oc = Outcome(job, 0.01, output=enumerate_right_divisors(job.args[0]))
    assert verify(jobs_divisors, None, [oc], {job.jid: "0" * 20}) == 1


def test_corrupted_output_makes_failed_ratio_nonzero():
    job = _small_job()
    stub = types.SimpleNamespace(
        run=lambda state, job, tr: _corrupt(enumerate_right_divisors(job.args[0])),
        check=jobs_divisors.check,
        canonical=jobs_divisors.canonical,
    )
    state = types.SimpleNamespace(rounds=[[job]])
    result = worker.timed_run("divisors", stub, state, seed=0, seconds=0)
    assert result["attempted"] == 1
    assert result["failed"] == 1
    assert result["failed_ratio"] == 1.0
    assert result["metrics"]["jobs_per_s"] == 0


def test_raising_job_counts_as_failed():
    job = _small_job()

    def boom(state, job, tr):
        raise ValueError("refused")

    stub = types.SimpleNamespace(run=boom, check=jobs_divisors.check,
                                 canonical=jobs_divisors.canonical)
    state = types.SimpleNamespace(rounds=[[job]])
    result = worker.timed_run("divisors", stub, state, seed=0, seconds=0)
    assert result["failed_ratio"] == 1.0


def test_anchor_candidates_match_the_guard_formula():
    # x^14 + 1 over F4: 27,304 trial divisions, 603 nontrivial divisors
    assert jobs_divisors.candidates(4, 14) == 27304
    assert jobs_divisors.guard_cost(4, 14) == 27306


def test_table_timer_records_first_touches():
    timer = TableTimer()
    timer.warm_field(get_field("F27"))
    labels = [label for label, _ in timer.entries]
    assert labels == ["F27.log", "F27.add", "F27.frob0", "F27.frob1", "F27.frob2"]
    assert timer.total >= 0


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == \
        worker.per_layer_units()
