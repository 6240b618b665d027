"""Every count repeats exactly across two traced passes of one seed.

Runs the real CLI pipeline of ``bowl-d2`` twice under tracing (about 30 s).
"""

import run
import spans
import workloads


def test_traced_counts_repeat_exactly(tmp_path):
    plan = workloads.WORKLOADS["bowl-d2"](11)
    env = run.child_env()
    passes = [run.run_pass(plan, tmp_path / f"p{k}", env, True, f"test/p{k}") for k in (0, 1)]
    for result in passes:
        assert not result.errors
    first, second = (spans.pass_layers(p.records) for p in passes)
    counted = [name for name in run.COUNTS if name in first]
    assert len(counted) > 20
    assert {name: first[name] for name in counted} == {name: second[name] for name in counted}
    assert passes[0].digests == passes[1].digests
    assert first["boxmax.g_requests"] > first["boxmax.box_maximize.calls"] > 0
    assert first["manifold.iterations"] > 0
