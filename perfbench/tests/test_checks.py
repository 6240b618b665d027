"""Output checks count a wrong value or a changed artifact as a failed op."""

import oracle
import run
import workloads


def write_samples(path, rows):
    path.write_text("mu_1,mu_2,q\n" + "".join(f"{x!r},{y!r},{q!r}\n" for x, y, q in rows))


def test_sample_check_demands_bit_equality(tmp_path):
    a = [1.0, 4.0]
    rows = [(0.1, 0.2), (-0.3, 0.25)]
    exact = [(x, y, oracle.builtin_value(a, [x, y])) for x, y in rows]
    write_samples(tmp_path / "samples.csv", exact)
    assert workloads._check_samples(tmp_path, "samples.csv", a, 2,
                                    oracle.builtin_value) == []
    off = exact[:1] + [(rows[1][0], rows[1][1], exact[1][2] * (1 + 2 ** -52))]
    write_samples(tmp_path / "samples.csv", off)
    assert workloads._check_samples(tmp_path, "samples.csv", a, 2,
                                    oracle.builtin_value)


def test_tally_fails_a_step_whose_artifact_changed_or_did_not_run():
    steps = [workloads.Step("fit", (), ("model.json",)),
             workloads.Step("check", (), ())]
    plan = workloads.Plan(files={}, steps=steps, check=None, description={})
    first = run.PassResult(steps, [None, None], {}, {}, {"model.json": "aa"}, 0, [])
    changed = run.PassResult(steps, [None, None], {}, {}, {"model.json": "bb"}, 0, [])
    stopped = run.PassResult(steps[:1], [None], {0: ["exit 3"]}, {}, {}, 0, [])
    tally = run.Tally()
    tally.add_pass("p0", plan, first, first)
    assert (tally.attempted, tally.failed) == (2, 0)
    tally.add_pass("p1", plan, changed, first)
    assert (tally.attempted, tally.failed) == (4, 1)
    tally.add_pass("p2", plan, stopped, first)
    assert (tally.attempted, tally.failed) == (6, 3)
    assert any("differs from the first pass" in m for m in tally.messages)
