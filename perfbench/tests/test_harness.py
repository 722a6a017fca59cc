"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q
"""

import hashlib
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import qmspace  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def span(id, parent, t0, t1, layer="bench", **attrs):
    return {"id": id, "parent": parent, "name": f"s{id}", "layer": layer,
            "t0": t0, "t1": t1, "attrs": attrs}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span(1, None, 0.0, 10.0, op="x"),
        span(2, 1, 1.0, 4.0, layer="transport", group="transport.wasserstein"),
        span(3, 1, 3.0, 6.0, layer="core", group="core.validate"),  # overlaps 2
        span(4, 2, 2.0, 3.0, layer="transport", group="transport.lp",
             vars=4, rows=3, nnz=8, nit=2, success=True),
        span(5, 1, 9.5, 11.0, layer="io", group="io.load"),  # clipped at 10
    ]
    st = tracing.self_times(spans)
    assert st == pytest.approx({1: 10.0 - 5.5, 2: 2.0, 3: 3.0, 4: 1.0, 5: 1.5})

    nested = [spans[0], spans[1], spans[3],
              span(3, 1, 6.0, 8.0, layer="core", group="core.validate")]
    m = tracing.rep_layer_metrics(nested, {"x": True})
    assert m["layer.bench.self_s"] == pytest.approx(5.0)
    assert m["transport.wasserstein.self_s"] == pytest.approx(2.0)
    assert m["layer.transport.self_s"] == pytest.approx(3.0)
    assert m["core.validate.calls"] == 1
    assert m["transport.lp.useful_frac"] == 1.0
    layers = sum(m[f"layer.{name}.self_s"] for name in (*tracing.LAYERS, "bench"))
    assert layers == pytest.approx(10.0)  # self times partition the root


def test_lp_of_a_failed_operation_is_not_useful():
    spans = [span(1, None, 0.0, 2.0, op="x"),
             span(2, 1, 0.5, 1.5, layer="transport", group="transport.lp",
                  vars=4, rows=3, nnz=8, nit=2, success=True)]
    assert tracing.rep_layer_metrics(spans, {"x": False})["transport.lp.useful_frac"] == 0.0


def test_wrappers_install_everywhere_and_uninstall():
    original = qmspace.transport.wasserstein
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, qmspace)
    try:
        assert qmspace.curvature.wasserstein is qmspace.transport.wasserstein
        assert qmspace.wasserstein is qmspace.transport.wasserstein
        assert qmspace.transport.wasserstein is not original
        assert qmspace.curvature.beta.__name__ == "beta"  # per-pair: untouched
        assert not hasattr(qmspace.curvature.beta, "__wrapped__")
    finally:
        tracing.uninstall(undo)
    assert qmspace.transport.wasserstein is original
    assert qmspace.curvature.wasserstein is original


@pytest.fixture(scope="module")
def transport_ops(tmp_path_factory):
    inp = workloads.transport_build(0, str(tmp_path_factory.mktemp("t")))
    return {op.name: op for op in workloads.transport_ops(inp)}


@pytest.fixture(scope="module")
def clock():
    return speed.Speed()


@pytest.mark.parametrize("corrupt", ["plan", "value", "suboptimal"])
def test_corrupted_coupling_counts_as_failed(transport_ops, clock, monkeypatch, corrupt):
    op = transport_ops["w/C150r6/dense/p1/bwd"]
    real = qmspace.wasserstein

    def broken(prob):
        value, coupling = real(prob)
        if corrupt == "suboptimal":  # feasible, and its value is its cost
            m = np.outer(prob.mu, prob.nu)
            object.__setattr__(coupling, "matrix", m)
            return float(np.sum(prob.space.dist ** prob.p * m)) ** (1 / prob.p), coupling
        if corrupt == "plan":
            m = coupling.matrix.copy()
            i, j = np.unravel_index(np.argmax(m), m.shape)
            m[i, j] *= 0.5  # mass goes missing from one row and column
            object.__setattr__(coupling, "matrix", m)
            return value, coupling
        return value * (1 + 1e-6), coupling

    assert run.run_pass([op], clock)[0].outcomes[0]["ok"]
    monkeypatch.setattr(qmspace, "wasserstein", broken)
    outcomes = run.run_pass([op], clock)[0].outcomes
    assert not outcomes[0]["ok"]
    assert outcomes[0]["defect"] is None  # not excused as a known defect
    assert outcomes[0]["error"].startswith("check:")
    if corrupt == "suboptimal":
        assert "not optimal" in outcomes[0]["error"]


@pytest.mark.parametrize("name, message, excused", [
    # marginal drift where the seed commit's LP drifts too
    ("w/C150r6/skewed/p2/fwd", "coupling marginals do not match", True),
    # the same message from an operation whose problem does not drift
    ("w/C150r6/dense/p1/bwd", "coupling marginals do not match", False),
    # a drifting operation failing in another way
    ("w/C150r6/skewed/p2/fwd", "transport LP failed: infeasible", False),
    # a named known defect's own signature, and another message
    ("w/A200x1e+06/dense/p2/bwd", "LP optimality certificate failed: x", True),
    ("w/A200x1e+06/dense/p2/bwd", "coupling marginals do not match", False),
])
def test_only_the_known_defects_are_excused(transport_ops, clock, monkeypatch,
                                            name, message, excused):
    def raising(prob):
        raise qmspace.SpaceError(message)

    monkeypatch.setattr(qmspace, "wasserstein", raising)
    outcome = run.run_pass([transport_ops[name]], clock)[0].outcomes[0]
    assert not outcome["ok"]
    assert (outcome["defect"] is not None) is excused
    assert set(checks.KNOWN_DEFECTS) <= set(transport_ops)


@pytest.mark.parametrize("name", ["w/C150r6/skewed/p2/fwd", "w/C150r6/dense/p1/bwd"])
def test_drift_is_reproduced_exactly_where_qmspace_drifts(transport_ops, name):
    dist, mu, nu, p = transport_ops[name].problems()[0]
    try:
        qmspace.wasserstein(qmspace.TransportProblem(
            qmspace.QuasiMetricSpace(dist), mu, nu, float(p)))
        drifted = False
    except qmspace.SpaceError as exc:
        assert checks.DRIFT in str(exc)
        drifted = True
    assert (checks.seed_lp_drift(dist, mu, nu, p) > checks.MARGINAL_TOL) is drifted


@pytest.mark.parametrize("traced_first", [False, True])
def test_a_traced_pass_runs_each_op_untraced_and_traced(transport_ops, clock, traced_first):
    ops = [transport_ops["w/C150r6/dense/p1/bwd"], transport_ops["kr_dual/D100/dense/p1"]]
    tracer = tracing.Tracer()
    untraced, traced = run.run_pass(ops, clock, tracer, traced_first)
    assert [o["op"] for o in untraced.outcomes] == [op.name for op in ops]
    assert [o["op"] for o in traced.outcomes] == [op.name for op in ops]
    assert all(o["ok"] for o in untraced.outcomes + traced.outcomes)
    roots = [s["attrs"]["op"] for s in tracer.spans if s["parent"] is None]
    assert roots == [op.name for op in ops]  # only the traced runs make spans
    assert not hasattr(qmspace.transport.wasserstein, "__wrapped__")  # uninstalled


def _reps(*norms):
    return [run.Rep(s, s, [], 0) for s in norms]


@pytest.mark.parametrize("untraced, traced, frac, resolved", [
    ((10.0, 10.0), (11.0, 11.2), 0.11, 1.0),    # every pass slower, beyond the range
    ((10.0, 10.4), (10.1, 10.2), -0.005, 0.0),  # the passes disagree in sign
    ((10.0, 10.0), (10.1, 10.6), 0.035, 0.0),   # within the range of the ratios
])
def test_overhead_is_reported_from_the_reported_times(untraced, traced, frac, resolved):
    out = run.overhead(_reps(*untraced), _reps(*traced))
    assert out["trace.overhead_frac"] == pytest.approx(
        out["trace.run_s"] / out["trace.untraced_run_s"] - 1.0)
    assert out["trace.overhead_frac"] == pytest.approx(frac, abs=1e-3)
    assert out["trace.overhead_resolved"] == resolved


def _digest(obj, h):
    if isinstance(obj, dict):
        for k in sorted(obj):
            h.update(str(k).encode())
            _digest(obj[k], h)
    elif isinstance(obj, (list, tuple)):
        for x in obj:
            _digest(x, h)
    elif isinstance(obj, np.ndarray):
        h.update(obj.tobytes())
    elif hasattr(obj, "__dataclass_fields__"):
        _digest(vars(obj), h)
    else:
        h.update(repr(obj).encode())


def _fingerprint(name, seed, workdir):
    workdir.mkdir()
    build, _ = workloads.WORKLOADS[name]
    inp = build(seed, str(workdir))
    inp.pop("workdir", None)
    h = hashlib.sha256()
    _digest(inp, h)
    for f in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, f), "rb") as fh:
            h.update(f.encode() + fh.read())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_byte_deterministic_in_the_seed(name, tmp_path):
    a = _fingerprint(name, 3, tmp_path / "a")
    b = _fingerprint(name, 3, tmp_path / "b")
    c = _fingerprint(name, 4, tmp_path / "c")
    assert a == b
    assert a != c
