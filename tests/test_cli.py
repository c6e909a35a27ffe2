import contextlib
import io
import json
import math
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvint import cli, corpus, props, sdp
from solvint import groups as gr


@pytest.fixture()
def spec_dir(tmp_path):
    (tmp_path / "s3.json").write_text(
        json.dumps({"kind": "sdp", "p": 3, "k": 1, "t": 1, "h_gens": [[[2]]], "name": "S3"})
    )
    (tmp_path / "f20.json").write_text(
        json.dumps({"kind": "sdp", "p": 5, "k": 1, "t": 1, "h_gens": [[[2]]], "name": "F20"})
    )
    (tmp_path / "tower2.json").write_text(json.dumps({"kind": "tower", "n": 2}))
    (tmp_path / "table.json").write_text(
        json.dumps({"kind": "oracle-table", "table": [[0, 1], [1, 0]], "name": "C2"})
    )
    (tmp_path / "badkind.json").write_text(json.dumps({"kind": "nope"}))
    (tmp_path / "notjson.json").write_text("{")
    (tmp_path / "reducible.json").write_text(
        json.dumps({"kind": "sdp", "p": 5, "k": 2, "t": 1, "h_gens": [[[2, 0], [0, 2]]]})
    )
    (tmp_path / "bigtower.json").write_text(json.dumps({"kind": "tower", "n": 4}))
    # C2^7: order 128, but 29,212 subgroups
    (tmp_path / "c2^7.json").write_text(
        json.dumps({"kind": "sdp", "p": 2, "k": 1, "t": 7, "h_gens": []})
    )
    # |G| = 5 * (10^21 + 117) * 4, far above any order cap
    (tmp_path / "huge-prime-tower.json").write_text(
        json.dumps({"kind": "tower", "primes": [5, 1000000000000000000117]})
    )
    # C_29 acting irreducibly on F_2^28: the companion matrix of 1 + x + ... + x^28
    companion = [[int(j == i + 1) for j in range(28)] for i in range(27)] + [[1] * 28]
    (tmp_path / "c29-on-f2^28.json").write_text(
        json.dumps({"kind": "sdp", "p": 2, "k": 28, "t": 1, "h_gens": [companion]})
    )
    # C2^6 (2,825 subgroups, each a maximal intersection) and 3^4:C2: analyze
    # runs an eta search for each of their many maximal-intersection classes
    (tmp_path / "c2^6.json").write_text(
        json.dumps({"kind": "sdp", "p": 2, "k": 1, "t": 6, "h_gens": []})
    )
    (tmp_path / "3^4-c2.json").write_text(
        json.dumps({"kind": "sdp", "p": 3, "k": 1, "t": 4, "h_gens": [[[2]]]})
    )
    # H = GL(2, 7), of order 2016 and not solvable
    (tmp_path / "gl27.json").write_text(
        json.dumps({"kind": "sdp", "p": 7, "k": 2, "t": 1,
                    "h_gens": [[[0, 4], [3, 1]], [[2, 0], [0, 4]]]})
    )
    # C8 acting on F_25 = F_5^2: order 200
    (tmp_path / "c8-f25.json").write_text(
        json.dumps({"kind": "sdp", "p": 5, "k": 2, "t": 1, "h_gens": [[[0, 1], [2, 0]]]})
    )
    # F_1201: FieldOps would tabulate 1201^2 field sums and products; the
    # group at t = 0 (order 1,200) passes the default order cap
    for t in (0, 1):
        (tmp_path / f"f1201-t{t}.json").write_text(
            json.dumps({"kind": "sdp", "p": 1201, "k": 1, "t": t, "h_gens": [[[11]]]})
        )
    # 2 * 10^17 + 363 and its half minus one are prime, and H = 1: p - 1 is
    # not smooth, and range(p) does not fit in memory
    (tmp_path / "safe-prime.json").write_text(
        json.dumps({"kind": "sdp", "p": 200000000000000363, "k": 1, "t": 1, "h_gens": []})
    )
    # p = 2^61 - 1 is prime; trial division would take about 1.5 * 10^9 steps
    (tmp_path / "mersenne61.json").write_text(
        json.dumps({"kind": "sdp", "p": 2**61 - 1, "k": 1, "t": 1, "h_gens": [[[3]]]})
    )
    return tmp_path


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_s3(spec_dir, capsys):
    code, out, _ = run(capsys, "analyze", "--spec", str(spec_dir / "s3.json"))
    assert code == 0
    assert "count_table,n=6,c_n,1,oracle" in out
    assert "eta,index=6,product,6,oracle" in out
    assert "status,ok" in out


def test_analyze_f20_eta_certificate(spec_dir, capsys):
    code, out, _ = run(capsys, "analyze", "--spec", str(spec_dir / "f20.json"))
    assert code == 0
    assert "eta,index=20,product,25,oracle" in out
    assert "eta_min,group,eta_min_floor4,1.0744,oracle" in out


def test_analyze_tower_maximal_counts(spec_dir, capsys):
    code, out, _ = run(capsys, "analyze", "--spec", str(spec_dir / "tower2.json"))
    assert code == 0
    for needle in ("maximal_counts,n=2,m_n,1", "maximal_counts,n=3,m_n,3",
                   "maximal_counts,n=5,m_n,5"):
        assert needle in out


def test_analyze_oracle_table(spec_dir, capsys):
    code, out, _ = run(capsys, "analyze", "--spec", str(spec_dir / "table.json"))
    assert code == 0
    assert "group,C2,order,2,oracle" in out


def test_json_format_parses(spec_dir, capsys):
    code, out, _ = run(capsys, "analyze", "--spec", str(spec_dir / "s3.json"),
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "ok"
    assert payload["command"] == "analyze"
    assert any(r["section"] == "crown" for r in payload["records"])


SDP_C2_ON_F3 = {"kind": "sdp", "p": 3, "k": 1, "t": 1, "h_gens": [[[2]]]}
MALFORMED_SPECS = (
    {"kind": "oracle-table", "table": []},
    {"kind": "oracle-table", "table": [["a"]]},
    {"kind": "oracle-table", "table": [[0, 1], [1]]},
    {"kind": "oracle-table", "table": [[True]]},
    {**SDP_C2_ON_F3, "h_gens": [[["x"]]]},
    {**SDP_C2_ON_F3, "h_gens": [[[2.5]]]},
    {**SDP_C2_ON_F3, "k": True},
    {**SDP_C2_ON_F3, "t": True},
    {**SDP_C2_ON_F3, "p": 9},
    {"kind": "tower", "n": True},
    {"kind": "tower", "n": 2, "strict": 1},
    {"kind": "tower", "primes": [3, 5.0]},
    # primality is decided exactly only below ffla.PRIME_TEST_BOUND
    {**SDP_C2_ON_F3, "p": 3317044064679887385961981},
    {"kind": "tower", "primes": [3, 3317044064679887385961981]},
)


def test_schema_error_exit_2(spec_dir, capsys):
    for name in ("badkind.json", "notjson.json"):
        code, _out, err = run(capsys, "analyze", "--spec", str(spec_dir / name))
        assert code == 2, err
    code, _out, err = run(capsys, "analyze", "--spec", str(spec_dir / "missing.json"))
    assert code == 2
    path = spec_dir / "malformed.json"
    for doc in MALFORMED_SPECS:
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "analyze", "--spec", str(path))
        assert (code, out) == (2, ""), (doc, err)
        assert len(err.strip().splitlines()) == 1, (doc, err)


def test_validation_error_exit_2(spec_dir, capsys):
    code, _out, err = run(capsys, "analyze", "--spec", str(spec_dir / "reducible.json"))
    assert code == 2
    assert "irreducibility" in err


def test_non_solvable_h_is_refused_in_bounded_time(spec_dir, capsys):
    # the derived series over all elements of each term took about 10 s
    start = time.monotonic()
    code, out, err = run(capsys, "analyze", "--spec", str(spec_dir / "gl27.json"))
    assert code == 2 and out == "", err
    assert err.strip().splitlines() == ["invalid input: solvability: H is not solvable"]
    assert time.monotonic() - start < 5


def test_cap_error_exit_3(spec_dir, capsys):
    for name in ("bigtower.json", "c29-on-f2^28.json", "huge-prime-tower.json", "c2^7.json",
                 "f1201-t0.json", "f1201-t1.json", "safe-prime.json"):
        start = time.monotonic()
        code, _out, err = run(capsys, "analyze", "--spec", str(spec_dir / name),
                              "--cap-order", "1000")
        assert code == 3, (name, err)
        assert "cap" in err
        assert time.monotonic() - start < 5, name


def test_analyze_eta_search_ends_in_bounded_time(spec_dir, capsys):
    # the |K:H| bound prunes the eta search; without it these take 6-10 s
    for name in ("c2^6.json", "3^4-c2.json"):
        start = time.monotonic()
        code, out, err = run(capsys, "analyze", "--spec", str(spec_dir / name),
                             "--cap-order", "200")
        assert code == 0, (name, err)
        assert "eta_min" in out
        assert time.monotonic() - start < 5, name


def test_eta_node_cap_exits_3(spec_dir, capsys, monkeypatch):
    monkeypatch.setattr(props, "ETA_NODE_CAP", 5)
    code, out, err = run(capsys, "analyze", "--spec", str(spec_dir / "c2^6.json"),
                         "--cap-order", "200")
    assert code == 3 and out == ""
    assert err.strip().splitlines() == ["resource cap: eta search nodes (cap: 5)"]


def test_huge_prime_spec_is_refused_quickly(spec_dir, capsys):
    start = time.monotonic()
    code, out, err = run(capsys, "analyze", "--spec", str(spec_dir / "mersenne61.json"))
    assert code in (2, 3) and out == "", err
    assert len(err.strip().splitlines()) == 1
    assert time.monotonic() - start < 5


# Small ints stay in -2..3, so every valid sdp spec has |G| <= 192 and a
# request takes at most a few seconds; huge ints probe the input guards.
SPEC_INTS = st.one_of(st.integers(-2, 3), st.booleans(),
                      st.integers(2**60, 2**90), st.integers(-(2**90), -(2**60)))
RAGGED = st.recursive(SPEC_INTS, lambda inner: st.lists(inner, max_size=3), max_leaves=10)


@st.composite
def sdp_docs_with_square_gens(draw):
    k = draw(st.integers(1, 3))
    matrix = st.lists(st.lists(SPEC_INTS, min_size=k, max_size=k), min_size=k, max_size=k)
    return {"kind": "sdp", "p": draw(st.one_of(st.sampled_from([2, 3, 5]), SPEC_INTS)),
            "k": k, "t": draw(SPEC_INTS), "h_gens": draw(st.lists(matrix, max_size=2))}


SPEC_DOCS = st.one_of(
    sdp_docs_with_square_gens(),
    st.fixed_dictionaries({"kind": st.just("sdp")},
                          optional={"p": SPEC_INTS, "k": SPEC_INTS, "t": SPEC_INTS,
                                    "h_gens": RAGGED}),
    st.fixed_dictionaries({"kind": st.just("tower")},
                          optional={"n": SPEC_INTS, "primes": RAGGED,
                                    "strict": st.one_of(st.booleans(), SPEC_INTS)}),
    st.fixed_dictionaries({"kind": st.just("oracle-table")}, optional={"table": RAGGED}),
    st.fixed_dictionaries({"kind": st.one_of(SPEC_INTS, st.text(max_size=4), st.none())}),
    RAGGED,
)


def test_spec_fuzz_keeps_the_exit_code_contract():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"

        @settings(max_examples=400, deadline=None, database=None)
        @given(SPEC_DOCS)
        def check(doc):
            path.write_text(json.dumps(doc))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["analyze", "--spec", str(path), "--cap-order", "200"])
            assert code in (0, 2, 3), (doc, err.getvalue())
            if code:
                assert len(err.getvalue().strip().splitlines()) == 1, (doc, err.getvalue())

        check()


PRIMES_BELOW_10K = [n for n in range(2, 10**4)
                    if all(n % d for d in range(2, math.isqrt(n) + 1))]


@st.composite
def valid_shaped_sdp_docs(draw):
    """sdp specs of the right types and ranges: k <= 3, a prime below 10^4
    when k = 1 and a small one otherwise, t <= 7 and up to two k x k
    generators over F_p.  H may still be singular, reducible or not
    solvable, F too large to tabulate, and G above the order cap."""
    k = draw(st.integers(1, 3))
    p = draw(st.sampled_from(PRIMES_BELOW_10K if k == 1 else [2, 3, 5, 7]))
    matrix = st.lists(st.lists(st.integers(0, p - 1), min_size=k, max_size=k),
                      min_size=k, max_size=k)
    return {"kind": "sdp", "p": p, "k": k, "t": draw(st.integers(0, 7)),
            "h_gens": draw(st.lists(matrix, max_size=2))}


def test_valid_shaped_sdp_specs_end_in_bounded_time():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"

        @settings(max_examples=60, deadline=None, database=None)
        @given(valid_shaped_sdp_docs())
        def check(doc):
            path.write_text(json.dumps(doc))
            out, err = io.StringIO(), io.StringIO()
            start = time.monotonic()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["analyze", "--spec", str(path), "--cap-order", "1000"])
            assert time.monotonic() - start < 10, doc
            assert code in (0, 2, 3), (doc, err.getvalue())
            if code:
                assert len(err.getvalue().strip().splitlines()) == 1, (doc, err.getvalue())

        check()


def test_verify_tower_suite(spec_dir, capsys):
    code, out, _ = run(capsys, "verify", "--suite", "tower",
                       "--spec", str(spec_dir / "tower2.json"))
    assert code == 0
    assert "tower,counts,formula_agrees_oracle,no,oracle" in out
    assert "structural classes equal oracle classes,pass,yes" in out


def test_verify_interkm_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "--suite", "interKM", "--seed", "99")
    code2, out2, _ = run(capsys, "verify", "--suite", "interKM", "--seed", "99")
    assert code1 == code2 == 0
    assert out1 == out2
    code3, out3, _ = run(capsys, "verify", "--suite", "interKM", "--seed", "100")
    assert code3 == 0
    assert "seed,100" in out3


def test_interkm_requests_are_cold(monkeypatch):
    # an interKM request works on fresh groups over the pool's modules, so
    # it leaves no memo behind in the pool groups for the next request; a
    # pool of its own keeps earlier tests from having filled them already
    monkeypatch.setattr(corpus, "_template_cache", {})
    pool = corpus.sdp_pool(2000)

    def cache_sizes():
        return [{key: len(value) for key, value in g._cache.items()} for g in pool]

    before = cache_sizes()
    report = cli.cmd_verify(None, "interKM", gr.DEFAULT_ORDER_CAP, 5)
    assert report.failures == 0
    assert cache_sizes() == before


def test_thuno_and_propo_requests_without_a_spec_are_cold(monkeypatch):
    # the corpus oracles lend their tables to fresh groups, so a request
    # leaves no memo behind in them, and the gamma witness modules of thuno
    # are built again by every request
    monkeypatch.setattr(corpus, "_corpus_cache", {})
    groups = corpus.corpus_groups()
    built = []
    create = sdp.HModule.create
    monkeypatch.setattr(sdp.HModule, "create",
                        lambda *args, **kwargs: built.append(1) or create(*args, **kwargs))

    def cache_sizes():
        return [{key: len(value) for key, value in g._cache.items()} for g in groups]

    before = cache_sizes()
    for suite in ("thuno", "propo"):
        assert cli.cmd_verify(None, suite, gr.DEFAULT_ORDER_CAP, 5).failures == 0
        assert cache_sizes() == before, suite
    modules_per_request = len(built)
    assert modules_per_request > 0
    cli.cmd_verify(None, "thuno", gr.DEFAULT_ORDER_CAP, 5)
    assert len(built) == 2 * modules_per_request


def test_counts_range(capsys):
    code, out, _ = run(capsys, "counts", "--range", "2..3", "--cap-order", "100")
    assert code == 0
    assert "counts,n=2,gamma_formula,7,formula" in out
    assert "counts,n=2,ratio_bound,1/1,formula" in out
    assert "counts,n=3,gamma_oracle,-" in out


def test_counts_strict_primes(capsys):
    code, out, _ = run(capsys, "counts", "--range", "2..3", "--strict-tower",
                       "--cap-order", "70")
    assert code == 0
    assert "counts,n=2,primes,3 13,formula" in out
    assert "counts,n=3,primes,3 13 193,formula" in out


def test_counts_bad_range(capsys):
    code, _out, err = run(capsys, "counts", "--range", "x..y")
    assert code == 2


def test_verify_due_with_spec(spec_dir, capsys):
    code, out, _ = run(capsys, "verify", "--suite", "due",
                       "--spec", str(spec_dir / "f20.json"))
    assert code == 0
    assert "due,F20,gamma_v,1,oracle" in out
    code, _out, _err = run(capsys, "verify", "--suite", "due",
                           "--spec", str(spec_dir / "tower2.json"))
    assert code == 2


def test_verify_due_keeps_the_order_cap(spec_dir, capsys):
    # every suite that embeds the group refuses it above --cap-order
    for suite in ("due", "thuno", "propo"):
        code, out, err = run(capsys, "verify", "--suite", suite, "--cap-order", "100",
                             "--spec", str(spec_dir / "c8-f25.json"))
        assert (code, out) == (3, ""), (suite, err)
        assert err.strip().splitlines() == [
            "resource cap: oracle embedding of |G|=200 exceeds the order cap (cap: 100)"]


def test_verify_thuno_with_spec(spec_dir, capsys):
    code, out, _ = run(capsys, "verify", "--suite", "thuno",
                       "--spec", str(spec_dir / "s3.json"))
    assert code == 0
    assert "thuno,S3,pass,yes,oracle" in out
