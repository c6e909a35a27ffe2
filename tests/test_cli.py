import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvint import cli, corpus, ffla, props, sdp
from solvint import groups as gr

from references import counting_law_calls


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
    # Q8 acting on F_11^2: order 968, with |F| = 11 and twelve F-lines
    (tmp_path / "q8-f121.json").write_text(
        json.dumps({"kind": "sdp", "p": 11, "k": 2, "t": 1,
                    "h_gens": [[[0, 1], [10, 0]], [[1, 3], [3, 10]]]})
    )
    # C8 acting on F_25 = F_5^2: order 200
    (tmp_path / "c8-f25.json").write_text(
        json.dumps({"kind": "sdp", "p": 5, "k": 2, "t": 1, "h_gens": [[[0, 1], [2, 0]]]})
    )
    # Singer cycles: H = <companion matrix of x^8 + x^4 + x^3 + x^2 + 1 or of
    # x^9 + x^4 + 1> on F_2^k has F = F_(2^k), up to the field cap; an order
    # cap below |G| refuses G before F is tabulated
    for k, low in ((8, (1, 0, 1, 1, 1, 0, 0, 0)), (9, (1, 0, 0, 0, 1, 0, 0, 0, 0))):
        companion = [[int(j == i + 1) for j in range(k)] for i in range(k - 1)] + [list(low)]
        (tmp_path / f"singer-f{2**k}.json").write_text(
            json.dumps({"kind": "sdp", "p": 2, "k": k, "t": 1, "h_gens": [companion]}))
    # D_1042 and F_23^2 x| C_3, C_3 by the transpose of the companion matrix
    # of x^2 + x + 1: End_H(V) = F_521 and F_529 pass the field cap, and no
    # spec request builds End_H(V)
    (tmp_path / "d1042.json").write_text(
        json.dumps({"kind": "sdp", "p": 521, "k": 1, "t": 1, "h_gens": [[[520]]]})
    )
    (tmp_path / "f23^2-c3.json").write_text(
        json.dumps({"kind": "sdp", "p": 23, "k": 2, "t": 1, "h_gens": [[[0, 22], [1, 22]]]})
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


def test_a_non_solvable_group_is_invalid_input(spec_dir, capsys):
    a5 = gr.from_permutations([(1, 2, 3, 4, 0), (1, 0, 3, 2, 4)], "A5")
    path = spec_dir / "a5.json"
    path.write_text(json.dumps({"kind": "oracle-table", "name": "A5",
                                "table": [[a5.mul(a, b) for b in range(a5.n)]
                                          for a in range(a5.n)]}))
    for command in (["analyze"], ["verify", "--suite", "thuno"], ["verify", "--suite", "propo"]):
        code, out, err = run(capsys, *command, "--spec", str(path))
        assert (code, out) == (2, ""), (command, err)
        (line,) = err.strip().splitlines()
        assert line.startswith("invalid input: ") and "requires a solvable group" in line


def test_spec_name_must_be_a_string(spec_dir, capsys):
    path = spec_dir / "named.json"
    for doc in ({**SDP_C2_ON_F3, "name": 0}, {**SDP_C2_ON_F3, "name": 5},
                {"kind": "oracle-table", "table": [[0]], "name": [1]},
                {"kind": "tower", "n": 2, "name": None}):
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "analyze", "--spec", str(path))
        assert (code, out) == (2, ""), doc
        assert err.strip().splitlines() == ["schema error: spec 'name' must be a string"]
    path.write_text(json.dumps({**SDP_C2_ON_F3, "name": "S3"}))
    code, out, _ = run(capsys, "analyze", "--spec", str(path))
    assert code == 0 and "group,S3,order,6,oracle" in out


def test_a_spec_name_that_does_not_encode_as_utf8_is_a_schema_error(spec_dir, capsys):
    # "\ud800" is valid JSON but a lone surrogate, which stdout cannot write
    path = spec_dir / "surrogate.json"
    path.write_text(json.dumps({**SDP_C2_ON_F3, "name": "\ud800"}))
    for fmt in ("csv", "json"):
        code, out, err = run(capsys, "analyze", "--spec", str(path), "--format", fmt)
        assert (code, out) == (2, ""), fmt
        assert err.strip().splitlines() == ["schema error: spec 'name' must encode as UTF-8"]


def test_a_tower_spec_name_names_the_group(spec_dir, capsys):
    path = spec_dir / "named-tower.json"
    path.write_text(json.dumps({"kind": "tower", "n": 2, "name": "mine"}))
    for command, needle in ((["analyze"], "group,mine,order,60,oracle"),
                            (["verify", "--suite", "thuno"], "thuno,mine,pass,yes,oracle")):
        code, out, err = run(capsys, *command, "--spec", str(path))
        assert (code, err) == (0, ""), command
        assert needle in out and "tower-n2" not in out, command
    # an empty name keeps the default, as for sdp specs
    path.write_text(json.dumps({"kind": "tower", "n": 2, "name": ""}))
    code, out, _ = run(capsys, "analyze", "--spec", str(path))
    assert code == 0 and "group,tower-n2-3x5,order,60,oracle" in out


def test_the_order_cap_refuses_an_sdp_spec_before_its_field_is_built(spec_dir, capsys,
                                                                     monkeypatch):
    # |G| = 512 * 511 is known once H is enumerated; building F = F_512 took
    # most of the 0.76 s this refusal used to take
    def no_field(*args):
        raise AssertionError("the endomorphism field was built")

    monkeypatch.setattr(sdp, "endomorphism_field", no_field)
    start = time.monotonic()
    for command in (["analyze"], ["verify", "--suite", "thuno"], ["verify", "--suite", "due"],
                    ["verify", "--suite", "propo"]):
        code, out, err = run(capsys, *command, "--cap-order", "1000",
                             "--spec", str(spec_dir / "singer-f512.json"))
        assert (code, out) == (3, ""), command
        assert err.strip().splitlines() == [
            "resource cap: oracle embedding of |G|=261632 exceeds the order cap (cap: 1000)"]
    assert time.monotonic() - start < 2
    # due refuses t != 1 as invalid input before it weighs the order
    monkeypatch.undo()
    code, out, err = run(capsys, "verify", "--suite", "due", "--cap-order", "100",
                         "--spec", str(spec_dir / "c2^7.json"))
    assert (code, out) == (2, "")
    assert err.strip().splitlines() == [
        "invalid input: primitive verifier expects t = 1 (Gamma = V x| H)"]


def test_cap_error_exit_3(spec_dir, capsys):
    for name in ("bigtower.json", "c29-on-f2^28.json", "huge-prime-tower.json", "c2^7.json",
                 "f1201-t0.json", "f1201-t1.json", "safe-prime.json", "singer-f256.json",
                 "singer-f512.json"):
        start = time.monotonic()
        code, _out, err = run(capsys, "analyze", "--spec", str(spec_dir / name),
                              "--cap-order", "1000")
        assert code == 3, (name, err)
        assert "cap" in err
        assert time.monotonic() - start < 5, name


def test_the_order_cap_refuses_an_sdp_spec_by_v_t_before_h_is_closed(spec_dir, capsys,
                                                                     monkeypatch):
    # |G| >= |V^t| = p^(k t) >= 2^(k t), so a V^t past the order cap is
    # refused before any generator is read; at k t = 100 no power is taken
    monkeypatch.setattr(sdp, "_matrix_group", None)
    (spec_dir / "f2^100.json").write_text(
        json.dumps({"kind": "sdp", "p": 2, "k": 1, "t": 100, "h_gens": []}))
    for name, cap, v_t in (("c29-on-f2^28", 1000, "2^28"), ("f1201-t1", 1000, "1201^1"),
                           ("safe-prime", 1000, "200000000000000363^1"),
                           ("f2^100", 5000, "2^100"), ("f2^100", 2**99, "2^100")):
        code, out, err = run(capsys, "analyze", "--spec", str(spec_dir / f"{name}.json"),
                             "--cap-order", str(cap))
        assert (code, out) == (3, ""), (name, err)
        assert err.strip().splitlines() == [
            f"resource cap: oracle embedding of |V^t|={v_t} exceeds the order cap (cap: {cap})"]


def test_an_oversized_spec_file_is_refused_before_it_is_parsed(spec_dir, capsys):
    # C_2000 as a table spec is 17.8 MB of JSON, and parsing it costs about
    # 200 MB; at order cap 100 the file may hold 32 * 100^2 + 2^16 bytes.
    # The file is written one row at a time, so the test holds no table.
    n = 2000
    path = spec_dir / "c2000.json"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"kind": "oracle-table", "name": "C2000", "table": [')
        for i in range(n):
            fh.write(("" if i == 0 else ", ") + json.dumps([(i + j) % n for j in range(n)]))
        fh.write("]}")
    limit = cli.SPEC_BYTES_PER_ENTRY * 100**2 + cli.SPEC_SLACK_BYTES
    assert path.stat().st_size > 40 * limit
    for command in (["analyze"], ["verify", "--suite", "propo"]):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *command, "--spec", str(path), "--cap-order", "100")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (3, ""), (command, err)
        assert err.strip().splitlines() == [
            f"resource cap: spec file size in bytes at order cap 100 (cap: {limit})"]
        assert peak < 4 * limit, peak
    # a file that is not UTF-8 is a schema error, not a traceback
    (spec_dir / "latin1.json").write_bytes(b'{"kind": "sdp", "name": "\xe9"}')
    code, out, err = run(capsys, "analyze", "--spec", str(spec_dir / "latin1.json"))
    assert (code, out) == (2, "") and len(err.strip().splitlines()) == 1, err
    assert err.startswith("schema error: cannot read spec file")


# F_17^3 and F_47^2 x| C_2, with the SHA-256 of the report `analyze`
# printed while W's addition was a |W|^2 table, whose builds then peaked
# at 197 MiB and 39 MiB (gr.cyclic(5000) at 1.12 GiB)
LARGE_W_SPECS = (
    ({"kind": "sdp", "p": 17, "k": 1, "t": 3, "h_gens": []},
     "720638bb56023a78a902f4e0ad64a6aca207b1dbf69ab2ff467e48dc1c9ab1e6"),
    ({"kind": "sdp", "p": 47, "k": 1, "t": 2, "h_gens": [[[46]]]},
     "fb49d4d0c7821d6a6d3544472a88e6817e406fe2bd283a25f51a63f6a9b1f23e"),
)


def test_split_oracles_of_a_large_w_keep_their_bytes_in_little_memory(spec_dir, capsys):
    builds = [lambda doc=doc: cli.build_oracle(doc, gr.DEFAULT_ORDER_CAP)
              for doc, _digest in LARGE_W_SPECS]
    for build in builds + [lambda: gr.cyclic(5000)]:
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak
    for i, (doc, digest) in enumerate(LARGE_W_SPECS):
        path = spec_dir / f"large-w-{i}.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "analyze", "--spec", str(path))
        assert code == 0, doc
        assert hashlib.sha256(out.encode()).hexdigest() == digest, doc


def test_a_cold_analyze_filters_the_maximals_once_per_subgroup(monkeypatch):
    # every question about the maximals above h and their meet reads one
    # record per h, so a cold `analyze` filters the maximals at most once
    # per subgroup class: F_17^3 has 616 classes and F_47^2 x| C_2 100
    filtered = []
    compute = gr._above_and_meet
    monkeypatch.setattr(gr, "_above_and_meet",
                        lambda G, h: filtered.append(h) or compute(G, h))
    for (doc, _digest), classes in zip(LARGE_W_SPECS, (616, 100)):
        filtered.clear()
        assert cli.cmd_analyze(doc, gr.DEFAULT_ORDER_CAP, 0).failures == 0
        assert 0 < len(filtered) <= classes, doc


def test_a_deeply_nested_spec_is_a_schema_error(spec_dir, capsys):
    # json.loads raises RecursionError on 100,000 nested arrays
    path = spec_dir / "deep.json"
    path.write_text('{"kind": "sdp", "p": 3, "k": 1, "t": 1, "h_gens": '
                    + "[" * 100000 + "]" * 100000 + "}")
    code, out, err = run(capsys, "analyze", "--spec", str(path))
    assert (code, out) == (2, "") and len(err.strip().splitlines()) == 1, err
    assert err.startswith("schema error: spec file is not valid JSON")


def test_an_integer_past_the_digit_limit_is_a_schema_error(spec_dir, capsys):
    # json.loads raises ValueError on an integer literal of more than 4,300
    # digits, and json.dumps cannot write one, so the spec is raw text
    path = spec_dir / "huge.json"
    path.write_text('{"kind": "sdp", "p": 1' + "0" * 5000 + ', "k": 1, "t": 1, "h_gens": []}')
    for command in (["analyze"], ["verify", "--suite", "propo"]):
        code, out, err = run(capsys, *command, "--spec", str(path))
        assert (code, out) == (2, "") and len(err.strip().splitlines()) == 1, (command, err)
        assert err.startswith("schema error: spec file is not valid JSON"), command


def test_an_order_cap_past_the_read_size_limit_is_no_traceback(spec_dir, capsys):
    # 32 cap^2 + 2^16 characters no longer fit a read at |cap| = 10^9
    code, out, err = run(capsys, "analyze", "--spec", str(spec_dir / "s3.json"),
                         "--cap-order", str(10**9))
    assert (code, err) == (0, "") and "S3" in out, err
    code, out, err = run(capsys, "analyze", "--spec", str(spec_dir / "s3.json"),
                         "--cap-order", str(-10**9))
    assert (code, out) == (3, "") and len(err.strip().splitlines()) == 1, err
    assert err.startswith("resource cap: oracle embedding")


def test_no_order_cap_reserves_the_spec_read_size_in_memory(spec_dir):
    # 32 cap^2 + 2^16 characters pass 2 GB from cap 8,000 up, and read(n)
    # allocates its n characters before it reads: the child process runs
    # under a 2 GB address-space limit.  The lattice pass's tables take about
    # |G|^2/8 bytes, 6.6 GB for the dihedral group of order 200,006 and 19.6 GB
    # for the tower's level 4 (|G| = 395,760), so both are refused before them
    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    dihedral = spec_dir / "d200006.json"
    dihedral.write_text(json.dumps({"kind": "sdp", "p": 100003, "k": 1, "t": 1,
                                    "h_gens": [[[100002]]]}))
    runs = [(["analyze", "--spec", str(spec_dir / "s3.json")], cap, "S3")
            for cap in (5000, 2 * 10**4, 10**6, 10**8, 10**9)]
    runs += [(["counts", "--range", "4..4"], cap, "counts,n=4,gamma_formula,47,formula")
             for cap in (10**6, 10**8, 10**9)]
    runs += [(["analyze", "--spec", str(dihedral)], 10**6, None)]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    for command, cap, expected in runs:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "solvint.cli", *command, "--cap-order", str(cap)],
            capture_output=True, text=True, env=env, timeout=60, preexec_fn=limit_address_space)
        assert time.perf_counter() - start < 30, (command, cap)
        assert proc.returncode in (0, 1, 2, 3), (command, cap, proc.stderr)
        assert "Traceback" not in proc.stderr, (command, cap, proc.stderr)
        if proc.returncode:
            assert len(proc.stderr.strip().splitlines()) == 1, (command, cap, proc.stderr)
        if expected:
            assert proc.returncode == 0 and expected in proc.stdout, (command, cap)


def test_subspace_count_refuses_a_lattice_before_any_table(spec_dir, capsys, monkeypatch):
    # every F_p-subspace of V^t is a subgroup: C2^7 has 29,212 subspaces,
    # F_3^6 has 56,632 and C2^12 far more, all above LATTICE_CAP, so no
    # oracle is built (C2^12 used to take about 3 s and 190 MB to exit 3)
    monkeypatch.setattr(sdp, "embed_as_oracle", None)
    specs = {"c2^12": {"kind": "sdp", "p": 2, "k": 1, "t": 12, "h_gens": []},
             "f3^6-c2": {"kind": "sdp", "p": 3, "k": 1, "t": 6, "h_gens": [[[2]]]}}
    for name, doc in specs.items():
        (spec_dir / f"{name}.json").write_text(json.dumps(doc))
    for name in ("c2^12", "f3^6-c2", "c2^7"):
        for command in (["analyze"], ["verify", "--suite", "thuno"], ["verify", "--suite", "propo"]):
            start = time.monotonic()
            code, out, err = run(capsys, *command, "--spec", str(spec_dir / f"{name}.json"))
            assert time.monotonic() - start < 0.5, (name, command)
            assert (code, out) == (3, ""), (name, command, err)
            assert err.strip().splitlines() == [
                "resource cap: subgroup lattice size (cap: 10000)"], (name, command)


def test_verify_tower_suite_refuses_a_spec_of_another_kind(spec_dir, capsys):
    # neither spec is a tower, so neither may stand in for the default n = 2
    specs = {"sdp-with-n": {"kind": "sdp", "p": 3, "k": 1, "t": 1, "h_gens": [[[2]]], "n": 2},
             "table-with-n": {"kind": "oracle-table", "table": [[0]], "n": 1}}
    for name, doc in specs.items():
        (spec_dir / f"{name}.json").write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", "--suite", "tower",
                             "--spec", str(spec_dir / f"{name}.json"))
        assert (code, out) == (2, ""), name
        assert err.strip().splitlines() == ["schema error: the tower suite needs a tower spec"]


def test_a_latin_square_that_is_not_associative_is_refused(spec_dir, capsys):
    # C_1500 with the intercalate at rows and columns 1 and 751 swapped: a
    # Latin square with an identity that 10^5 random triples pass
    n = 1500
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    for a, b in ((1, 1), (1, 751), (751, 1), (751, 751)):
        table[a][b] = (a + b + 750) % n
    path = spec_dir / "c1500-swapped.json"
    path.write_text(json.dumps({"kind": "oracle-table", "table": table}))
    code, out, err = run(capsys, "analyze", "--spec", str(path))
    assert (code, out) == (2, ""), err
    assert err.strip().splitlines() == ["invalid input: associativity fails on (1,1,2)"]


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
    # an interKM request works on fresh groups over copies of the pool's
    # modules, so it leaves no memo behind in the pool groups or in their
    # H for the next request; a pool of its own keeps earlier tests from
    # having filled them already
    monkeypatch.setattr(corpus, "_template_cache", {})
    pool = corpus.sdp_pool(2000)
    groups = pool + list({id(g.module): g.module.group for g in pool}.values())

    def cache_sizes():
        return [{key: len(value) for key, value in g._cache.items()} for g in groups]

    before = cache_sizes()
    report = cli.cmd_verify(None, "interKM", gr.DEFAULT_ORDER_CAP, 5)
    assert report.failures == 0
    assert cache_sizes() == before
    # the tables of the module alone stay on the request's own H
    tables = {"hmul", "centralizer", "fcoords", "vector", "shift"}
    assert all(tables.isdisjoint(g._cache) for g in groups)


def test_fresh_pool_groups_of_one_module_share_one_fresh_h(sdp_pool):
    # 35 groups over 14 modules: the groups of one module share its copy
    # and its fresh H, which is neither the pool's H nor another request's
    fresh, again = cli._fresh(sdp_pool), cli._fresh(sdp_pool)
    modules = {}
    for g, f, a in zip(sdp_pool, fresh, again):
        assert (f.t, f.name) == (g.t, g.name)
        f_module, a_module = modules.setdefault(id(g.module), (f.module, a.module))
        assert f.module is f_module and a.module is a_module, g.name
        assert f.module.group is not g.module.group, g.name
        assert f.module.group is not a.module.group, g.name
        assert f.module.group._cache == {}, g.name
    assert (len(sdp_pool), len(modules)) == (35, 14)
    assert len({id(f.module.group) for f in fresh}) == 14


def test_fresh_corpus_oracles_keep_their_split_conjugation_tables(corpus_list):
    # thuno and propo run on copies of the corpus groups: the copy of a
    # split group conjugates by its generators off the split tables, with
    # no law call, and gets the tables the law gives
    split = [g for g in corpus_list if g._gen_conj]
    assert len(split) == 18
    for g, fresh in zip(split, cli._fresh_oracles(split)):
        assert fresh is not g and fresh._cache == {}, g.name
        with counting_law_calls(fresh) as calls:
            images = gr._conjugation(fresh, fresh.gens)[0]
            tables = [list(map(image, range(fresh.n))) for image in images]
        assert calls[0] == 0, g.name
        assert tables == [gr._law_conjugation(fresh, x) for x in fresh.gens], g.name


def test_verify_interkm_refuses_a_spec(spec_dir, capsys):
    # the suite runs on the corpus pool, so a spec, even one without p, k
    # or t, is refused rather than ignored
    (spec_dir / "bare-sdp.json").write_text(json.dumps({"kind": "sdp"}))
    for spec in ("bare-sdp.json", "f20.json"):
        code, out, err = run(capsys, "verify", "--suite", "interKM",
                             "--spec", str(spec_dir / spec))
        assert (code, out) == (2, ""), spec
        assert err.strip().splitlines() == [
            "schema error: the interKM suite runs on the corpus pool and takes no spec"]


def test_interkm_request_runs_no_fp_elimination(monkeypatch):
    # the calculus keeps every F-subspace as F-RREF rows, so once the pool
    # is set up a request makes no F_p row reduction at all
    corpus.sdp_pool(2000)
    calls = []
    rref = ffla._rref
    monkeypatch.setattr(ffla, "_rref", lambda *args: calls.append(1) or rref(*args))
    assert cli.cmd_verify(None, "interKM", gr.DEFAULT_ORDER_CAP, 0).failures == 0
    assert len(calls) == 0


def test_thuno_propo_and_due_requests_without_a_spec_are_cold(monkeypatch):
    # the corpus oracles and the primitive groups' H lend their laws to
    # fresh groups, so a request leaves no memo behind in them, and gamma is
    # read on each group's own masks: no request builds a module or a field
    monkeypatch.setattr(corpus, "_corpus_cache", {})
    monkeypatch.setattr(corpus, "_primitive_cache", {})
    primitive = corpus.primitive_groups()
    groups = corpus.corpus_groups() + primitive + [G.module.group for G in primitive]
    built = []
    create = sdp.HModule.create
    monkeypatch.setattr(sdp.HModule, "create",
                        lambda *args, **kwargs: built.append("module") or create(*args, **kwargs))
    field = ffla.endomorphism_field
    for module in (ffla, sdp):
        monkeypatch.setattr(module, "endomorphism_field",
                            lambda *args: built.append("field") or field(*args))

    def cache_sizes():
        return [{key: len(value) for key, value in g._cache.items()} for g in groups]

    before = cache_sizes()
    for suite in ("thuno", "propo", "due"):
        assert cli.cmd_verify(None, suite, gr.DEFAULT_ORDER_CAP, 5).failures == 0
        assert cache_sizes() == before, suite
        assert built == [], suite


# the SHA-256 of each report that `verify --suite S` prints without a spec,
# at the default seed: the corpus groups and the primitive groups
SUITE_DIGESTS = {
    "thuno": "dfe40c7ee6b624f64b3cdbcb75b5e13d7ffdc0a3a8a7072ee0f37573fcddce04",
    "propo": "1702fbb04df8f11e5e75d6f11ef2b27f4de4a4af1b34a2a661b8d6f900dcdf41",
    "due": "bfd6aa5f09ae74f5871d566a1de7f28a68e28b910d6232dcacbeed2c649e90d3",
}


def test_reports_of_the_suites_without_a_spec_keep_their_bytes(capsys):
    for suite, digest in SUITE_DIGESTS.items():
        code, out, _ = run(capsys, "verify", "--suite", suite)
        assert code == 0, suite
        assert hashlib.sha256(out.encode()).hexdigest() == digest, suite


def test_counts_range(capsys):
    code, out, _ = run(capsys, "counts", "--range", "2..3", "--cap-order", "100")
    assert code == 0
    assert "counts,n=2,gamma_formula,7,formula" in out
    assert "counts,n=2,ratio_bound,1/1,formula" in out
    assert "counts,n=3,gamma_oracle,-" in out


def test_counts_fall_back_to_the_closed_forms_at_the_lattice_cap(capsys, monkeypatch):
    # G_1 = S_3 has 6 subgroups and G_2 (order 60) more than 20
    monkeypatch.setattr(gr, "LATTICE_CAP", 20)
    code, out, err = run(capsys, "counts", "--range", "1..2")
    assert (code, err) == (0, "")
    assert "counts,n=1,gamma_oracle,3,oracle" in out
    assert "counts,n=2,gamma_oracle,-,formula" in out


def test_counts_strict_primes(capsys):
    code, out, _ = run(capsys, "counts", "--range", "2..3", "--strict-tower",
                       "--cap-order", "70")
    assert code == 0
    assert "counts,n=2,primes,3 13,formula" in out
    assert "counts,n=3,primes,3 13 193,formula" in out


def test_counts_refuses_a_spec(capsys):
    # counts builds its towers from --range, so a spec is refused, not
    # left unread
    code, out, err = run(capsys, "counts", "--range", "1..1", "--spec", "/nonexistent.json")
    assert (code, out) == (2, "")
    assert err.strip().splitlines() == [
        "schema error: counts builds its towers from --range and takes no spec"]


def test_argument_errors_are_one_line_schema_errors(spec_dir, capsys):
    # argparse's own usage block took 2 to 4 lines of stderr
    spec = str(spec_dir / "s3.json")
    cases = (
        (["analyze", "--format", "xml", "--spec", spec],
         "argument --format: invalid choice: 'xml' (choose from 'csv', 'json')"),
        (["analyze", "--cap-order", "abc"], "argument --cap-order: invalid int value: 'abc'"),
        (["verify", "--suite", "nope"], "argument --suite: invalid choice: 'nope' (choose from "
                                        "'interKM', 'thuno', 'due', 'propo', 'tower')"),
        ([], "the following arguments are required: command"),
        (["counts", "--bogus"], "unrecognized arguments: --bogus"),
    )
    for argv, message in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.splitlines() == [f"schema error: {message}"], argv
    for argv in (["--help"], ["analyze", "--help"]):
        with pytest.raises(SystemExit) as exit_:
            cli.main(argv)
        captured = capsys.readouterr()
        assert exit_.value.code == 0 and captured.out.startswith("usage: solvint")
        assert captured.err == ""


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


def test_every_command_honours_one_order_cap(spec_dir, capsys):
    # the cap is checked once, where the oracle is built: a table spec is
    # refused below its order and an sdp spec accepted above the default
    c8 = gr.cyclic(8)
    table = [[c8.mul(a, b) for b in range(8)] for a in range(8)]
    (spec_dir / "c8-table.json").write_text(json.dumps({"kind": "oracle-table", "table": table}))
    for command in (["analyze"], ["verify", "--suite", "thuno"], ["verify", "--suite", "propo"]):
        code, out, err = run(capsys, *command, "--cap-order", "4",
                             "--spec", str(spec_dir / "c8-table.json"))
        assert (code, out) == (3, ""), command
        assert err.strip().splitlines() == [
            "resource cap: oracle embedding of |G|=8 exceeds the order cap (cap: 4)"]
    # F_73 x| C_72, of order 5,256 > DEFAULT_ORDER_CAP
    (spec_dir / "f73-c72.json").write_text(
        json.dumps({"kind": "sdp", "p": 73, "k": 1, "t": 1, "h_gens": [[[5]]]}))
    for command in (["analyze"], ["verify", "--suite", "thuno"],
                    ["verify", "--suite", "due"], ["verify", "--suite", "propo"]):
        code, out, err = run(capsys, *command, "--cap-order", "6000",
                             "--spec", str(spec_dir / "f73-c72.json"))
        assert (code, err) == (0, ""), command
        assert out.splitlines()[0].endswith(",status,ok"), command


def test_verify_thuno_with_spec(spec_dir, capsys):
    code, out, _ = run(capsys, "verify", "--suite", "thuno",
                       "--spec", str(spec_dir / "s3.json"))
    assert code == 0
    assert "thuno,S3,pass,yes,oracle" in out


def test_thuno_and_due_read_gamma_over_a_field_of_order_11(spec_dir, capsys):
    # gamma comes from the centralizers of the twelve F-lines, not from a
    # walk over the F-subspaces, so a field of order 11 needs no cap
    for suite in ("thuno", "due"):
        code, out, err = run(capsys, "verify", "--suite", suite,
                             "--spec", str(spec_dir / "q8-f121.json"))
        assert (code, err) == (0, ""), (suite, err)
        assert out.count("command,verify:") == 1 and "status,ok" in out, suite
    assert 'due,"V^1:H<GL(2,11)",gamma_v,1,oracle' in out


def test_thuno_reads_gamma_1_on_a_factor_of_dimension_1_over_f_521(spec_dir, capsys):
    # the tower over the prime 521 is D_1042: its factor F_521 has dimension
    # 1, so gamma is 1 without the endomorphism field, whose order 521
    # passes the field cap
    path = spec_dir / "tower-521.json"
    path.write_text(json.dumps({"kind": "tower", "primes": [521]}))
    code, out, err = run(capsys, "verify", "--suite", "thuno", "--spec", str(path))
    assert (code, err) == (0, ""), err
    assert out.count("command,verify:") == 1 and "status,ok" in out


def test_no_spec_request_builds_a_module_or_a_field(spec_dir, spec_mix_specs, capsys,
                                                     monkeypatch):
    # a spec request runs build_oracle and then its suite on the oracle
    # alone, so the specs past the field cap answer every command too
    def refuse(*args, **kwargs):
        raise AssertionError("a module or a field was built")

    monkeypatch.setattr(sdp.HModule, "create", refuse)
    for module in (ffla, sdp):
        monkeypatch.setattr(module, "endomorphism_field", refuse)
    docs = [doc for doc in spec_mix_specs if doc["kind"] == "sdp"]
    assert (len(docs), sum(doc["t"] == 1 for doc in docs)) == (18, 12)
    paths = [spec_dir / f"{name}.json" for name in ("s3", "q8-f121", "c8-f25", "d1042",
                                                    "f23^2-c3")]
    for i, doc in enumerate(docs):
        paths.append(spec_dir / f"spec-mix-{i}.json")
        paths[-1].write_text(json.dumps(doc))
    commands = (["analyze"], ["verify", "--suite", "thuno"], ["verify", "--suite", "propo"],
                ["verify", "--suite", "due"])
    for path in paths:
        t = json.loads(path.read_text())["t"]
        for command in commands[:None if t == 1 else 3]:
            code, out, err = run(capsys, *command, "--spec", str(path))
            assert (code, err) == (0, ""), (path.name, command)
            assert out.splitlines()[0].endswith(",status,ok"), (path.name, command)


def test_specs_past_the_field_cap_answer_as_their_independent_builds(spec_dir, capsys):
    from test_props import f23_squared_by_c3

    code, _out, err = run(capsys, "analyze", "--spec", str(spec_dir / "f1201-t0.json"))
    assert (code, err) == (0, "")

    def body(doc):
        """The analyze rows of `doc` but the header and the group row."""
        path = spec_dir / "body.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "analyze", "--spec", str(path))
        assert code == 0, doc
        return [row for row in out.splitlines()[1:] if not row.startswith("group,")]

    def spec(name):
        return json.loads((spec_dir / name).read_text())

    # D_1042 as the tower over 521
    assert body(spec("d1042.json")) == body({"kind": "tower", "primes": [521]})
    # F_23^2 x| C_3 by the companion matrix itself is the group of the
    # independent build, product for product, and the transpose's report
    # is that group's
    companion = {"kind": "sdp", "p": 23, "k": 2, "t": 1, "h_gens": [[[0, 1], [22, 22]]]}
    G, ref = cli.build_oracle(companion, gr.DEFAULT_ORDER_CAP), f23_squared_by_c3()
    assert G.n == ref.n == 1587
    assert all([G.mul(a, b) for b in range(G.n)] == [ref.mul(a, b) for b in range(G.n)]
               for a in range(G.n))
    assert body(spec("f23^2-c3.json")) == body(companion)


def test_due_keeps_the_schema_errors_of_a_spec_without_an_integer_t(spec_dir, capsys):
    path = spec_dir / "due-t.json"
    for t, message in ((None, "sdp spec is missing 't'"),
                       ("1", "k must be an integer >= 1 and t an integer >= 0")):
        doc = {"kind": "sdp", "p": 3, "k": 1, "h_gens": [[[2]]]}
        if t is not None:
            doc["t"] = t
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", "--suite", "due", "--spec", str(path))
        assert (code, out) == (2, ""), t
        assert err.strip().splitlines() == [f"schema error: {message}"], t


def relabelled_table(g, rng) -> list[list[int]]:
    """g's Cayley table under a seeded relabelling x -> perm[x] that fixes
    the identity: the product of perm[a] and perm[b] is perm[ab]."""
    perm = [0] + rng.sample(range(1, g.n), g.n - 1)
    table = [[0] * g.n for _ in range(g.n)]
    for a in range(g.n):
        row = table[perm[a]]
        for b in range(g.n):
            row[perm[b]] = perm[g.mul(a, b)]
    return table


def analyze_rows(doc) -> Counter:
    """The rows of `analyze` as a multiset, with the group name and each
    crown label's class number dropped: classes of one prime and dimension
    are numbered in lattice order, which follows the labels."""
    rows = cli.cmd_analyze(doc, gr.DEFAULT_ORDER_CAP, 0).rows
    return Counter((section, None if section == "group" else label.split("#")[0], field, value,
                    provenance) for section, label, field, value, provenance in rows)


def suite_rows(doc, suite: str) -> Counter:
    """The rows of `verify --suite suite` as a multiset, with the group name
    dropped."""
    rows = cli.cmd_verify(doc, suite, gr.DEFAULT_ORDER_CAP, 0).rows
    return Counter((section, field, value, provenance)
                   for section, _name, field, value, provenance in rows)


@pytest.fixture(scope="module")
def relabelled_docs(spec_mix_specs):
    """(doc, its relabelled table docs) for the 9 table groups of `spec-mix`,
    the tower levels of order <= 400 and the `spec-mix` sdp specs C4-F5^1
    and C3-F4^2: each group's table under two seeded relabellings, and an
    sdp spec's own table as well, so that the split oracle is checked
    against the table oracle of the same group."""
    docs = [doc for doc in spec_mix_specs if doc["kind"] == "oracle-table"]
    docs += [{"kind": "tower", "n": n} for n in (1, 2)]
    docs += [{"kind": "tower", "primes": [p, q]}
             for p, q in ((3, 13), (3, 17), (5, 13), (5, 17), (7, 13))]
    docs += [doc for name in ("C4-F5^1", "C3-F4^2")
             for doc in spec_mix_specs if doc.get("name") == name]
    assert len(docs) == 18
    rng = random.Random(46)
    out = []
    for doc in docs:
        g = cli.build_oracle(doc, gr.DEFAULT_ORDER_CAP)
        tables = [relabelled_table(g, rng) for _ in range(2)]
        if doc["kind"] == "sdp":
            tables.insert(0, [[g.mul(a, b) for b in range(g.n)] for a in range(g.n)])
        out.append((doc, [{"kind": "oracle-table", "table": table} for table in tables]))
    return out


def test_analyze_rows_do_not_depend_on_element_labels(relabelled_docs):
    for doc, relabelled in relabelled_docs:
        rows = analyze_rows(doc)
        for other in relabelled:
            assert analyze_rows(other) == rows, doc


def test_thuno_and_propo_rows_do_not_depend_on_element_labels(relabelled_docs):
    # both suites read the maximals above each class and their meet: thuno
    # for eta and the gamma of the factors above, propo for c_n and eta_min
    for doc, relabelled in relabelled_docs:
        for suite in ("thuno", "propo"):
            rows = suite_rows(doc, suite)
            for other in relabelled:
                assert suite_rows(other, suite) == rows, (doc, suite)
