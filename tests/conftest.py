import importlib.util
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import settings

from solvint import cli, corpus, sdp, tower
from solvint import groups as gr

BENCH = Path(__file__).resolve().parents[1] / "bench"

# every run draws the same examples and writes no example database
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


def run_capped_cli(args, address_space: int, seconds: float):
    """Run `python -m solvint.cli *args` on the package's source in a child
    process whose address space is limited to `address_space` bytes, and
    raise subprocess.TimeoutExpired past `seconds` of wall time.  The limit
    acts on the child only.  Returns (exit code, stdout, stderr, seconds
    taken)."""
    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "solvint.cli", *args], capture_output=True,
                          text=True, env=env, timeout=seconds, preexec_fn=limit_address_space)
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


@pytest.fixture(scope="session")
def corpus_list():
    return corpus.corpus_groups()


@pytest.fixture(scope="session")
def tower2():
    return tower.TowerGroup(tower.find_primes(2))


@pytest.fixture(scope="session")
def tower3():
    return tower.TowerGroup(tower.find_primes(3))


@pytest.fixture(scope="session")
def sdp_pool():
    return corpus.sdp_pool(2000)


@pytest.fixture(scope="session")
def corpus_and_primitive_oracles(corpus_list):
    """The corpus groups and the primitive groups embedded as oracles."""
    return list(corpus_list) + [sdp.embed_as_oracle(g) for g in corpus.primitive_groups()]


@pytest.fixture(scope="session")
def small_pool_oracles(sdp_pool):
    """(G, oracle) for the pool groups of order <= 500, embedded once: the
    oracles memoise their lattices, which several tests compare."""
    return [(G, sdp.embed_as_oracle(G)) for G in sdp_pool if G.order <= 500]


@pytest.fixture(scope="session")
def large_pool_oracles(sdp_pool):
    """The pool groups above order 500 whose lattices fit LATTICE_CAP,
    embedded once."""
    return [sdp.embed_as_oracle(G) for G in sdp_pool if G.order in (1029, 1210, 1296, 1944)]


@pytest.fixture(scope="session")
def spec_mix_specs():
    """The 30 distinct `spec-mix` spec documents of bench/workloads.py."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    specs = {json.dumps(req["spec"], sort_keys=True): req["spec"]
             for req, _copies in workloads.catalogue()["spec-mix"]}
    assert len(specs) == 30
    return list(specs.values())


@pytest.fixture(scope="session")
def spec_mix_oracles(spec_mix_specs):
    """The groups of the `spec-mix` specs, built as the CLI builds them."""
    return [cli.build_oracle(doc, gr.DEFAULT_ORDER_CAP) for doc in spec_mix_specs]
