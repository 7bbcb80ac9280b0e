from __future__ import annotations

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import bpnet
from bpnet import textio

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# the source tree of the package under test, for child interpreters
SOURCE = Path(bpnet.__file__).resolve().parent.parent


def run_bounded(
    code: str, seconds: float = 30, memory: int = 1 << 29
) -> subprocess.CompletedProcess:
    """Run Python ``code`` in a child interpreter with at most ``seconds`` of
    wall-clock time and ``memory`` bytes of address space.

    A call that used to loop forever fails the calling test, through the
    timeout or a ``MemoryError`` in the child, instead of hanging the suite.
    """

    def cap_memory() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (memory, memory))

    path = os.pathsep.join(filter(None, [str(SOURCE), os.environ.get("PYTHONPATH")]))
    try:
        return subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=seconds,
            preexec_fn=cap_memory,
            env={**os.environ, "BPN_COLOR": "never", "PYTHONPATH": path},
        )
    except subprocess.TimeoutExpired:
        pytest.fail(f"did not finish within {seconds} s")


def load_model(name: str):
    path = FIXTURES / name
    return textio.parse_model(path.read_text(encoding="utf-8"), filename=str(path))


def load_script(name: str):
    path = FIXTURES / name
    return textio.parse_script(path.read_text(encoding="utf-8"), filename=str(path))


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def library_model():
    return load_model("library.bpn")


@pytest.fixture(scope="session")
def library_refined():
    return load_model("library_refined.bpn")


@pytest.fixture(scope="session")
def library_script():
    return load_script("library_decompose.bps")


@pytest.fixture(scope="session")
def bp_model():
    return load_model("bp.bpn")


@pytest.fixture(scope="session")
def bp_refined():
    return load_model("bp_refined.bpn")


@pytest.fixture(scope="session")
def bp_script():
    return load_script("bp_refine.bps")


@pytest.fixture(scope="session")
def bp_fig6():
    return load_model("bp_fig6.bpn")


@pytest.fixture(scope="session")
def criterion_3_walks():
    """Criterion 3's random walks, walked once for the acceptance test and
    the carried-tables test that both check them."""
    from test_validate_oracle import walk_criterion_3

    return walk_criterion_3()


def one_holder_one_listing(model) -> bool:
    """Whether ``model`` holds each port id once and lists each process once:
    the number of interface entries against the size of a table keyed by
    port id, and the number of net listings against one keyed by process,
    both built here from the processes and nets, not read from the model."""
    holders = {port.id: pid for pid, proc in model.processes.items() for port in proc.interface}
    parents = {m: owner for owner, (net, _) in model.nets.items() for m in net.processes}
    entries = sum(len(proc.interface) for proc in model.processes.values())
    listings = sum(len(net.processes) for net, _ in model.nets.values())
    return entries == len(holders) and listings == len(parents)
