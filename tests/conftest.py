"""Keeps the tests directory on sys.path so tests can import oracles."""

import pytest

from fqdirections import harness


@pytest.fixture
def block_sizes(monkeypatch):
    """The set count of each block a campaign runs, one list per cell in run order."""
    cells: list[list[int]] = []
    blocks = harness._blocks

    def recorded(config, cell):
        cells.append([])
        for block in blocks(config, cell):
            cells[-1].append(len(block[2]))
            yield block

    monkeypatch.setattr(harness, "_blocks", recorded)
    return cells
