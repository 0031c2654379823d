"""Write the pinned campaign references in bench/reference/ from the current code.

    python3 bench/pin.py

Run this only on purpose, when a report column is meant to change; the
benchmark compares every campaign pass of a pinned seed against these files.
Exhaustive campaigns enumerate every set whatever the seed, so their rows are
pinned once under the key "*"; random campaigns are pinned for seeds
0..PINNED_SEEDS-1.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from child import OUT_DIR, REFERENCE_DIR, WORKLOADS, CampaignWorkload, reference_entry  # noqa: E402

PINNED_SEEDS = 32


def main() -> int:
    OUT_DIR.mkdir(exist_ok=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name, make in WORKLOADS.items():
        workload = make()
        if not isinstance(workload, CampaignWorkload):
            continue
        exhaustive = workload.mapping["mode"] == "exhaustive"
        seeds = {}
        for seed in [0] if exhaustive else range(PINNED_SEEDS):
            workload.setup(seed)
            workload.execute(workload.prepare(0))
            csv_text = Path(f"{workload.prefix}.csv").read_text(encoding="ascii")
            seeds["*" if exhaustive else str(seed)] = reference_entry(csv_text)
        doc = {"workload": name, "config": workload.mapping, "seeds": seeds}
        (REFERENCE_DIR / f"{name}.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="ascii")
        print(f"pinned {name}: {len(seeds)} seed(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
