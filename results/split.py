#!/usr/bin/env python3
"""Splits bench_output.txt into per-harness files under results/.

Sections are recognized by the harness top-level headers.  Run from the
repository root after `for b in build/bench/*; do $b; done | tee
bench_output.txt`.
"""

import os
import re
import sys

MARKERS = [
    ("Ablation: DCWS vs RR-DNS", "ablation_baselines.txt"),
    ("Ablation: geographic distribution", "ablation_geo.txt"),
    ("Figure 6: DCWS performance", "fig6.txt"),
    ("Figure 7: peak performance", "fig7.txt"),
    ("Figure 8: performance growth", "fig8.txt"),
    ("Client response time vs offered load", "latency_profile.txt"),
    ("Run on (", "micro_or_parse.txt"),  # google-benchmark banner
    ("Table 2: tuning server parameters", "table2.txt"),
]


def main() -> int:
    src = sys.argv[1] if len(sys.argv) > 1 else "bench_output.txt"
    with open(src, encoding="utf-8") as f:
        text = f.read()

    # Find each marker's position; slice between consecutive markers.
    hits = []
    for marker, name in MARKERS:
        for match in re.finditer(re.escape(marker), text):
            hits.append((match.start(), name))
    hits.sort()

    os.makedirs("results", exist_ok=True)
    counts = {}
    for i, (start, name) in enumerate(hits):
        end = hits[i + 1][0] if i + 1 < len(hits) else len(text)
        counts[name] = counts.get(name, 0) + 1
        suffix = "" if counts[name] == 1 else f".{counts[name]}"
        path = os.path.join("results", name + suffix)
        with open(path, "w", encoding="utf-8") as out:
            out.write(text[start:end].rstrip() + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
