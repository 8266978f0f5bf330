#!/usr/bin/env python3
"""Regenerate the paper's Figures 2-4 from the command line.

Run:  PYTHONPATH=src python examples/paper_figures.py [fig2|fig3|fig4|all]

Prints one JSON object per plotted point (``figure``, ``n``, ``p``,
``avg_rounds``, ...).  The sweeps are ``repro.experiments.figures``;
pass larger ``sizes=``/``rounds=`` there for the paper's scale.
"""

import json
import sys

from repro.experiments import figure2, figure3, figure4

FIGURES = {"fig2": figure2, "fig3": figure3, "fig4": figure4}


def main() -> None:
    which = sys.argv[1] if len(sys.argv) > 1 else "all"
    for name, figure in FIGURES.items():
        if which in (name, "all"):
            for row in figure():
                print(json.dumps(row), flush=True)


if __name__ == "__main__":
    main()
