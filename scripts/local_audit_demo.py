#!/usr/bin/env python3
"""Run the joint-versus-local update audit and print the full report.

Usage: local_audit_demo.py
"""

import sys

from cptforge.dirichlet import HyperParams
from cptforge.localsplit import local_update_audit

# (pseudo-count table as row HyperParams, incremented cell)
CASES = [
    ((HyperParams((1, 1, 1)), HyperParams((1, 1, 1))), (0, 2)),
    ((HyperParams((2, 3, 1)), HyperParams((4, 2, 2))), (1, 0)),
    ((HyperParams((10, 35, 25)), HyperParams((5, 10, 15))), (0, 2)),
    ((HyperParams((1, 2)), HyperParams((3, 1)), HyperParams((2, 2))), (2, 1)),
]


def main() -> int:
    for alpha, cell in CASES:
        print(local_update_audit(alpha, cell).format_report())
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
