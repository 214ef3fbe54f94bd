"""The repo's macro-benchmark: absolute page/action latency on four
deployments, with a per-layer trace (see ``README.md`` in this directory)."""

import os

#: The checkout's root directory (two levels above this package).
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
