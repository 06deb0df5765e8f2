"""Set-up probe, run in a fresh interpreter: import basicindex and load every
input named on the command line, with no computation.

Arguments are ``corpus:<name>`` for a bundled scenario or ``file:<path>``.
"""

import sys

from basicindex import load_corpus_scenario, load_scenario

for spec in sys.argv[1:]:
    kind, _, value = spec.partition(":")
    (load_corpus_scenario if kind == "corpus" else load_scenario)(value)
