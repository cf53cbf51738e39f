"""Set-up probe: time from this process's first statement to jrl imported
and the named built-in rings and groups built and validated.

Usage: probe.py <ring,ring,...> <group,group,...>, with the checkout's
``src`` on PYTHONPATH.  Prints the seconds taken; process spawn is not
part of the figure.
"""
import time

_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

import jrl  # noqa: E402
from jrl.groups import builtin_group  # noqa: E402
from jrl.rings import builtin_ring  # noqa: E402

for _name in filter(None, sys.argv[1].split(",")):
    builtin_ring(_name)
for _name in filter(None, sys.argv[2].split(",")):
    builtin_group(_name)
_elapsed = time.perf_counter() - _T0

_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_expected = os.path.realpath(os.path.join(_root, "src", "jrl", "__init__.py"))
if os.path.realpath(jrl.__file__ or "") != _expected:
    sys.exit(f"jrl resolved to {jrl.__file__}, expected {_expected}")
print(repr(_elapsed))
