"""End-to-end benchmark of the race engine (see ``bench/README.md``).

The package measures the engine from outside: it imports ``repro`` from
``src/`` and changes nothing there.  ``python3 bench/run.py`` is the one
entry point; every name it prints is declared in :mod:`bench.declare`.
"""
