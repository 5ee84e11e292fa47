"""Time what a new process pays to import the package under a checkout root (perfbench's
setup_s): the median of 20 fresh imports of src/cantorlearn's four modules, each compiled
from source, with no bytecode read or written.  Prints one line:

    python3 tools/import_time.py <checkout root>
"""

import importlib, pathlib, statistics, sys, tempfile, time

sys.path.insert(0, str(pathlib.Path(sys.argv[1], "src")))
times = []
with tempfile.TemporaryDirectory() as empty:
    # no bytecode read or written: a bytecode cache left by the tests would skip the compile
    sys.dont_write_bytecode, sys.pycache_prefix = True, empty
    for _ in range(20):
        for name in [n for n in sys.modules if n == "cantorlearn" or n.startswith("cantorlearn.")]:
            del sys.modules[name]
        t0 = time.perf_counter()
        for layer in ("cantor", "measures", "programs", "randomness"):
            importlib.import_module(f"cantorlearn.{layer}")
        times.append(time.perf_counter() - t0)
print(f"fresh import of the four modules from source: {statistics.median(times) * 1e3:.1f} ms, median of 20")
