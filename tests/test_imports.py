import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Run with site disabled, so every module loaded is one the package loads.
PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import pricegame, pricegame.cli, pricegame.sweep
for name in sorted(sys.modules):
    top = name.partition(".")[0]
    if top not in sys.stdlib_module_names and top not in ("pricegame", "__main__"):
        print("foreign", name)
if "multiprocessing" in sys.modules:
    print("loaded multiprocessing")
"""


def test_the_package_imports_only_the_standard_library():
    result = subprocess.run(
        [sys.executable, "-S", "-c", PROBE, str(SRC)],
        capture_output=True, text=True, check=True,
    )
    assert result.stdout == ""
