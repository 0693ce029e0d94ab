"""Build script: compiles the optional elliptic-curve trace kernel.

``bpx._eckernel`` is one hand-written C file against the CPython API, with
no code generator.  The package is fully functional without it:
``bpx.kernel`` falls back to the pure-Python twin ``bpx._eckernel_py`` when
the extension is missing, and a failed build (no C compiler, no Python
headers) only warns.  The compiled kernel counts the curve points one to
two orders of magnitude faster (benchmarks/bench_kernels.py).  The curve
tallies of l = 17 and 19, and of l = 11 past X = 10^5, gain that much.
At l = 11 up to X = 10^5 the pure-Python install reads the traces from
X0(11)'s eta-product instead, about four times faster than its own trace
search, so there the compiled traces gain only about a factor 3.
"""

import sys
import warnings

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext

EXTENSION = Extension(
    "bpx._eckernel",
    ["src/bpx/_eckernel.c"],
    extra_compile_args=["-O3"] if not sys.platform.startswith("win") else [],
)


class OptionalBuildExt(build_ext):
    """Build the extension if possible, warn and continue otherwise."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # no compiler, etc.
            warnings.warn(f"skipping compiled kernel ({exc}); "
                          "falling back to the pure-Python backend")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            warnings.warn(f"could not build {ext.name} ({exc}); "
                          "falling back to the pure-Python backend")


if __name__ == "__main__":
    setup(ext_modules=[EXTENSION], cmdclass={"build_ext": OptionalBuildExt})
