"""Build script: compiles the optional Cython simulation kernel.

The package is pure Python plus one optional extension (oucap._sk_core).
If Cython or a C compiler is unavailable the install proceeds without it
and the numpy kernel runs in its place.
"""

from setuptools import setup

ext_modules = []
try:
    from Cython.Build import cythonize

    ext_modules = cythonize(
        ["src/oucap/_sk_core.pyx"],
        compiler_directives={
            "language_level": "3",
            "boundscheck": False,
            "wraparound": False,
            "cdivision": True,
        },
    )
except Exception as exc:  # pragma: no cover - depends on build env
    print(f"oucap: building without compiled kernel ({exc!r})")

setup(ext_modules=ext_modules)
