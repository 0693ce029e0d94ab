import importlib.util
import os
import runpy
import shlex
import shutil
import sysconfig
import tempfile

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# One disk cache for the whole test session, isolated from the user's cache.
_CACHE = tempfile.mkdtemp(prefix="bpx-test-cache-")
os.environ.setdefault("BPX_CACHE_DIR", _CACHE)


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    """The C kernel ``bpx._eckernel``, built from setup.py's own Extension.

    The build goes to a temporary directory and is loaded from there, so
    nothing is written under src/ and ``bpx.kernel`` keeps whichever backend
    it found.  Skips only when there is no C compiler.
    """
    from setuptools import Distribution

    # the compiler the build would run: $CC, else the one Python was built with
    cc = shlex.split(os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc")[0]
    if shutil.which(cc) is None:
        pytest.skip(f"no C compiler ({cc}) to build the compiled kernel")
    ext = runpy.run_path(os.path.join(ROOT, "setup.py"))["EXTENSION"]
    out = tmp_path_factory.mktemp("eckernel")
    cmd = Distribution({"ext_modules": [ext]}).get_command_obj("build_ext")
    cmd.build_lib, cmd.build_temp = str(out), str(out / "tmp")
    cwd = os.getcwd()
    os.chdir(ROOT)  # the Extension's sources are relative to the repo root
    try:
        cmd.ensure_finalized()
        cmd.run()
    finally:
        os.chdir(cwd)
    spec = importlib.util.spec_from_file_location(
        ext.name, cmd.get_ext_fullpath(ext.name))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
