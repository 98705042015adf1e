import pytest

from oucap import BackendUnavailable, OucapError, available_backends, get_backend
from oucap.backends import thread_count


def test_available_backends_always_includes_numpy():
    names = available_backends()
    assert "numpy" in names
    assert set(names) <= {"cython", "numpy"}
    if "cython" in names:
        assert names[0] == "cython"  # compiled backend preferred


def test_get_backend_explicit_names():
    mod = get_backend("numpy")
    assert mod.NAME == "numpy"
    if "cython" in available_backends():
        assert get_backend("cython").NAME == "cython"
    with pytest.raises(ValueError):
        get_backend("fortran")


def test_get_backend_env_override(monkeypatch):
    monkeypatch.setenv("OUCAP_BACKEND", "numpy")
    assert get_backend().NAME == "numpy"
    monkeypatch.setenv("OUCAP_BACKEND", "  NUMPY ")
    assert get_backend().NAME == "numpy"
    monkeypatch.setenv("OUCAP_BACKEND", "bogus")
    with pytest.raises(ValueError):
        get_backend()
    # explicit argument wins over the environment
    monkeypatch.setenv("OUCAP_BACKEND", "bogus")
    assert get_backend("numpy").NAME == "numpy"


def test_get_backend_default_prefers_compiled(monkeypatch):
    monkeypatch.delenv("OUCAP_BACKEND", raising=False)
    mod = get_backend()
    expected = available_backends()[0]
    assert mod.NAME == expected


def test_cython_request_without_extension(monkeypatch):
    if "cython" in available_backends():
        pytest.skip("compiled extension is built here")
    with pytest.raises(RuntimeError):
        get_backend("cython")


def test_cython_request_without_extension_is_typed(monkeypatch):
    if "cython" in available_backends():
        pytest.skip("compiled extension is built here")
    monkeypatch.setenv("OUCAP_BACKEND", "cython")
    with pytest.raises(BackendUnavailable) as info:
        get_backend()
    assert isinstance(info.value, OucapError)


def test_thread_count_caps_and_validates(monkeypatch):
    monkeypatch.delenv("OUCAP_THREADS", raising=False)
    assert thread_count(1) == 1
    assert 1 <= thread_count(10**6)
    monkeypatch.setenv("OUCAP_THREADS", "2")
    assert thread_count(8) == 2
    assert thread_count(1) == 1
    monkeypatch.setenv("OUCAP_THREADS", "0")
    with pytest.raises(ValueError):
        thread_count(4)
    monkeypatch.setenv("OUCAP_THREADS", "many")
    with pytest.raises(ValueError):
        thread_count(4)
