"""Shared helpers: the worker cap read from IVP_THREADS."""

import os

import pytest

from ivpaudit._util import worker_count


class TestWorkerCount:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("IVP_THREADS", raising=False)
        assert worker_count() == 1

    def test_huge_request_capped_at_cpu_count(self, monkeypatch):
        monkeypatch.setenv("IVP_THREADS", "100000")
        assert worker_count() == (os.cpu_count() or 1)

    def test_cap_follows_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setenv("IVP_THREADS", "3")
        assert worker_count() == 3
        monkeypatch.setenv("IVP_THREADS", "100000")
        assert worker_count() == 4
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert worker_count() == 1

    @pytest.mark.parametrize("raw", ["0", "-5", "many", ""])
    def test_invalid_or_nonpositive_means_serial(self, monkeypatch, raw):
        monkeypatch.setenv("IVP_THREADS", raw)
        assert worker_count() == 1
