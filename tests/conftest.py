import numpy as np
import pytest


@pytest.fixture
def ritz_fault(monkeypatch):
    """Installs a fault on the Ritz solve of the plunge path only: the first
    np.linalg.eigvalsh call after each np.linalg.qr. The fault gets the Ritz
    values and returns the ones to report, or raises."""
    qr, eigvalsh = np.linalg.qr, np.linalg.eigvalsh

    def install(fault):
        armed = []

        def qr_spy(mat):
            armed.append(True)
            return qr(mat)

        def eigvalsh_spy(mat):
            w = eigvalsh(mat)
            if armed:
                armed.clear()
                return fault(w)
            return w

        monkeypatch.setattr(np.linalg, "qr", qr_spy)
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh_spy)

    return install
