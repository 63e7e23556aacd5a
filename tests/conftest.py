import numpy as np
import pytest


@pytest.fixture
def ritz_fault(monkeypatch):
    """Installs a fault on the Ritz solves of the plunge path only: each
    np.linalg.qr call arms the fault for one later np.linalg.eigvalsh call,
    so each block's Ritz solve, which follows its QR, is faulted. The fault
    gets the Ritz values and returns the ones to report, or raises."""
    qr, eigvalsh = np.linalg.qr, np.linalg.eigvalsh

    def install(fault):
        armed = []

        def qr_spy(mat):
            armed.append(True)
            return qr(mat)

        def eigvalsh_spy(mat):
            w = eigvalsh(mat)
            if armed:
                armed.pop()
                return fault(w)
            return w

        monkeypatch.setattr(np.linalg, "qr", qr_spy)
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh_spy)

    return install


@pytest.fixture
def operator_coupling(monkeypatch):
    """Installs a coupling on the plunge path's products: delta is added to
    the (0, 1) and (1, 0) entries of the even block (block 0) that
    toeplitz._PlungeOperator applies, for lines of length ``order`` (any
    when None)."""
    from entropy_lab import toeplitz

    call = toeplitz._PlungeOperator.__call__

    def install(delta, order=None):
        def coupled(self, b, x):
            y = call(self, b, x)
            if b == 0 and (order is None or sum(self.orders) == order):
                y[:, 0] += delta * x[:, 1]
                y[:, 1] += delta * x[:, 0]
            return y

        monkeypatch.setattr(toeplitz._PlungeOperator, "__call__", coupled)

    return install
