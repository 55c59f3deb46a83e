"""Fixtures shared by the test modules."""

import pytest

from aglerkit.kernels import KernelBundle
from aglerkit.sos import factors_from_gram


@pytest.fixture(scope="session")
def raw_bundle():
    """Builds a certificate's one-sided bundle: its Gram factors, not closed under reflection."""

    def build(cert):
        n, m = cert.p.bidegree
        return KernelBundle(
            cert.p, factors_from_gram(cert.gram_a, (n - 1, m)), factors_from_gram(cert.gram_b, (n, m - 1))
        )

    return build
