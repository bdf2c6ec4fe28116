import numpy as np
import pytest

from groupcent import checks


@pytest.fixture(scope="session")
def catalog():
    return checks.default_catalog()


@pytest.fixture(scope="session")
def catalog_groups(catalog):
    """name -> built group, for every default catalog entry."""
    return {entry.name: entry.build() for entry in catalog}


@pytest.fixture(scope="session")
def suite_report():
    """One shared run of the full default suite."""
    return checks.run_suite()


def by_check(suite_report, check_id):
    return [r for r in suite_report.results if r.check_id == check_id]


def brute_force_bad_triple(table):
    """Oracle for from_table's associativity test: the O(n^3) scan over every
    triple. Returns the first (i, j, k) with (ij)k != i(jk), scanning k
    outermost, or None when the table is associative."""
    arr = np.asarray(table, dtype=np.int64)
    for k in range(arr.shape[0]):
        lhs = arr[arr, k]
        rhs = arr[:, arr[:, k]]
        if not np.array_equal(lhs, rhs):
            i, j = map(int, np.argwhere(lhs != rhs)[0])
            return (i, j, k)
    return None


def loop_element_orders(table, identity):
    """Oracle for from_table's element orders: raise each element to
    successive powers one step at a time."""
    arr = np.asarray(table)
    orders = []
    for i in range(arr.shape[0]):
        k, x = 1, i
        while x != identity:
            x = int(arr[x, i])
            k += 1
        orders.append(k)
    return tuple(orders)
