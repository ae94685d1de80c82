"""Shared scene builders and helpers for the test suite."""

import numpy as np
import pytest

from wrenchfeas import (
    Contact,
    ContactConfiguration,
    FrictionCone,
    Wrench,
    bundled_path,
    load_scene,
    wrench_feasible,
    wrench_margin,
)
from wrenchfeas.scenes import rotation_from_normal
from wrenchfeas.wcm import BOUNDARY_BAND, _facet_probes

CONE = FrictionCone(0.8, 4)


def ground_contact(x, y, mu=0.8, sides=4):
    return Contact([x, y, 0.0], np.eye(3), FrictionCone(mu, sides))


def flat_foot_config(half_x=0.1, half_y=0.05, mu=0.8, sides=4):
    """Four corner contacts of a rectangle on horizontal ground."""
    contacts = tuple(
        ground_contact(sx * half_x, sy * half_y, mu, sides)
        for sx in (-1, 1)
        for sy in (-1, 1)
    )
    return ContactConfiguration(contacts)


def single_contact_config(point=(0.1, 0.05, 0.0), normal=(0.3, -0.2, 1.0)):
    return ContactConfiguration(
        (Contact(point, rotation_from_normal(normal), CONE),)
    )


def line_foot_config():
    """Three collinear ground contacts: a degenerate, coplanar support."""
    return ContactConfiguration(
        tuple(ground_contact(x, 0.0) for x in (-0.1, 0.0, 0.1))
    )


def opposed_walls_config():
    """Two contacts with opposite horizontal normals: duals cannot share a
    nonzero direction at mu = 0.8."""
    left = Contact([-0.4, 0.0, 0.5], rotation_from_normal([1.0, 0.0, 0.0]), CONE)
    right = Contact([0.4, 0.0, 0.5], rotation_from_normal([-1.0, 0.0, 0.0]), CONE)
    return ContactConfiguration((left, right))


def random_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    return q


def same_rows(a, b, tol):
    """Equal row sets: same count, and each row within ``tol`` of a row of
    the other."""
    if a.shape != b.shape:
        return False
    if len(a) == 0:
        return True
    gap = np.abs(a[:, None, :] - b[None, :, :]).max(axis=2)
    return bool(np.all(gap.min(axis=1) <= tol) and np.all(gap.min(axis=0) <= tol))


def rotate_config(config, q):
    return ContactConfiguration(
        tuple(
            Contact(q @ c.point, q @ c.rotation, c.cone) for c in config.contacts
        )
    )


def random_config(rng, n_contacts=None):
    """A random scattered contact set; may classify either way."""
    n = n_contacts or int(rng.integers(2, 6))
    contacts = []
    for _ in range(n):
        point = rng.uniform(-0.5, 0.5, size=3)
        normal = rng.normal(size=3)
        while np.linalg.norm(normal) < 1e-3:
            normal = rng.normal(size=3)
        contacts.append(
            Contact(point, rotation_from_normal(normal), FrictionCone(0.8, 4))
        )
    return ContactConfiguration(tuple(contacts))


def random_constrained_config(rng, n_contacts=4):
    """Random contacts whose normals all tilt less than 42 degrees from +z,
    so +z sits inside every dual cone (mu = 0.8 gives each dual a half-angle
    over 51 degrees): guaranteed constrained."""
    contacts = []
    for _ in range(n_contacts):
        radius = rng.uniform(0.0, 0.9)
        azimuth = rng.uniform(0.0, 2.0 * np.pi)
        normal = [radius * np.cos(azimuth), radius * np.sin(azimuth), 1.0]
        point = rng.uniform(-0.5, 0.5, size=3)
        contacts.append(
            Contact(point, rotation_from_normal(normal), FrictionCone(0.8, 4))
        )
    return ContactConfiguration(tuple(contacts))


def reference_agreement(gen, wcm, reference):
    """``compare_wcm_pair``'s tally, one probe at a time: the wrenches
    ``wcm._facet_probes`` places on ``reference``'s faces, with their
    verdicts, each judged by ``wrench_feasible`` and ``wrench_margin``.
    Returns the counts and the disagreements as (wrench, probe verdict,
    margin of ``wcm``)."""
    counts = {"agree_feasible": 0, "agree_infeasible": 0, "boundary_excluded": 0}
    disagreements = []
    wrenches, verdicts = _facet_probes(gen, reference)
    for w6, truth in zip(wrenches, verdicts.tolist()):
        wrench = Wrench(w6[:3], w6[3:], gen.anchor)
        margin = wrench_margin(wcm, wrench)
        if wrench_feasible(wcm, wrench) == truth:
            counts["agree_feasible" if truth else "agree_infeasible"] += 1
        elif abs(margin) <= BOUNDARY_BAND * (1.0 + np.linalg.norm(w6)):
            counts["boundary_excluded"] += 1
        else:
            disagreements.append((w6, truth, margin))
    return counts, disagreements


@pytest.fixture
def two_walls_scene():
    return load_scene(bundled_path("two_walls"))


@pytest.fixture
def flat_foot_scene():
    return load_scene(bundled_path("flat_foot"))
