"""Polarization math on the Poincare sphere.

Pure states of polarization are unit Stokes vectors (s1, s2, s3); lossless
fiber and controller transformations act on them as proper rotations.  The
two-photon state is a visibility-parameterized mixture around |Phi+>, which is
all the link-level observables (fringe visibility, CHSH S) depend on.

Convention: s1 <-> H/V, s2 <-> D/A, s3 <-> R/L.  A linear analyzer at angle
theta (degrees from H) projects onto the Stokes direction
(cos 2theta, sin 2theta, 0).  In the Jones picture this maps (s1, s2, s3) to
the Pauli triple (sigma_z, sigma_x, sigma_y).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_NORM_TOL = 1e-6
_MATRIX_TOL = 1e-9

# Pauli matrices ordered to match the (s1, s2, s3) Stokes convention.
_PAULI = np.array(
    [
        [[1, 0], [0, -1]],  # sigma_z
        [[0, 1], [1, 0]],  # sigma_x
        [[0, -1j], [1j, 0]],  # sigma_y
    ],
    dtype=complex,
)

# |Phi+> = (|HH> + |VV>)/sqrt(2) in the H/V product basis.
_PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)

# Correlation matrix of |Phi+> for linear analyzers: E(a, b) = n_a . T . n_b.
_PHI_PLUS_T = np.diag([1.0, 1.0, -1.0])


class PolarizationError(ValueError):
    """Invalid polarization-state or transform input."""


@dataclass(frozen=True)
class StokesVector:
    """Pure state of polarization as a unit vector on the Poincare sphere."""

    s1: float
    s2: float
    s3: float

    def __post_init__(self):
        if abs(self.norm() - 1.0) > _NORM_TOL:
            raise PolarizationError(
                f"Stokes vector not normalized: |s| = {self.norm():.8f}"
            )

    def norm(self) -> float:
        return float(np.sqrt(self.s1**2 + self.s2**2 + self.s3**2))

    def as_array(self) -> np.ndarray:
        return np.array([self.s1, self.s2, self.s3])


# The six cardinal states: H, V, D, A, right/left circular.
H = StokesVector(1, 0, 0)
V = StokesVector(-1, 0, 0)
D = StokesVector(0, 1, 0)
A = StokesVector(0, -1, 0)
R_CIRC = StokesVector(0, 0, 1)
L_CIRC = StokesVector(0, 0, -1)

CARDINAL_STATES = (H, V, D, A, R_CIRC, L_CIRC)


@dataclass(frozen=True)
class PolTransform:
    """Lossless polarization transformation: a proper rotation of Stokes space."""

    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float)
        if r.shape != (3, 3):
            raise PolarizationError(f"rotation must be 3x3, got {r.shape}")
        if not np.allclose(r @ r.T, np.eye(3), atol=_MATRIX_TOL):
            raise PolarizationError("rotation is not orthogonal")
        if abs(np.linalg.det(r) - 1.0) > _MATRIX_TOL:
            raise PolarizationError("rotation must have determinant +1")
        object.__setattr__(self, "rotation", r)

    @classmethod
    def trusted(cls, r: np.ndarray) -> "PolTransform":
        """Wrap a float 3x3 rotation that the package built itself, unchecked.

        Skips the orthogonality and determinant checks of the constructor, for
        matrices of the package's own quaternions: the channel's and the
        controller's.
        """
        t = object.__new__(cls)
        object.__setattr__(t, "rotation", r)
        return t

    @classmethod
    def identity(cls) -> "PolTransform":
        return cls(np.eye(3))

    @classmethod
    def random(cls, rng: np.random.Generator) -> "PolTransform":
        """Rotation drawn uniformly (Haar) over SO(3), from a normalized Gaussian quaternion."""
        x, y, z, w = rng.normal(size=4)
        n = np.sqrt(x * x + y * y + z * z + w * w)
        return cls(quaternion_matrix(x / n, y / n, z / n, w / n))


def quaternion_matrix(x, y, z, w) -> np.ndarray:
    """Matrix of the unit quaternion (x, y, z, w), term for term as tests/test_rotations.py pins.

    Given arrays of components, the (..., 3, 3) stack of their matrices,
    each entry rounded as for scalars.
    """
    x2, y2, z2, w2 = x * x, y * y, z * z, w * w
    xy, zw, xz, yw, yz, xw = x * y, z * w, x * z, y * w, y * z, x * w
    m = np.array(
        [
            [x2 - y2 - z2 + w2, 2 * (xy - zw), 2 * (xz + yw)],
            [2 * (xy + zw), -x2 + y2 - z2 + w2, 2 * (yz - xw)],
            [2 * (xz - yw), 2 * (yz + xw), -x2 - y2 + z2 + w2],
        ]
    )
    return np.moveaxis(m, (0, 1), (-2, -1))


def compose_quat(p, q) -> tuple:
    """Quaternion (x, y, z, w) of rotation ``q`` then ``p``: the product p q."""
    px, py, pz, pw = p
    qx, qy, qz, qw = q
    return (
        pw * qx + qw * px + (py * qz - pz * qy),
        pw * qy + qw * py + (pz * qx - px * qz),
        pw * qz + qw * pz + (px * qy - py * qx),
        pw * qw - px * qx - py * qy - pz * qz,
    )


@dataclass(frozen=True)
class TwoQubitPolState:
    """Visibility-parameterized two-photon state: V |Phi+><Phi+| + (1-V) I/4."""

    visibility: float

    def density_matrix(self) -> np.ndarray:
        pure = np.outer(_PHI_PLUS, _PHI_PLUS.conj())
        return self.visibility * pure + (1.0 - self.visibility) * np.eye(4) / 4.0


@dataclass(frozen=True)
class AnalyzerSetting:
    """Linear-polarization analyzer angle in degrees, reduced modulo 180."""

    angle_deg: float

    def __post_init__(self):
        object.__setattr__(self, "angle_deg", float(self.angle_deg) % 180.0)

    def stokes(self) -> np.ndarray:
        two_theta = 2.0 * np.deg2rad(self.angle_deg)
        return np.array([np.cos(two_theta), np.sin(two_theta), 0.0])

    def jones(self) -> np.ndarray:
        theta = np.deg2rad(self.angle_deg)
        return np.array([np.cos(theta), np.sin(theta)], dtype=complex)

    def orthogonal(self) -> "AnalyzerSetting":
        return AnalyzerSetting(self.angle_deg + 90.0)

    def stokes_pair(self) -> np.ndarray:
        """(2, 3): the Stokes vectors of this setting and of its orthogonal."""
        return np.array([self.stokes(), self.orthogonal().stokes()])


def su2_from_transform(t: PolTransform) -> np.ndarray:
    """Jones-space unitary whose Pauli conjugation reproduces the Stokes rotation.

    With the (sigma_z, sigma_x, sigma_y) ordering, U (n . sigma) U^dagger
    equals (R n) . sigma for U = w I - i (x, y, z) . sigma, the quaternion
    q = (x, y, z, w) of R read off the row of 4 q q^T with the largest diagonal.
    """
    r = t.rotation
    tr = np.trace(r)
    v = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    k = np.block([[r + r.T + (1 - tr) * np.eye(3), v[:, None]], [v, 1 + tr]])
    j = np.argmax(np.diag(k))
    x, y, z, w = k[j] / (2 * np.sqrt(k[j, j]))
    return w * np.eye(2) - 1j * np.tensordot([x, y, z], _PAULI, axes=1)


def coincidence_prob(
    state: TwoQubitPolState,
    a: AnalyzerSetting,
    b: AnalyzerSetting,
    idler_channel: PolTransform | None = None,
) -> float:
    """Probability that both photons pass their linear analyzers.

    Computed in the Jones picture: the idler channel is lifted to an SU(2)
    unitary and the transformed density matrix is projected onto the product
    of the two analyzer states.  With an identity channel this reduces to
    (1 + V cos 2(a - b)) / 4.
    """
    if idler_channel is None:
        idler_channel = PolTransform.identity()
    u = su2_from_transform(idler_channel)
    u_full = np.kron(np.eye(2, dtype=complex), u)
    rho = u_full @ state.density_matrix() @ u_full.conj().T
    ket = np.kron(a.jones(), b.jones())
    p = float(np.real(ket.conj() @ rho @ ket))
    return min(max(p, 0.0), 1.0)


def coincidence_prob_stokes(
    state: TwoQubitPolState,
    a: AnalyzerSetting,
    b: AnalyzerSetting,
    idler_channel: PolTransform | None = None,
) -> float:
    """Fast closed-form coincidence probability via the Stokes-rotation path.

    P = (1 + V * n_a . T . R^T n_b) / 4 where T is the |Phi+> correlation
    matrix for linear analyzers.  Agrees with ``coincidence_prob`` to 1e-9.
    One row of ``coincidence_probs``.
    """
    r = np.eye(3) if idler_channel is None else idler_channel.rotation
    p = coincidence_probs(state.visibility, r[None], a.stokes_pair()[None], b.stokes_pair()[None])
    return float(p[0, 0])


def coincidence_probs(
    visibility: float, rotations: np.ndarray, a_pairs: np.ndarray, b_pairs: np.ndarray
) -> np.ndarray:
    """Port coincidence probabilities of W windows in one whole-array pass.

    ``rotations`` is the (W, 3, 3) stack of idler rotations, ``a_pairs`` and
    ``b_pairs`` the (W, 2, 3) stacks of each window's signal and idler
    ``AnalyzerSetting.stokes_pair``.  Returns (W, 4) probabilities in port
    order (pp, pf, fp, ff), each (1 + V * n_a . T . R^T n_b) / 4 clipped to
    [0, 1].
    """
    corr = (a_pairs @ _PHI_PLUS_T) @ (rotations.transpose(0, 2, 1) @ b_pairs.transpose(0, 2, 1))
    p = 0.25 * (1.0 + visibility * corr.reshape(-1, 4))
    return np.clip(p, 0.0, 1.0)


CANONICAL_CHSH_ANGLES = (
    AnalyzerSetting(0.0),
    AnalyzerSetting(45.0),
    AnalyzerSetting(22.5),
    AnalyzerSetting(67.5),
)
