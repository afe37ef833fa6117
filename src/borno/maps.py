"""Linear maps and homomorphisms between model algebras.

A map is stored as its complex action matrix on the canonical coordinate
basis of the source (the basis :func:`borno.algebra.vec` flattens against),
so linearity is exact by construction.  Multiplicativity never is; it gets
measured, as the defect max ||f(e_i e_j) - f(e_i) f(e_j)|| over basis pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import basis, linear_dim, multiply, norm, subtract, unvec, vec
from .errors import DescriptorMismatch

HOM_DEFECT_TOL = 1e-9


class LinearMap:
    """Bounded linear map between model algebras, no multiplicativity assumed."""

    __slots__ = ("source", "target", "action")

    def __init__(self, source, target, action):
        action = np.asarray(action, dtype=np.complex128)
        expected = (linear_dim(target), linear_dim(source))
        if action.shape != expected:
            raise ValueError(
                f"action matrix shape {action.shape}, expected {expected}"
            )
        if not np.all(np.isfinite(action.view(np.float64))):
            raise ValueError("non-finite entry in action matrix")
        action = action.copy()
        action.flags.writeable = False
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "action", action)

    def __setattr__(self, name, value):
        raise AttributeError("LinearMap is immutable")

    def __call__(self, element):
        if element.descriptor != self.source:
            raise DescriptorMismatch(element.descriptor, self.source, "map input")
        return unvec(self.target, self.action @ vec(element))

    def compose(self, other):
        """self after other."""
        if other.target != self.source:
            raise DescriptorMismatch(other.target, self.source, "composition")
        return LinearMap(other.source, self.target, self.action @ other.action)

    def add(self, other):
        if (other.source, other.target) != (self.source, self.target):
            raise DescriptorMismatch(other.source, self.source, "map sum")
        return LinearMap(self.source, self.target, self.action + other.action)

    def subtract(self, other):
        if (other.source, other.target) != (self.source, self.target):
            raise DescriptorMismatch(other.source, self.source, "map difference")
        return LinearMap(self.source, self.target, self.action - other.action)

    def scaled(self, c):
        return LinearMap(self.source, self.target, c * self.action)

    @staticmethod
    def identity(descriptor):
        d = linear_dim(descriptor)
        return LinearMap(descriptor, descriptor, np.eye(d))

    @staticmethod
    def zero(source, target):
        return LinearMap(source, target, np.zeros((linear_dim(target),
                                                   linear_dim(source))))

    @classmethod
    def from_images(cls, source, target, images):
        """Map determined by the images of the canonical source basis."""
        cols = [vec(img) for img in images]
        if len(cols) != linear_dim(source):
            raise ValueError("need one image per source basis element")
        return cls(source, target, np.stack(cols, axis=1))

    @classmethod
    def from_callable(cls, source, target, fn):
        return cls.from_images(source, target, [fn(e) for e in basis(source)])


def omega(g, xy, gx, gy):
    """The curvature omega_g(x, y) = g(xy) - g(x) g(y), from the product xy
    and the images gx = g(x), gy = g(y)."""
    return subtract(g(xy), multiply(gx, gy))


def multiplicativity_defect(f):
    """max over basis pairs of ||f(e_i e_j) - f(e_i) f(e_j)||."""
    elems = basis(f.source)
    images = [f(e) for e in elems]
    worst = 0.0
    for i, ei in enumerate(elems):
        for j, ej in enumerate(elems):
            defect = omega(f, multiply(ei, ej), images[i], images[j])
            worst = max(worst, norm(defect))
    return worst


@dataclass(frozen=True)
class MultReport:
    defect: float

    @property
    def multiplicative(self):
        return self.defect <= HOM_DEFECT_TOL


def check_multiplicative(f):
    """Recompute the multiplicativity defect of any linear map."""
    return MultReport(multiplicativity_defect(f))


class Homomorphism(LinearMap):
    """A linear map whose multiplicativity defect passed the tolerance gate."""

    __slots__ = ("mult_defect",)

    def __init__(self, source, target, action):
        super().__init__(source, target, action)
        defect = multiplicativity_defect(self)
        if defect > HOM_DEFECT_TOL:
            raise ValueError(
                f"multiplicativity defect {defect:.3e} exceeds "
                f"{HOM_DEFECT_TOL:.1e}; "
                "construct a LinearMap instead"
            )
        object.__setattr__(self, "mult_defect", defect)

    @staticmethod
    def identity(descriptor):
        # f(e_i e_j) and f(e_i) f(e_j) are the same product of the same
        # elements, so the defect is exactly 0.0 and the d^2 check is skipped
        hom = Homomorphism.__new__(Homomorphism)
        LinearMap.__init__(hom, descriptor, descriptor,
                           np.eye(linear_dim(descriptor)))
        object.__setattr__(hom, "mult_defect", 0.0)
        return hom
