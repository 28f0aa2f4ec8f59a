"""Fourier symbols, closed-form basis transforms, and symbol quadrature."""

from .engine import (DofFamily, QuadratureError, SymbolKind, SymbolQuadrature, assemble,
                     bessel, build_quadrature, hypersingular, mesh_dof_factors,
                     single_layer, symbol_Z, truncated_kernel_ft)
from .factors import AxisFactor, sinc

__all__ = [
    "AxisFactor", "DofFamily", "QuadratureError", "SymbolKind", "SymbolQuadrature",
    "assemble", "bessel", "build_quadrature", "hypersingular", "mesh_dof_factors",
    "sinc", "single_layer", "symbol_Z", "truncated_kernel_ft",
]
