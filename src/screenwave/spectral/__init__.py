"""Fourier symbols, closed-form basis transforms, and symbol quadrature."""

from .engine import (QuadratureError, SymbolKind, SymbolQuadrature, assemble, basis_ft,
                     bessel, build_quadrature, gradient_dof_factors, hypersingular,
                     mesh_axis_factor, mesh_dof_factors, single_layer, symbol_integral,
                     symbol_Z, truncated_kernel_ft)
from .factors import AxisFactor, sinc

__all__ = [
    "AxisFactor", "QuadratureError", "SymbolKind", "SymbolQuadrature",
    "assemble", "basis_ft", "bessel",
    "build_quadrature", "gradient_dof_factors", "hypersingular",
    "mesh_axis_factor", "mesh_dof_factors", "sinc", "single_layer",
    "symbol_integral", "symbol_Z", "truncated_kernel_ft",
]
