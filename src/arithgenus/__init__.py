"""Exact arithmetic over Q: Brauer classes and their genus, real quadratic
units, quaternionic length spectra, quadratic-form invariants and
commensurability tests.

Importing the package loads none of its modules: an exported name, or a
module read as ``arithgenus.<module>``, is imported on first use."""

from importlib import import_module

__version__ = "0.1.0"

# each exported name: the module that defines it
_EXPORTS = {name: module for module, names in {
    "arith": "Factorization Place REAL_PLACE factor hilbert_symbol is_local_square is_prime "
             "is_squarefree kronecker_symbol padic_valuation squarefree_part",
    "brauer": "BrauerClass class_add class_from_invariants class_from_quaternion class_neg "
              "format_class global_index index_profile parse_class",
    "genus": "GenusSet embeds_quadratic epsilon_family genus_enumerate",
    "quadfield": "ClassData QuadField QuadUnit class_number eta_analytic fundamental_unit "
                 "norm_one_unit unit_real_value",
    "spectrum": "SpectrumGenerator WeylQuery admissible_set length_commensurable "
                "spectrum_generators weyl_main_term",
    "weakcomm": "ExponentVector RationalEigenvalues groups_intersect intersection_witness "
                "to_exponent_vector weakly_commensurable",
    "qforms": "ArithmeticTriple GroupB GroupC LocalInvariants QuadraticForm form_invariants "
              "forms_equivalent is_isotropic_global is_isotropic_local triple_verdict twins "
              "witt_index_global witt_index_local",
}.items() for name in names.split()}
__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        value = globals()[name] = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
        return value
    if name in _EXPORTS.values():  # importing a submodule binds it here
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
