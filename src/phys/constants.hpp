#pragma once
// Physical constants and unit helpers used throughout tsvcod.
//
// All quantities are SI unless a suffix says otherwise.

namespace tsvcod::phys {

inline constexpr double eps0 = 8.8541878128e-12;  ///< vacuum permittivity [F/m]
inline constexpr double eps_r_sio2 = 3.9;         ///< SiO2 relative permittivity
inline constexpr double eps_r_si = 11.9;          ///< silicon relative permittivity
inline constexpr double q_e = 1.602176634e-19;    ///< elementary charge [C]
inline constexpr double k_B = 1.380649e-23;       ///< Boltzmann constant [J/K]
inline constexpr double T_room = 300.0;           ///< nominal temperature [K]
inline constexpr double Vt_room = k_B * T_room / q_e;  ///< thermal voltage [V]
inline constexpr double n_i_si = 1.0e16;          ///< Si intrinsic carrier density [1/m^3]
inline constexpr double mu_p_si = 0.045;          ///< hole mobility in Si [m^2/Vs]
inline constexpr double rho_cu = 1.68e-8;         ///< copper resistivity [Ohm*m]
inline constexpr double pi = 3.14159265358979323846;
/// Frequency at which both capacitance backends (the FD extractor and the
/// analytic model) evaluate the lossy-substrate admittance [Hz]: the paper's
/// 3 GHz operating point, so eps*_r = eps_r - j*sigma/(omega*eps0) is one
/// value everywhere.
inline constexpr double admittance_frequency = 3e9;

/// Acceptor density that yields a given p-substrate conductivity [S/m].
constexpr double acceptor_density_for_conductivity(double sigma) {
  return sigma / (q_e * mu_p_si);
}

}  // namespace tsvcod::phys
