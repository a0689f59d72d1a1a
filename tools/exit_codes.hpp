#pragma once
/// \file exit_codes.hpp
/// The exit-code contract shared by every spmap command-line tool, and
/// enforced by tests/cli_contract_test.cpp (which greps the tool sources
/// for violations):
///
///   kExitOk (0)       the command did what was asked
///   kExitFailure (1)  a runtime failure — bad input file, infeasible
///                     result, failed verification, abandoned drain.
///                     The diagnostic goes to **stderr**; stdout stays
///                     machine-parseable.
///   kExitUsage (2)    the invocation itself is wrong (unknown
///                     subcommand, unknown flag, malformed flag value,
///                     missing required flag: a spmap::UsageError)
///
/// Tools must return these named constants, never bare integer literals,
/// so the contract is greppable.

namespace spmap::cli {

inline constexpr int kExitOk = 0;
inline constexpr int kExitFailure = 1;
inline constexpr int kExitUsage = 2;

}  // namespace spmap::cli
