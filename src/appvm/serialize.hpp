// Text serialization of structural models — the representation the
// database stores ("long-term storage; shared data") and the format the
// interactive session can import/export.
#pragma once

#include <string>

#include "fem/analysis.hpp"
#include "fem/model.hpp"
#include "support/check.hpp"

namespace fem2::appvm {

class SerializeError : public support::Error {
 public:
  using support::Error::Error;
};

/// Numbers in both texts.  Doubles are written as std::to_chars general
/// format at 17 significant digits, byte-identical to printf's "%.17g",
/// the format every stored text has used: "-0",
/// "0.10000000000000001", "1e+21", "inf", "-nan".  Indices are unsigned
/// decimal.  A number is read with std::from_chars general format after one
/// optional leading '+': fixed or exponent notation, inf, infinity and
/// nan, subnormals included.  Hex floats, overflow and underflow to zero
/// are errors; an index takes no sign.  Tokens are separated by C-locale
/// whitespace, so CRLF line ends read the same; '#' lines are comments.

/// Deterministic, line-oriented model text:
///   model <name>
///   node <x> <y>
///   material <name> E=<v> nu=<v> A=<v> I=<v> t=<v> rho=<v>
///   element <type> <n0> <n1> [...] mat=<idx>
///   constraint <node> <dof> <value>
///   load <set> <node> <dof> <value>
std::string serialize_model(const fem::StructureModel& model);

/// Inverse of serialize_model.  Throws SerializeError on malformed text,
/// including structurally invalid models: out-of-range node/material
/// indices, duplicate constraints, degenerate elements.
fem::StructureModel parse_model(const std::string& text);

/// Deterministic, line-oriented analysis-result text (the database's
/// stored form of "displacements of nodes, stresses on elements"):
///   results
///   method <free text>      (the rest of the line, trimmed)
///   converged <0|1>
///   iterations <n>
///   residual <v>
///   matrix-bytes <n>
///   displacements <dofs_per_node> <v0> <v1> ...
///   stress <element> <sxx> <syy> <txy> <vm>     (one per element)
///   peak <element> <sxx> <syy> <txy> <vm>
/// Round-trips bit-identically, nan payloads aside (17 significant digits).
std::string serialize_results(const fem::AnalysisResult& results);

/// Inverse of serialize_results.  Throws SerializeError on malformed text.
fem::AnalysisResult parse_results(const std::string& text);

}  // namespace fem2::appvm
