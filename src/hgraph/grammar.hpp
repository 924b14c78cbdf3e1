// H-graph grammars: "a type of BNF grammar in which the 'language' defined
// is a set of H-graphs representing a class of data objects" (Pratt 1983).
//
// A grammar maps nonterminal names to alternatives.  Each alternative is
// either an atom constraint (NIL / INT / REAL / STRING / ANY) or a composite
// pattern constraining the node's outgoing arcs:
//
//   structure ::= { name: STRING, grid: grid, loadset[*]: loadset }
//   list      ::= NIL | { @INT, next?: list }
//
// Arc multiplicities:
//   label:  nt    exactly one arc `label`
//   label?: nt    zero or one arc `label`
//   label*: nt    any number of arcs `label`
//   label[*]: nt  an indexed family label[0], label[1], ..., label[n-1]
// `@KIND` constrains the composite node's own atom (default NIL); `...`
// makes the composite open (extra arcs permitted).
//
// Conformance is coinductive (greatest fixpoint): a node revisited while
// its own check is in progress is assumed to conform, so cyclic data
// objects (rings, doubly linked structures) check correctly.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "hgraph/hgraph.hpp"

namespace fem2::hgraph {

enum class AtomKind { Nil, Int, Real, String, Any };

/// Every atom kind; their names are the builtin nonterminals.
inline constexpr AtomKind kAtomKinds[] = {AtomKind::Nil, AtomKind::Int,
                                          AtomKind::Real, AtomKind::String,
                                          AtomKind::Any};

std::string_view atom_kind_name(AtomKind k);

/// The atom kind a builtin nonterminal names (NIL, INT, REAL, STRING,
/// ANY), or nullopt for any other name.
std::optional<AtomKind> atom_kind_from_name(std::string_view name);

/// True when `b` accepts every atom `a` accepts: REAL accepts INT, ANY
/// accepts everything.
bool atom_subsumed(AtomKind a, AtomKind b);

/// True if the node's atom satisfies the kind (REAL accepts INT).
bool atom_matches(const HGraph& g, NodeId node, AtomKind kind);

/// The label of member `index` of the indexed family `base`: "base[index]".
std::string family_label(std::string_view base, std::size_t index);

/// The index of `label` in the indexed family `base` ("base[" decimal
/// digits "]"), or nullopt when the label is not a member.
std::optional<std::size_t> family_index(std::string_view label,
                                        std::string_view base);

/// Position in the grammar source text (1-based; line 0 = unknown, e.g. a
/// grammar assembled programmatically rather than parsed).
struct SourceLoc {
  std::size_t line = 0;
  std::size_t column = 0;

  bool known() const { return line != 0; }
  /// "line 3, col 14", or "<unknown>" for a default-constructed loc.
  std::string to_string() const;
};

enum class Multiplicity { One, Optional, Star, IndexedFamily };

struct ArcPattern {
  std::string label;
  Multiplicity multiplicity = Multiplicity::One;
  std::string nonterminal;
  SourceLoc loc;
};

struct Composite {
  AtomKind own_atom = AtomKind::Nil;  ///< constraint on the node's own value
  std::vector<ArcPattern> arcs;
  bool open = false;  ///< extra arcs allowed
};

/// Alternative that simply defers to another nonterminal (an alias).
struct NonterminalRef {
  std::string name;
};

/// One alternative of a production.
using Alternative = std::variant<AtomKind, Composite, NonterminalRef>;

/// An alternative together with where it was defined in the grammar source.
struct Rule {
  Alternative alternative;
  SourceLoc loc;
};

/// A nonterminal a rule names: its alias target (arc == nullptr) or an arc
/// pattern's target, located at the arc when the arc's location is known
/// and at the rule otherwise.
struct Reference {
  std::string_view name;
  const ArcPattern* arc = nullptr;
  SourceLoc loc;
};

/// The nonterminals `rule` names, in pattern order.
std::vector<Reference> references(const Rule& rule);

struct ConformanceResult {
  bool ok = true;
  std::string error;  ///< first failure, with access-path context

  explicit operator bool() const { return ok; }
};

class Grammar {
 public:
  using RuleMap = std::map<std::string, std::vector<Rule>, std::less<>>;

  Grammar();

  /// Add an alternative for `nonterminal` (creating the rule if needed).
  /// `loc` records where the alternative appears in the grammar source.
  void add_alternative(std::string nonterminal, Alternative alt,
                       SourceLoc loc = {});

  bool has_rule(std::string_view nonterminal) const;
  std::vector<std::string> nonterminals() const;

  /// True for the builtin atom nonterminals NIL/INT/REAL/STRING/ANY.
  static bool is_builtin(std::string_view nonterminal);

  /// Full production table, for introspection (linting, tooling).
  const RuleMap& rules() const { return rules_; }

  /// Does the subgraph rooted at `node` belong to the language of
  /// `nonterminal`?  On failure, `error` holds the first mismatch found.
  ConformanceResult conforms(const HGraph& g, NodeId node,
                             std::string_view nonterminal) const;

  /// Validate the grammar itself: every referenced nonterminal must be
  /// defined (builtin atom kinds count as defined).  Diagnostics carry the
  /// source location of the offending alternative or arc pattern.
  ConformanceResult validate() const;

 private:
  struct CheckState;
  bool check(const HGraph& g, NodeId node, const std::string& nonterminal,
             CheckState& state) const;
  bool check_alternative(const HGraph& g, NodeId node, const Alternative& alt,
                         CheckState& state) const;

  RuleMap rules_;
};

}  // namespace fem2::hgraph
