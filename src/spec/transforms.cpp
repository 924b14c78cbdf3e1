#include "spec/transforms.hpp"

#include <string>

#include "hgraph/grammar_parser.hpp"
#include "spec/layers.hpp"

namespace fem2::spec {

std::string appvm_transform_grammar_text() {
  return std::string(appvm_grammar_text()) + R"(
# Argument records of the layer-1 transforms.
modelname    ::= { name: STRING }
addnode_args ::= { model: structure, x: REAL, y: REAL }
addload_args ::= { model: structure, set: STRING, node: INT, dof: INT,
                   value: REAL }
grid_args    ::= { model: structure, nx: INT, ny: INT, width: REAL,
                   height: REAL }
)";
}

namespace {

using hgraph::HGraph;
using hgraph::Invoker;
using hgraph::NodeId;
using hgraph::family_label;

/// Number of arcs of the indexed family `base[i]` on `node` (the next free
/// index when appending).
std::size_t family_size(const HGraph& g, NodeId node, std::string_view base) {
  std::size_t count = 0;
  for (const auto& arc : g.arcs(node))
    count += hgraph::family_index(arc.label, base).has_value();
  return count;
}

NodeId define_structure_model(Invoker&, HGraph& g, NodeId arg) {
  const NodeId name = g.follow(arg, "name");
  const NodeId model = g.add_node();
  g.add_arc(model, "name",
            g.add_string(std::string(*g.string_value(name))));
  return model;
}

NodeId add_node_transform(Invoker&, HGraph& g, NodeId arg) {
  const NodeId model = g.follow(arg, "model");
  const NodeId point = g.add_node();
  g.add_arc(point, "x", g.add_real(*g.real_value(g.follow(arg, "x"))));
  g.add_arc(point, "y", g.add_real(*g.real_value(g.follow(arg, "y"))));
  g.add_arc(model, family_label("node", family_size(g, model, "node")), point);
  return model;
}

NodeId add_load_transform(Invoker&, HGraph& g, NodeId arg) {
  const NodeId model = g.follow(arg, "model");
  const std::string set(*g.string_value(g.follow(arg, "set")));

  // Find or create the load set with this name.
  NodeId set_node{};
  const std::size_t sets = family_size(g, model, "loadset");
  for (std::size_t i = 0; i < sets; ++i) {
    const NodeId candidate = g.follow(model, family_label("loadset", i));
    if (*g.string_value(g.follow(candidate, "name")) == set) {
      set_node = candidate;
      break;
    }
  }
  if (!set_node.valid()) {
    set_node = g.add_node();
    g.add_arc(set_node, "name", g.add_string(set));
    g.add_arc(model, family_label("loadset", sets), set_node);
  }

  const NodeId load = g.add_node();
  g.add_arc(load, "node", g.add_int(*g.int_value(g.follow(arg, "node"))));
  g.add_arc(load, "dof", g.add_int(*g.int_value(g.follow(arg, "dof"))));
  g.add_arc(load, "value", g.add_real(*g.real_value(g.follow(arg, "value"))));
  g.add_arc(set_node,
            family_label("pointload", family_size(g, set_node, "pointload")),
            load);
  return model;
}

NodeId generate_grid_transform(Invoker& invoker, HGraph& g, NodeId arg) {
  const NodeId model = g.follow(arg, "model");
  const auto nx = static_cast<std::size_t>(*g.int_value(g.follow(arg, "nx")));
  const auto ny = static_cast<std::size_t>(*g.int_value(g.follow(arg, "ny")));
  const double width = *g.real_value(g.follow(arg, "width"));
  const double height = *g.real_value(g.follow(arg, "height"));

  // Invoke add-node for each grid point — the subprogram-call hierarchy.
  for (std::size_t j = 0; j <= ny; ++j) {
    for (std::size_t i = 0; i <= nx; ++i) {
      const NodeId call_arg = g.add_node();
      g.add_arc(call_arg, "model", model);
      g.add_arc(call_arg, "x",
                g.add_real(width * static_cast<double>(i) /
                           static_cast<double>(nx)));
      g.add_arc(call_arg, "y",
                g.add_real(height * static_cast<double>(j) /
                           static_cast<double>(ny)));
      invoker.call("add-node", call_arg);
    }
  }
  return model;
}

NodeId count_nodes_transform(Invoker&, HGraph& g, NodeId model) {
  return g.add_int(static_cast<std::int64_t>(family_size(g, model, "node")));
}

}  // namespace

hgraph::Grammar appvm_transform_grammar() {
  return hgraph::parse_grammar(appvm_transform_grammar_text());
}

hgraph::TransformRegistry make_appvm_transforms() {
  using hgraph::AtomKind;
  using hgraph::RuleSpec;
  using hgraph::op_add_arc;
  using hgraph::op_append;
  using hgraph::op_atom;
  using hgraph::op_call;
  using hgraph::op_fresh;
  using hgraph::op_let;
  using hgraph::op_pick;
  using hgraph::op_return;
  const auto here = [](std::size_t line) {
    return hgraph::SourceLoc{line, 1};
  };

  hgraph::TransformRegistry registry(appvm_transform_grammar());

  // Each registration carries the rule's declarative abstract effect (the
  // RuleSpec) so fem2_analyze --verify can prove type preservation without
  // executing the body.  The spec mirrors the C++ above it; the runtime
  // pre/post conformance checks remain the ground truth.
  registry.register_transform(
      "define-structure-model",
      {"modelname", "structure",
       RuleSpec{{{{op_let("n", "arg", "name"), op_fresh("m"),
                   op_add_arc("m", "name", "n"), op_return("m")}}},
                here(__LINE__)}},
      define_structure_model);

  registry.register_transform(
      "add-node",
      {"addnode_args", "structure",
       RuleSpec{{{{op_let("model", "arg", "model"), op_let("x", "arg", "x"),
                   op_let("y", "arg", "y"), op_fresh("p"),
                   op_add_arc("p", "x", "x"), op_add_arc("p", "y", "y"),
                   op_append("model", "node", "p"), op_return("model")}}},
                here(__LINE__)}},
      add_node_transform);

  // add-load has a find-or-create split: path one extends an existing
  // load set, path two creates and links a fresh one.
  registry.register_transform(
      "add-load",
      {"addload_args", "structure",
       RuleSpec{{{{op_let("model", "arg", "model"),
                   op_pick("set", "model", "loadset"),
                   op_let("n", "arg", "node"), op_let("d", "arg", "dof"),
                   op_let("v", "arg", "value"), op_fresh("load"),
                   op_add_arc("load", "node", "n"),
                   op_add_arc("load", "dof", "d"),
                   op_add_arc("load", "value", "v"),
                   op_append("set", "pointload", "load"),
                   op_return("model")}},
                 {{op_let("model", "arg", "model"),
                   op_let("s", "arg", "set"), op_fresh("set"),
                   op_add_arc("set", "name", "s"),
                   op_append("model", "loadset", "set"),
                   op_let("n", "arg", "node"), op_let("d", "arg", "dof"),
                   op_let("v", "arg", "value"), op_fresh("load"),
                   op_add_arc("load", "node", "n"),
                   op_add_arc("load", "dof", "d"),
                   op_add_arc("load", "value", "v"),
                   op_append("set", "pointload", "load"),
                   op_return("model")}}},
                here(__LINE__)}},
      add_load_transform);

  // The grid loop collapses to one iteration abstractly: the body invokes
  // add-node, whose own spec proves each application preserves structure.
  registry.register_transform(
      "generate-grid",
      {"grid_args", "structure",
       RuleSpec{{{{op_let("model", "arg", "model"), op_fresh("call_arg"),
                   op_add_arc("call_arg", "model", "model"),
                   op_atom("cx", AtomKind::Real),
                   op_atom("cy", AtomKind::Real),
                   op_add_arc("call_arg", "x", "cx"),
                   op_add_arc("call_arg", "y", "cy"),
                   op_call("r", "add-node", "call_arg"),
                   op_return("model")}}},
                here(__LINE__)}},
      generate_grid_transform);

  registry.register_transform(
      "count-nodes",
      {"structure", "INT",
       RuleSpec{{{{op_atom("c", AtomKind::Int), op_return("c")}}},
                here(__LINE__)}},
      count_nodes_transform);
  return registry;
}

}  // namespace fem2::spec
