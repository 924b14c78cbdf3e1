// H-graph transforms modeling application-layer operations — the paper's
// "operations (procedures) on the data objects are modeled as H-graph
// transforms ... [which] may invoke each other in the usual manner of
// subprogram calling hierarchies".
//
// The registry's grammar is the layer-1 grammar extended with argument
// record types; every transform application is pre/post checked against it.
#pragma once

#include <string>

#include "hgraph/transform.hpp"

namespace fem2::spec {

/// Layer-1 grammar plus the transform argument records below.
std::string appvm_transform_grammar_text();
hgraph::Grammar appvm_transform_grammar();

/// Registry with the application-user operations:
///   define-structure-model : modelname -> structure
///   add-node               : addnode_args -> structure
///   add-load               : addload_args -> structure
///   generate-grid          : grid_args -> structure   (invokes add-node)
///   count-nodes            : structure -> INT
hgraph::TransformRegistry make_appvm_transforms();

}  // namespace fem2::spec
