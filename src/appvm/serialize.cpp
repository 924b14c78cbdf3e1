#include "appvm/serialize.hpp"

#include <algorithm>
#include <charconv>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "support/strings.hpp"

namespace fem2::appvm {

namespace {

/// Appends text and numbers to one string: doubles as to_chars general
/// format at 17 significant digits ("%.17g"), indices in decimal.
class Writer {
 public:
  Writer& operator<<(std::string_view s) {
    out_.append(s);
    return *this;
  }
  Writer& operator<<(double v) {
    char buf[32];
    out_.append(buf, std::to_chars(buf, buf + sizeof buf, v,
                                   std::chars_format::general, 17)
                         .ptr);
    return *this;
  }
  Writer& operator<<(std::size_t v) {
    char buf[24];
    out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
    return *this;
  }

  /// The text at its exact size: the database keeps every stored value
  /// in its version chains, so growth slack would be kept too.
  std::string finish() {
    out_.shrink_to_fit();
    return std::move(out_);
  }

 private:
  std::string out_;
};

/// Material properties in record order, by their keys in the text.
constexpr std::pair<std::string_view, double fem::Material::*>
    kMaterialFields[] = {{"E", &fem::Material::youngs_modulus},
                         {"nu", &fem::Material::poisson_ratio},
                         {"A", &fem::Material::area},
                         {"I", &fem::Material::moment_of_inertia},
                         {"t", &fem::Material::thickness},
                         {"rho", &fem::Material::density}};

/// The records of a text: its lines in getline order, numbered from 1,
/// skipping blank and '#' lines, each split into whitespace-separated
/// tokens that view the text.
class Records {
 public:
  explicit Records(std::string_view text) : rest_(text) {}

  /// Moves to the next record; false at the end of the text.
  bool next() {
    while (!rest_.empty()) {
      const std::size_t end = rest_.find('\n');
      line_ = rest_.substr(0, end);
      rest_.remove_prefix(end == std::string_view::npos ? rest_.size()
                                                        : end + 1);
      ++number_;
      support::split_ws(line_, tokens_);
      if (!tokens_.empty() && !tokens_[0].starts_with('#')) return true;
    }
    return false;
  }

  std::size_t size() const { return tokens_.size(); }
  std::string_view operator[](std::size_t i) const { return tokens_[i]; }

  /// The line after the first token, trimmed.
  std::string_view rest_of_line() const {
    return support::trim(line_.substr(
        static_cast<std::size_t>(tokens_[0].data() - line_.data()) +
        tokens_[0].size()));
  }

  [[noreturn]] void fail(std::string_view what) const {
    throw SerializeError("line " + std::to_string(number_) + ": " +
                         std::string(what));
  }

  double number(std::string_view token) const {
    if (const auto v = support::parse_double(token)) return *v;
    fail("expected a number, found '" + std::string(token) + "'");
  }
  double number(std::size_t i) const { return number(tokens_[i]); }

  std::size_t index(std::string_view token) const {
    if (const auto v = support::parse_index(token)) return *v;
    fail("expected an index, found '" + std::string(token) + "'");
  }
  std::size_t index(std::size_t i) const { return index(tokens_[i]); }

 private:
  std::string_view rest_;
  std::string_view line_;
  std::size_t number_ = 0;
  std::vector<std::string_view> tokens_;
};

/// A `key=value` token's key and non-empty value; nothing otherwise.
std::optional<std::pair<std::string_view, std::string_view>> key_value(
    std::string_view token) {
  const std::size_t eq = token.find('=');
  if (eq == std::string_view::npos || eq + 1 == token.size())
    return std::nullopt;
  return std::pair{token.substr(0, eq), token.substr(eq + 1)};
}

fem::ElementType element_type_from_name(const Records& r) {
  const std::string_view name = r[1];
  if (name == "bar2") return fem::ElementType::Bar2;
  if (name == "beam2") return fem::ElementType::Beam2;
  if (name == "tri3") return fem::ElementType::Tri3;
  if (name == "quad4") return fem::ElementType::Quad4;
  r.fail("unknown element type '" + std::string(name) + "'");
}

void parse_material(const Records& r, fem::StructureModel& model) {
  fem::Material m;
  m.name = r[1];
  for (std::size_t i = 2; i < r.size(); ++i) {
    const auto kv = key_value(r[i]);
    const auto field =
        std::find_if(std::begin(kMaterialFields), std::end(kMaterialFields),
                     [&](const auto& f) { return kv && f.first == kv->first; });
    if (field == std::end(kMaterialFields))
      r.fail("unknown material property '" + std::string(r[i]) + "'");
    m.*(field->second) = r.number(kv->second);
  }
  model.add_material(std::move(m));
}

void parse_element(const Records& r, fem::StructureModel& model) {
  fem::Element e;
  e.type = element_type_from_name(r);
  const std::size_t expected = fem::element_node_count(e.type);
  std::size_t count = 0;
  for (std::size_t i = 2; i < r.size(); ++i) {
    const auto kv = key_value(r[i]);
    if (kv && kv->first == "mat") {
      e.material = r.index(kv->second);
    } else {
      const std::size_t node = r.index(i);
      if (count < e.nodes.size()) e.nodes[count] = node;
      ++count;
    }
  }
  if (count != expected)
    r.fail(std::string(fem::element_type_name(e.type)) + " takes " +
           std::to_string(expected) + " nodes");
  model.elements.push_back(e);
}

fem::ElementStress parse_stress(const Records& r) {
  if (r.size() != 6) r.fail("stress takes element sxx syy txy vm");
  fem::ElementStress s;
  s.element = r.index(1);
  s.sigma_xx = r.number(2);
  s.sigma_yy = r.number(3);
  s.tau_xy = r.number(4);
  s.von_mises = r.number(5);
  return s;
}

}  // namespace

std::string serialize_model(const fem::StructureModel& model) {
  Writer w;
  w << "model " << model.name << "\n";
  for (const auto& n : model.nodes) w << "node " << n.x << " " << n.y << "\n";
  for (const auto& m : model.materials) {
    w << "material " << m.name;
    for (const auto& [key, field] : kMaterialFields)
      w << " " << key << "=" << m.*field;
    w << "\n";
  }
  for (const auto& e : model.elements) {
    w << "element " << fem::element_type_name(e.type);
    for (std::size_t i = 0; i < e.node_count(); ++i) w << " " << e.nodes[i];
    w << " mat=" << e.material << "\n";
  }
  for (const auto& c : model.constraints)
    w << "constraint " << c.node << " " << c.dof << " " << c.value << "\n";
  for (const auto& [set_name, set] : model.load_sets)
    for (const auto& load : set.loads)
      w << "load " << set_name << " " << load.node << " " << load.dof << " "
        << load.value << "\n";
  return w.finish();
}

fem::StructureModel parse_model(const std::string& text) {
  fem::StructureModel model;
  bool saw_model = false;

  for (Records r(text); r.next();) {
    const std::string_view kind = r[0];
    if (kind == "model") {
      if (r.size() != 2) r.fail("model takes a single name");
      model.name = r[1];
      saw_model = true;
    } else if (kind == "node") {
      if (r.size() != 3) r.fail("node takes x y");
      const double x = r.number(1);
      model.add_node(x, r.number(2));
    } else if (kind == "material") {
      if (r.size() < 2) r.fail("material needs a name");
      parse_material(r, model);
    } else if (kind == "element") {
      if (r.size() < 4) r.fail("element needs a type and nodes");
      parse_element(r, model);
    } else if (kind == "constraint") {
      if (r.size() != 4) r.fail("constraint takes node dof value");
      const std::size_t node = r.index(1);
      const std::size_t dof = r.index(2);
      model.add_constraint(node, dof, r.number(3));
    } else if (kind == "load") {
      if (r.size() != 5) r.fail("load takes set node dof value");
      const std::size_t node = r.index(2);
      const std::size_t dof = r.index(3);
      model.add_load(std::string(r[1]), node, dof, r.number(4));
    } else {
      r.fail("unknown record '" + std::string(kind) + "'");
    }
  }
  if (!saw_model)
    throw SerializeError("model text has no 'model <name>' record");

  // Structural validation — the database must never hand a session an
  // unusable model (records may arrive in any order, so check at the end).
  for (std::size_t i = 0; i < model.elements.size(); ++i) {
    const auto& e = model.elements[i];
    if (e.material >= std::max<std::size_t>(model.materials.size(), 1))
      throw SerializeError("element " + std::to_string(i) +
                           " references missing material " +
                           std::to_string(e.material));
    for (std::size_t k = 0; k < e.node_count(); ++k) {
      if (e.nodes[k] >= model.nodes.size())
        throw SerializeError("element " + std::to_string(i) +
                             " references missing node " +
                             std::to_string(e.nodes[k]));
    }
  }
  for (std::size_t i = 0; i < model.constraints.size(); ++i) {
    const auto& c = model.constraints[i];
    if (c.node >= model.nodes.size())
      throw SerializeError("constraint references missing node " +
                           std::to_string(c.node));
    for (std::size_t j = i + 1; j < model.constraints.size(); ++j) {
      if (model.constraints[j].node == c.node &&
          model.constraints[j].dof == c.dof)
        throw SerializeError("duplicate constraint on node " +
                             std::to_string(c.node) + " dof " +
                             std::to_string(c.dof));
    }
  }
  for (const auto& [set_name, set] : model.load_sets) {
    for (const auto& load : set.loads) {
      if (load.node >= model.nodes.size())
        throw SerializeError("load set '" + set_name +
                             "' references missing node " +
                             std::to_string(load.node));
    }
  }
  return model;
}

std::string serialize_results(const fem::AnalysisResult& results) {
  Writer w;
  const auto stress_record = [&w](std::string_view tag,
                                  const fem::ElementStress& s) {
    w << tag << " " << s.element << " " << s.sigma_xx << " " << s.sigma_yy
      << " " << s.tau_xy << " " << s.von_mises << "\n";
  };
  const auto& stats = results.solution.stats;
  w << "results\n";
  w << "method " << stats.method << "\n";
  w << "converged " << (stats.converged ? "1" : "0") << "\n";
  w << "iterations " << stats.iterations << "\n";
  w << "residual " << stats.residual << "\n";
  w << "matrix-bytes " << stats.matrix_storage_bytes << "\n";
  const auto& u = results.solution.displacements;
  w << "displacements " << u.dofs_per_node;
  for (const double v : u.values) w << " " << v;
  w << "\n";
  for (const auto& s : results.stresses) stress_record("stress", s);
  stress_record("peak", results.peak);
  return w.finish();
}

fem::AnalysisResult parse_results(const std::string& text) {
  fem::AnalysisResult results;
  auto& stats = results.solution.stats;
  bool saw_header = false;
  bool saw_peak = false;

  for (Records r(text); r.next();) {
    const std::string_view kind = r[0];
    if (kind == "results") {
      saw_header = true;
    } else if (kind == "method") {
      // Method names may contain spaces — take the rest of the line.
      stats.method = r.rest_of_line();
    } else if (kind == "converged") {
      if (r.size() != 2) r.fail("converged takes 0 or 1");
      stats.converged = r.index(1) != 0;
    } else if (kind == "iterations") {
      if (r.size() != 2) r.fail("iterations takes a count");
      stats.iterations = r.index(1);
    } else if (kind == "residual") {
      if (r.size() != 2) r.fail("residual takes a value");
      stats.residual = r.number(1);
    } else if (kind == "matrix-bytes") {
      if (r.size() != 2) r.fail("matrix-bytes takes a count");
      stats.matrix_storage_bytes = r.index(1);
    } else if (kind == "displacements") {
      if (r.size() < 2) r.fail("displacements needs dofs_per_node");
      auto& u = results.solution.displacements;
      u.dofs_per_node = r.index(1);
      if (u.dofs_per_node == 0) r.fail("dofs_per_node must be positive");
      u.values.clear();
      u.values.reserve(r.size() - 2);
      for (std::size_t i = 2; i < r.size(); ++i)
        u.values.push_back(r.number(i));
      if (u.values.size() % u.dofs_per_node != 0)
        r.fail("displacement count is not a multiple of dofs_per_node");
    } else if (kind == "stress") {
      results.stresses.push_back(parse_stress(r));
    } else if (kind == "peak") {
      results.peak = parse_stress(r);
      saw_peak = true;
    } else {
      r.fail("unknown record '" + std::string(kind) + "'");
    }
  }
  if (!saw_header)
    throw SerializeError("results text has no 'results' record");
  if (!saw_peak)
    throw SerializeError("results text has no 'peak' record");
  return results;
}

}  // namespace fem2::appvm
