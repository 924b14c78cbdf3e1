#include "appvm/command.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "appvm/serialize.hpp"
#include "fem/dynamics.hpp"
#include "fem/mesh.hpp"
#include "support/strings.hpp"

namespace fem2::appvm {

namespace {

class CommandError : public support::Error {
 public:
  using support::Error::Error;
};

double to_double(const std::string& token) {
  if (const auto v = support::parse_double(token)) return *v;
  throw CommandError("expected a number, found '" + token + "'");
}

std::size_t to_index(const std::string& token) {
  if (const auto v = support::parse_index(token)) return *v;
  throw CommandError("expected an index, found '" + token + "'");
}

/// key=value option scanning over a token range.
class Options {
 public:
  Options(const std::vector<std::string>& tokens, std::size_t first) {
    for (std::size_t i = first; i < tokens.size(); ++i) {
      const auto eq = tokens[i].find('=');
      if (eq == std::string::npos) {
        flags_.push_back(tokens[i]);
      } else {
        pairs_.emplace_back(tokens[i].substr(0, eq), tokens[i].substr(eq + 1));
      }
    }
  }

  double number(std::string_view key, double fallback) const {
    for (const auto& [k, v] : pairs_)
      if (k == key) return to_double(v);
    return fallback;
  }
  std::size_t index(std::string_view key, std::size_t fallback) const {
    for (const auto& [k, v] : pairs_)
      if (k == key) return to_index(v);
    return fallback;
  }
  std::string text(std::string_view key, std::string fallback = "") const {
    for (const auto& [k, v] : pairs_)
      if (k == key) return v;
    return fallback;
  }
  bool flag(std::string_view name) const {
    for (const auto& f : flags_)
      if (f == name) return true;
    return false;
  }

 private:
  std::vector<std::pair<std::string, std::string>> pairs_;
  std::vector<std::string> flags_;
};

fem::SolverKind solver_from_name(const std::string& name) {
  if (name == "skyline") return fem::SolverKind::SkylineDirect;
  if (name == "cholesky") return fem::SolverKind::DenseCholesky;
  if (name == "cg") return fem::SolverKind::ConjugateGradient;
  if (name == "pcg") return fem::SolverKind::PreconditionedCg;
  if (name == "gauss-seidel") return fem::SolverKind::GaussSeidel;
  if (name == "sor") return fem::SolverKind::Sor;
  if (name == "jacobi") return fem::SolverKind::Jacobi;
  throw CommandError("unknown solver '" + name +
                     "' (skyline, cholesky, cg, pcg, gauss-seidel, sor, "
                     "jacobi)");
}

fem::ElementType element_from_name(const std::string& name) {
  if (name == "bar" || name == "bar2") return fem::ElementType::Bar2;
  if (name == "beam" || name == "beam2") return fem::ElementType::Beam2;
  if (name == "tri" || name == "tri3") return fem::ElementType::Tri3;
  if (name == "quad" || name == "quad4") return fem::ElementType::Quad4;
  throw CommandError("unknown element type '" + name + "'");
}

/// Whether a grid of (cols + 1) x (rows + 1) nodes stays within
/// Session::kMaxMeshNodes.  Each factor is bounded before the product is
/// formed, so no size can wrap around.
bool grid_within_limit(std::size_t cols, std::size_t rows) {
  constexpr std::size_t limit = Session::kMaxMeshNodes;
  return cols < limit && rows < limit && (cols + 1) * (rows + 1) <= limit;
}

Response mesh_too_large(const std::string& what) {
  return {false, "mesh " + what + " needs more than " +
                     std::to_string(Session::kMaxMeshNodes) +
                     " nodes (the mesh size limit)"};
}

}  // namespace

Session::Session(Database& database, std::string user, std::string tenant)
    : database_(database), user_(std::move(user)), tenant_(std::move(tenant)) {}

Session::~Session() {
  if (txn_) {
    try {
      database_.abort(*txn_);
    } catch (const support::Error&) {
      // The engine may already have dropped it (e.g. conflicted commit).
    }
  }
}

Response Session::execute(const std::string& line) {
  const auto trimmed = support::trim(line);
  if (trimmed.empty() || trimmed.starts_with('#')) return {true, ""};
  const auto tokens = support::split_ws(trimmed);
  try {
    Response response = dispatch(tokens);
    // A failure built inline (usage errors and the like) defaults its
    // kind; normalize so FailureKind::None always means success.
    if (!response.ok && response.kind == Response::FailureKind::None)
      response.kind = Response::FailureKind::Other;
    return response;
  } catch (const db::ConflictError& e) {
    return {false, e.what(), Response::FailureKind::Conflict};
  } catch (const db::DegradedError& e) {
    return {false, e.what(), Response::FailureKind::Degraded};
  } catch (const db::IoError& e) {
    return {false, e.what(),
            e.transient() ? Response::FailureKind::TransientIo
                          : Response::FailureKind::Other};
  } catch (const support::Error& e) {
    return {false, e.what(), Response::FailureKind::Other};
  } catch (const support::CheckError& e) {
    return {false, e.what(), Response::FailureKind::Other};
  }
}

Response Session::execute_with_retry(const std::string& line) {
  db::RetrySchedule schedule(retry_policy_);
  for (;;) {
    Response response = execute(line);
    if (response.ok || !Response::retryable(response.kind)) return response;
    const auto delay = schedule.next_delay();
    if (!delay) return response;
    if (delay->count() > 0) sleeper_(*delay);
  }
}

std::vector<Response> Session::execute_script(const std::string& script,
                                              bool keep_going) {
  std::vector<Response> out;
  std::istringstream is(script);
  std::string line;
  while (std::getline(is, line)) {
    out.push_back(execute(line));
    if (!out.back().ok && !keep_going) break;
  }
  return out;
}

Response Session::dispatch(const std::vector<std::string>& tokens) {
  const std::string& cmd = tokens[0];
  if (cmd == "help") return {true, help_text()};
  if (cmd == "new") return cmd_new(tokens);
  if (cmd == "node") return cmd_node(tokens);
  if (cmd == "material") return cmd_material(tokens);
  if (cmd == "element") return cmd_element(tokens);
  if (cmd == "fix") return cmd_fix(tokens);
  if (cmd == "constrain") return cmd_constrain(tokens);
  if (cmd == "load") return cmd_load(tokens);
  if (cmd == "mesh") return cmd_mesh(tokens);
  if (cmd == "solve") return cmd_solve(tokens);
  if (cmd == "modes") return cmd_modes(tokens);
  if (cmd == "stresses") return cmd_stresses(tokens);
  if (cmd == "show") return cmd_show(tokens);
  if (cmd == "store") return cmd_store(tokens);
  if (cmd == "retrieve") return cmd_retrieve(tokens);
  if (cmd == "list") return cmd_list(tokens);
  if (cmd == "query") return cmd_query(tokens);
  if (cmd == "remove") return cmd_remove(tokens);
  if (cmd == "begin") return cmd_begin(tokens);
  if (cmd == "commit") return cmd_commit(tokens);
  if (cmd == "abort") return cmd_abort(tokens);
  if (cmd == "history") return cmd_history(tokens);
  if (cmd == "save") return cmd_save(tokens);
  if (cmd == "open") return cmd_open(tokens);
  return {false, "unknown command '" + cmd + "' (try 'help')"};
}

Response Session::cmd_new(const std::vector<std::string>& tokens) {
  if (tokens.size() != 3 || tokens[1] != "model")
    return {false, "usage: new model <name>"};
  fem::StructureModel model;
  model.name = tokens[2];
  workspace_.set_model(std::move(model));
  return {true, "new model '" + tokens[2] + "'"};
}

Response Session::cmd_node(const std::vector<std::string>& tokens) {
  if (tokens.size() != 3) return {false, "usage: node <x> <y>"};
  const auto id = workspace_.model().add_node(to_double(tokens[1]),
                                              to_double(tokens[2]));
  return {true, "node " + std::to_string(id)};
}

Response Session::cmd_material(const std::vector<std::string>& tokens) {
  if (tokens.size() < 2) return {false, "usage: material <name> [E= nu= A= I= t=]"};
  fem::Material m;
  m.name = tokens[1];
  const Options opts(tokens, 2);
  m.youngs_modulus = opts.number("E", m.youngs_modulus);
  m.poisson_ratio = opts.number("nu", m.poisson_ratio);
  m.area = opts.number("A", m.area);
  m.moment_of_inertia = opts.number("I", m.moment_of_inertia);
  m.thickness = opts.number("t", m.thickness);
  m.density = opts.number("rho", m.density);
  const auto id = workspace_.model().add_material(std::move(m));
  return {true, "material " + std::to_string(id)};
}

Response Session::cmd_element(const std::vector<std::string>& tokens) {
  if (tokens.size() < 4)
    return {false, "usage: element <type> <nodes...> [mat=i]"};
  const fem::ElementType type = element_from_name(tokens[1]);
  const std::size_t expected = fem::element_node_count(type);
  std::vector<std::size_t> nodes;
  std::size_t material = 0;
  for (std::size_t i = 2; i < tokens.size(); ++i) {
    if (tokens[i].starts_with("mat=")) {
      material = to_index(tokens[i].substr(4));
    } else {
      nodes.push_back(to_index(tokens[i]));
    }
  }
  if (nodes.size() != expected)
    return {false, std::string(fem::element_type_name(type)) + " takes " +
                       std::to_string(expected) + " nodes"};
  auto& model = workspace_.model();
  fem::Element e;
  e.type = type;
  e.material = material;
  for (std::size_t i = 0; i < nodes.size(); ++i) e.nodes[i] = nodes[i];
  model.elements.push_back(e);
  return {true, "element " + std::to_string(model.elements.size() - 1)};
}

Response Session::cmd_fix(const std::vector<std::string>& tokens) {
  if (tokens.size() != 2) return {false, "usage: fix <node>"};
  workspace_.model().fix_node(to_index(tokens[1]));
  return {true, "fixed node " + tokens[1]};
}

Response Session::cmd_constrain(const std::vector<std::string>& tokens) {
  if (tokens.size() < 3 || tokens.size() > 4)
    return {false, "usage: constrain <node> <dof> [value]"};
  const double value = tokens.size() == 4 ? to_double(tokens[3]) : 0.0;
  workspace_.model().add_constraint(to_index(tokens[1]), to_index(tokens[2]),
                                    value);
  return {true, "constrained"};
}

Response Session::cmd_load(const std::vector<std::string>& tokens) {
  if (tokens.size() != 5)
    return {false, "usage: load <set> <node> <dof> <value>"};
  workspace_.model().add_load(tokens[1], to_index(tokens[2]),
                              to_index(tokens[3]), to_double(tokens[4]));
  return {true, "load added to set '" + tokens[1] + "'"};
}

Response Session::cmd_mesh(const std::vector<std::string>& tokens) {
  if (tokens.size() < 2)
    return {false, "usage: mesh plate|beam|truss [options]"};
  const Options opts(tokens, 2);
  if (tokens[1] == "plate") {
    fem::PlateMeshOptions po;
    po.nx = opts.index("nx", po.nx);
    po.ny = opts.index("ny", po.ny);
    if (!grid_within_limit(po.nx, po.ny))
      return mesh_too_large("plate nx=" + std::to_string(po.nx) +
                            " ny=" + std::to_string(po.ny));
    po.width = opts.number("width", po.width);
    po.height = opts.number("height", po.height);
    if (opts.flag("tri")) po.element = fem::ElementType::Tri3;
    po.material.youngs_modulus = opts.number("E", po.material.youngs_modulus);
    po.material.thickness = opts.number("t", po.material.thickness);
    const double load = opts.number("load", 1.0);
    workspace_.set_model(fem::make_cantilever_plate(po, load));
    return {true, "meshed cantilever plate " + std::to_string(po.nx) + "x" +
                      std::to_string(po.ny) + " (" +
                      std::to_string(workspace_.model().total_dofs()) +
                      " dofs, load set 'tip-shear')"};
  }
  if (tokens[1] == "beam") {
    fem::FrameOptions fo;
    fo.segments = opts.index("segments", fo.segments);
    if (!grid_within_limit(fo.segments, 0))
      return mesh_too_large("beam segments=" + std::to_string(fo.segments));
    fo.length = opts.number("length", fo.length);
    const double load = opts.number("load", 1.0);
    workspace_.set_model(fem::make_cantilever_beam(fo, load));
    return {true, "meshed cantilever beam (" +
                      std::to_string(fo.segments) +
                      " segments, load set 'tip')"};
  }
  if (tokens[1] == "truss") {
    fem::TrussOptions to;
    to.bays = opts.index("bays", to.bays);
    if (!grid_within_limit(to.bays, 1))
      return mesh_too_large("truss bays=" + std::to_string(to.bays));
    to.bay_width = opts.number("bay-width", to.bay_width);
    to.height = opts.number("height", to.height);
    const double load = opts.number("load", 1.0);
    workspace_.set_model(fem::make_truss_bridge(to, load));
    return {true, "meshed truss bridge (" + std::to_string(to.bays) +
                      " bays, load set 'deck')"};
  }
  return {false, "unknown mesh kind '" + tokens[1] + "'"};
}

Response Session::cmd_solve(const std::vector<std::string>& tokens) {
  if (tokens.size() < 2)
    return {false, "usage: solve <loadset> [using <solver>] [tol=...]"};
  fem::SolverOptions options;
  const std::string& load_set = tokens[1];
  for (std::size_t i = 2; i < tokens.size(); ++i) {
    if (tokens[i] == "using" && i + 1 < tokens.size()) {
      options.kind = solver_from_name(tokens[++i]);
    } else if (tokens[i].starts_with("tol=")) {
      options.tolerance = to_double(tokens[i].substr(4));
    } else {
      return {false, "unexpected token '" + tokens[i] + "'"};
    }
  }
  fem::AnalysisResult results = fem::analyze(workspace_.model(), load_set,
                                             options);
  std::ostringstream os;
  os << "solved '" << load_set << "' with " << results.solution.stats.method;
  if (results.solution.stats.iterations > 0)
    os << " in " << results.solution.stats.iterations << " iterations";
  os << " (residual " << results.solution.stats.residual << ")";
  if (!results.solution.stats.converged) os << " — DID NOT CONVERGE";
  const bool ok = results.solution.stats.converged;
  workspace_.set_results(std::move(results));
  return {ok, os.str()};
}

Response Session::cmd_modes(const std::vector<std::string>& tokens) {
  if (tokens.size() > 2) return {false, "usage: modes [count]"};
  const std::size_t count = tokens.size() == 2 ? to_index(tokens[1]) : 4;
  if (count == 0) return {false, "mode count must be positive"};
  const auto modal = fem::modal_analysis(workspace_.model(), count);
  std::ostringstream os;
  os << "natural frequencies";
  if (!modal.converged) os << " (NOT fully converged)";
  os << ":";
  os.precision(4);
  for (std::size_t i = 0; i < modal.modes.size(); ++i)
    os << (i ? ", " : " ") << "f" << i + 1 << "=" << modal.modes[i].frequency
       << " Hz";
  return {modal.converged, os.str()};
}

Response Session::cmd_stresses(const std::vector<std::string>&) {
  const auto& results = workspace_.results();
  const auto& peak = results.peak;
  std::ostringstream os;
  os << "stresses on " << results.stresses.size()
     << " elements; peak von Mises " << peak.von_mises << " on element "
     << peak.element;
  return {true, os.str()};
}

Response Session::cmd_show(const std::vector<std::string>& tokens) {
  if (tokens.size() < 2)
    return {false, "usage: show model|displacements [node]|peak"};
  std::ostringstream os;
  if (tokens[1] == "model") {
    const auto& m = workspace_.model();
    os << "model '" << m.name << "': " << m.nodes.size() << " nodes, "
       << m.elements.size() << " elements, " << m.constraints.size()
       << " constraints, " << m.load_sets.size() << " load sets, "
       << m.total_dofs() << " dofs";
    return {true, os.str()};
  }
  if (tokens[1] == "displacements") {
    const auto& u = workspace_.results().solution.displacements;
    if (tokens.size() == 3) {
      const std::size_t node = to_index(tokens[2]);
      os << "node " << node << ":";
      for (std::size_t d = 0; d < u.dofs_per_node; ++d)
        os << " " << u.at(node, d);
    } else {
      double peak = 0.0;
      std::size_t peak_node = 0;
      const std::size_t nodes = u.values.size() / u.dofs_per_node;
      for (std::size_t n = 0; n < nodes; ++n) {
        for (std::size_t d = 0; d < u.dofs_per_node; ++d) {
          if (std::abs(u.at(n, d)) > std::abs(peak)) {
            peak = u.at(n, d);
            peak_node = n;
          }
        }
      }
      os << nodes << " nodes; largest displacement " << peak << " at node "
         << peak_node;
    }
    return {true, os.str()};
  }
  if (tokens[1] == "peak") {
    const auto& peak = workspace_.results().peak;
    os << "peak von Mises " << peak.von_mises << " on element "
       << peak.element;
    return {true, os.str()};
  }
  return {false, "unknown show target '" + tokens[1] + "'"};
}

Response Session::cmd_store(const std::vector<std::string>& tokens) {
  constexpr const char* kUsage =
      "usage: store <name> [if-rev=N] | store results <name> [if-rev=N]";
  const bool results = tokens.size() >= 3 && tokens[1] == "results";
  const std::size_t name_at = results ? 2 : 1;
  if (tokens.size() <= name_at) return {false, kUsage};
  const std::string& name = tokens[name_at];
  std::uint64_t expected = Database::kAnyRevision;
  for (std::size_t i = name_at + 1; i < tokens.size(); ++i) {
    if (!tokens[i].starts_with("if-rev=")) return {false, kUsage};
    const std::string value = tokens[i].substr(7);
    // `head` resolves the revision now, at dispatch — so a retry of this
    // command compares against whatever the racing writer left behind.
    expected = value == "head" ? database_.revision(name) : to_index(value);
  }

  if (txn_) {
    if (results)
      database_.store_results(*txn_, name, workspace_.results(), expected);
    else
      database_.store_model(*txn_, name, workspace_.model(), expected);
    return {true, "store of '" + name + "' buffered in txn " +
                      std::to_string(*txn_)};
  }
  if (results) {
    const auto rev =
        database_.store_results(name, workspace_.results(), expected);
    return {true, "stored results as '" + name + "' rev " +
                      std::to_string(rev)};
  }
  const auto rev = database_.store_model(name, workspace_.model(), expected);
  return {true, "stored model as '" + name + "' rev " + std::to_string(rev)};
}

Response Session::cmd_retrieve(const std::vector<std::string>& tokens) {
  if (tokens.size() < 2 || tokens.size() > 3)
    return {false, "usage: retrieve <name> [rev=N]"};
  const std::string& name = tokens[1];
  if (tokens.size() == 3) {
    if (!tokens[2].starts_with("rev="))
      return {false, "usage: retrieve <name> [rev=N]"};
    const std::uint64_t rev = to_index(tokens[2].substr(4));
    workspace_.set_model(database_.retrieve_model(name, rev));
    return {true, "retrieved model '" + name + "' rev " +
                      std::to_string(rev) + " into the workspace"};
  }
  if (txn_) {
    workspace_.set_model(database_.retrieve_model(*txn_, name));
    return {true, "retrieved model '" + name +
                      "' into the workspace (txn view)"};
  }
  workspace_.set_model(database_.retrieve_model(name));
  return {true, "retrieved model '" + name + "' rev " +
                    std::to_string(database_.revision(name)) +
                    " into the workspace"};
}

Response Session::cmd_list(const std::vector<std::string>&) {
  const auto entries = database_.list();
  if (entries.empty()) return {true, "database is empty"};
  std::ostringstream os;
  for (const auto& e : entries)
    os << e.kind << " '" << e.name << "' rev " << e.revision << " ("
       << e.bytes << " bytes)\n";
  std::string text = os.str();
  text.pop_back();
  return {true, text};
}

Response Session::cmd_query(const std::vector<std::string>& tokens) {
  constexpr const char* kUsage =
      "usage: query [kind=model|results] [prefix=<p>] [min-rev=N] "
      "[max-rev=N] [limit=N]";
  static constexpr std::string_view kKeys[] = {"kind", "prefix", "min-rev",
                                               "max-rev", "limit"};
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const auto eq = tokens[i].find('=');
    if (eq == std::string::npos) return {false, kUsage};
    const std::string key = tokens[i].substr(0, eq);
    if (std::find(std::begin(kKeys), std::end(kKeys), key) == std::end(kKeys))
      return {false, "unknown query option '" + key + "'\n" + kUsage};
  }
  const Options opts(tokens, 1);
  db::QueryFilter filter;
  filter.kind = opts.text("kind");
  filter.name_prefix = opts.text("prefix");
  filter.min_revision = opts.index("min-rev", 0);
  filter.max_revision = opts.index("max-rev", db::kAnyRevision);
  filter.limit = opts.index("limit", 0);
  const db::QueryResult result = database_.query(filter);

  std::ostringstream os;
  for (const auto& row : result.rows)
    os << row.kind << " '" << row.name << "' rev " << row.revision << " ("
       << row.bytes << " bytes)\n";
  os << result.rows.size() << (result.rows.size() == 1 ? " row" : " rows");
  if (result.truncated) os << " (truncated by limit)";
  os << "; plan " << result.plan << ", scanned " << result.scanned;
  return {true, os.str()};
}

Response Session::cmd_remove(const std::vector<std::string>& tokens) {
  constexpr const char* kUsage = "usage: remove <name> [if-rev=N]";
  if (tokens.size() < 2 || tokens.size() > 3) return {false, kUsage};
  const std::string& name = tokens[1];
  std::uint64_t expected = Database::kAnyRevision;
  if (tokens.size() == 3) {
    if (!tokens[2].starts_with("if-rev=")) return {false, kUsage};
    const std::string value = tokens[2].substr(7);
    expected = value == "head" ? database_.revision(name) : to_index(value);
  }
  if (txn_) {
    database_.remove(*txn_, name, expected);
    return {true, "remove of '" + name + "' buffered in txn " +
                      std::to_string(*txn_)};
  }
  if (!database_.remove(name, expected))
    return {false, "database has no entry '" + name + "'"};
  return {true, "removed '" + name + "'"};
}

Response Session::cmd_begin(const std::vector<std::string>& tokens) {
  if (tokens.size() != 1) return {false, "usage: begin"};
  if (txn_)
    return {false, "transaction " + std::to_string(*txn_) +
                       " already open (commit or abort first)"};
  txn_ = database_.begin();
  return {true, "begin txn " + std::to_string(*txn_)};
}

Response Session::cmd_commit(const std::vector<std::string>& tokens) {
  if (tokens.size() != 1) return {false, "usage: commit"};
  if (!txn_) return {false, "no open transaction (begin first)"};
  const std::uint64_t txn = *txn_;
  txn_.reset();  // the engine drops the transaction either way
  try {
    const std::size_t writes = database_.commit(txn);
    return {true, "committed txn " + std::to_string(txn) + " (" +
                      std::to_string(writes) + " writes)"};
  } catch (const db::ConflictError& e) {
    return {false,
            std::string(e.what()) +
                " — transaction dropped; retrieve and retry with if-rev=" +
                std::to_string(e.actual()),
            Response::FailureKind::Conflict};
  }
}

Response Session::cmd_abort(const std::vector<std::string>& tokens) {
  if (tokens.size() != 1) return {false, "usage: abort"};
  if (!txn_) return {false, "no open transaction (begin first)"};
  database_.abort(*txn_);
  const std::uint64_t txn = *txn_;
  txn_.reset();
  return {true, "aborted txn " + std::to_string(txn)};
}

Response Session::cmd_history(const std::vector<std::string>& tokens) {
  if (tokens.size() != 2) return {false, "usage: history <name>"};
  const auto versions = database_.history(tokens[1]);
  if (versions.empty())
    return {false, "database has no history for '" + tokens[1] + "'"};
  std::ostringstream os;
  for (const auto& v : versions) {
    os << "rev " << v.revision << " ";
    if (v.deleted)
      os << "deleted";
    else
      os << v.kind << " (" << v.bytes << " bytes)";
    os << " txn " << v.txn << "\n";
  }
  std::string text = os.str();
  text.pop_back();
  return {true, text};
}

Response Session::cmd_save(const std::vector<std::string>& tokens) {
  if (tokens.size() != 2) return {false, "usage: save <file>"};
  std::ofstream out(tokens[1]);
  if (!out) return {false, "cannot write '" + tokens[1] + "'"};
  out << serialize_model(workspace_.model());
  return {true, "saved model to '" + tokens[1] + "'"};
}

Response Session::cmd_open(const std::vector<std::string>& tokens) {
  if (tokens.size() != 2) return {false, "usage: open <file>"};
  std::ifstream in(tokens[1]);
  if (!in) return {false, "cannot read '" + tokens[1] + "'"};
  std::ostringstream text;
  text << in.rdbuf();
  workspace_.set_model(parse_model(text.str()));
  return {true, "opened model '" + workspace_.model().name + "' from '" +
                    tokens[1] + "'"};
}

std::string Session::help_text() {
  return
      "commands:\n"
      "  new model <name>                     start an empty model\n"
      "  node <x> <y>                         add a node\n"
      "  material <name> [E= nu= A= I= t=]    add a material\n"
      "  element <bar|beam|tri|quad> <nodes...> [mat=i]\n"
      "  fix <node>                           constrain all dofs of a node\n"
      "  constrain <node> <dof> [value]       single-point constraint\n"
      "  load <set> <node> <dof> <value>      add a point load\n"
      "  mesh plate [nx= ny= width= height= load= tri]\n"
      "  mesh beam  [segments= length= load=]\n"
      "  mesh truss [bays= bay-width= height= load=]\n"
      "  solve <loadset> [using <solver>] [tol=...]\n"
      "  modes [count]                        natural frequencies\n"
      "  stresses                             recover element stresses\n"
      "  show model|displacements [node]|peak\n"
      "  store <name> [if-rev=N]              save model to the shared database\n"
      "  store results <name> [if-rev=N]      save results; if-rev=N commits\n"
      "                                       only if the entry is at rev N\n"
      "                                       (optimistic concurrency);\n"
      "                                       if-rev=head re-reads the current\n"
      "                                       revision on each attempt\n"
      "  retrieve <name> [rev=N]              load a model from the database\n"
      "                                       (rev=N reads an old version)\n"
      "  list / remove <name> [if-rev=N]      database operations\n"
      "  query [kind=] [prefix=] [min-rev=] [max-rev=] [limit=]\n"
      "                                       predicate search over stored\n"
      "                                       entries via secondary indexes\n"
      "  history <name>                       version chain of an entry\n"
      "  begin / commit / abort               group stores into one atomic,\n"
      "                                       durable transaction\n"
      "  save <file> / open <file>            model files on disk\n"
      "  help";
}

}  // namespace fem2::appvm
