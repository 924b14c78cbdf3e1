#include "spec/reflect.hpp"

#include "fem/analysis.hpp"
#include "hgraph/grammar.hpp"

namespace fem2::spec {

namespace {

using hgraph::HGraph;
using hgraph::NodeId;
using hgraph::family_label;

NodeId int_node(HGraph& g, std::int64_t v) { return g.add_int(v); }
NodeId real_node(HGraph& g, double v) { return g.add_real(v); }
NodeId str_node(HGraph& g, std::string_view v) {
  return g.add_string(std::string(v));
}

}  // namespace

// ---------------------------------------------------------------------------
// Layer 1

hgraph::NodeId reflect_model(HGraph& g, const fem::StructureModel& model) {
  const NodeId root = g.add_node();
  g.add_arc(root, "name", str_node(g, model.name));

  for (std::size_t i = 0; i < model.nodes.size(); ++i) {
    const NodeId p = g.add_node();
    g.add_arc(p, "x", real_node(g, model.nodes[i].x));
    g.add_arc(p, "y", real_node(g, model.nodes[i].y));
    g.add_arc(root, family_label("node", i), p);
  }
  for (std::size_t i = 0; i < model.materials.size(); ++i) {
    const auto& m = model.materials[i];
    const NodeId n = g.add_node();
    g.add_arc(n, "name", str_node(g, m.name));
    g.add_arc(n, "E", real_node(g, m.youngs_modulus));
    g.add_arc(n, "nu", real_node(g, m.poisson_ratio));
    g.add_arc(n, "A", real_node(g, m.area));
    g.add_arc(n, "I", real_node(g, m.moment_of_inertia));
    g.add_arc(n, "t", real_node(g, m.thickness));
    g.add_arc(n, "rho", real_node(g, m.density));
    g.add_arc(root, family_label("material", i), n);
  }
  for (std::size_t i = 0; i < model.elements.size(); ++i) {
    const auto& e = model.elements[i];
    const NodeId n = g.add_node();
    g.add_arc(n, "kind", str_node(g, fem::element_type_name(e.type)));
    g.add_arc(n, "mat", int_node(g, static_cast<std::int64_t>(e.material)));
    for (std::size_t k = 0; k < e.node_count(); ++k)
      g.add_arc(n, family_label("node", k),
                int_node(g, static_cast<std::int64_t>(e.nodes[k])));
    g.add_arc(root, family_label("element", i), n);
  }
  for (std::size_t i = 0; i < model.constraints.size(); ++i) {
    const auto& c = model.constraints[i];
    const NodeId n = g.add_node();
    g.add_arc(n, "node", int_node(g, static_cast<std::int64_t>(c.node)));
    g.add_arc(n, "dof", int_node(g, static_cast<std::int64_t>(c.dof)));
    g.add_arc(n, "value", real_node(g, c.value));
    g.add_arc(root, family_label("constraint", i), n);
  }
  std::size_t set_index = 0;
  for (const auto& [set_name, set] : model.load_sets) {
    const NodeId n = g.add_node();
    g.add_arc(n, "name", str_node(g, set_name));
    for (std::size_t k = 0; k < set.loads.size(); ++k) {
      const auto& load = set.loads[k];
      const NodeId ln = g.add_node();
      g.add_arc(ln, "node", int_node(g, static_cast<std::int64_t>(load.node)));
      g.add_arc(ln, "dof", int_node(g, static_cast<std::int64_t>(load.dof)));
      g.add_arc(ln, "value", real_node(g, load.value));
      g.add_arc(n, family_label("pointload", k), ln);
    }
    g.add_arc(root, family_label("loadset", set_index++), n);
  }
  return root;
}

hgraph::NodeId reflect_displacements(HGraph& g, const fem::Displacements& u) {
  const NodeId root = g.add_node();
  g.add_arc(root, "dofs_per_node",
            int_node(g, static_cast<std::int64_t>(u.dofs_per_node)));
  for (std::size_t i = 0; i < u.values.size(); ++i)
    g.add_arc(root, family_label("u", i), real_node(g, u.values[i]));
  return root;
}

hgraph::NodeId reflect_results(HGraph& g, const fem::AnalysisResult& results) {
  const NodeId root = g.add_node();
  g.add_arc(root, "displacements",
            reflect_displacements(g, results.solution.displacements));
  const NodeId stresses = g.add_node();
  for (std::size_t i = 0; i < results.stresses.size(); ++i) {
    const auto& s = results.stresses[i];
    const NodeId n = g.add_node();
    g.add_arc(n, "element", int_node(g, static_cast<std::int64_t>(s.element)));
    g.add_arc(n, "sxx", real_node(g, s.sigma_xx));
    g.add_arc(n, "syy", real_node(g, s.sigma_yy));
    g.add_arc(n, "txy", real_node(g, s.tau_xy));
    g.add_arc(n, "vm", real_node(g, s.von_mises));
    g.add_arc(stresses, family_label("stress", i), n);
  }
  g.add_arc(root, "stresses", stresses);
  return root;
}

hgraph::NodeId reflect_workspace(HGraph& g, const appvm::Session& session) {
  const NodeId root = g.add_node();
  g.add_arc(root, "user", str_node(g, session.user()));
  if (!session.tenant().empty())
    g.add_arc(root, "tenant", str_node(g, session.tenant()));
  if (session.workspace().has_model())
    g.add_arc(root, "model", reflect_model(g, session.workspace().model()));
  if (session.workspace().has_results())
    g.add_arc(root, "results",
              reflect_results(g, session.workspace().results()));
  return root;
}

hgraph::NodeId reflect_database(HGraph& g, const appvm::Database& database) {
  const NodeId root = g.add_node();
  const auto entries = database.list();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const NodeId n = g.add_node();
    g.add_arc(n, "name", str_node(g, entries[i].name));
    g.add_arc(n, "kind", str_node(g, entries[i].kind));
    g.add_arc(n, "bytes",
              int_node(g, static_cast<std::int64_t>(entries[i].bytes)));
    g.add_arc(n, "revision",
              int_node(g, static_cast<std::int64_t>(entries[i].revision)));
    g.add_arc(root, family_label("entry", i), n);
  }
  return root;
}

hgraph::NodeId reflect_query_result(HGraph& g, const db::QueryFilter& filter,
                                    const db::QueryResult& result) {
  const NodeId root = g.add_node();

  const NodeId f = g.add_node();
  g.add_arc(f, "kind", str_node(g, filter.kind));
  g.add_arc(f, "prefix", str_node(g, filter.name_prefix));
  g.add_arc(f, "min_revision",
            int_node(g, static_cast<std::int64_t>(filter.min_revision)));
  g.add_arc(f, "max_revision",
            int_node(g, filter.max_revision == db::kAnyRevision
                            ? -1
                            : static_cast<std::int64_t>(filter.max_revision)));
  g.add_arc(f, "limit", int_node(g, static_cast<std::int64_t>(filter.limit)));
  g.add_arc(root, "filter", f);

  for (std::size_t i = 0; i < result.rows.size(); ++i) {
    const auto& row = result.rows[i];
    const NodeId n = g.add_node();
    g.add_arc(n, "name", str_node(g, row.name));
    g.add_arc(n, "kind", str_node(g, row.kind));
    g.add_arc(n, "bytes", int_node(g, static_cast<std::int64_t>(row.bytes)));
    g.add_arc(n, "revision",
              int_node(g, static_cast<std::int64_t>(row.revision)));
    g.add_arc(root, family_label("row", i), n);
  }
  g.add_arc(root, "scanned",
            int_node(g, static_cast<std::int64_t>(result.scanned)));
  g.add_arc(root, "truncated", int_node(g, result.truncated ? 1 : 0));
  g.add_arc(root, "plan", str_node(g, result.plan));
  return root;
}

// ---------------------------------------------------------------------------
// Layer 1b: the database engine (fem2-db)

hgraph::NodeId reflect_db_engine(HGraph& g, const db::Engine& engine) {
  const db::EngineState state = engine.state();
  const NodeId root = g.add_node();
  g.add_arc(root, "mode", str_node(g, state.mode));

  const NodeId wal = g.add_node();
  g.add_arc(wal, "records",
            int_node(g, static_cast<std::int64_t>(state.stats.wal_records)));
  g.add_arc(wal, "bytes",
            int_node(g, static_cast<std::int64_t>(state.stats.wal_bytes)));
  g.add_arc(root, "wal", wal);

  const NodeId stats = g.add_node();
  g.add_arc(stats, "commits",
            int_node(g, static_cast<std::int64_t>(state.stats.commits)));
  g.add_arc(stats, "aborts",
            int_node(g, static_cast<std::int64_t>(state.stats.aborts)));
  g.add_arc(stats, "conflicts",
            int_node(g, static_cast<std::int64_t>(state.stats.conflicts)));
  g.add_arc(stats, "checkpoints",
            int_node(g, static_cast<std::int64_t>(state.stats.checkpoints)));
  g.add_arc(stats, "recovered",
            int_node(g,
                     static_cast<std::int64_t>(state.stats.recovered_txns)));
  g.add_arc(root, "stats", stats);

  if (state.index_kinds > 0 || state.index_entries > 0) {
    const NodeId idx = g.add_node();
    g.add_arc(idx, "kinds",
              int_node(g, static_cast<std::int64_t>(state.index_kinds)));
    g.add_arc(idx, "entries",
              int_node(g, static_cast<std::int64_t>(state.index_entries)));
    g.add_arc(root, "index", idx);
  }

  const auto& options = engine.options();
  if (options.group_commit_window.count() > 0) {
    const NodeId gc = g.add_node();
    g.add_arc(gc, "window_us",
              int_node(g, static_cast<std::int64_t>(
                              options.group_commit_window.count())));
    g.add_arc(gc, "max_batch",
              int_node(g, static_cast<std::int64_t>(
                              options.group_commit_max_batch)));
    g.add_arc(gc, "batches",
              int_node(g,
                       static_cast<std::int64_t>(state.stats.group_batches)));
    g.add_arc(gc, "batched",
              int_node(g, static_cast<std::int64_t>(
                              state.stats.group_batched_txns)));
    g.add_arc(gc, "max_seen",
              int_node(g,
                       static_cast<std::int64_t>(state.stats.group_max_batch)));
    g.add_arc(gc, "pending",
              int_node(g, static_cast<std::int64_t>(state.pending_heads)));
    g.add_arc(root, "groupcommit", gc);
  }

  for (std::size_t i = 0; i < state.chains.size(); ++i) {
    const auto& chain = state.chains[i];
    const NodeId cn = g.add_node();
    g.add_arc(cn, "name", str_node(g, chain.name));
    for (std::size_t k = 0; k < chain.versions.size(); ++k) {
      const auto& v = chain.versions[k];
      const NodeId vn = g.add_node();
      g.add_arc(vn, "revision",
                int_node(g, static_cast<std::int64_t>(v.revision)));
      g.add_arc(vn, "kind", str_node(g, v.kind));
      g.add_arc(vn, "bytes", int_node(g, static_cast<std::int64_t>(v.bytes)));
      g.add_arc(vn, "txn", int_node(g, static_cast<std::int64_t>(v.txn)));
      g.add_arc(vn, "deleted", int_node(g, v.deleted ? 1 : 0));
      g.add_arc(cn, family_label("version", k), vn);
    }
    g.add_arc(root, family_label("chain", i), cn);
  }
  for (std::size_t i = 0; i < state.transactions.size(); ++i) {
    const auto& txn = state.transactions[i];
    const NodeId tn = g.add_node();
    g.add_arc(tn, "id", int_node(g, static_cast<std::int64_t>(txn.id)));
    g.add_arc(tn, "writes",
              int_node(g, static_cast<std::int64_t>(txn.writes)));
    g.add_arc(root, family_label("txn", i), tn);
  }
  return root;
}

// ---------------------------------------------------------------------------
// Layer 2

hgraph::NodeId reflect_window(HGraph& g, const navm::Window& window) {
  const NodeId n = g.add_node();
  g.add_arc(n, "array", int_node(g, static_cast<std::int64_t>(window.array)));
  g.add_arc(n, "row0", int_node(g, static_cast<std::int64_t>(window.row0)));
  g.add_arc(n, "col0", int_node(g, static_cast<std::int64_t>(window.col0)));
  g.add_arc(n, "rows", int_node(g, static_cast<std::int64_t>(window.rows)));
  g.add_arc(n, "cols", int_node(g, static_cast<std::int64_t>(window.cols)));
  return n;
}

hgraph::NodeId reflect_task_system(HGraph& g, const sysvm::Os& os,
                                   const navm::Runtime& runtime) {
  const NodeId root = g.add_node();
  const auto ids = os.task_ids();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto info = os.task_info(ids[i]);
    const NodeId n = g.add_node();
    g.add_arc(n, "id", int_node(g, static_cast<std::int64_t>(info.id)));
    g.add_arc(n, "type", str_node(g, info.type));
    g.add_arc(n, "parent",
              int_node(g, static_cast<std::int64_t>(info.parent)));
    g.add_arc(n, "cluster",
              int_node(g, static_cast<std::int64_t>(info.cluster.index)));
    g.add_arc(n, "state", str_node(g, sysvm::task_state_name(info.state)));
    g.add_arc(n, "replication",
              int_node(g, static_cast<std::int64_t>(info.replication_index)));
    g.add_arc(n, "of",
              int_node(g, static_cast<std::int64_t>(info.replication_count)));
    g.add_arc(root, family_label("task", i), n);
  }
  const auto arrays = runtime.array_ids();
  for (std::size_t i = 0; i < arrays.size(); ++i) {
    const auto& info = runtime.array_info_unchecked(arrays[i]);
    const NodeId n = g.add_node();
    g.add_arc(n, "id", int_node(g, static_cast<std::int64_t>(info.id)));
    g.add_arc(n, "owner", int_node(g, static_cast<std::int64_t>(info.owner)));
    g.add_arc(n, "cluster",
              int_node(g, static_cast<std::int64_t>(info.cluster.index)));
    g.add_arc(n, "rows", int_node(g, static_cast<std::int64_t>(info.rows)));
    g.add_arc(n, "cols", int_node(g, static_cast<std::int64_t>(info.cols)));
    g.add_arc(root, family_label("array", i), n);
  }
  return root;
}

// ---------------------------------------------------------------------------
// Layer 3

hgraph::NodeId reflect_message(HGraph& g, const sysvm::Message& m) {
  const NodeId n = g.add_node(hgraph::Atom{std::string(
      sysvm::message_type_name(sysvm::message_type(m)))});
  const auto bytes = static_cast<std::int64_t>(sysvm::message_bytes(m));

  struct Visitor {
    HGraph& g;
    NodeId n;
    std::int64_t bytes;
    void operator()(const sysvm::MsgInitiate& v) const {
      g.add_arc(n, "type", g.add_string(v.task_type));
      g.add_arc(n, "task", g.add_int(static_cast<std::int64_t>(v.task)));
      g.add_arc(n, "parent", g.add_int(static_cast<std::int64_t>(v.parent)));
      g.add_arc(n, "index",
                g.add_int(static_cast<std::int64_t>(v.replication_index)));
      g.add_arc(n, "of",
                g.add_int(static_cast<std::int64_t>(v.replication_count)));
      g.add_arc(n, "bytes", g.add_int(bytes));
    }
    void operator()(const sysvm::MsgPauseNotify& v) const {
      g.add_arc(n, "child", g.add_int(static_cast<std::int64_t>(v.child)));
      g.add_arc(n, "parent", g.add_int(static_cast<std::int64_t>(v.parent)));
    }
    void operator()(const sysvm::MsgResumeChild& v) const {
      g.add_arc(n, "child", g.add_int(static_cast<std::int64_t>(v.child)));
      g.add_arc(n, "bytes", g.add_int(bytes));
    }
    void operator()(const sysvm::MsgTerminateNotify& v) const {
      g.add_arc(n, "child", g.add_int(static_cast<std::int64_t>(v.child)));
      g.add_arc(n, "parent", g.add_int(static_cast<std::int64_t>(v.parent)));
      g.add_arc(n, "bytes", g.add_int(bytes));
    }
    void operator()(const sysvm::MsgRemoteCall& v) const {
      g.add_arc(n, "procedure", g.add_string(v.procedure));
      g.add_arc(n, "caller", g.add_int(static_cast<std::int64_t>(v.caller)));
      g.add_arc(n, "token", g.add_int(static_cast<std::int64_t>(v.token)));
      g.add_arc(n, "bytes", g.add_int(bytes));
    }
    void operator()(const sysvm::MsgRemoteReturn& v) const {
      g.add_arc(n, "caller", g.add_int(static_cast<std::int64_t>(v.caller)));
      g.add_arc(n, "token", g.add_int(static_cast<std::int64_t>(v.token)));
      g.add_arc(n, "bytes", g.add_int(bytes));
    }
    void operator()(const sysvm::MsgLoadCode& v) const {
      g.add_arc(n, "type", g.add_string(v.task_type));
      g.add_arc(n, "bytes", g.add_int(bytes));
    }
  };
  std::visit(Visitor{g, n, bytes}, m);
  return n;
}

hgraph::NodeId reflect_kernel(HGraph& g, sysvm::Os& os,
                              hw::ClusterId cluster) {
  const NodeId root = g.add_node();
  g.add_arc(root, "cluster",
            int_node(g, static_cast<std::int64_t>(cluster.index)));

  const NodeId rq = g.add_node();
  g.add_arc(rq, "depth",
            int_node(g, static_cast<std::int64_t>(os.ready_depth(cluster))));
  g.add_arc(root, "readyqueue", rq);

  const auto& heap = os.heap(cluster);
  const auto& stats = heap.stats();
  const NodeId h = g.add_node();
  g.add_arc(h, "capacity",
            int_node(g, static_cast<std::int64_t>(heap.capacity())));
  g.add_arc(h, "in_use", int_node(g, static_cast<std::int64_t>(stats.in_use)));
  g.add_arc(h, "high_water",
            int_node(g, static_cast<std::int64_t>(stats.high_water)));
  g.add_arc(h, "live_blocks",
            int_node(g, static_cast<std::int64_t>(heap.live_blocks())));
  g.add_arc(h, "free_blocks",
            int_node(g, static_cast<std::int64_t>(heap.free_list_length())));
  g.add_arc(root, "heap", h);
  return root;
}

// ---------------------------------------------------------------------------
// Layer 4

hgraph::NodeId reflect_machine(HGraph& g, const hw::Machine& machine) {
  const auto& config = machine.config();
  const NodeId root = g.add_node();
  g.add_arc(root, "clusters",
            int_node(g, static_cast<std::int64_t>(config.clusters)));
  g.add_arc(root, "pes_per_cluster",
            int_node(g, static_cast<std::int64_t>(config.pes_per_cluster)));
  g.add_arc(root, "now",
            int_node(g, static_cast<std::int64_t>(machine.now())));

  const auto& metrics = machine.metrics();
  const NodeId net = g.add_node();
  g.add_arc(net, "messages",
            int_node(g, static_cast<std::int64_t>(metrics.network.messages)));
  g.add_arc(net, "bytes",
            int_node(g, static_cast<std::int64_t>(metrics.network.bytes)));
  g.add_arc(net, "local_messages",
            int_node(g,
                     static_cast<std::int64_t>(metrics.network.local_messages)));
  g.add_arc(root, "network", net);

  for (std::size_t c = 0; c < config.clusters; ++c) {
    const hw::ClusterId cluster{static_cast<std::uint32_t>(c)};
    const NodeId cn = g.add_node();
    g.add_arc(cn, "index", int_node(g, static_cast<std::int64_t>(c)));
    const hw::PeId kernel = machine.kernel_pe(cluster);
    g.add_arc(cn, "kernel_pe",
              int_node(g, kernel.valid()
                              ? static_cast<std::int64_t>(kernel.index)
                              : -1));
    g.add_arc(cn, "queue_depth",
              int_node(g,
                       static_cast<std::int64_t>(machine.queue_depth(cluster))));

    const NodeId mem = g.add_node();
    g.add_arc(mem, "capacity",
              int_node(g,
                       static_cast<std::int64_t>(machine.memory_capacity())));
    g.add_arc(mem, "in_use",
              int_node(g, static_cast<std::int64_t>(
                              machine.memory_in_use(cluster))));
    g.add_arc(cn, "memory", mem);

    for (std::size_t p = 0; p < config.pes_per_cluster; ++p) {
      const hw::PeId pe{cluster, static_cast<std::uint32_t>(p)};
      const NodeId pn = g.add_node();
      g.add_arc(pn, "index", int_node(g, static_cast<std::int64_t>(p)));
      const char* state = !machine.pe_alive(pe)  ? "failed"
                          : machine.pe_busy(pe)  ? "busy"
                                                 : "idle";
      g.add_arc(pn, "state", str_node(g, state));
      const auto flat = c * config.pes_per_cluster + p;
      g.add_arc(pn, "busy_cycles",
                int_node(g, static_cast<std::int64_t>(
                                metrics.pes[flat].busy_cycles)));
      g.add_arc(cn, family_label("pe", p), pn);
    }
    g.add_arc(root, family_label("cluster", c), cn);
  }
  return root;
}

}  // namespace fem2::spec
