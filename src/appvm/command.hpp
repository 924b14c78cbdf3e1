// The interactive command language — the application user's VM sequence
// control is "direct interpretation of user commands".  A Session couples a
// private Workspace with the shared Database; multiple sessions over one
// database model the multi-user workstation.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "appvm/database.hpp"
#include "appvm/workspace.hpp"
#include "db/retry.hpp"

namespace fem2::appvm {

struct Response {
  /// Why a command failed, for retry classification: conflicts, transient
  /// I/O and server pushback (a tenant over quota, a full server queue)
  /// are worth re-running after a backoff; degraded means the store needs
  /// recovery first; everything else is the user's problem.
  enum class FailureKind {
    None,
    Conflict,
    TransientIo,
    Degraded,
    QuotaExceeded,  ///< tenant admission control said no (serve layer)
    Overloaded,     ///< server request queue is full (serve layer)
    Other,
  };

  /// The retry contract, shared by Session::execute_with_retry and the
  /// serve layer's call_with_retry.
  static bool retryable(FailureKind kind) {
    return kind == FailureKind::Conflict || kind == FailureKind::TransientIo ||
           kind == FailureKind::QuotaExceeded ||
           kind == FailureKind::Overloaded;
  }

  bool ok = true;
  std::string text;
  FailureKind kind = FailureKind::None;
};

class Session {
 public:
  /// `tenant` scopes the session for the serve layer's admission control
  /// and accounting; empty means untenanted (a local console).
  explicit Session(Database& database, std::string user = "engineer",
                   std::string tenant = "");
  /// Abandons (aborts) any transaction still open.
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Interpret one command line.  Errors come back as ok=false responses,
  /// never exceptions — an interactive console must survive typos.
  Response execute(const std::string& line);

  /// Like execute(), but re-runs the command under the session's
  /// RetryPolicy while it fails with a conflict or transient I/O error.
  /// Pair with `if-rev=head`, which re-resolves the current revision on
  /// every attempt, for a safe compare-and-swap loop.
  Response execute_with_retry(const std::string& line);

  void set_retry_policy(db::RetryPolicy policy) { retry_policy_ = policy; }
  const db::RetryPolicy& retry_policy() const { return retry_policy_; }
  /// Injectable wait for retry backoff (tests record instead of sleeping).
  void set_sleeper(db::Sleeper sleeper) { sleeper_ = std::move(sleeper); }

  /// Run a newline-separated script; stops at the first failure unless
  /// `keep_going`.
  std::vector<Response> execute_script(const std::string& script,
                                       bool keep_going = false);

  Workspace& workspace() { return workspace_; }
  const Workspace& workspace() const { return workspace_; }
  Database& database() { return database_; }
  const std::string& user() const { return user_; }
  const std::string& tenant() const { return tenant_; }

  /// Open transaction id, when `begin` has run and not yet committed.
  std::optional<std::uint64_t> transaction() const { return txn_; }

  /// Command language reference (the `help` command's output).
  static std::string help_text();

  /// Most nodes one `mesh` command may generate, in console and served
  /// sessions alike.  The count is checked before anything is built, so a
  /// size such as `mesh plate nx=100000 ny=100000` fails at once and
  /// leaves the workspace model as it was.  E1's largest sheet, 96x24,
  /// has 2,425 nodes.
  static constexpr std::size_t kMaxMeshNodes = 2'500;

 private:
  Response dispatch(const std::vector<std::string>& tokens);

  Response cmd_new(const std::vector<std::string>& tokens);
  Response cmd_node(const std::vector<std::string>& tokens);
  Response cmd_material(const std::vector<std::string>& tokens);
  Response cmd_element(const std::vector<std::string>& tokens);
  Response cmd_fix(const std::vector<std::string>& tokens);
  Response cmd_constrain(const std::vector<std::string>& tokens);
  Response cmd_load(const std::vector<std::string>& tokens);
  Response cmd_mesh(const std::vector<std::string>& tokens);
  Response cmd_solve(const std::vector<std::string>& tokens);
  Response cmd_modes(const std::vector<std::string>& tokens);
  Response cmd_stresses(const std::vector<std::string>& tokens);
  Response cmd_show(const std::vector<std::string>& tokens);
  Response cmd_store(const std::vector<std::string>& tokens);
  Response cmd_retrieve(const std::vector<std::string>& tokens);
  Response cmd_list(const std::vector<std::string>& tokens);
  Response cmd_query(const std::vector<std::string>& tokens);
  Response cmd_remove(const std::vector<std::string>& tokens);
  Response cmd_begin(const std::vector<std::string>& tokens);
  Response cmd_commit(const std::vector<std::string>& tokens);
  Response cmd_abort(const std::vector<std::string>& tokens);
  Response cmd_history(const std::vector<std::string>& tokens);
  Response cmd_save(const std::vector<std::string>& tokens);
  Response cmd_open(const std::vector<std::string>& tokens);

  Database& database_;
  Workspace workspace_;
  std::string user_;
  std::string tenant_;
  std::optional<std::uint64_t> txn_;
  db::RetryPolicy retry_policy_;
  db::Sleeper sleeper_ = db::sleep_for;
};

}  // namespace fem2::appvm
