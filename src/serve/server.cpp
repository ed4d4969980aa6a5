#include "serve/server.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/check.h"
#include "common/proc.h"
#include "defense/victim_trainer.h"
#include "env/registry.h"
#include "nn/batch.h"
#include "scenario/spec.h"

namespace imap::serve {

namespace {

/// Whitespace-separated doubles -> row. False on any non-numeric token.
/// std::from_chars, not strtod: several times faster on the hot /infer
/// parse (no locale machinery) with the same correctly-rounded result for
/// every token this server ever emits.
bool parse_row(const std::string& line, std::vector<double>& row) {
  row.clear();
  const char* p = line.data();
  const char* const last = p + line.size();
  for (;;) {
    while (p != last && (*p == ' ' || *p == '\t' || *p == '\r')) ++p;
    if (p == last) break;
    double v = 0.0;
    const auto res = std::from_chars(p, last, v);
    if (res.ec != std::errc{}) return false;
    row.push_back(v);
    p = res.ptr;
  }
  return true;
}

/// Append one action row as shortest-round-trip columns (std::to_chars):
/// the text parses back to the exact double, which is what makes an HTTP
/// response comparable bit-for-bit against a direct PolicyHandle::query —
/// at a fraction of the snprintf("%.17g") cost that used to dominate the
/// per-request overhead the coalescer cannot amortize.
void append_row(std::string& out, const double* a, std::size_t n) {
  char num[32];
  for (std::size_t i = 0; i < n; ++i) {
    const auto res = std::to_chars(num, num + sizeof num, a[i]);
    if (i > 0) out += ' ';
    out.append(num, static_cast<std::size_t>(res.ptr - num));
  }
  out += '\n';
}

bool attack_from_string(const std::string& s, core::AttackKind& out) {
  static const core::AttackKind kinds[] = {
      core::AttackKind::None,   core::AttackKind::Random,
      core::AttackKind::SaRl,   core::AttackKind::ApMarl,
      core::AttackKind::ImapSC, core::AttackKind::ImapPC,
      core::AttackKind::ImapR,  core::AttackKind::ImapD,
  };
  for (const auto kind : kinds) {
    if (core::to_string(kind) == s) {
      out = kind;
      return true;
    }
  }
  return false;
}

std::string json_error(const std::string& what) {
  return "{\"error\":\"" + json_escape(what) + "\"}";
}

}  // namespace

Server::Server(ServeOptions opts)
    : opts_(opts),
      zoo_(opts.bench.zoo_dir, opts.bench.scale, opts.bench.seed,
           opts.bench.snapshot_every),
      cache_(zoo_, opts.cache, &metrics_),
      coalescer_(opts.coalesce, &metrics_),
      jobs_(opts.bench, opts.job_runners, &metrics_) {
  IMAP_CHECK_MSG(opts_.threads >= 1, "server needs at least one worker");
}

Server::~Server() { stop(); }

void Server::start() {
  IMAP_CHECK_MSG(!started_, "server already started");
  listen_fd_ = listen_on(opts_.port);
  port_ = bound_port(listen_fd_);

  int pipe_fds[2];
  IMAP_CHECK_MSG(::pipe(pipe_fds) == 0,
                 "pipe() failed: " << std::strerror(errno));
  wake_r_ = pipe_fds[0];
  wake_w_ = pipe_fds[1];
  const int flags = ::fcntl(wake_r_, F_GETFL, 0);
  ::fcntl(wake_r_, F_SETFL, flags | O_NONBLOCK);

  // threads handler workers + one permanently occupied by the poll loop;
  // ThreadPool(N) spawns N-1 workers.
  pool_ = std::make_unique<ThreadPool>(
      static_cast<std::size_t>(opts_.threads) + 2);
  started_ = true;
  pool_->submit([this] { loop(); });
}

void Server::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  stop_.store(true);
  wake_loop();
  {
    std::unique_lock<std::mutex> lk(done_m_);
    done_cv_.wait(lk, [&] { return loop_exited_; });
  }
  // In-flight handlers finish inside the pool teardown; fds stay open until
  // every task that might write to one is gone.
  pool_.reset();
  jobs_.drain();
  for (const auto& [fd, conn] : conns_) ::close(fd);
  conns_.clear();
  ::close(listen_fd_);
  ::close(wake_r_);
  ::close(wake_w_);
  listen_fd_ = wake_r_ = wake_w_ = -1;
}

void Server::wake_loop() {
  if (wake_w_ >= 0) {
    const ssize_t rc = ::write(wake_w_, "x", 1);
    (void)rc;  // pipe full means a wake-up is already pending
  }
}

void Server::loop() {
  std::vector<int> fds;
  std::vector<std::pair<int, bool>> done;
  while (!stop_.load(std::memory_order_relaxed)) {
    fds.clear();
    fds.push_back(listen_fd_);
    fds.push_back(wake_r_);
    for (const auto& [fd, conn] : conns_)
      if (!conn.busy) fds.push_back(fd);
    const auto ready = proc::poll_readable(fds, 200);
    if (stop_.load(std::memory_order_relaxed)) break;

    for (const std::size_t idx : ready) {
      const int fd = fds[idx];
      if (fd == listen_fd_) {
        for (;;) {
          const int conn_fd = accept_connection(listen_fd_);
          if (conn_fd < 0) break;
          conns_.emplace(conn_fd, Conn{});
          metrics_.connections_opened.inc();
        }
      } else if (fd == wake_r_) {
        char drain[64];
        while (::read(wake_r_, drain, 64) > 0) {
        }
      } else {
        const auto it = conns_.find(fd);
        if (it == conns_.end()) continue;  // closed earlier this round
        if (!recv_available(fd, it->second.buf)) {
          ::close(fd);
          conns_.erase(it);
          metrics_.connections_closed.inc();
        }
      }
    }

    // Handlers report (fd, delivered) when their response is out.
    done.clear();
    {
      std::lock_guard<std::mutex> lk(comp_m_);
      done.swap(completed_);
    }
    for (const auto& [fd, delivered] : done) {
      const auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      it->second.busy = false;
      if (!delivered) {  // torn request: client died mid-response
        ::close(fd);
        conns_.erase(it);
        metrics_.connections_closed.inc();
      }
    }

    // Dispatch buffered requests on idle connections (covers both fresh
    // bytes and pipelined requests parked behind a finished one).
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (!it->second.busy && !pump_conn(it->first, it->second)) {
        ::close(it->first);
        it = conns_.erase(it);
        metrics_.connections_closed.inc();
      } else {
        ++it;
      }
    }
  }
  {
    std::lock_guard<std::mutex> lk(done_m_);
    loop_exited_ = true;
  }
  done_cv_.notify_all();
}

bool Server::pump_conn(int fd, Conn& conn) {
  if (conn.buf.empty()) return true;
  HttpRequest req;
  switch (parse_request(conn.buf, req)) {
    case ParseStatus::Incomplete:
      return true;
    case ParseStatus::Bad:
      metrics_.requests_total.inc();
      metrics_.bad_requests.inc();
      send_all(fd, format_response(400, "application/json",
                                   json_error("malformed request")));
      return false;
    case ParseStatus::Ok:
      break;
  }
  conn.busy = true;
  // Admitted here, not in the handler, so a batch leader already waiting
  // knows this request is on its way. Shared because ThreadPool tasks must
  // be copyable; a task dropped unrun still ends the admission.
  auto admission = std::make_shared<Coalescer::Admission>(
      req.path == "/infer" ? coalescer_.admit() : Coalescer::Admission{});
  pool_->submit([this, fd, r = std::move(req), admission]() mutable {
    handle_request(fd, std::move(r), std::move(*admission));
  });
  return true;
}

void Server::handle_request(int fd, HttpRequest req,
                            Coalescer::Admission admission) {
  // Wall clock feeds only the /metrics latency histogram — serving
  // telemetry, never simulation state, so seed-reproducibility is intact.
  const auto t0 = std::chrono::steady_clock::now();  // imap-check: allow(nondet-source)
  metrics_.requests_total.inc();
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  try {
    body = dispatch(req, status, content_type, std::move(admission));
  } catch (const CheckError& e) {
    status = 400;
    content_type = "application/json";
    body = json_error(e.what());
  } catch (const std::exception& e) {
    status = 500;
    content_type = "application/json";
    body = json_error(e.what());
  }
  if (status >= 400 && status < 500) metrics_.bad_requests.inc();
  const bool delivered =
      send_all(fd, format_response(status, content_type, body));
  if (!delivered) metrics_.write_errors.inc();
  if (req.path == "/infer") {
    const auto t1 = std::chrono::steady_clock::now();  // imap-check: allow(nondet-source)
    const auto us =
        std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
            .count();
    metrics_.infer_latency_us.record(static_cast<std::uint64_t>(us));
  }
  {
    std::lock_guard<std::mutex> lk(comp_m_);
    completed_.emplace_back(fd, delivered);
  }
  wake_loop();
}

std::string Server::dispatch(const HttpRequest& req, int& status,
                             std::string& content_type,
                             Coalescer::Admission admission) {
  if (req.path == "/health") {
    std::string body = "{\"status\":\"ok\",\"models\":";
    body += std::to_string(cache_.size());
    body += ",\"jobs\":";
    body += std::to_string(jobs_.total());
    body += "}";
    return body;
  }
  if (req.path == "/metrics") {
    content_type = "text/plain; version=0.0.4";
    return metrics_.render();
  }
  if (req.path == "/infer") {
    if (req.method != "POST") {
      status = 405;
      return json_error("POST only");
    }
    content_type = "text/plain";
    return route_infer(req, status, std::move(admission));
  }
  if (req.path == "/attack/train") {
    if (req.method != "POST") {
      status = 405;
      return json_error("POST only");
    }
    return route_attack_train(req, status);
  }
  if (req.path == "/attack/status") return route_attack_status(req, status);
  if (req.path == "/models") return cache_.render_json();
  if (req.path == "/models/invalidate") {
    if (req.method != "POST") {
      status = 405;
      return json_error("POST only");
    }
    const std::string env = req.param("env");
    if (env.empty())
      cache_.invalidate_all();
    else
      cache_.invalidate(env, req.param("defense", "PPO"));
    return "{\"invalidated\":true}";
  }
  status = 404;
  return json_error("no such route");
}

std::string Server::route_infer(const HttpRequest& req, int& status,
                                Coalescer::Admission admission) {
  metrics_.infer_requests.inc();
  // `scenario` names a full threat-model scenario string; `env` is the
  // historical spelling (and any env name IS a trivial scenario), so the two
  // share one lookup path and one residency key space.
  const std::string env =
      req.param("scenario").empty() ? req.param("env") : req.param("scenario");
  if (env.empty()) {
    status = 400;
    return json_error("missing env parameter");
  }
  const auto model = cache_.get(env, req.param("defense", "PPO"));

  // Body: one observation per line.
  std::vector<std::vector<double>> rows;
  std::vector<double> row;
  std::string line;  // hoisted: reuses capacity across body lines
  std::size_t pos = 0;
  const std::string& body = req.body;
  while (pos <= body.size()) {
    std::size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) eol = body.size();
    line.assign(body, pos, eol - pos);
    pos = eol + 1;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    if (!parse_row(line, row)) {
      status = 400;
      return json_error("non-numeric observation");
    }
    if (row.size() != model->handle.obs_dim()) {
      status = 400;
      return json_error("observation width mismatch");
    }
    rows.push_back(row);
  }
  if (rows.empty()) {
    status = 400;
    return json_error("empty body");
  }
  metrics_.infer_rows.inc(rows.size());

  std::string out;
  const std::size_t act = model->handle.act_dim();
  if (rows.size() == 1) {
    // Single row: ride the cross-connection coalescer.
    const std::vector<double> action =
        coalescer_.infer(model, rows[0], std::move(admission));
    append_row(out, action.data(), act);
    return out;
  }
  // A multi-row body is already a batch — straight to the kernel, and no
  // leader should wait for it.
  admission.release();
  thread_local nn::Mlp::Workspace ws;
  thread_local nn::Batch in;
  in.resize(rows.size(), model->handle.obs_dim());
  for (std::size_t i = 0; i < rows.size(); ++i) in.set_row(i, rows[i]);
  const nn::Batch& actions = model->handle.query_batch(in, ws);
  metrics_.coalesced_batches.inc();
  metrics_.batch_size.record(rows.size());
  out.reserve(rows.size() * act * 20);
  for (std::size_t i = 0; i < rows.size(); ++i)
    append_row(out, actions.row(i), act);
  return out;
}

std::string Server::route_attack_train(const HttpRequest& req, int& status) {
  // Every parameter is checked before enqueue, so bad input is a 400, never
  // a job that fails later.
  core::AttackPlan plan;
  plan.env_name = req.param("env");
  plan.scenario = req.param("scenario");
  if (plan.scenario.empty() && plan.env_name.empty()) {
    status = 400;
    return json_error("missing env parameter");
  }
  if (!plan.env_name.empty()) {
    const auto env = env::resolve_name(plan.env_name);
    if (!env) {
      status = 400;
      return json_error("unknown env: " + plan.env_name);
    }
    plan.env_name = *env;
  }
  if (!plan.scenario.empty()) {
    // The runner canonicalizes again on its side.
    if (!scenario::try_canonical(plan.scenario)) {
      status = 400;
      return json_error("malformed scenario: " + plan.scenario);
    }
    if (plan.env_name.empty())
      plan.env_name = scenario::parse(plan.scenario).env;
  }
  plan.defense = req.param("defense", "PPO");
  const auto defenses = defense::all_defenses();
  if (std::none_of(defenses.begin(), defenses.end(), [&](auto kind) {
        return defense::to_string(kind) == plan.defense;
      })) {
    status = 400;
    return json_error("unknown defense: " + plan.defense);
  }
  const std::string attack = req.param("attack", "IMAP-PC");
  if (!attack_from_string(attack, plan.attack)) {
    status = 400;
    return json_error("unknown attack: " + attack);
  }
  const auto steps = req.param_ll("steps", 0);
  const auto episodes = req.param_ll("episodes", 0);
  if (!steps || !episodes || *steps < 0 || *episodes < 0 ||
      *episodes > std::numeric_limits<int>::max()) {
    status = 400;
    return json_error("steps or episodes malformed or out of range");
  }
  plan.attack_steps = *steps;
  plan.eval_episodes = static_cast<int>(*episodes);
  const std::uint64_t id = jobs_.enqueue(plan);
  status = 202;
  return "{\"id\":" + std::to_string(id) + "}";
}

std::string Server::route_attack_status(const HttpRequest& req, int& status) {
  const auto id = req.param_ll("id", -1);
  if (!id || *id < 0) {
    status = 400;
    return json_error("missing id parameter");
  }
  std::string body = jobs_.status_json(static_cast<std::uint64_t>(*id));
  if (body.empty()) {
    status = 404;
    return json_error("no such job");
  }
  return body;
}

}  // namespace imap::serve
